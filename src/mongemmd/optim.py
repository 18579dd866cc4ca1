"""Adam optimizer over MLP parameters.

Stateless-style API: ``adam_step`` returns a new (state, params) pair and
never mutates its arguments, so training can be checkpointed and resumed
bit-exactly by serializing the state.

Adam is element-wise, so the gradient and both moments are plain float64 vectors
shaped like the parameters' ``flat``: an update is a few whole-vector operations,
bit-equal to a loop over the layers that ``MlpParams.split`` gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError
from .nn import MlpParams
from .util import check_settings, setting


@dataclass(frozen=True)
class AdamHyper:
    learning_rate: float = setting(1e-4, "adam step size", above=0)
    beta1: float = setting(0.9, "adam first-moment decay", at_least=0, below=1)
    beta2: float = setting(0.999, "adam second-moment decay", at_least=0, below=1)
    eps: float = setting(1e-8, "adam stabilizer", key="adam_eps", above=0)

    __post_init__ = check_settings


@dataclass
class AdamState:
    """Moment estimates plus the update counter; each moment is shaped like ``params.flat``."""

    hyper: AdamHyper
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0


def adam_init(params: MlpParams, hyper: AdamHyper | None = None) -> AdamState:
    if hyper is None:
        hyper = AdamHyper()
    return AdamState(
        hyper=hyper,
        first_moment=np.zeros_like(params.flat),
        second_moment=np.zeros_like(params.flat),
        step_count=0,
    )


def adam_step(state: AdamState, params: MlpParams, grads: np.ndarray) -> tuple[AdamState, MlpParams]:
    """One Adam update with bias correction, over the whole flat parameter vector.

    Raises InputError unless the gradient and both moments are shaped like
    ``params.flat``, and NumericError on a non-finite gradient or an update
    that overflows a parameter; in either numeric case nothing is consumed
    and the caller still holds the previous state and parameters.
    """
    g = np.asarray(grads, dtype=np.float64)
    if not (g.shape == np.shape(state.first_moment) == np.shape(state.second_moment)
            == params.flat.shape):
        raise InputError(f"gradient and optimizer moments must be vectors of "
                         f"{params.flat.size} parameters")
    if not np.isfinite(g).all():
        raise NumericError("non-finite gradient; optimizer state left unchanged")
    h = state.hyper
    t = state.step_count + 1
    bc1 = 1.0 - h.beta1 ** t
    bc2 = 1.0 - h.beta2 ** t
    m = h.beta1 * state.first_moment + (1.0 - h.beta1) * g
    v = h.beta2 * state.second_moment + (1.0 - h.beta2) * (g * g)
    p = params.flat - h.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + h.eps)
    if not np.isfinite(p).all():
        raise NumericError("update overflowed the parameters; optimizer state left unchanged")
    return AdamState(h, m, v, t), params._with_flat(p)
