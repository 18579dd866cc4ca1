"""Adam optimizer over MLP parameters.

Stateless-style API: ``adam_step`` returns a new (state, params) pair and
never mutates its arguments, so training can be checkpointed and resumed
bit-exactly by serializing the state.

Adam is element-wise, so the gradient and both moments are plain float64 vectors
shaped like the parameters' ``flat``: an update is a few whole-vector operations,
bit-equal to a loop over the layers that ``MlpParams.split`` gives. One core,
``_adam_update``, applies them in place to a parameter vector and its moments;
``adam_step`` runs it on fresh copies, and training runs it on the run's own
buffers, so both give the same bits.
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


def _moment_copies(state: AdamState, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Fresh float64 copies of both moments, for ``_adam_update`` to overwrite;
    InputError unless each is a vector of ``size`` entries."""
    if not np.shape(state.first_moment) == np.shape(state.second_moment) == (size,):
        raise InputError(f"optimizer moments must be vectors of {size} parameters")
    return (np.array(state.first_moment, dtype=np.float64),
            np.array(state.second_moment, dtype=np.float64))


def _adam_update(hyper: AdamHyper, t: int, flat: np.ndarray, m: np.ndarray, v: np.ndarray,
                 g: np.ndarray) -> None:
    """Adam's update number ``t`` of ``flat`` and its moments ``m``, ``v`` by the finite
    gradient ``g``, in place; NumericError if it overflows a parameter, after which
    all three hold the failed update."""
    m *= hyper.beta1
    m += (1.0 - hyper.beta1) * g
    v *= hyper.beta2
    v += (1.0 - hyper.beta2) * (g * g)
    flat -= hyper.learning_rate * (m / (1.0 - hyper.beta1 ** t)) / (
        np.sqrt(v / (1.0 - hyper.beta2 ** t)) + hyper.eps)
    if not np.isfinite(flat).all():
        raise NumericError("update overflowed the parameters; optimizer state left unchanged")


def adam_step(state: AdamState, params: MlpParams, grads: np.ndarray) -> tuple[AdamState, MlpParams]:
    """One Adam update with bias correction, over the whole flat parameter vector.

    Raises InputError unless the gradient and both moments are shaped like
    ``params.flat``, and NumericError on a non-finite gradient or an update
    that overflows a parameter; in either numeric case nothing is consumed
    and the caller still holds the previous state and parameters.
    """
    m, v = _moment_copies(state, params.flat.size)
    g = np.asarray(grads, dtype=np.float64)
    if g.shape != params.flat.shape:
        raise InputError(f"gradient must be a vector of {params.flat.size} parameters")
    if not np.isfinite(g).all():
        raise NumericError("non-finite gradient; optimizer state left unchanged")
    t = state.step_count + 1
    flat = params.flat.copy()
    _adam_update(state.hyper, t, flat, m, v, g)
    return AdamState(state.hyper, m, v, t), params._with_flat(flat)
