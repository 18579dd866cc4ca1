"""Adam optimizer over MLP parameters.

Stateless-style API: ``adam_step`` returns a new (state, params) pair and
never mutates its arguments, so training can be checkpointed and resumed
bit-exactly by serializing the state.

The moments share the parameters' flat layout (see ``nn``): an update is a
few whole-vector operations, bit-equal to a loop over layers (Adam is element-wise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError
from .nn import MlpParams, ParamGrads
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
    """Moment estimates plus the update counter; shapes mirror the parameters."""

    hyper: AdamHyper
    first_moment: ParamGrads
    second_moment: ParamGrads
    step_count: int = 0


def adam_init(params: MlpParams, hyper: AdamHyper | None = None) -> AdamState:
    if hyper is None:
        hyper = AdamHyper()
    return AdamState(
        hyper=hyper,
        first_moment=ParamGrads.zeros_like(params),
        second_moment=ParamGrads.zeros_like(params),
        step_count=0,
    )


def adam_step(state: AdamState, params: MlpParams, grads: ParamGrads) -> tuple[AdamState, MlpParams]:
    """One Adam update with bias correction, over the whole flat parameter vector.

    Raises InputError if the gradient or moment layout differs from the
    parameters', and NumericError on a non-finite gradient or an update that
    overflows a parameter; in either numeric case nothing is consumed and
    the caller still holds the previous state and parameters.
    """
    if not (grads.layout == state.first_moment.layout == state.second_moment.layout
            == params.layout):
        raise InputError("grads and optimizer state must match the parameter layout")
    g = grads.flat
    if not np.isfinite(g).all():
        raise NumericError("non-finite gradient; optimizer state left unchanged")
    h = state.hyper
    t = state.step_count + 1
    bc1 = 1.0 - h.beta1 ** t
    bc2 = 1.0 - h.beta2 ** t
    m = h.beta1 * state.first_moment.flat + (1.0 - h.beta1) * g
    v = h.beta2 * state.second_moment.flat + (1.0 - h.beta2) * (g * g)
    p = params.flat - h.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + h.eps)
    if not np.isfinite(p).all():
        raise NumericError("update overflowed the parameters; optimizer state left unchanged")
    layout = params.layout
    next_state = AdamState(h, ParamGrads._wrap(m, layout), ParamGrads._wrap(v, layout), t)
    return next_state, MlpParams._wrap(p, layout, activations=list(params.activations))
