"""Adam optimizer over MLP parameters.

Stateless-style API: ``adam_step`` returns a new (state, params) pair and
never mutates its arguments, so training can be checkpointed and resumed
bit-exactly by serializing the state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError
from .nn import MlpParams, ParamGrads
from .util import setting


@dataclass(frozen=True)
class AdamHyper:
    learning_rate: float = setting(1e-4, "adam step size")
    beta1: float = setting(0.9, "adam first-moment decay")
    beta2: float = setting(0.999, "adam second-moment decay")
    eps: float = setting(1e-8, "adam stabilizer", key="adam_eps")

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise InputError(f"learning_rate must be positive, got {self.learning_rate}")
        for name in ("beta1", "beta2"):
            v = getattr(self, name)
            if not (np.isfinite(v) and 0.0 <= v < 1.0):
                raise InputError(f"{name} must lie in [0, 1), got {v}")
        if not (np.isfinite(self.eps) and self.eps > 0.0):
            raise InputError(f"eps must be positive, got {self.eps}")


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


def _check_congruent(params: MlpParams, grads: ParamGrads, state: AdamState) -> None:
    for name, other in (("grads", grads), ("state", state.first_moment)):
        if len(other.weights) != len(params.weights):
            raise InputError(f"{name} do not match the parameter layout")
        for p, g in zip(list(params.weights) + list(params.biases),
                        list(other.weights) + list(other.biases)):
            if p.shape != g.shape:
                raise InputError(f"{name} shape {g.shape} does not match parameters {p.shape}")


def adam_step(state: AdamState, params: MlpParams, grads: ParamGrads) -> tuple[AdamState, MlpParams]:
    """One Adam update with bias correction.

    Raises NumericError on non-finite gradients; in that case nothing is
    consumed and the caller still holds the previous state and parameters.
    """
    _check_congruent(params, grads, state)
    for g in grads.arrays():
        if not np.all(np.isfinite(g)):
            raise NumericError("non-finite gradient; optimizer state left unchanged")
    h = state.hyper
    t = state.step_count + 1
    bc1 = 1.0 - h.beta1 ** t
    bc2 = 1.0 - h.beta2 ** t
    new_m, new_v, new_p = [], [], []
    pairs = list(zip(params.weights, grads.weights,
                     state.first_moment.weights, state.second_moment.weights))
    pairs += list(zip(params.biases, grads.biases,
                      state.first_moment.biases, state.second_moment.biases))
    for p, g, m, v in pairs:
        m2 = h.beta1 * m + (1.0 - h.beta1) * g
        v2 = h.beta2 * v + (1.0 - h.beta2) * (g * g)
        step = h.learning_rate * (m2 / bc1) / (np.sqrt(v2 / bc2) + h.eps)
        new_m.append(m2)
        new_v.append(v2)
        new_p.append(p - step)
    k = len(params.weights)
    next_state = AdamState(
        hyper=h,
        first_moment=ParamGrads(new_m[:k], new_m[k:]),
        second_moment=ParamGrads(new_v[:k], new_v[k:]),
        step_count=t,
    )
    next_params = MlpParams(new_p[:k], new_p[k:], list(params.activations))
    return next_state, next_params
