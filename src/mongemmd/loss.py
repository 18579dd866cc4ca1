"""Penalized transport objective: mean cost plus a kernel moment-matching term.

For a batch X (source), Y (target) of equal size M and the current map T,
the training objective is

    inv_lambda * (1/M) sum_i c(X_i, T(X_i))
    + (1/(M(M-1))) sum_{i != j} K(T(X_i), T(X_j))
    - (2/M^2) sum_{i,j} K(T(X_i), Y_j)

i.e. the transport cost weighted by the reciprocal penalty coefficient plus
the T-dependent part of the unbiased squared-MMD statistic, which one kernel
walk of the images against images ‖ targets gives with its gradient. The
reported ``mmd2`` adds a target-only term ``yy``, an unbiased estimate of
E K(Y, Y'): the public entries pass the batch's own ``_target_term(kernel,
Y)``, so their ``mmd2`` equals ``mmd2_unbiased`` between the batch images
and Y, and training passes a term computed once per call (see ``train``).
``yy`` enters neither the objective nor the gradient. ``inv_lambda = 0`` is
the pure matching limit.

Gradients flow through the map outputs only: the objective's derivative with
respect to each image T(X_i) combines the cost derivative with the
point-wise statistic gradient, then backpropagates through the network.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericError
from .kernel import KernelSpec, _WalkPlan
from .mmd import _source_terms, _target_term
from .nn import MlpParams, _backward, _forward_checked, _PassPlan
from .util import as_point_pair


def cost_values(X: np.ndarray, T: np.ndarray) -> np.ndarray:
    """c(X_i, T_i) per row; squared Euclidean distance."""
    return np.add.reduce((X - T) ** 2, axis=1)


def cost_grad_images(X: np.ndarray, T: np.ndarray) -> np.ndarray:
    """d c(X_i, t) / d t at t = T_i, one row per point."""
    return 2.0 * (T - X)


class LossValues(NamedTuple):
    objective: float
    mmd2: float
    mean_cost: float


def _check_batch(params: MlpParams, X, Y, inv_lambda: float):
    X, Y = as_point_pair(X, Y)
    if X.shape[0] != Y.shape[0]:
        raise InputError(f"batch sizes must match, got {X.shape[0]} and {Y.shape[0]}")
    if X.shape[0] < 2:
        raise InputError("need at least 2 points per batch for the unbiased statistic")
    if X.shape[1] != params.input_dim:
        raise InputError(f"map expects dimension {params.input_dim}, X and Y have {X.shape[1]}")
    if not (np.isfinite(inv_lambda) and inv_lambda >= 0.0):
        raise InputError(f"inv_lambda must be finite and >= 0, got {inv_lambda}")
    return X, Y


class _StepPlan(NamedTuple):
    """The buffers of loss evaluations on batches of one size, built once and
    overwritten by each: the network's passes and the images' kernel walk."""

    net: _PassPlan
    walk: _WalkPlan


def _step_plan(params: MlpParams, m: int, n: int, want_grad: bool) -> _StepPlan:
    """A plan for batches of m source and n target points through networks shaped like
    ``params``."""
    return _StepPlan(_PassPlan(params.widths, m, want_grad),
                     _WalkPlan(m, n, params.input_dim, want_grad))


def _evaluate(
    params: MlpParams,
    X: np.ndarray,
    Y: np.ndarray,
    kernel: KernelSpec,
    inv_lambda: float,
    want_grad: bool,
    yy: float,
    plan: _StepPlan | None = None,
) -> tuple[LossValues, np.ndarray | None]:
    """Loss values (and gradients if ``want_grad``) of a batch that passed ``_check_batch``;
    the reported ``mmd2`` adds the target term ``yy``. The work runs in ``plan``, a
    ``_step_plan`` for these batch sizes and ``want_grad`` (a one-use plan without one),
    and the gradient returned is its vector, overwritten by the plan's next step."""
    m = X.shape[0]
    if plan is None:
        plan = _step_plan(params, m, Y.shape[0], want_grad)
    # One forward pass serves the loss and, through its layer outputs, the backward pass.
    outs = _forward_checked(params, X, plan.net)
    T = outs[-1]
    mean_cost = float(np.add.reduce(cost_values(X, T)) / m)
    try:
        xx_cross, g = _source_terms(kernel, T, Y, want_grad, plan.walk)
    except InputError as exc:
        # Shapes were checked above, so the kernel can only refuse coincident
        # images (Matern 1/2); the map made them, so it is a numeric failure.
        raise NumericError(str(exc)) from exc
    objective = inv_lambda * mean_cost + xx_cross
    values = LossValues(float(objective), float(xx_cross + yy), mean_cost)
    if not all(math.isfinite(v) for v in values):
        raise NumericError(f"non-finite loss values: {values}")
    if not want_grad:
        return values, None
    grads = _backward(params, outs, (inv_lambda / m) * cost_grad_images(X, T) + g, plan.net)
    if not np.isfinite(grads).all():
        raise NumericError("non-finite loss gradient")
    return values, grads


def monge_mmd_loss(
    params: MlpParams,
    X,
    Y,
    kernel: KernelSpec,
    inv_lambda: float,
) -> LossValues:
    """Objective, full unbiased squared MMD, and mean transport cost for one batch."""
    X, Y = _check_batch(params, X, Y, inv_lambda)
    return _evaluate(params, X, Y, kernel, inv_lambda, False, _target_term(kernel, Y))[0]


def monge_mmd_loss_with_grad(
    params: MlpParams,
    X,
    Y,
    kernel: KernelSpec,
    inv_lambda: float,
) -> tuple[LossValues, np.ndarray]:
    """Loss values together with exact parameter gradients of the objective, as a
    vector shaped like ``params.flat`` (``params.split`` unpacks it per layer)."""
    X, Y = _check_batch(params, X, Y, inv_lambda)
    return _evaluate(params, X, Y, kernel, inv_lambda, True, _target_term(kernel, Y))
