"""Penalized transport objective: mean cost plus a kernel moment-matching term.

For a batch X (source), Y (target) of equal size M and the current map T,
the training objective is

    inv_lambda * (1/M) sum_i c(X_i, T(X_i))
    + (1/(M(M-1))) sum_{i != j} K(T(X_i), T(X_j))
    - (2/M^2) sum_{i,j} K(T(X_i), Y_j)

i.e. the transport cost weighted by the reciprocal penalty coefficient plus
the T-dependent part of the unbiased squared-MMD statistic. The reported
``mmd2`` adds back the Y-only term so it equals ``mmd2_unbiased`` between
the batch images and Y. ``inv_lambda = 0`` is the pure matching limit.

Gradients flow through the map outputs only: the objective's derivative with
respect to each image T(X_i) combines the cost derivative with the
point-wise statistic gradient, then backpropagates through the network.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericError
from .kernel import KernelSpec, _kernel_sum
from .nn import MlpParams, ParamGrads, _backward, _forward_checked
from .util import as_point_pair


def cost_values(X: np.ndarray, T: np.ndarray) -> np.ndarray:
    """c(X_i, T_i) per row; squared Euclidean distance."""
    return ((X - T) ** 2).sum(axis=1)


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


def _evaluate(
    params: MlpParams,
    X: np.ndarray,
    Y: np.ndarray,
    kernel: KernelSpec,
    inv_lambda: float,
    want_grad: bool,
) -> tuple[LossValues, ParamGrads | None]:
    """Loss values (and gradients if ``want_grad``) of a batch that passed ``_check_batch``."""
    m = X.shape[0]
    # One forward pass serves the loss and, through its layer outputs, the backward pass.
    outs = _forward_checked(params, X)
    T = outs[-1]
    mean_cost = float(cost_values(X, T).mean())
    try:
        sxx_full, gxx = _kernel_sum(kernel, T, T, want_grad=want_grad, skip_equal_index=True)
        sxy, gxy = _kernel_sum(kernel, T, Y, want_grad=want_grad)
    except InputError as exc:
        # Shapes were checked above, so the kernel can only refuse coincident
        # images (Matern 1/2); the map made them, so it is a numeric failure.
        raise NumericError(str(exc)) from exc
    # The diagonal of K(T, T) is exactly m ones; removing it leaves the
    # off-diagonal U-statistic sum.
    xx = (sxx_full - m) / (m * (m - 1))
    cross = -2.0 * sxy / (m * m)
    yy = (_kernel_sum(kernel, Y, Y)[0] - m) / (m * (m - 1))
    objective = inv_lambda * mean_cost + xx + cross
    values = LossValues(float(objective), float(xx + cross + yy), mean_cost)
    if not all(math.isfinite(v) for v in values):
        raise NumericError(f"non-finite loss values: {values}")
    if not want_grad:
        return values, None
    upstream = (inv_lambda / m) * cost_grad_images(X, T)
    upstream = upstream + (2.0 / (m * (m - 1))) * gxx - (2.0 / (m * m)) * gxy
    grads = _backward(params, outs, upstream)
    if not np.isfinite(grads.flat).all():
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
    return _evaluate(params, X, Y, kernel, inv_lambda, want_grad=False)[0]


def monge_mmd_loss_with_grad(
    params: MlpParams,
    X,
    Y,
    kernel: KernelSpec,
    inv_lambda: float,
) -> tuple[LossValues, ParamGrads]:
    """Loss values together with exact parameter gradients of the objective."""
    X, Y = _check_batch(params, X, Y, inv_lambda)
    return _evaluate(params, X, Y, kernel, inv_lambda, want_grad=True)


def monge_mmd_loss_grad(
    params: MlpParams,
    X,
    Y,
    kernel: KernelSpec,
    inv_lambda: float,
) -> ParamGrads:
    """Parameter gradients of the objective for one batch."""
    _, grads = monge_mmd_loss_with_grad(params, X, Y, kernel, inv_lambda)
    return grads
