"""Symmetric strictly positive-definite kernels and their spatial gradients.

Two families are provided, both bounded in (0, 1]:

* Gaussian:  K(x, y) = exp(-alpha * |x - y|^2)
* Matern at half-integer orders 1/2, 3/2, 5/2 with lengthscale ell,
  using the closed forms (r = |x - y|):

    1/2:  exp(-r/ell)
    3/2:  (1 + sqrt(3) r/ell) exp(-sqrt(3) r/ell)
    5/2:  (1 + sqrt(5) r/ell + 5 r^2/(3 ell^2)) exp(-sqrt(5) r/ell)

For every family the spatial gradient factors as
``dK/dx (x, y) = coeff(r) * (x - y)``; one formula routine gives the values
and, when asked, the coefficients, sharing one exponential between them.

All arithmetic is float64. Squared distances come from one routine,
``_sqdist``, which sums one coordinate at a time; the Gram matrix, the
batched routines, the scalar ``kernel_eval`` and the Sinkhorn cost matrix
all use it, so their entries agree bit for bit at every dimension.

Every kernel sum (the MMD estimators', the training loss's and
``kernel_sum_and_grad_rowsum``'s) is one walk, ``_kernel_sum``: it adds the
Gram matrix one row block at a time in a fixed order, with one block in
memory, and takes the row-wise gradient sums from the same block when asked.
A sum therefore has the same bits with or without its gradient, and does
not depend on how callers parallelize over rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InputError
from .util import as_point_pair, check_settings, setting

# Row blocks hold about 2**24 (row, column, coordinate) entries; the block
# edges set the order in which every kernel sum adds up.
_BLOCK_ELEMS = 1 << 24


class KernelFamily(str, Enum):
    GAUSSIAN = "gaussian"
    MATERN = "matern"


class MaternOrder(str, Enum):
    HALF = "half"
    THREE_HALVES = "three_halves"
    FIVE_HALVES = "five_halves"


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family together with its hyperparameters.

    ``alpha`` is the Gaussian bandwidth exponent; ``matern_order`` and
    ``lengthscale`` apply to the Matern family only.
    """

    family: KernelFamily = setting(KernelFamily.GAUSSIAN, "kernel family")
    alpha: float = setting(1.0, "gaussian bandwidth exponent", above=0)
    matern_order: MaternOrder = setting(MaternOrder.THREE_HALVES, "matern smoothness")
    lengthscale: float = setting(1.0, "matern lengthscale", above=0)

    __post_init__ = check_settings


def _eval_from_sqdist(spec: KernelSpec, sq: np.ndarray, want_coeff: bool = False):
    """Kernel values from squared distances, element-wise, and with ``want_coeff``
    the coefficients c(r) with dK/dx = c(r) * (x - y) (else None).

    Each family's value is written once and the coefficient reuses its
    exponential, which dominates the cost. Matern order 1/2 diverges at r = 0;
    the caller is responsible for coincident points there.
    """
    ell = spec.lengthscale
    if spec.family is KernelFamily.GAUSSIAN:
        k = np.exp(-spec.alpha * sq)
        return k, -2.0 * spec.alpha * k if want_coeff else None
    r = np.sqrt(sq)
    if spec.matern_order is MaternOrder.HALF:
        k = np.exp(-r / ell)
        with np.errstate(divide="ignore"):
            return k, -k / (ell * r) if want_coeff else None
    if spec.matern_order is MaternOrder.THREE_HALVES:
        z = (math.sqrt(3.0) / ell) * r
        e = np.exp(-z)
        return (1.0 + z) * e, -(3.0 / ell**2) * e if want_coeff else None
    z = (math.sqrt(5.0) / ell) * r
    e = np.exp(-z)
    k = (1.0 + z + z * z / 3.0) * e
    return k, -(5.0 / (3.0 * ell**2)) * (1.0 + z) * e if want_coeff else None


def _as_vector_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise InputError(f"expected 1-d points, got shapes {x.shape} and {y.shape}")
    if x.shape != y.shape:
        raise InputError(f"point dimensions differ: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] < 1:
        raise InputError("points must have dimension >= 1")
    return x, y


def _sqdist(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Squared distances between every row of X and every row of Y.

    Computed from explicit differences (not the dot-product identity) so that
    coincident points give exactly 0. Coordinates are summed one at a time in
    index order: no (M, N, d) temporary is formed, and for d <= 5 the result
    has the same bits as numpy's reduction of the differences over d.
    """
    sq = (X[:, None, 0] - Y[None, :, 0]) ** 2
    for j in range(1, X.shape[1]):
        sq += (X[:, None, j] - Y[None, :, j]) ** 2
    return sq


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """Evaluate K(x, y) for two points of equal dimension.

    Symmetric in its arguments and bounded in (0, 1]; K(x, x) == 1 exactly.
    """
    x, y = _as_vector_pair(x, y)
    # The Gram's own distance routine, so Gram entries and scalar evaluations
    # agree bit for bit.
    return float(_eval_from_sqdist(spec, _sqdist(x[None], y[None])[0, 0])[0])


def kernel_grad_x(spec: KernelSpec, x, y) -> np.ndarray:
    """Gradient of K(x, y) with respect to x.

    For the Gaussian this is -2*alpha*(x - y)*K(x, y). Matern order 1/2 is
    not differentiable at x == y and raises there.
    """
    x, y = _as_vector_pair(x, y)
    sq = _sqdist(x[None], y[None])[0, 0]
    if sq == 0.0:
        if spec.family is KernelFamily.MATERN and spec.matern_order is MaternOrder.HALF:
            raise InputError("Matern order 1/2 has no gradient at coincident points")
        return np.zeros_like(x)
    _, coeff = _eval_from_sqdist(spec, sq, want_coeff=True)
    return float(coeff) * (x - y)


def _row_blocks(n_rows: int, n_cols: int, d: int):
    block = max(1, _BLOCK_ELEMS // max(1, n_cols * d))
    for start in range(0, n_rows, block):
        yield start, min(start + block, n_rows)


def kernel_gram(spec: KernelSpec, X, Y) -> np.ndarray:
    """Gram matrix with entry (i, j) = kernel_eval(spec, X[i], Y[j]).

    Gram(X, X) is symmetric positive semidefinite (strictly positive
    definite for distinct points).
    """
    X, Y = as_point_pair(X, Y)
    out = np.empty((X.shape[0], Y.shape[0]), dtype=np.float64)
    for i0, i1 in _row_blocks(X.shape[0], Y.shape[0], X.shape[1]):
        out[i0:i1] = _eval_from_sqdist(spec, _sqdist(X[i0:i1], Y))[0]
    return out


def kernel_sum_and_grad_rowsum(
    spec: KernelSpec, X, Y, *, skip_equal_index: bool = False
) -> tuple[float, np.ndarray]:
    """Total kernel sum over all pairs together with row-wise gradient sums.

    Returns ``(sum_{ij} K(X_i, Y_j), G)`` with ``G[i] = sum_j dK/dx(X_i, Y_j)``.
    The sum always runs over every pair (a U-statistic caller subtracts the
    exact diagonal itself); ``skip_equal_index`` drops the j == i pairs from
    the gradient sums only (for U-statistic sums where X and Y are the same
    set). Coincident pairs contribute a zero gradient for the smooth
    families; Matern order 1/2 raises on any included coincident pair, where
    its gradient is undefined. One batch step needs both quantities, and
    they share the distance matrix and exponential, so computing them
    together nearly halves the kernel work. The sum equals
    ``kernel_gram(...).sum()`` only within one row block.
    """
    X, Y = as_point_pair(X, Y)
    if skip_equal_index and X.shape[0] != Y.shape[0]:
        raise InputError("skip_equal_index requires equally sized sets")
    return _kernel_sum(spec, X, Y, want_grad=True, skip_equal_index=skip_equal_index)


def _kernel_sum(spec: KernelSpec, X: np.ndarray, Y: np.ndarray, *, want_grad: bool = False,
                skip_equal_index: bool = False) -> tuple[float, np.ndarray | None]:
    """``(sum_{ij} K(X_i, Y_j), G or None)`` over validated point sets: the one summing walk.

    ``G`` is computed only with ``want_grad``, under the rules of
    ``kernel_sum_and_grad_rowsum`` (Matern 1/2 still raises on coincident
    pairs); the total is the same either way.
    """
    half = spec.family is KernelFamily.MATERN and spec.matern_order is MaternOrder.HALF
    out = np.empty_like(X) if want_grad else None
    total = 0.0
    for i0, i1 in _row_blocks(X.shape[0], Y.shape[0], X.shape[1]):
        block = X[i0:i1]
        sq = _sqdist(block, Y)
        k, coeff = _eval_from_sqdist(spec, sq, want_grad)
        total += float(k.sum())
        if not want_grad:
            continue
        diag = (np.arange(i1 - i0), np.arange(i0, i1))
        zero = sq == 0.0
        if skip_equal_index:
            zero[diag] = False
        if half and zero.any():
            raise InputError("Matern order 1/2 has no gradient at coincident points")
        # At zero distance the pair's gradient contribution vanishes (smooth
        # families) or the pair is excluded; either way the coefficient must
        # not pollute the row sums.
        coeff[zero] = 0.0
        if skip_equal_index:
            coeff[diag] = 0.0
        out[i0:i1] = coeff.sum(axis=1)[:, None] * block - coeff @ Y
    return total, out


def kernel_grad_x_rowsum(
    spec: KernelSpec, X, Y, *, skip_equal_index: bool = False
) -> np.ndarray:
    """Row i of the result is sum_j dK/dx (X[i], Y[j]).

    The gradient half of ``kernel_sum_and_grad_rowsum``, which documents
    ``skip_equal_index`` and the coincident-point rules.
    """
    return kernel_sum_and_grad_rowsum(spec, X, Y, skip_equal_index=skip_equal_index)[1]
