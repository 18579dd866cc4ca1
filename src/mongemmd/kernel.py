"""Symmetric strictly positive-definite kernels and their spatial gradients.

Two families are provided, both bounded in (0, 1]:

* Gaussian:  K(x, y) = exp(-alpha * |x - y|^2)
* Matern at half-integer orders 1/2, 3/2, 5/2 with lengthscale ell,
  using the closed forms (r = |x - y|):

    1/2:  exp(-r/ell)
    3/2:  (1 + sqrt(3) r/ell) exp(-sqrt(3) r/ell)
    5/2:  (1 + sqrt(5) r/ell + 5 r^2/(3 ell^2)) exp(-sqrt(5) r/ell)

For every family the spatial gradient factors as
``dK/dx (x, y) = coeff(r) * (x - y)``; ``kernel_sum_and_grad_rowsum`` uses
that factorization to batch kernel sums and gradient sums uniformly across
families, sharing one exponential between them.

All arithmetic is float64. Squared distances come from one routine,
``_sqdist``, which sums one coordinate at a time; the Gram matrix, the
batched routines, the scalar ``kernel_eval`` and the Sinkhorn cost matrix
all use it, so their entries agree bit for bit at every dimension. Gram
computation walks row blocks in a fixed order, so results do not depend on
how callers parallelize over rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InputError
from .util import as_points, setting

# Row blocks hold about 2**24 (row, column, coordinate) entries; the block
# edges set the order in which the fused total and the MMD pair sums add up.
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
    alpha: float = setting(1.0, "gaussian bandwidth exponent")
    matern_order: MaternOrder = setting(MaternOrder.THREE_HALVES, "matern smoothness")
    lengthscale: float = setting(1.0, "matern lengthscale")

    def __post_init__(self):
        object.__setattr__(self, "family", KernelFamily(self.family))
        object.__setattr__(self, "matern_order", MaternOrder(self.matern_order))
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise InputError(f"kernel alpha must be a positive finite real, got {self.alpha}")
        if not (math.isfinite(self.lengthscale) and self.lengthscale > 0):
            raise InputError(
                f"kernel lengthscale must be a positive finite real, got {self.lengthscale}"
            )


def _eval_from_sqdist(spec: KernelSpec, sq: np.ndarray) -> np.ndarray:
    """Kernel values from squared distances (element-wise)."""
    if spec.family is KernelFamily.GAUSSIAN:
        return np.exp(-spec.alpha * sq)
    r = np.sqrt(sq)
    ell = spec.lengthscale
    if spec.matern_order is MaternOrder.HALF:
        return np.exp(-r / ell)
    if spec.matern_order is MaternOrder.THREE_HALVES:
        z = (math.sqrt(3.0) / ell) * r
        return (1.0 + z) * np.exp(-z)
    z = (math.sqrt(5.0) / ell) * r
    return (1.0 + z + z * z / 3.0) * np.exp(-z)


def _eval_and_coeff_from_sqdist(spec: KernelSpec, sq: np.ndarray):
    """Kernel values and coefficients c(r) with dK/dx = c(r) * (x - y), element-wise.

    The values equal ``_eval_from_sqdist`` term for term; the two share one
    exponential, which dominates the cost. Matern order 1/2 diverges at
    r = 0; the caller is responsible for coincident points there.
    """
    ell = spec.lengthscale
    if spec.family is KernelFamily.GAUSSIAN:
        k = np.exp(-spec.alpha * sq)
        return k, -2.0 * spec.alpha * k
    r = np.sqrt(sq)
    if spec.matern_order is MaternOrder.HALF:
        k = np.exp(-r / ell)
        with np.errstate(divide="ignore"):
            return k, -k / (ell * r)
    if spec.matern_order is MaternOrder.THREE_HALVES:
        z = (math.sqrt(3.0) / ell) * r
        e = np.exp(-z)
        return (1.0 + z) * e, -(3.0 / ell**2) * e
    z = (math.sqrt(5.0) / ell) * r
    e = np.exp(-z)
    return (1.0 + z + z * z / 3.0) * e, -(5.0 / (3.0 * ell**2)) * (1.0 + z) * e


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
    return float(_eval_from_sqdist(spec, _sqdist(x[None], y[None])[0, 0]))


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
    _, coeff = _eval_and_coeff_from_sqdist(spec, sq)
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
    X = as_points(X, "X")
    Y = as_points(Y, "Y")
    if X.shape[1] != Y.shape[1]:
        raise InputError(f"point dimensions differ: {X.shape[1]} vs {Y.shape[1]}")
    out = np.empty((X.shape[0], Y.shape[0]), dtype=np.float64)
    for i0, i1 in _row_blocks(X.shape[0], Y.shape[0], X.shape[1]):
        out[i0:i1] = _eval_from_sqdist(spec, _sqdist(X[i0:i1], Y))
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
    together nearly halves the kernel work. The sum is bit-equal to the MMD
    pair sum; to ``kernel_gram(...).sum()`` only within one row block.

    Walks row blocks in a fixed order, so each row's reduction order is
    independent of how callers parallelize over rows.
    """
    X = as_points(X, "X")
    Y = as_points(Y, "Y")
    if X.shape[1] != Y.shape[1]:
        raise InputError(f"point dimensions differ: {X.shape[1]} vs {Y.shape[1]}")
    if skip_equal_index and X.shape[0] != Y.shape[0]:
        raise InputError("skip_equal_index requires equally sized sets")
    return _sum_and_grad_rowsum(spec, X, Y, skip_equal_index)


def _sum_and_grad_rowsum(spec: KernelSpec, X: np.ndarray, Y: np.ndarray, skip_equal_index: bool):
    """``kernel_sum_and_grad_rowsum`` on validated point sets (Matern 1/2 still raises)."""
    half = spec.family is KernelFamily.MATERN and spec.matern_order is MaternOrder.HALF
    out = np.empty_like(X)
    total = 0.0
    for i0, i1 in _row_blocks(X.shape[0], Y.shape[0], X.shape[1]):
        block = X[i0:i1]
        sq = _sqdist(block, Y)
        diag = (np.arange(i1 - i0), np.arange(i0, i1))
        zero = sq == 0.0
        if skip_equal_index:
            zero[diag] = False
        if half and zero.any():
            raise InputError("Matern order 1/2 has no gradient at coincident points")
        k, coeff = _eval_and_coeff_from_sqdist(spec, sq)
        # At zero distance the pair's gradient contribution vanishes (smooth
        # families) or the pair is excluded; either way the coefficient must
        # not pollute the row sums.
        coeff[zero] = 0.0
        if skip_equal_index:
            coeff[diag] = 0.0
        total += float(k.sum())
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
