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
``_sqdist_blocks``, which forms every coordinate's differences X_ij - Y_kj as
one matrix product of the factors [X[:, j], 1] and [1; -Y[:, j]], squares
them in place and sums one coordinate at a time; the Gram matrix, the
batched routines, the scalar ``kernel_eval`` and the Sinkhorn cost matrix
all use it, so their entries agree bit for bit at every dimension. Each
product entry is x * 1 + 1 * (-y), two exact products whose sum is rounded
once in any order, with or without FMA, so it is fl(x - y), the broadcast
subtraction's bits; a zero may come out as -0.0, which squaring erases. Points
more than ~1.3e154 apart overflow their squared distance to inf, whose kernel
value 0 is the right limit. The public entries silence that overflow with
``np.errstate``; the training step's walk below does not, since entering it
costs microseconds, a noticeable share of a small-batch step.

Every kernel sum (the MMD estimators' and the training loss's) is one walk,
``_kernel_sum``: it adds the Gram matrix one row block at a time in a fixed
order, with one block in memory, and takes the row-wise gradient sums from
the same block when asked. A sum therefore has the same bits with or without
its gradient, and does not depend on how callers parallelize over rows. When
both arguments are one set (``Y is X``) the walk is triangular: a row block
visits only the columns from its own first row on, adds its diagonal
sub-block once and the rest twice, and mirrors the rest into the gradient
rows below it, so each pair is computed once. A block holds at most
``_BLOCK_ELEMS`` (row, column) entries, so its float64 temporaries fit in L2
and stay below glibc's 128 KiB mmap threshold: they are reused from the heap
instead of being mapped and faulted in afresh on every block. A walk builds
the difference factors once and forms every block's differences and squared
distances in one workspace of at most d * max(_BLOCK_ELEMS, N) floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InputError
from .util import as_point_pair, check_settings, setting

# Row blocks hold at most this many (row, column) entries. One float64 block
# (125 KiB) fits in L2 and stays under glibc's default 128 KiB mmap threshold,
# so a block's temporaries come from the heap, not from fresh page faults.
# The block edges set the order in which every kernel sum adds up.
_BLOCK_ELEMS = 16000
# A Matern argument z beyond which exp(-z) is exactly 0 in float64 (it is from
# ~745.2 on): capping z there changes no value and keeps an infinite z out of inf * 0.
_Z_MAX = 1000.0


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
    three = spec.matern_order is MaternOrder.THREE_HALVES
    z = np.minimum((math.sqrt(3.0 if three else 5.0) / ell) * r, _Z_MAX)
    e = np.exp(-z)
    if three:
        return (1.0 + z) * e, -(3.0 / ell**2) * e if want_coeff else None
    k = (1.0 + z + z * z / 3.0) * e
    return k, -(5.0 / (3.0 * ell**2)) * (1.0 + z) * e if want_coeff else None


def _as_vector_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise InputError(f"expected 1-d points, got shapes {x.shape} and {y.shape}")
    X, Y = as_point_pair(x[None], y[None], ("x", "y"))
    return X[0], Y[0]


def _sqdist_blocks(X: np.ndarray, Y: np.ndarray, triangular: bool = False):
    """``(i0, i1, sq)`` for each row block of ``_row_blocks``: the squared distances of
    rows X[i0:i1] to the columns Y[i0:] (triangular) or Y.

    The per-coordinate factors L[j] = [X[:, j], 1] (M x 2) and R[j] = [1; -Y[:, j]]
    (2 x N) are built once; one ``np.matmul`` of their slices gives a block's
    differences for every coordinate, which are squared in place and added
    one coordinate at a time, in index order. Every block is formed in one
    workspace, large enough for any block (a later triangular block can
    outgrow the first), so ``sq`` is overwritten by the next block.
    """
    d, m, n = X.shape[1], X.shape[0], Y.shape[0]
    L = np.empty((d, m, 2))
    L[:, :, 0] = X.T
    L[:, :, 1] = 1.0
    R = np.empty((d, 2, n))
    R[:, 0] = 1.0
    np.negative(Y.T, out=R[:, 1])
    ws = np.empty(d * min(m * n, max(_BLOCK_ELEMS, n)))
    for i0, i1 in _row_blocks(m, n, triangular):
        c0 = i0 if triangular else 0
        D = ws[:d * (i1 - i0) * (n - c0)].reshape(d, i1 - i0, n - c0)
        np.matmul(L[:, i0:i1], R[:, :, c0:], out=D)
        np.square(D, out=D)
        sq = D[0]
        for j in range(1, d):
            sq += D[j]
        yield i0, i1, sq


def _sqdist(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Squared distances between every row of X and every row of Y.

    Each difference is the product entry x * 1 + 1 * (-y), two exact products
    whose sum is rounded once in any order, with or without FMA, so it has the
    bits of x - y and coincident points give exactly 0. Coordinates are summed
    in index order, which for d <= 5 has the bits of numpy's reduction of the
    squared differences over d.
    """
    out = np.empty((X.shape[0], Y.shape[0]))
    for i0, i1, sq in _sqdist_blocks(X, Y):
        out[i0:i1] = sq
    return out


@np.errstate(over="ignore")
def kernel_eval(spec: KernelSpec, x, y) -> float:
    """Evaluate K(x, y) for two points of equal dimension.

    Symmetric in its arguments and bounded in (0, 1]; K(x, x) == 1 exactly.
    """
    x, y = _as_vector_pair(x, y)
    # The Gram's own distance routine, so Gram entries and scalar evaluations
    # agree bit for bit.
    return float(_eval_from_sqdist(spec, _sqdist(x[None], y[None])[0, 0])[0])


@np.errstate(over="ignore")
def kernel_grad_x(spec: KernelSpec, x, y) -> np.ndarray:
    """Gradient of K(x, y) with respect to x.

    For the Gaussian this is -2*alpha*(x - y)*K(x, y). Matern order 1/2 is
    not differentiable at x == y and raises there.
    """
    x, y = _as_vector_pair(x, y)
    sq = _sqdist(x[None], y[None])[0, 0]
    if sq == 0.0 and spec.family is KernelFamily.MATERN and spec.matern_order is MaternOrder.HALF:
        raise InputError("Matern order 1/2 has no gradient at coincident points")
    if sq == 0.0 or sq == np.inf:  # the limit at inf, where x - y may overflow too
        return np.zeros_like(x)
    _, coeff = _eval_from_sqdist(spec, sq, want_coeff=True)
    return float(coeff) * (x - y)


def _row_blocks(n_rows: int, n_cols: int, triangular: bool = False):
    """Row ranges [i0, i1) of at most _BLOCK_ELEMS entries each; a triangular
    block spans only the columns from i0 on, so its rows grow as they narrow."""
    i0 = 0
    while i0 < n_rows:
        width = n_cols - i0 if triangular else n_cols
        i1 = min(n_rows, i0 + max(1, _BLOCK_ELEMS // max(1, width)))
        yield i0, i1
        i0 = i1


@np.errstate(over="ignore")
def kernel_gram(spec: KernelSpec, X, Y) -> np.ndarray:
    """Gram matrix with entry (i, j) = kernel_eval(spec, X[i], Y[j]).

    Gram(X, X) is symmetric positive semidefinite (strictly positive
    definite for distinct points).
    """
    X, Y = as_point_pair(X, Y)
    out = np.empty((X.shape[0], Y.shape[0]), dtype=np.float64)
    for i0, i1, sq in _sqdist_blocks(X, Y):
        out[i0:i1] = _eval_from_sqdist(spec, sq)[0]
    return out


def _kernel_sum(spec: KernelSpec, X: np.ndarray, Y: np.ndarray, *,
                want_grad: bool = False) -> tuple[float, np.ndarray | None]:
    """``(sum_{ij} K(X_i, Y_j), G or None)`` over validated point sets: the one summing walk.

    With ``want_grad``, ``G[i] = sum_j dK/dx(X_i, Y_j)``; otherwise ``G`` is
    None, and the total has the same bits either way. The total always runs
    over every pair (a U-statistic caller subtracts the exact diagonal
    itself). When ``Y is X`` the walk is triangular: block [i0, i1) computes
    the columns j >= i0 only, the total adds its diagonal sub-block once and
    the columns j >= i1 twice, and their coefficients feed both rows i0..i1
    and, mirrored, rows i1.. of ``G``; the j == i pairs are then dropped from
    ``G``, as a U-statistic's gradient needs. A set that fits in one block
    runs the rectangular arithmetic exactly. Coincident pairs contribute a
    zero gradient for the smooth families; Matern order 1/2 raises InputError
    on any included coincident pair, where its gradient is undefined. The
    total equals ``kernel_gram(...).sum()`` only within one row block.
    """
    half = spec.family is KernelFamily.MATERN and spec.matern_order is MaternOrder.HALF
    same = Y is X
    out = np.zeros_like(X) if want_grad else None
    total = 0.0
    n = Y.shape[0]
    for i0, i1, sq in _sqdist_blocks(X, Y, same):
        rows = X[i0:i1]
        cols = X[i0:] if same else Y
        w = i1 - i0  # with same, columns [0, w) of the block are its diagonal sub-block
        mirror = same and i1 < n  # the pairs (i, j >= i1) stand for (j, i) too
        k, coeff = _eval_from_sqdist(spec, sq, want_grad)
        total += float(k.sum())
        if mirror:
            total += float(k[:, w:].sum())
        if not want_grad:
            continue
        zero = sq == 0.0
        if same:
            diag = (np.arange(w), np.arange(w))
            zero[diag] = False
        if half and zero.any():
            raise InputError("Matern order 1/2 has no gradient at coincident points")
        # At zero distance the pair's gradient contribution vanishes (smooth
        # families) or the pair is excluded; either way the coefficient must
        # not pollute the row sums.
        coeff[zero] = 0.0
        if same:
            coeff[diag] = 0.0
        g = coeff.sum(axis=1)[:, None] * rows - coeff @ cols
        if same and i0:
            g += out[i0:i1]  # the pairs mirrored down from the blocks above
        out[i0:i1] = g
        if mirror:
            rest = coeff[:, w:]
            out[i1:] += rest.sum(axis=0)[:, None] * X[i1:] - rest.T @ rows
    return total, out
