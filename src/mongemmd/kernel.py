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
``_Blocks``, which forms every coordinate's differences X_ij - Y_kj as
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
``_walk``: it adds the weighted Gram matrix of X against the columns X ‖ Y
one row block at a time in a fixed order, and takes the gradient in X from
the same block when asked, so a sum has the same bits with or without its
gradient. The walk is triangular over X: row block [i0, i1) visits only the
columns X[i0:] ‖ Y, weights its diagonal sub-block once and the later X
columns twice, and mirrors those into the gradient rows below it, so each
X–X pair is computed once. A training step is one walk, images against
images ‖ targets; the unbiased estimator adds one walk of the targets alone.
A block's rows are counted from the wider of its two column parts, so it
holds at most 2 * ``_BLOCK_ELEMS`` entries. Its distances, values and
coefficients live in one workspace of max(d, 3) planes of that size (750 KiB
at d = 2), overwritten by every block. The workspace, the factor buffers, the
block list and the weight columns make up a ``_WalkPlan``, built for sets of
given shapes: a public entry builds a one-use plan per call, and training
builds one per run and walks every step in it. A plane that large lies above
glibc's 128 KiB mmap threshold, so temporaries made per block would be mapped
and faulted in afresh on every block, and so would a workspace made per step
under a fixed threshold (``MALLOC_MMAP_THRESHOLD_=131072``: ~190 minor faults
per batch-500 step); the one workspace per run is mapped once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InputError
from .util import as_point_pair, check_settings, setting

# A Gram or distance row block holds at most this many (row, column) entries,
# one float64 plane of 125 KiB; a walk's block holds at most twice as many, so
# its workspace of three planes (d <= 3) stays within a 1 MiB L2. The block
# edges set the order in which every kernel sum adds up.
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


def _eval_from_sqdist(spec: KernelSpec, sq: np.ndarray, k: np.ndarray,
                      coeff: np.ndarray | None = None) -> None:
    """Write the kernel values of the squared distances ``sq`` into ``k`` and, if
    given, the coefficients c(r) with dK/dx = c(r) * (x - y) into ``coeff``.

    ``sq`` is overwritten, and no step allocates. Each family's value is written
    once, the same with or without ``coeff``, which reuses its exponential, the
    dominant cost. Matern order 1/2 diverges at r = 0; the caller is responsible
    for coincident points there.
    """
    ell = spec.lengthscale
    if spec.family is KernelFamily.GAUSSIAN:
        np.exp(np.multiply(sq, -spec.alpha, out=k), out=k)
        if coeff is not None:
            np.multiply(k, -2.0 * spec.alpha, out=coeff)
        return
    r = np.sqrt(sq, out=sq)
    if spec.matern_order is MaternOrder.HALF:
        np.exp(np.divide(r, -ell, out=k), out=k)
        if coeff is not None:
            with np.errstate(divide="ignore"):
                np.negative(np.divide(k, np.multiply(r, ell, out=coeff), out=coeff), out=coeff)
        return
    three = spec.matern_order is MaternOrder.THREE_HALVES
    z = np.minimum(np.multiply(r, math.sqrt(3.0 if three else 5.0) / ell, out=r), _Z_MAX, out=r)
    if three:
        e = np.exp(np.negative(z, out=k), out=k)
        if coeff is not None:
            np.multiply(e, -(3.0 / ell**2), out=coeff)
        np.multiply(e, np.add(z, 1.0, out=z), out=k)  # (1 + z) e
        return
    if coeff is not None:
        np.multiply(np.add(z, 1.0, out=coeff), -(5.0 / (3.0 * ell**2)), out=coeff)
    # (z^2 / 3 + z + 1) e, with z's own buffer turned into e once the sum is built
    poly = np.add(np.add(np.divide(np.multiply(z, z, out=k), 3.0, out=k), z, out=k), 1.0, out=k)
    e = np.exp(np.negative(z, out=z), out=z)
    np.multiply(poly, e, out=k)
    if coeff is not None:
        np.multiply(coeff, e, out=coeff)


def _as_vector_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise InputError(f"expected 1-d points, got shapes {x.shape} and {y.shape}")
    X, Y = as_point_pair(x[None], y[None], ("x", "y"))
    return X[0], Y[0]


class _Blocks:
    """The row blocks of ``_row_blocks`` for m points X against n columns in dimension d:
    iterating ``blocks(X, *cols)`` yields ``(i0, i1, P)`` per block, where ``P`` is
    ``planes`` arrays of the block's shape, the first holding the squared distances of
    rows X[i0:i1] to the columns cols[0] ‖ cols[1] ‖ ... from i0 on (triangular, where
    X is the first m columns) or from 0, the rest free.

    The per-coordinate factors L[j] = [X[:, j], 1] (m x 2) and R[j] = [1; -Y[:, j]]
    (2 x n) are filled once per call; one ``np.matmul`` of their slices gives a
    block's differences for every coordinate, which are squared in place and added
    into the first plane one coordinate at a time, in index order, which frees the
    others. The factor buffers, the block list and one workspace of max(d,
    ``planes``) planes, large enough for the largest block, are allocated once, when
    the blocks are built, and serve every call on sets of these shapes; ``P`` is
    overwritten by the next block.
    """

    def __init__(self, m: int, n: int, d: int, triangular: bool = False, planes: int = 1):
        self.L = np.empty((d, m, 2))
        self.L[:, :, 1] = 1.0
        self.R = np.empty((d, 2, n))
        self.R[:, 0] = 1.0
        self.spans = [(i0, i1, i0 if triangular else 0)
                      for i0, i1 in _row_blocks(m, n, triangular)]
        self.depth, self.planes = max(d, planes), planes
        self.ws = np.empty(self.depth * max((i1 - i0) * (n - c0) for i0, i1, c0 in self.spans))

    def __call__(self, X: np.ndarray, *cols: np.ndarray):
        L, R, depth = self.L, self.R, self.depth
        L[:, :, 0] = X.T
        c0 = 0
        for Y in cols:
            np.negative(Y.T, out=R[:, 1, c0:c0 + Y.shape[0]])
            c0 += Y.shape[0]
        d, n = X.shape[1], R.shape[2]
        for i0, i1, c0 in self.spans:
            P = self.ws[:depth * (i1 - i0) * (n - c0)].reshape(depth, i1 - i0, n - c0)
            D = P[:d]
            np.matmul(L[:, i0:i1], R[:, :, c0:], out=D)
            np.square(D, out=D)
            for j in range(1, d):
                D[0] += D[j]
            yield i0, i1, P[:self.planes]


def _sqdist_blocks(X: np.ndarray, Y: np.ndarray):
    """One-use ``_Blocks`` of X's rows against the columns Y, iterated."""
    return _Blocks(X.shape[0], Y.shape[0], X.shape[1])(X, Y)


def _sqdist(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Squared distances between every row of X and every row of Y.

    Each difference is the product entry x * 1 + 1 * (-y), two exact products
    whose sum is rounded once in any order, with or without FMA, so it has the
    bits of x - y and coincident points give exactly 0. Coordinates are summed
    in index order, which for d <= 5 has the bits of numpy's reduction of the
    squared differences over d.
    """
    out = np.empty((X.shape[0], Y.shape[0]))
    for i0, i1, (sq,) in _sqdist_blocks(X, Y):
        out[i0:i1] = sq
    return out


@np.errstate(over="ignore")
def kernel_eval(spec: KernelSpec, x, y) -> float:
    """Evaluate K(x, y) for two points of equal dimension.

    Symmetric in its arguments and bounded in (0, 1]; K(x, x) == 1 exactly.
    """
    x, y = _as_vector_pair(x, y)
    # A one-entry Gram, so Gram entries and scalar evaluations agree bit for bit.
    return float(kernel_gram(spec, x[None], y[None])[0, 0])


@np.errstate(over="ignore")
def kernel_grad_x(spec: KernelSpec, x, y) -> np.ndarray:
    """Gradient of K(x, y) with respect to x.

    For the Gaussian this is -2*alpha*(x - y)*K(x, y). Matern order 1/2 is
    not differentiable at x == y and raises there.
    """
    x, y = _as_vector_pair(x, y)
    # The walk's gradient of the one pair: zero at coincidence (and at an
    # infinite distance, where x - y may overflow too), and never x - y itself.
    return _walk(spec, x[None], y[None], 0.0, 1.0, want_grad=True)[1][0]


def _row_blocks(n_rows: int, n_cols: int, triangular: bool = False):
    """Row ranges [i0, i1) of at most _BLOCK_ELEMS entries each. A triangular block
    spans the columns from i0 on, the rows' own [i0, n_rows) and the n_cols - n_rows
    after them; its rows are counted from the wider part, so it holds at most twice
    as many entries, and they grow as the first part narrows."""
    i0 = 0
    while i0 < n_rows:
        width = max(n_rows - i0, n_cols - n_rows) if triangular else n_cols
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
    for i0, i1, (sq,) in _sqdist_blocks(X, Y):
        _eval_from_sqdist(spec, sq, out[i0:i1])
    return out


class _WalkPlan:
    """The set-up of ``_walk`` over m points X and n_y points Y in dimension d: the
    triangular ``_Blocks`` of X against X ‖ Y with 3 planes (2 without the gradient),
    the total's column weights ``wt`` and, with ``want_grad``, the matrix
    A = [w, w * cols] and its accumulator H. Built once, it serves every walk of
    those shapes, whatever the points and weights; each walk overwrites it."""

    def __init__(self, m: int, n_y: int, d: int, want_grad: bool = False):
        n = m + n_y
        self.blocks = _Blocks(m, n, d, True, 3 if want_grad else 2)
        self.wt = np.empty(n)
        self.A = np.empty((n, d + 1)) if want_grad else None
        self.H = np.empty((m, d + 1)) if want_grad else None


def _walk(spec: KernelSpec, X: np.ndarray, Y: np.ndarray | None = None,
          wx: float = 1.0, wy: float = 1.0, want_grad: bool = False,
          plan: _WalkPlan | None = None) -> tuple[float, np.ndarray | None]:
    """``(S, G or None)`` over validated point sets, the one summing walk:
    S = wx * sum_{i,j} K(X_i, X_j) + wy * sum_{i,j} K(X_i, Y_j) (no Y: the first term)
    and, with ``want_grad``, G = dS/dX without the j == i pairs. S has the same bits
    with or without G and runs over every pair; K(x, x) == 1, so a U-statistic
    caller subtracts the diagonal's wx * len(X) itself. ``plan`` is a ``_WalkPlan``
    of these shapes, and ``want_grad`` if it is asked; without one the walk builds
    its own.

    Block [i0, i1) weights its diagonal sub-block wx, the later X columns 2 wx
    (they stand for (j, i) too) and the Y columns wy, in the right-hand operands:
    S adds ``k @ w`` and G takes ``coeff @ [w, w * cols]``, one product per block
    and one more for the later X columns' mirrored share. Coincident pairs add a
    zero gradient for the smooth families; Matern order 1/2 raises InputError on
    one, as its gradient is undefined there.
    """
    m = X.shape[0]
    cols = (X,) if Y is None else (X, Y)
    if plan is None:
        plan = _WalkPlan(m, 0 if Y is None else Y.shape[0], X.shape[1], want_grad)
    # The gradient's column weights; the total's entry i drops to wx once the
    # block holding row i is reached.
    wt, A, H = plan.wt, plan.A, plan.H
    wt[:m] = 2.0 * wx
    wt[m:] = wy
    if want_grad:
        A[:, 0] = wt
        np.multiply(X, 2.0 * wx, out=A[:m, 1:])
        if Y is not None:
            np.multiply(Y, wy, out=A[m:, 1:])
        H.fill(0.0)  # row i: sum_j c_ij [w_j, w_j C_j], mirrored pairs too
    total = 0.0
    for i0, i1, P in plan.blocks(X, *cols):
        sq, k, coeff = P[0], P[1], P[2] if want_grad else None
        r, c = sq.shape
        diag = slice(None, None, c + 1)  # the flat positions of the pairs j == i
        sq.reshape(-1)[diag] = np.inf  # no coefficient there; K(x, x) == 1 is set below
        zero = None
        if want_grad and sq.min() == 0.0:  # coincident points are rare: a mask only then
            if spec.family is KernelFamily.MATERN and spec.matern_order is MaternOrder.HALF:
                raise InputError("Matern order 1/2 has no gradient at coincident points")
            zero = sq == 0.0
        _eval_from_sqdist(spec, sq, k, coeff)
        k.reshape(-1)[diag] = 1.0
        wt[i0:i1] = wx
        total += float(np.add.reduce(k @ wt[i0:]))
        if not want_grad:
            continue
        if zero is not None:
            # The pair's gradient vanishes; a zero coefficient keeps it out of the sums exactly.
            coeff[zero] = 0.0
        H[i0:i1] += coeff @ A[i0:]
        if i1 < m:  # rows i0..i1 against the later X columns, as those rows' columns
            H[i1:] += coeff[:, r:m - i0].T @ A[i0:i1]
    if not want_grad:
        return total, None
    return total, H[:, :1] * X - H[:, 1:]
