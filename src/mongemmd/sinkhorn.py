"""Entropic-regularization transport baseline.

``sinkhorn_solve`` scales the Gibbs kernel exp(-cost/epsilon) to the given
marginals by absorption-stabilised scaling (Schmitzer, arXiv:1610.06519,
section 3; Peyre & Cuturi, arXiv:1803.00567, section 4.4). The plan is
diag(u) K diag(v), where K = exp((f + g - cost)/epsilon) is built in one
n-by-n buffer, the only one a solve holds besides the cost (a self-transposed
instance's symmetrized plan aside), and an iteration is two mat-vecs:
u = a / (K v), v = b / (u^T K). The row sums u * (K v) reuse
the next u-update's mat-vec, and the stop test reads their violation
(columns hold after each v-update). When u or v leaves [1/_TAU, _TAU],
epsilon*log of each is folded into the potentials f, g and K is rebuilt in
place. Where a denominator is 0 or not finite at a positive marginal (a
kernel row or column underflowed), that half-step runs in the log domain
with ``_logsumexp`` (the real-input arithmetic of SciPy 1.17's
``logsumexp``). The loop starts where the log-domain iteration does, g = 0,
with f the row minimum of the cost so that no kernel row underflows.

_TAU = 1e100 is set by float64's fixed range, not by the problem: folding
only keeps the scalings and the kernel representable. K <= 1 (to rounding), as
it starts at the row minima and each fold or log-domain half-step leaves a
plan whose rows or columns sum to at most 1. So with u, v in [1/_TAU, _TAU],
u * (K v) <= n * _TAU**2 = n * 1e200, far from overflow, and the mass that
kernel entries below the normal range can carry is at most
m * n * _TAU**2 * 2**-1022, below tol * 2**-52 for m * n <= 2**40 at any
tol above 1e-70. A solve at the default epsilon, whose first scalings lie
near 1/n and grow to ~1e5, builds its kernel once and never folds.

Before iterating, the problem is oriented canonically: if the transposed
instance (cost.T, marginals swapped) sorts lower by shape, then the cost's
bytes, then the marginals' bytes, that instance is solved and its plan
returned as a transposed (Fortran-ordered) view. The order is decided at the
first entry where the cost and its transpose differ bit for bit, found one
row block at a time. The transposed instance is solved on the view cost.T,
no copy: K is C-ordered in both orientations, and the row minima, the
kernel builds and the log-domain half-steps read the view, the builds and
half-steps one tile of _TILE_COLS columns at a time so that the strided
reads stay in cache. Either orientation executes the same arithmetic on the same plan
buffer, down to the reported violation, which makes transposition an exact
symmetry of the output; a self-transposed instance (symmetric cost, equal
marginals) is symmetrized for the same reason.

Every pass over the n-by-n matrices but the log-domain reductions (the cost
check and row minima, the kernel builds and log-domain fills, both mat-vecs,
the final scaling and the violation's sums) runs in contiguous spans of rows
or columns, one per lane: min(free CPUs, entries // _LANE_ELEMS) lanes, at
least one, so a small problem, or one solved beside a threaded BLAS's
workers, runs in the calling thread alone. Span 0 runs in the calling thread
and the others on a thread pool that lives for one solve, each in a copy of
the caller's context, so ``np.errstate`` holds in every lane. Spans start at
multiples of _LANE_ALIGN rows or columns, where the vectorised numpy and
BLAS kernels meet every entry at the offset of their unrolled loops that one
span gives it; so, while each BLAS call runs on one thread, every output
entry has the same bits whatever the lane count. The kernel builds, the
log-domain half-steps' fills of K and the final scaling walk each span in
bands of _LANE_ALIGN rows, so that a band's several passes run in cache. The
half-steps' reductions and the vector-sized updates stay serial.
"""

from __future__ import annotations

import contextvars
import os
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError
from .kernel import _sqdist
from .util import _typed, as_point_pair, as_points

DEFAULT_MAX_ITERS = 10000
DEFAULT_TOL = 1e-9
# Scalings u, v are folded into the potentials once they leave [1/_TAU, _TAU]:
# a bound from float64's range, not the problem's (see the module docstring).
_TAU = 1e100
# Entries of the cost that _orientation compares with its transpose at a time.
_ORIENT_BLOCK_ELEMS = 1 << 16
# Entries of the cost per lane of a solve: one lane below twice this many.
_LANE_ELEMS = 1 << 20
# Lane spans start at multiples of this many rows, columns or entries.
_LANE_ALIGN = 64
# Columns of a transposed cost that the kernel build reads per tile.
_TILE_COLS = 256


@dataclass
class Coupling:
    """A discrete transport plan with its marginals and solve diagnostics."""

    matrix: np.ndarray
    a: np.ndarray
    b: np.ndarray
    n_iters: int
    max_violation: float
    converged: bool


def _cpus() -> int:
    """The CPUs this process may run on, less one per other thread it has.

    A threaded BLAS keeps its idle workers spinning for a while after each
    call, so a lane finds no free core beside them: with OpenBLAS's default
    two threads on two cores, two lanes made an n=2000 solve 1.08-1.25x
    slower than one. So does a lane beside any busy thread of the caller.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    try:
        return cpus - (len(os.listdir("/proc/self/task")) - 1)
    except OSError:
        return cpus


class _Lanes:
    """The lanes of one solve: min(_cpus(), entries // _LANE_ELEMS) of them, at least one.

    As a context manager it owns a pool of count - 1 threads, joined on exit;
    one lane needs no pool and starts no thread.
    """

    def __init__(self, entries: int):
        self.count = max(1, min(_cpus(), entries // _LANE_ELEMS))
        self._pool = None

    def __enter__(self) -> _Lanes:
        if self.count > 1:
            # Imported here: the package import stays without it.
            from concurrent.futures import ThreadPoolExecutor
            self._pool = ThreadPoolExecutor(self.count - 1)
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown()

    def run(self, fn, n: int) -> list:
        """Call fn(i0, i1) on at most ``count`` spans that tile [0, n), each
        start a multiple of _LANE_ALIGN; return the results in span order. On
        a raise, spans still running finish before the pool's ``with`` exits.

        A last span shorter than _LANE_ALIGN joins the one before it: numpy
        forms a one-entry mat-vec as a dot product, whose bits differ.
        """
        step = -(-n // self.count)
        spans = _spans(0, n, -(-step // _LANE_ALIGN) * _LANE_ALIGN)
        rest = [self._pool.submit(contextvars.copy_context().run, fn, *span)
                for span in spans[1:]]
        return [fn(*spans[0])] + [future.result() for future in rest]


def _spans(i0: int, i1: int, step: int) -> list:
    """Spans that tile [i0, i1), each starting at i0 plus a multiple of ``step``; a last
    span shorter than _LANE_ALIGN joins the one before it."""
    starts = list(range(i0, i1, step))
    if len(starts) > 1 and i1 - starts[-1] < _LANE_ALIGN:
        starts.pop()
    return list(zip(starts, starts[1:] + [i1]))


_ONE_LANE = _Lanes(0)


def _as_cost(cost_matrix) -> np.ndarray:
    C = np.asarray(cost_matrix, dtype=np.float64)
    if C.ndim != 2 or C.size == 0:
        raise InputError(f"cost matrix must be 2-d and nonempty, got shape {C.shape}")
    return C


def _check_problem(C, a, b, epsilon: float, lanes: _Lanes):
    """Check the contiguous cost C, the marginals (uniform when None) and epsilon."""
    # min is NaN when any entry is, so two reductions cover NaN and both infinities.
    flat = C.reshape(-1)
    ends = lanes.run(lambda i0, i1: (flat[i0:i1].min(), flat[i0:i1].max()), flat.size)
    if not np.all(np.isfinite(ends)):
        raise InputError("cost matrix has non-finite entries")
    m, n = C.shape
    if a is None:
        a = np.full(m, 1.0 / m)
    if b is None:
        b = np.full(n, 1.0 / n)
    a = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    b = np.ascontiguousarray(np.asarray(b, dtype=np.float64))
    if a.shape != (m,) or b.shape != (n,):
        raise InputError(f"marginals must have shapes ({m},) and ({n},)")
    for name, w in (("a", a), ("b", b)):
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise InputError(f"marginal {name} must be nonnegative and finite")
        if abs(w.sum() - 1.0) > 1e-9:
            raise InputError(f"marginal {name} must sum to 1, got {w.sum():.12g}")
    if not (np.isfinite(epsilon) and epsilon > 0.0):
        raise InputError(f"epsilon must be positive, got {epsilon}")
    return C, a, b


def _violation(P: np.ndarray, a: np.ndarray, b: np.ndarray, lanes: _Lanes = _ONE_LANE) -> float:
    rows = lanes.run(lambda i0, i1: P[i0:i1].sum(axis=1), P.shape[0])
    cols = lanes.run(lambda j0, j1: P[:, j0:j1].sum(axis=0), P.shape[1])
    return float(max(np.abs(np.concatenate(rows) - a).max(),
                     np.abs(np.concatenate(cols) - b).max()))


def _logsumexp(A: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(A), axis)) with the arithmetic of ``scipy.special.logsumexp``.

    Overwrites ``A``. A slice whose maximum is not finite gives that maximum,
    as SciPy does: -inf for an empty sum, +inf for an overflowing one.
    """
    a_max = A.max(axis=axis, keepdims=True)
    tie = A == a_max
    m = np.expand_dims(np.count_nonzero(tie, axis=axis), axis).astype(np.float64)
    with np.errstate(invalid="ignore"):
        A -= a_max
    np.exp(A, out=A)
    np.copyto(A, 0.0, where=tie)
    s = A.sum(axis=axis, keepdims=True)
    s = np.where(s == 0, s, s / m)
    out = np.log1p(s) + np.log(m) + a_max
    return np.where(np.isfinite(a_max), out, a_max).squeeze(axis)


def _orientation(C: np.ndarray, a: np.ndarray, b: np.ndarray) -> int:
    """Compare (C.T, b, a) with (C, a, b) as tuples of shape and ``tobytes()``: -1, 0 or 1.

    Reads only the first entry where C and C.T differ bit for bit, comparing
    one block of rows with the matching block of columns at a time, so it
    makes neither a transposed copy nor a byte string of C.
    """
    m, n = C.shape
    if m != n:
        return -1 if n < m else 1
    bits = C.view(np.uint64)
    rows = max(1, _ORIENT_BLOCK_ELEMS // n)
    here, flipped = a.tobytes(), b.tobytes()
    for i0 in range(0, n, rows):
        differ = bits[i0:i0 + rows] != bits[:, i0:i0 + rows].T
        k = int(differ.argmax())
        if differ.flat[k]:
            i, j = divmod(k, n)
            here, flipped = C[i0 + i, j].tobytes(), C[j, i0 + i].tobytes()
            break
    return (flipped > here) - (flipped < here)


def sinkhorn_solve(
    cost_matrix,
    a=None,
    b=None,
    *,
    epsilon: float,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
) -> Coupling:
    """Scale exp(-cost/epsilon) to marginals (a, b); uniform when omitted.

    Runs absorption-stabilised scaling iterations (a u-update, then a
    v-update), at least one and at most ``max_iters``, until the row
    marginal violation is below ``tol``; columns hold after each v-update.
    ``max_violation`` is measured on the returned plan, rows and columns;
    ``converged`` says whether it is below ``tol``. Raises NumericError when
    the iterated violation is not finite. Settings are typed as in the config.
    """
    max_iters = _typed(int, max_iters, "max_iters")
    tol, epsilon = _typed(float, tol, "tol"), _typed(float, epsilon, "epsilon")
    if max_iters < 1:
        raise InputError(f"max_iters must be >= 1, got {max_iters}")
    if not (np.isfinite(tol) and tol > 0.0):
        raise InputError(f"tol must be positive, got {tol}")
    C = np.ascontiguousarray(_as_cost(cost_matrix))
    with _Lanes(C.size) as lanes:
        C, a, b = _check_problem(C, a, b, epsilon, lanes)
        sign = _orientation(C, a, b)
        if sign < 0:
            P, n_iters = _solve(C.T, b, a, epsilon, max_iters, tol, lanes)
            P = P.T
        else:
            P, n_iters = _solve(C, a, b, epsilon, max_iters, tol, lanes)
        if sign == 0:
            # Self-transposed problem: make the result exactly symmetric too.
            # Row and column sums average, so feasibility is preserved.
            P = (P + P.T) / 2.0
        viol = _violation(P, a, b, lanes)
    return Coupling(matrix=P, a=a, b=b, n_iters=n_iters, max_violation=viol,
                    converged=viol < tol)


def _bands(fn, m: int, lanes) -> None:
    """Call fn(i0, i1) on bands of _LANE_ALIGN rows of [0, m) within each lane's span,
    a short tail joined as ``_spans`` joins it, so that a band's passes run in cache."""
    lanes.run(lambda r0, r1: [fn(i0, i1) for i0, i1 in _spans(r0, r1, _LANE_ALIGN)], m)


def _fill(K, C, f, g, epsilon, lanes, exp: bool = False) -> None:
    """Write (f_i + g_j - C_ij) / epsilon into K, and its exp with ``exp``; a
    potential given as None is left out of the sum, not added as zero.

    K is written one band of rows at a time. C may be a transposed view; its
    columns are then read _TILE_COLS at a time, so each band reads it in tiles
    whose cache lines stay in cache while the band's rows pass over them.
    """
    n = K.shape[1]
    # A cost with contiguous rows is read a whole band at a time: numpy runs an
    # in-place op on a non-contiguous tile ~1.6x slower per entry.
    cols = n if C.strides[1] == C.itemsize else _TILE_COLS

    def build(i0, i1):
        # f_i + g_j as a row fill and a contiguous add: the outer add's bits, faster.
        band = K[i0:i1]
        if f is None:
            band[...] = g
        else:
            band[...] = f[i0:i1, None]
            if g is not None:
                band += g
        for j0 in range(0, n, cols):
            tile = band[:, j0:j0 + cols]
            tile -= C[i0:i1, j0:j0 + cols]
        band /= epsilon
        if exp:
            np.exp(band, out=band)
    _bands(build, K.shape[0], lanes)


def _gibbs(K, C, f, g, epsilon, lanes) -> tuple[np.ndarray, np.ndarray]:
    """Write the stabilised kernel exp((f + g - C) / epsilon) into K; return the
    unit scalings u, v that go with it."""
    _fill(K, C, f, g, epsilon, lanes, exp=True)
    return np.ones_like(f), np.ones_like(g)


def _matvec(K, v, lanes) -> np.ndarray:
    """K @ v, one span of output rows per lane."""
    out = np.empty(K.shape[0])
    lanes.run(lambda i0, i1: np.matmul(K[i0:i1], v, out=out[i0:i1]), K.shape[0])
    return out


def _vecmat(u, K, lanes) -> np.ndarray:
    """u @ K, one span of output columns per lane."""
    out = np.empty(K.shape[1])
    lanes.run(lambda j0, j1: np.matmul(u, K[:, j0:j1], out=out[j0:j1]), K.shape[1])
    return out


def _log_potential(K, C, other, log_w, epsilon, axis, lanes) -> np.ndarray:
    """The log-domain half-step epsilon * (log_w - logsumexp((other - C) / epsilon)),
    reduced along ``axis``: ``other`` is g, one entry per column, for axis 1 and f,
    one per row, for axis 0. K is scratch, filled as the kernel builds fill it."""
    _fill(K, C, None if axis == 1 else other, other if axis == 1 else None, epsilon, lanes)
    return epsilon * (log_w - _logsumexp(K, axis))


def _scaling(w, denom):
    """w / denom, with 0 where w is 0; None when a positive entry of w gets no
    finite, positive scaling (its denominator is 0 or not finite)."""
    positive = w > 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = np.divide(w, denom, out=np.zeros_like(w), where=positive)
    return s if s.max() < np.inf and np.array_equal(s > 0.0, positive) else None


def _solve(C, a, b, epsilon, max_iters, tol, lanes) -> tuple[np.ndarray, int]:
    """Scale in the given orientation; returns the plan and the iteration count.

    A zero marginal entry has scaling 0, and -inf potential once folded, so
    its row or column of the plan is exactly 0; the range test skips it.
    """
    with np.errstate(divide="ignore"):
        log_a, log_b = np.log(a), np.log(b)
    lo_a, lo_b = np.where(a > 0.0, 1.0 / _TAU, 0.0), np.where(b > 0.0, 1.0 / _TAU, 0.0)
    f, g = np.empty(a.shape[0]), np.zeros(b.shape[0])
    lanes.run(lambda i0, i1: C[i0:i1].min(axis=1, out=f[i0:i1]), f.size)
    K = np.empty(C.shape)
    u, v = _gibbs(K, C, f, g, epsilon, lanes)
    Kv = _matvec(K, v, lanes)
    for it in range(1, max_iters + 1):
        u = _scaling(a, Kv)
        if u is None:
            # A kernel row underflowed: fold v into g and take this half-step
            # in the log domain.
            with np.errstate(divide="ignore"):
                g += epsilon * np.log(v)
            f = _log_potential(K, C, g, log_a, epsilon, 1, lanes)
            u, v = _gibbs(K, C, f, g, epsilon, lanes)
        v = _scaling(b, _vecmat(u, K, lanes))
        if v is None:
            with np.errstate(divide="ignore"):
                f += epsilon * np.log(u)
            g = _log_potential(K, C, f, log_b, epsilon, 0, lanes)
            u, v = _gibbs(K, C, f, g, epsilon, lanes)
        Kv = _matvec(K, v, lanes)
        viol = float(np.abs(u * Kv - a).max())
        if not np.isfinite(viol):
            raise NumericError(
                f"scaling iteration broke down at epsilon={epsilon}; increase epsilon"
            )
        if viol < tol:
            break
        if np.any(u < lo_a) or np.any(v < lo_b) or max(u.max(), v.max()) > _TAU:
            with np.errstate(divide="ignore"):
                f += epsilon * np.log(u)
                g += epsilon * np.log(v)
            u, v = _gibbs(K, C, f, g, epsilon, lanes)
            Kv = _matvec(K, v, lanes)

    def scale(i0, i1):
        band = K[i0:i1]
        band *= u[i0:i1, None]
        band *= v
    _bands(scale, K.shape[0], lanes)
    return K, it


def default_epsilon(cost_matrix) -> float:
    """0.1 times the median cost; the regularization scale used throughout.

    The median is selected, not sorted: one partitioned copy of the cost, at
    index k = size // 2. The upper middle is entry k and, for an even size,
    the lower middle is the maximum below it; their mean is formed as
    ``np.median`` forms it, so the value has its bits. NaN sorts last, so
    the maximum from k on is NaN exactly when the cost holds one.
    """
    C = _as_cost(cost_matrix)
    k = C.size // 2
    part = np.partition(C, k, axis=None)
    median = float(part[k])
    if C.size % 2 == 0:
        median = (float(part[:k].max()) + median) / 2
    if np.isnan(part[k:].max()):
        median = np.nan
    eps = 0.1 * median
    if not (np.isfinite(eps) and eps > 0.0):
        raise InputError(
            f"median-based epsilon {eps} is not positive; pass epsilon explicitly"
        )
    return eps


@np.errstate(over="ignore")
def squared_distance_matrix(X, Y) -> np.ndarray:
    """Pairwise squared Euclidean costs between two point sets; inf where they overflow.

    Filled one cache-sized row block at a time, as ``kernel_gram`` is, so the
    distance temporaries stay small; the entries have the same bits.
    """
    X, Y = as_point_pair(X, Y)
    return _sqdist(X, Y)


def barycentric_map(coupling: Coupling, Y) -> np.ndarray:
    """Image of source point i is the coupling-weighted mean of the targets."""
    Y = as_points(Y, "Y")
    P = coupling.matrix
    if P.shape[1] != Y.shape[0]:
        raise InputError(f"coupling has {P.shape[1]} columns but Y has {Y.shape[0]} rows")
    row_mass = P.sum(axis=1)
    if np.any(row_mass <= 0.0) or not np.all(np.isfinite(row_mass)):
        raise NumericError("coupling has rows without mass; cannot form barycentric images")
    # A transposed-orientation plan is a Fortran-ordered view: multiply in its order.
    PY = (Y.T @ P.T).T if P.flags.f_contiguous else P @ Y
    return PY / row_mass[:, None]
