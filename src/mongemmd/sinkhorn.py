"""Entropic-regularization transport baseline.

``sinkhorn_solve`` scales the Gibbs kernel exp(-cost/epsilon) to the given
marginals with one solver: the dual potentials iterate in the log domain,
which does not underflow at small epsilon (Peyre & Cuturi, arXiv:1803.00567,
section 4.4). Rows and columns reduce with ``_logsumexp``, numpy code with
the real-input arithmetic of SciPy 1.17's ``logsumexp`` (shift by the
maximum, set the entries tied with it apart), so its results are SciPy's
bit for bit. After each g-update the column marginals hold up to rounding
and the row sums are exp(f/epsilon + lse_r), where lse_r is the row
log-sum-exp the next f-update needs anyway; the stop test reads that row
violation, so the plan is built once, after the loop.

Before iterating, the problem is oriented canonically: if the transposed
instance (cost.T, marginals swapped) sorts lower by shape, then the cost's
bytes, then the marginals' bytes, that instance is solved and the result
transposed back. The order is decided at the first entry where the cost and
its transpose differ bit for bit, so no copy is made unless the transposed
instance is solved. Either orientation executes the same arithmetic, which
makes transposition an exact symmetry of the output; a self-transposed
instance (symmetric cost, equal marginals) is symmetrized for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError
from .kernel import _sqdist
from .util import as_points

DEFAULT_MAX_ITERS = 10000
DEFAULT_TOL = 1e-9


@dataclass
class Coupling:
    """A discrete transport plan with its marginals and solve diagnostics."""

    matrix: np.ndarray
    a: np.ndarray
    b: np.ndarray
    n_iters: int
    max_violation: float
    converged: bool

    def transpose(self) -> "Coupling":
        return Coupling(
            matrix=np.ascontiguousarray(self.matrix.T),
            a=self.b,
            b=self.a,
            n_iters=self.n_iters,
            max_violation=self.max_violation,
            converged=self.converged,
        )


def _check_problem(cost_matrix, a, b, epsilon: float):
    C = np.ascontiguousarray(np.asarray(cost_matrix, dtype=np.float64))
    if C.ndim != 2 or C.size == 0:
        raise InputError(f"cost matrix must be 2-d and nonempty, got shape {C.shape}")
    if not np.all(np.isfinite(C)):
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


def _violation(P: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    return float(max(np.abs(P.sum(axis=1) - a).max(), np.abs(P.sum(axis=0) - b).max()))


def _logsumexp(A: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(A), axis)) with the arithmetic of ``scipy.special.logsumexp``.

    A slice whose maximum is not finite gives that maximum, as SciPy does:
    -inf for an empty sum, +inf for an overflowing one.
    """
    a_max = A.max(axis=axis, keepdims=True)
    tie = A == a_max
    m = np.expand_dims(np.count_nonzero(tie, axis=axis), axis).astype(np.float64)
    with np.errstate(invalid="ignore"):
        e = A - a_max
    np.exp(e, out=e)
    np.copyto(e, 0.0, where=tie)
    s = e.sum(axis=axis, keepdims=True)
    s = np.where(s == 0, s, s / m)
    out = np.log1p(s) + np.log(m) + a_max
    return np.where(np.isfinite(a_max), out, a_max).squeeze(axis)


def _orientation(C: np.ndarray, a: np.ndarray, b: np.ndarray) -> int:
    """Compare (C.T, b, a) with (C, a, b) as tuples of shape and ``tobytes()``: -1, 0 or 1.

    Reads only the first entry where C and C.T differ bit for bit, so it
    makes neither a transposed copy nor a byte string of C.
    """
    m, n = C.shape
    if m != n:
        return -1 if n < m else 1
    bits = C.view(np.uint64)
    differ = bits != bits.T
    k = int(differ.argmax())
    if differ.flat[k]:
        i, j = divmod(k, n)
        here, flipped = C[i, j].tobytes(), C[j, i].tobytes()
    else:
        here, flipped = a.tobytes(), b.tobytes()
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

    Runs log-domain double updates, at least one and at most ``max_iters``,
    until the row marginal violation is below ``tol`` (columns hold after
    each g-update). ``max_violation`` is measured on the returned plan, rows
    and columns; ``converged`` says whether the iterated plan met ``tol``.
    """
    if max_iters < 1:
        raise InputError(f"max_iters must be >= 1, got {max_iters}")
    if not (np.isfinite(tol) and tol > 0.0):
        raise InputError(f"tol must be positive, got {tol}")
    C, a, b = _check_problem(cost_matrix, a, b, epsilon)
    sign = _orientation(C, a, b)
    if sign < 0:
        return _solve_log(np.ascontiguousarray(C.T), b, a, epsilon, max_iters, tol).transpose()
    coupling = _solve_log(C, a, b, epsilon, max_iters, tol)
    if sign == 0:
        # Self-transposed problem: make the result exactly symmetric too.
        # Row and column sums average, so feasibility is preserved.
        coupling.matrix = (coupling.matrix + coupling.matrix.T) / 2.0
        coupling.max_violation = _violation(coupling.matrix, a, b)
    return coupling


def _solve_log(C, a, b, epsilon, max_iters, tol) -> Coupling:
    with np.errstate(divide="ignore"):
        log_a = np.log(a)
        log_b = np.log(b)
    g = np.zeros(b.shape[0])
    lse_r = _logsumexp((g[None, :] - C) / epsilon, axis=1)
    for it in range(1, max_iters + 1):
        f = epsilon * (log_a - lse_r)
        g = epsilon * (log_b - _logsumexp((f[:, None] - C) / epsilon, axis=0))
        lse_r = _logsumexp((g[None, :] - C) / epsilon, axis=1)
        viol = float(np.abs(np.exp(f / epsilon + lse_r) - a).max())
        if not np.isfinite(viol):
            raise NumericError(
                f"log-domain iteration broke down at epsilon={epsilon}; increase epsilon"
            )
        if viol < tol:
            break
    P = np.exp((f[:, None] + g[None, :] - C) / epsilon)
    viol = _violation(P, a, b)
    return Coupling(matrix=P, a=a, b=b, n_iters=it, max_violation=viol, converged=viol < tol)


def default_epsilon(cost_matrix) -> float:
    """0.1 times the median cost; the regularization scale used throughout."""
    C = np.asarray(cost_matrix, dtype=np.float64)
    eps = 0.1 * float(np.median(C))
    if not (np.isfinite(eps) and eps > 0.0):
        raise InputError(
            f"median-based epsilon {eps} is not positive; pass epsilon explicitly"
        )
    return eps


def squared_distance_matrix(X, Y) -> np.ndarray:
    """Pairwise squared Euclidean costs between two point sets."""
    X = as_points(X, "X")
    Y = as_points(Y, "Y")
    if X.shape[1] != Y.shape[1]:
        raise InputError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
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
    return (P @ Y) / row_mass[:, None]
