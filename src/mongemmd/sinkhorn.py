"""Entropic-regularization transport baseline.

``sinkhorn_solve`` scales the Gibbs kernel exp(-cost/epsilon) to the given
marginals. The default path iterates the dual potentials in the log domain
(stable at small epsilon); the plain-domain path is faster per iteration and
falls back to the log domain if the Gibbs kernel underflows.

The solver orients the problem canonically before iterating: if the
transposed instance (cost.T with marginals swapped) sorts lower under a
deterministic byte-order key, that instance is solved and the result is
transposed back. Solving either orientation therefore executes the exact
same arithmetic, which makes transposition an exact symmetry of the output
rather than an approximate one. A self-transposed instance (symmetric cost,
equal marginals) is symmetrized explicitly for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import InputError, NumericError
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


def _solve_log(C, a, b, epsilon, max_iters, tol):
    with np.errstate(divide="ignore"):
        log_a = np.log(a)
        log_b = np.log(b)
    f = np.zeros(a.shape[0])
    g = np.zeros(b.shape[0])
    P = np.exp((f[:, None] + g[None, :] - C) / epsilon)
    viol = _violation(P, a, b)
    it = 0
    while viol >= tol and it < max_iters:
        f = epsilon * (log_a - logsumexp((g[None, :] - C) / epsilon, axis=1))
        g = epsilon * (log_b - logsumexp((f[:, None] - C) / epsilon, axis=0))
        P = np.exp((f[:, None] + g[None, :] - C) / epsilon)
        viol = _violation(P, a, b)
        it += 1
        if not np.isfinite(viol):
            raise NumericError(
                f"log-domain iteration broke down at epsilon={epsilon}; increase epsilon"
            )
    return P, it, viol


def _solve_plain(C, a, b, epsilon, max_iters, tol):
    """Kernel-scaling iteration; returns None on numeric breakdown."""
    K = np.exp(-C / epsilon)
    u = np.ones(a.shape[0])
    v = np.ones(b.shape[0])
    P = (u[:, None] * K) * v[None, :]
    viol = _violation(P, a, b)
    it = 0
    while viol >= tol and it < max_iters:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            u = a / (K @ v)
            v = b / (K.T @ u)
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            return None
        P = (u[:, None] * K) * v[None, :]
        viol = _violation(P, a, b)
        it += 1
        if not np.isfinite(viol):
            return None
    return P, it, viol


def _orientation_key(C: np.ndarray, a: np.ndarray, b: np.ndarray):
    return (C.shape, C.tobytes(), a.tobytes(), b.tobytes())


def sinkhorn_solve(
    cost_matrix,
    a=None,
    b=None,
    *,
    epsilon: float,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
    method: str = "log",
) -> Coupling:
    """Scale exp(-cost/epsilon) to marginals (a, b); uniform when omitted.

    Stops once the worst row/column marginal violation drops below ``tol``
    or after ``max_iters`` double updates; ``converged`` records which.
    ``method`` is ``log`` (default, underflow-proof) or ``plain`` (faster,
    silently falls back to ``log`` when the kernel underflows).
    """
    if method not in ("log", "plain"):
        raise InputError(f"method must be 'log' or 'plain', got {method!r}")
    if max_iters < 1:
        raise InputError(f"max_iters must be >= 1, got {max_iters}")
    if not (np.isfinite(tol) and tol > 0.0):
        raise InputError(f"tol must be positive, got {tol}")
    C, a, b = _check_problem(cost_matrix, a, b, epsilon)
    Ct = np.ascontiguousarray(C.T)
    key = _orientation_key(C, a, b)
    key_t = _orientation_key(Ct, b, a)
    if key_t < key:
        return _solve_oriented(Ct, b, a, epsilon, max_iters, tol, method).transpose()
    coupling = _solve_oriented(C, a, b, epsilon, max_iters, tol, method)
    if key_t == key:
        # Self-transposed problem: make the result exactly symmetric too.
        # Row and column sums average, so feasibility is preserved.
        coupling.matrix = (coupling.matrix + coupling.matrix.T) / 2.0
        coupling.max_violation = _violation(coupling.matrix, a, b)
    return coupling


def _solve_oriented(C, a, b, epsilon, max_iters, tol, method) -> Coupling:
    result = None
    if method == "plain":
        result = _solve_plain(C, a, b, epsilon, max_iters, tol)
    if result is None:
        result = _solve_log(C, a, b, epsilon, max_iters, tol)
    P, it, viol = result
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
    return ((X[:, None, :] - Y[None, :, :]) ** 2).sum(axis=2)


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
