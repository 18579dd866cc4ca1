"""Squared maximum mean discrepancy between empirical measures.

The U-statistic (unbiased) estimator excludes i == j pairs:

    mmd2 = sum_{i!=j} K(X_i, X_j) / (M(M-1))
         - 2 sum_{i,j} K(X_i, Y_j) / (M N)
         + sum_{i!=j} K(Y_i, Y_j) / (N(N-1))

and may be negative; it is never clamped, since unbiasedness is the point.
The V-statistic (biased) companion keeps all pairs with divisors M^2, N^2, and
is nonnegative; only byte-identical sets give exactly 0. A permuted copy (the
same multiset) sums in another order and may leave a positive residue ~1e-17.

Each estimator makes two kernel walks (``kernel._walk``), X against X ‖ Y and
then Y alone, each computing a pair of one set once in a cache-sized workspace,
whatever the set sizes. The loss takes the same two terms, with the first one's
gradient, so its reported statistic equals ``mmd2_unbiased`` bit for bit;
training walks every step's first term in one walk plan. Sets too far apart for
a finite squared distance get kernel value 0 without an overflow warning.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .kernel import KernelFamily, KernelSpec, _walk, _WalkPlan
from .util import as_point_pair


def _check_pair(X, Y, min_size: int) -> tuple[np.ndarray, np.ndarray]:
    X, Y = as_point_pair(X, Y)
    if X.shape[0] < min_size or Y.shape[0] < min_size:
        raise InputError(
            f"need at least {min_size} points per set, got {X.shape[0]} and {Y.shape[0]}"
        )
    return X, Y


def _target_term(spec: KernelSpec, Y: np.ndarray) -> float:
    """The U-statistic mean of K(Y_i, Y_j) over i != j for a validated set of >= 2 points."""
    n = Y.shape[0]
    # The diagonal of K(Y, Y) is exactly n ones.
    return (_walk(spec, Y)[0] - n) / (n * (n - 1))


def _source_terms(spec: KernelSpec, X: np.ndarray, Y: np.ndarray, want_grad: bool = False,
                  plan: _WalkPlan | None = None) -> tuple[float, np.ndarray | None]:
    """The X-dependent part of the unbiased statistic, sum_{i!=j} K(X_i, X_j) / (M(M-1))
    - 2 sum_{i,j} K(X_i, Y_j) / (MN), and with ``want_grad`` its gradient in X: one walk,
    in ``plan`` if given."""
    m, n = X.shape[0], Y.shape[0]
    wx = 1.0 / (m * (m - 1))
    total, grad = _walk(spec, X, Y, wx, -2.0 / (m * n), want_grad, plan)
    # K(x, x) == 1 exactly for every supported family, so the diagonal adds m * wx.
    return total - m * wx, grad


@np.errstate(over="ignore")
def mmd2_unbiased(spec: KernelSpec, X, Y) -> float:
    """Unbiased estimate of the squared MMD between the two empirical measures.

    Sizes may differ; with equal sizes M = N this is the classical U-statistic.
    """
    X, Y = _check_pair(X, Y, min_size=2)
    return _source_terms(spec, X, Y)[0] + _target_term(spec, Y)


@np.errstate(over="ignore")
def mmd2_biased(spec: KernelSpec, X, Y) -> float:
    """Biased (V-statistic) squared MMD; nonnegative, zero for byte-identical sets.

    Symmetry is bit-exact: arguments are put in a canonical order first, so
    both call orders execute the identical reduction. Only byte-identical sets
    give exactly 0: a permuted copy of X, the same multiset, sums in another
    order and may leave a positive residue of rounding size (~1e-17).
    """
    X, Y = _check_pair(X, Y, min_size=1)
    if X.tobytes() == Y.tobytes():
        return 0.0
    if X.tobytes() > Y.tobytes():
        X, Y = Y, X
    m, n = X.shape[0], Y.shape[0]
    val = (_walk(spec, X, Y, 1.0 / (m * m), -2.0 / (m * n))[0]
           + _walk(spec, Y, None, 1.0 / (n * n))[0])
    # Mathematically >= 0; rounding may leave a tiny negative residue.
    return max(0.0, val)


@np.errstate(over="ignore")
def mmd2_population_gaussian(spec: KernelSpec, m0, s0: float, m1, s1: float) -> float:
    """Closed-form population squared MMD between isotropic Gaussians.

    For the Gaussian kernel K(x, y) = exp(-alpha |x-y|^2) and measures
    N(m0, s0^2 I), N(m1, s1^2 I), each expectation E K(U, V) reduces to
    E exp(-alpha |Z|^2) with Z Gaussian, for which

        E exp(-alpha |Z|^2) = (1 + 2 alpha s^2)^(-d/2)
                              * exp(-alpha |mu|^2 / (1 + 2 alpha s^2)),
        Z ~ N(mu, s^2 I_d).

    Intended as a test oracle for the estimators above.
    """
    if spec.family is not KernelFamily.GAUSSIAN:
        raise InputError("the closed-form population MMD requires the Gaussian kernel")
    m0 = np.atleast_1d(np.asarray(m0, dtype=np.float64))
    m1 = np.atleast_1d(np.asarray(m1, dtype=np.float64))
    if m0.ndim != 1 or m0.shape != m1.shape:
        raise InputError(f"mean shapes differ: {m0.shape} vs {m1.shape}")
    if not (np.isfinite(m0).all() and np.isfinite(m1).all()):
        raise InputError(f"means must be finite, got {m0} and {m1}")
    if not (s0 > 0 and s1 > 0 and np.isfinite([s0, s1]).all()):
        raise InputError(f"standard deviations must be finite and positive, got {s0} and {s1}")
    d = m0.shape[0]
    alpha = spec.alpha

    def expected_gauss(mu_sq: float, var: float) -> float:
        c = 1.0 + 2.0 * alpha * var
        return c ** (-d / 2.0) * float(np.exp(-alpha * mu_sq / c))

    delta_sq = float(np.sum((m0 - m1) ** 2))
    t_xx = expected_gauss(0.0, 2.0 * s0 * s0)
    t_yy = expected_gauss(0.0, 2.0 * s1 * s1)
    t_xy = expected_gauss(delta_sq, s0 * s0 + s1 * s1)
    return max(0.0, t_xx - 2.0 * t_xy + t_yy)
