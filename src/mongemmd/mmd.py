"""Squared maximum mean discrepancy between empirical measures.

The U-statistic (unbiased) estimator excludes i == j pairs:

    mmd2 = sum_{i!=j} K(X_i, X_j) / (M(M-1))
         - 2 sum_{i,j} K(X_i, Y_j) / (M N)
         + sum_{i!=j} K(Y_i, Y_j) / (N(N-1))

and may be negative; it is never clamped, since unbiasedness is the point.
The V-statistic (biased) companion keeps all pairs with divisors M^2, N^2,
is nonnegative, and vanishes exactly on identical multisets.

Every pair sum and gradient is the kernel's one summing walk, ``_kernel_sum``,
so memory is bounded by one row block of the Gram matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .kernel import KernelFamily, KernelSpec, _kernel_sum
from .util import as_point_pair


def _check_pair(X, Y, min_size: int) -> tuple[np.ndarray, np.ndarray]:
    X, Y = as_point_pair(X, Y)
    if X.shape[0] < min_size or Y.shape[0] < min_size:
        raise InputError(
            f"need at least {min_size} points per set, got {X.shape[0]} and {Y.shape[0]}"
        )
    return X, Y


def mmd2_unbiased(spec: KernelSpec, X, Y) -> float:
    """Unbiased estimate of the squared MMD between the two empirical measures.

    Sizes may differ; with equal sizes M = N this is the classical U-statistic.
    """
    X, Y = _check_pair(X, Y, min_size=2)
    m, n = X.shape[0], Y.shape[0]
    # K(x, x) == 1 exactly for every supported family, so the diagonal of the
    # (X, X) Gram sums to exactly m.
    sxx = _kernel_sum(spec, X, X)[0] - m
    syy = _kernel_sum(spec, Y, Y)[0] - n
    sxy = _kernel_sum(spec, X, Y)[0]
    return sxx / (m * (m - 1)) - 2.0 * sxy / (m * n) + syy / (n * (n - 1))


def mmd2_biased(spec: KernelSpec, X, Y) -> float:
    """Biased (V-statistic) squared MMD; nonnegative, zero iff X == Y as multisets.

    Symmetry is bit-exact: arguments are put in a canonical order first, so
    both call orders execute the identical reduction.
    """
    X, Y = _check_pair(X, Y, min_size=1)
    if X.tobytes() > Y.tobytes():
        X, Y = Y, X
    m, n = X.shape[0], Y.shape[0]
    sxx = _kernel_sum(spec, X, X)[0]
    syy = _kernel_sum(spec, Y, Y)[0]
    sxy = _kernel_sum(spec, X, Y)[0]
    val = sxx / (m * m) - 2.0 * sxy / (m * n) + syy / (n * n)
    # Mathematically >= 0; rounding may leave a tiny negative residue.
    return max(0.0, val)


def mmd2_unbiased_grad_points(spec: KernelSpec, X, Y) -> np.ndarray:
    """Gradient of mmd2_unbiased with respect to each X_i, holding Y fixed.

    Returns an (M, d) array whose row i is d(mmd2)/d(X_i). The Y-Y term is
    constant in X and contributes nothing.
    """
    X, Y = _check_pair(X, Y, min_size=2)
    m, n = X.shape[0], Y.shape[0]
    _, g_xx = _kernel_sum(spec, X, X, want_grad=True, skip_equal_index=True)
    _, g_xy = _kernel_sum(spec, X, Y, want_grad=True)
    return (2.0 / (m * (m - 1))) * g_xx - (2.0 / (m * n)) * g_xy


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
    if not (s0 > 0 and s1 > 0):
        raise InputError(f"standard deviations must be positive, got {s0} and {s1}")
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
