import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mongemmd
from mongemmd import compare
from mongemmd.compare import (
    COMPARISON_HEADER,
    CompareConfig,
    ComparisonRow,
    compare_runs,
    comparison_to_csv,
)
from mongemmd.errors import InputError, NumericError
from mongemmd.sinkhorn import (
    _logsumexp,
    _orientation,
    _violation,
    barycentric_map,
    default_epsilon,
    sinkhorn_solve,
    squared_distance_matrix,
)
from mongemmd.train import TrainConfig


def random_problem(m, n, seed):
    """A random cost matrix with random positive normalized marginals."""
    rng = np.random.default_rng(seed)
    C = rng.uniform(0.0, 4.0, size=(m, n))
    a = rng.uniform(0.5, 1.5, size=m)
    b = rng.uniform(0.5, 1.5, size=n)
    return C, a / a.sum(), b / b.sum()


class TestTwoByTwo:
    """C = [[0, 1], [1, 0]] with uniform marginals has a closed form.

    With q = exp(-1/eps) the scaled coupling is
    [[0.5, 0.5 q], [0.5 q, 0.5]] / (1 + q), interpolating between the
    identity assignment (eps -> 0) and the product coupling (eps -> inf).
    """

    C = np.array([[0.0, 1.0], [1.0, 0.0]])

    def analytic(self, eps):
        q = math.exp(-1.0 / eps)
        return np.array([[0.5, 0.5 * q], [0.5 * q, 0.5]]) / (1.0 + q)

    def test_small_epsilon_recovers_assignment(self):
        coupling = sinkhorn_solve(self.C, epsilon=0.01)
        np.testing.assert_allclose(coupling.matrix,
                                   np.array([[0.5, 0.0], [0.0, 0.5]]),
                                   atol=1e-6)

    def test_large_epsilon_recovers_product(self):
        coupling = sinkhorn_solve(self.C, epsilon=1000.0)
        np.testing.assert_allclose(coupling.matrix, np.full((2, 2), 0.25),
                                   atol=1e-3)

    def test_matches_closed_form_at_moderate_epsilon(self):
        for eps in (0.25, 1.0, 4.0):
            coupling = sinkhorn_solve(self.C, epsilon=eps, tol=1e-12)
            np.testing.assert_allclose(coupling.matrix, self.analytic(eps),
                                       atol=1e-10)


class TestFeasibility:
    def test_marginals_met_on_random_instances(self):
        for seed in range(4):
            C, a, b = random_problem(40, 60, seed)
            coupling = sinkhorn_solve(C, a, b, epsilon=0.5, tol=1e-10)
            assert coupling.converged
            np.testing.assert_allclose(coupling.matrix.sum(axis=1), a,
                                       atol=1e-9)
            np.testing.assert_allclose(coupling.matrix.sum(axis=0), b,
                                       atol=1e-9)
            assert np.all(coupling.matrix >= 0.0)
            assert coupling.max_violation < 1e-10

    def test_uniform_marginals_by_default(self):
        C = np.arange(12.0).reshape(3, 4)
        coupling = sinkhorn_solve(C, epsilon=2.0)
        np.testing.assert_allclose(coupling.matrix.sum(axis=1),
                                   np.full(3, 1 / 3), atol=1e-8)
        np.testing.assert_allclose(coupling.matrix.sum(axis=0),
                                   np.full(4, 1 / 4), atol=1e-8)

    def test_iteration_budget_respected(self):
        C, a, b = random_problem(30, 30, 7)
        coupling = sinkhorn_solve(C, a, b, epsilon=0.01, max_iters=2)
        assert coupling.n_iters <= 2
        assert not coupling.converged


class TestAssignmentOracle:
    def test_four_by_four_enumerated_optimum(self):
        """At small epsilon the coupling concentrates on the best permutation,
        found here by brute force over all 24 of them."""
        rng = np.random.default_rng(11)
        planted = np.array([2, 0, 3, 1])
        C = rng.uniform(0.5, 1.5, size=(4, 4))
        C[np.arange(4), planted] = 0.0
        best_cost = None
        best_perm = None
        for perm in itertools.permutations(range(4)):
            cost = C[np.arange(4), perm].sum() / 4.0
            if best_cost is None or cost < best_cost:
                best_cost, best_perm = cost, perm
        assert best_perm == tuple(planted)  # gap >= 0.5 by construction
        coupling = sinkhorn_solve(C, epsilon=0.02, tol=1e-12,
                                  max_iters=50000)
        expected = np.zeros((4, 4))
        expected[np.arange(4), planted] = 0.25
        np.testing.assert_allclose(coupling.matrix, expected, atol=1e-6)
        transport_cost = (coupling.matrix * C).sum()
        np.testing.assert_allclose(transport_cost, best_cost, atol=1e-6)


class TestTransposeSymmetry:
    def test_transposed_problem_gives_exact_transpose(self):
        for seed in range(6):
            C, a, b = random_problem(13, 9, 100 + seed)
            direct = sinkhorn_solve(C, a, b, epsilon=0.7)
            flipped = sinkhorn_solve(np.ascontiguousarray(C.T), b, a,
                                     epsilon=0.7)
            np.testing.assert_array_equal(flipped.matrix, direct.matrix.T)
            assert flipped.n_iters == direct.n_iters

    def test_self_transposed_result_is_exactly_symmetric(self):
        rng = np.random.default_rng(5)
        C = rng.uniform(0.0, 2.0, size=(8, 8))
        C = (C + C.T) / 2.0
        coupling = sinkhorn_solve(C, epsilon=0.5)
        np.testing.assert_array_equal(coupling.matrix, coupling.matrix.T)
        assert coupling.max_violation < 1e-9


class TestZeroMarginalEntries:
    def test_log_domain_leaves_an_exactly_empty_row_and_column(self):
        C, a, b = random_problem(6, 5, 21)
        a[2], b[4] = 0.0, 0.0
        a, b = a / a.sum(), b / b.sum()
        coupling = sinkhorn_solve(C, a, b, epsilon=0.5, tol=1e-12)
        assert coupling.converged
        assert np.all(coupling.matrix[2] == 0.0)
        assert np.all(coupling.matrix[:, 4] == 0.0)
        np.testing.assert_allclose(coupling.matrix.sum(axis=1), a, atol=1e-12)
        np.testing.assert_allclose(coupling.matrix.sum(axis=0), b, atol=1e-12)


def _orientation_key(C, a, b):
    """The byte-order key the solver's orientation must agree with."""
    return (C.shape, C.tobytes(), a.tobytes(), b.tobytes())


def reference_solve(C, a, b, epsilon, max_iters, tol):
    """Log-domain Sinkhorn that builds the plan and its violation every iteration.

    The straightforward form of the solver, kept as the oracle: with tol=0 it
    runs exactly ``max_iters`` double updates. Returns (P, n_iters, violation).
    """
    key, key_t = _orientation_key(C, a, b), _orientation_key(np.ascontiguousarray(C.T), b, a)
    if key_t < key:
        P, it, viol = reference_solve(np.ascontiguousarray(C.T), b, a, epsilon, max_iters, tol)
        return np.ascontiguousarray(P.T), it, viol
    with np.errstate(divide="ignore"):
        log_a, log_b = np.log(a), np.log(b)
    f, g = np.zeros(a.shape[0]), np.zeros(b.shape[0])
    P = np.exp((f[:, None] + g[None, :] - C) / epsilon)
    viol = _violation(P, a, b)
    it = 0
    while viol >= tol and it < max_iters:
        f = epsilon * (log_a - _logsumexp((g[None, :] - C) / epsilon, axis=1))
        g = epsilon * (log_b - _logsumexp((f[:, None] - C) / epsilon, axis=0))
        P = np.exp((f[:, None] + g[None, :] - C) / epsilon)
        viol = _violation(P, a, b)
        it += 1
    if key_t == key:
        P = (P + P.T) / 2.0
        viol = _violation(P, a, b)
    return P, it, viol


def oracle_instances():
    """Square, non-square, symmetric, zero-marginal and signed-zero problems."""
    for seed in range(4):
        yield random_problem(17, 17, 300 + seed)
        yield random_problem(9, 14, 310 + seed)
        yield random_problem(14, 9, 320 + seed)
    for seed in range(3):
        C, a, b = random_problem(12, 12, 330 + seed)
        C = (C + C.T) / 2.0
        yield C, a, b
        yield C, a, a
        yield C, b, b
    C, a, b = random_problem(10, 8, 340)
    a[[1, 6]], b[3] = 0.0, 0.0
    yield C, a / a.sum(), b / b.sum()
    C, a, b = random_problem(8, 8, 341)
    a[0] = b[7] = 0.0
    yield C, a / a.sum(), b / b.sum()
    for seed in range(2):
        C, a, b = random_problem(7, 7, 350 + seed)
        C = (C + C.T) / 2.0
        C[1, 4], C[4, 1] = (0.0, -0.0) if seed == 0 else (-0.0, 0.0)
        yield C, a, b
        yield C, a, a


class TestReferenceLoop:
    def test_plan_is_the_reference_loop_bit_for_bit(self):
        for C, a, b in oracle_instances():
            for eps, tol in ((0.5, 1e-9), (0.2, 1e-12), (2.0, 1e-6)):
                coupling = sinkhorn_solve(C, a, b, epsilon=eps, tol=tol)
                assert coupling.converged
                P, _, viol = reference_solve(C, a, b, eps, coupling.n_iters, 0.0)
                np.testing.assert_array_equal(coupling.matrix, P)
                assert coupling.max_violation == viol
                _, ref_iters, _ = reference_solve(C, a, b, eps, 10000, tol)
                assert abs(coupling.n_iters - ref_iters) <= 1

    def test_orientation_matches_the_byte_key(self):
        for C, a, b in oracle_instances():
            key = _orientation_key(C, a, b)
            key_t = _orientation_key(np.ascontiguousarray(C.T), b, a)
            assert _orientation(C, a, b) == (key_t > key) - (key_t < key)
            assert _orientation(np.ascontiguousarray(C.T), b, a) == (key > key_t) - (key < key_t)

    def test_signed_zero_pair_is_not_self_transposed(self):
        C = np.array([[1.0, 0.0], [-0.0, 1.0]])
        assert _orientation(C, np.full(2, 0.5), np.full(2, 0.5)) == 1
        assert _orientation(np.ascontiguousarray(C.T), np.full(2, 0.5), np.full(2, 0.5)) == -1


class TestMemory:
    def test_solve_holds_no_plan_during_the_loop(self):
        """Peak traced allocation of a solve, in n-by-n float64 matrices."""
        n = 400
        C = np.random.default_rng(61).uniform(0.0, 4.0, size=(n, n))
        # One of C and C.T is solved as given, the other through a transposed copy.
        for cost in (C, np.ascontiguousarray(C.T)):
            tracemalloc.start()
            try:
                sinkhorn_solve(cost, epsilon=0.5)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak / cost.nbytes <= 3.5


class TestLogSumExp:
    """The numpy log-sum-exp against SciPy's, which serves only as a test oracle."""

    @staticmethod
    def check(A):
        special = pytest.importorskip("scipy.special")
        for axis in (0, 1):
            np.testing.assert_allclose(_logsumexp(A.copy(), axis),
                                       special.logsumexp(A, axis=axis), rtol=1e-15)

    def test_random_rows(self):
        rng = np.random.default_rng(31)
        self.check(rng.standard_normal((40, 30)) * 50.0)

    def test_exact_ties(self):
        rng = np.random.default_rng(32)
        A = np.round(rng.standard_normal((40, 30)) * 2.0) / 2.0
        A[5] = 1.5
        self.check(A)

    def test_rows_holding_minus_infinity(self):
        rng = np.random.default_rng(33)
        A = rng.standard_normal((20, 15))
        A[rng.random(A.shape) < 0.3] = -np.inf
        A[4] = -np.inf
        A[:, 7] = -np.inf
        self.check(A)


class TestImport:
    def test_package_import_leaves_scipy_out(self):
        src = Path(mongemmd.__file__).resolve().parents[1]
        code = ("import sys, mongemmd; "
                "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))")
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "[]"


class TestKernelUnderflow:
    def test_converges_where_kernel_underflows(self):
        """exp(-C/eps) is exactly zero off the diagonal; the log domain still converges."""
        C = np.array([[0.0, 2000.0], [2000.0, 0.0]])
        coupling = sinkhorn_solve(C, epsilon=1.0)
        np.testing.assert_allclose(coupling.matrix,
                                   np.array([[0.5, 0.0], [0.0, 0.5]]),
                                   atol=1e-12)
        assert coupling.converged


class TestValidation:
    C = np.array([[0.0, 1.0], [1.0, 0.0]])

    def test_epsilon_must_be_positive(self):
        with pytest.raises(InputError):
            sinkhorn_solve(self.C, epsilon=0.0)
        with pytest.raises(InputError):
            sinkhorn_solve(self.C, epsilon=float("nan"))

    def test_marginals_checked(self):
        with pytest.raises(InputError):
            sinkhorn_solve(self.C, np.array([0.7, 0.7]), None, epsilon=1.0)
        with pytest.raises(InputError):
            sinkhorn_solve(self.C, np.array([-0.5, 1.5]), None, epsilon=1.0)
        with pytest.raises(InputError):
            sinkhorn_solve(self.C, np.array([1.0]), None, epsilon=1.0)

    def test_cost_matrix_checked(self):
        with pytest.raises(InputError):
            sinkhorn_solve(np.array([[np.inf, 0.0], [0.0, 0.0]]), epsilon=1.0)
        with pytest.raises(InputError):
            sinkhorn_solve(np.zeros((0, 2)), epsilon=1.0)

    def test_budget_checked(self):
        with pytest.raises(InputError):
            sinkhorn_solve(self.C, epsilon=1.0, max_iters=0)
        with pytest.raises(InputError):
            sinkhorn_solve(self.C, epsilon=1.0, tol=0.0)


class TestHelpers:
    def test_default_epsilon_is_tenth_of_median(self):
        C = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(default_epsilon(C), 0.25, rtol=1e-15)

    def test_default_epsilon_rejects_degenerate_costs(self):
        with pytest.raises(InputError):
            default_epsilon(np.zeros((3, 3)))

    def test_squared_distance_matrix(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        Y = np.array([[3.0, 4.0]])
        np.testing.assert_array_equal(squared_distance_matrix(X, Y),
                                      np.array([[25.0], [13.0]]))
        with pytest.raises(InputError):
            squared_distance_matrix(X, np.zeros((2, 3)))

    def test_distance_matrix_against_loops(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((6, 3))
        Y = rng.standard_normal((4, 3))
        D = squared_distance_matrix(X, Y)
        for i in range(6):
            for j in range(4):
                np.testing.assert_allclose(D[i, j],
                                           ((X[i] - Y[j]) ** 2).sum(),
                                           rtol=1e-12)


class TestBarycentricMap:
    def make_coupling(self, P, a=None, b=None):
        m, n = P.shape
        from mongemmd.sinkhorn import Coupling
        return Coupling(matrix=P,
                        a=a if a is not None else P.sum(axis=1),
                        b=b if b is not None else P.sum(axis=0),
                        n_iters=0, max_violation=0.0, converged=True)

    def test_identity_coupling_returns_targets(self):
        Y = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        P = np.eye(3) / 3.0
        images = barycentric_map(self.make_coupling(P), Y)
        np.testing.assert_allclose(images, Y, rtol=1e-15)

    def test_product_coupling_returns_target_mean(self):
        Y = np.array([[0.0, 0.0], [2.0, 4.0]])
        P = np.full((3, 2), 1.0 / 6.0)
        images = barycentric_map(self.make_coupling(P), Y)
        np.testing.assert_allclose(images, np.tile([1.0, 2.0], (3, 1)),
                                   rtol=1e-15)

    def test_weighted_average_by_hand(self):
        Y = np.array([[0.0], [10.0]])
        P = np.array([[0.3, 0.1], [0.0, 0.6]])
        images = barycentric_map(self.make_coupling(P), Y)
        np.testing.assert_allclose(images, [[2.5], [10.0]], rtol=1e-15)

    def test_zero_row_mass_raises(self):
        Y = np.array([[1.0], [2.0]])
        P = np.array([[0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(NumericError):
            barycentric_map(self.make_coupling(P), Y)

    def test_column_count_checked(self):
        Y = np.zeros((3, 2))
        P = np.full((2, 2), 0.25)
        with pytest.raises(InputError):
            barycentric_map(self.make_coupling(P), Y)


class TestComparison:
    def tiny_config(self):
        return TrainConfig(epochs=2, batch_size=10, hidden_widths=(4,),
                           seed=0)

    def test_csv_format(self):
        rows = [
            ComparisonRow(method="neural", data_size=200, epsilon=float("nan"),
                          mean0=4.9, mean1=5.1, sd0=1.0, sd1=0.9,
                          runtime_seconds=1.23456789),
            ComparisonRow(method="sinkhorn", data_size=200, epsilon=0.5,
                          mean0=4.8, mean1=5.0, sd0=0.95, sd1=0.97,
                          runtime_seconds=0.5),
        ]
        text = comparison_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == COMPARISON_HEADER
        # nan epsilon serializes as an empty field
        assert lines[1].startswith("neural,200,,4.9")
        assert lines[2].startswith("sinkhorn,200,0.5,")
        assert lines[1].endswith("1.234568")  # runtime rounded to six places

    def test_compare_runs_structure(self):
        rows = compare_runs(self.tiny_config(), CompareConfig(sizes=(12,), seed=3))
        assert [r.method for r in rows] == ["neural", "sinkhorn"]
        assert all(r.data_size == 12 for r in rows)
        assert math.isnan(rows[0].epsilon)
        assert rows[1].epsilon > 0.0

    def test_compare_runs_statistics_deterministic(self):
        cfg = self.tiny_config()
        r1 = compare_runs(cfg, CompareConfig(sizes=(12, 16), seed=3))
        r2 = compare_runs(cfg, CompareConfig(sizes=(12, 16), seed=3))
        for a, b in zip(r1, r2):
            assert (a.method, a.data_size) == (b.method, b.data_size)
            assert (a.mean0, a.mean1, a.sd0, a.sd1) == (b.mean0, b.mean1,
                                                        b.sd0, b.sd1)

    def test_compare_runs_refuses_oversized_sizes_before_drawing(self, monkeypatch):
        def no_draws(spec):
            raise AssertionError("data drawn before the size check")

        monkeypatch.setattr(compare, "generate", no_draws)
        with pytest.raises(InputError, match="size_cap.*GB"):
            compare_runs(self.tiny_config(), CompareConfig(sizes=(100000,)))

    def test_compare_runs_rejects_tiny_sizes(self):
        with pytest.raises(InputError):
            compare_runs(self.tiny_config(), CompareConfig(sizes=(1,)))
        with pytest.raises(InputError):
            compare_runs(self.tiny_config(), CompareConfig(sizes=()))
