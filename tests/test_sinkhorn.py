import itertools
import math

import numpy as np
import pytest

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


class TestPlainMethod:
    def test_agrees_with_log_domain(self):
        C, a, b = random_problem(20, 25, 3)
        log_c = sinkhorn_solve(C, a, b, epsilon=1.0, tol=1e-12)
        plain_c = sinkhorn_solve(C, a, b, epsilon=1.0, tol=1e-12,
                                 method="plain")
        np.testing.assert_allclose(plain_c.matrix, log_c.matrix, atol=1e-12)

    def test_falls_back_when_kernel_underflows(self):
        """exp(-C/eps) is exactly zero here, so the plain path must defer."""
        C = np.array([[0.0, 2000.0], [2000.0, 0.0]])
        coupling = sinkhorn_solve(C, epsilon=1.0, method="plain")
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

    def test_method_and_budget_checked(self):
        with pytest.raises(InputError):
            sinkhorn_solve(self.C, epsilon=1.0, method="sor")
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
