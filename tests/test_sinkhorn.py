import ast
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import mongemmd
from mongemmd import compare, kernel, sinkhorn
from mongemmd.compare import (
    COMPARISON_HEADER,
    CompareConfig,
    ComparisonRow,
    compare_runs,
    comparison_to_csv,
)
from mongemmd.errors import InputError, NumericError
from mongemmd.sinkhorn import (
    Coupling,
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
            assert flipped.max_violation == direct.max_violation

    @pytest.mark.parametrize("shape, seed", [((14, 9), 0), ((40, 40), 0)], ids=["wide", "square"])
    def test_transposed_orientation_returns_a_view_of_the_flipped_plan(self, shape, seed):
        """A problem whose canonical orientation is its transpose gets the flipped
        problem's plan as a transposed view: the same bits, no second copy, and
        barycentric images equal to a C-ordered copy's to rounding."""
        C, a, b = random_problem(*shape, seed)
        assert _orientation(C, a, b) == -1
        direct = sinkhorn_solve(C, a, b, epsilon=0.5)
        flipped = sinkhorn_solve(np.ascontiguousarray(C.T), b, a, epsilon=0.5)
        np.testing.assert_array_equal(direct.matrix, flipped.matrix.T)
        assert direct.matrix.flags.f_contiguous and not direct.matrix.flags.owndata
        assert (direct.n_iters, direct.converged) == (flipped.n_iters, flipped.converged)
        assert direct.max_violation == flipped.max_violation
        Y = np.random.default_rng(seed).normal(size=(shape[1], 3))
        copied = Coupling(np.ascontiguousarray(direct.matrix), a, b, direct.n_iters,
                          direct.max_violation, direct.converged)
        np.testing.assert_allclose(barycentric_map(direct, Y), barycentric_map(copied, Y),
                                   rtol=1e-12, atol=0.0)

    def test_self_transposed_result_is_exactly_symmetric(self):
        rng = np.random.default_rng(5)
        C = rng.uniform(0.0, 2.0, size=(8, 8))
        C = (C + C.T) / 2.0
        coupling = sinkhorn_solve(C, epsilon=0.5)
        np.testing.assert_array_equal(coupling.matrix, coupling.matrix.T)
        assert coupling.max_violation < 1e-9


class TestZeroMarginalEntries:
    def test_log_domain_leaves_an_exactly_empty_row_and_column(self, monkeypatch):
        """Row 1 lies 2000 further: the problem is solved as its transpose, where that
        row is a kernel column that underflows, so a v-half-step runs in the log domain."""
        calls = count_calls(monkeypatch, "_log_potential")
        C, a, b = random_problem(6, 5, 21)
        a[2], b[4] = 0.0, 0.0
        a, b = a / a.sum(), b / b.sum()
        C[1] += 2000.0
        coupling = sinkhorn_solve(C, a, b, epsilon=0.5, tol=1e-12)
        assert calls["_log_potential"] >= 1
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
    viol = _violation(P, a, b, sinkhorn._Lanes(0))
    it = 0
    while viol >= tol and it < max_iters:
        f = epsilon * (log_a - _logsumexp((g[None, :] - C) / epsilon, 1, sinkhorn._Lanes(0)))
        g = epsilon * (log_b - _logsumexp((f[:, None] - C) / epsilon, 0, sinkhorn._Lanes(0)))
        P = np.exp((f[:, None] + g[None, :] - C) / epsilon)
        viol = _violation(P, a, b, sinkhorn._Lanes(0))
        it += 1
    if key_t == key:
        P = (P + P.T) / 2.0
        viol = _violation(P, a, b, sinkhorn._Lanes(0))
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
    def test_plan_is_the_reference_loop_within_tolerance(self):
        for C, a, b in oracle_instances():
            for eps, tol in ((0.5, 1e-9), (0.2, 1e-12), (2.0, 1e-6)):
                coupling = sinkhorn_solve(C, a, b, epsilon=eps, tol=tol)
                assert coupling.converged
                P, ref_iters, _ = reference_solve(C, a, b, eps, 10000, tol)
                assert np.abs(coupling.matrix - P).max() <= 10 * tol
                assert coupling.max_violation == _violation(coupling.matrix, a, b,
                                                              sinkhorn._Lanes(0))
                assert abs(coupling.n_iters - ref_iters) <= 1

    def test_small_epsilon_converges_where_the_reference_does(self, monkeypatch):
        """At epsilon 0.01 and 0.002 the scalings leave range again and again,
        and a kernel column underflows on the zero-marginal instance."""
        counts = count_calls(monkeypatch, "_gibbs", "_log_potential")
        instances = list(oracle_instances())
        tol, max_iters = 1e-9, 2500
        converged = []
        for k in (13, 21, 23):
            C, a, b = instances[k]
            for eps in (0.01, 0.002):
                coupling = sinkhorn_solve(C, a, b, epsilon=eps, tol=tol, max_iters=max_iters)
                P, _, viol = reference_solve(C, a, b, eps, max_iters, tol)
                assert coupling.converged == (viol < tol)
                converged.append(coupling.converged)
                if coupling.converged:
                    assert np.abs(coupling.matrix - P).max() <= 10 * tol
        assert True in converged and False in converged
        # Each of the six solves builds its first kernel; every further build
        # is an absorption or follows a log-domain half-step.
        assert counts["_log_potential"] >= 1
        assert counts["_gibbs"] > 6 + counts["_log_potential"]

    def test_compare_gaussian_task_builds_its_kernel_once(self, monkeypatch):
        """compare's Gaussian task at n=1000 and the default epsilon, in both
        orientations: the scalings stay within [1/_TAU, _TAU], so the kernel is
        written once and never rebuilt."""
        counts = count_calls(monkeypatch, "_gibbs", "_log_potential")
        rng = np.random.default_rng(1000)
        C = squared_distance_matrix(rng.standard_normal((1000, 2)),
                                    rng.standard_normal((1000, 2)) + 5.0)
        for cost in (C, C.T):
            counts.update(dict.fromkeys(counts, 0))
            assert sinkhorn_solve(cost, epsilon=default_epsilon(C)).converged
            assert counts == {"_gibbs": 1, "_log_potential": 0}

    def test_orientation_matches_the_byte_key(self):
        for C, a, b in oracle_instances():
            key = _orientation_key(C, a, b)
            key_t = _orientation_key(np.ascontiguousarray(C.T), b, a)
            assert _orientation(C, a, b) == (key_t > key) - (key_t < key)
            assert _orientation(np.ascontiguousarray(C.T), b, a) == (key > key_t) - (key < key_t)

    def test_orientation_finds_an_asymmetry_in_the_last_row_block(self):
        n = 512
        rows = sinkhorn._BAND_ELEMS // n
        assert n // rows > 1 and (n - 2) // rows == (n - 1) // rows
        C = np.random.default_rng(12).uniform(0.0, 4.0, size=(n, n))
        C = (C + C.T) / 2.0
        a = np.full(n, 1.0 / n)
        for delta in (1e-3, -1e-3):
            D = C.copy()
            D[n - 2, n - 1] += delta
            for M in (D, np.ascontiguousarray(D.T)):
                key = _orientation_key(M, a, a)
                key_t = _orientation_key(np.ascontiguousarray(M.T), a, a)
                assert _orientation(M, a, a) == (key_t > key) - (key_t < key) != 0

    def test_signed_zero_pair_is_not_self_transposed(self):
        C = np.array([[1.0, 0.0], [-0.0, 1.0]])
        assert _orientation(C, np.full(2, 0.5), np.full(2, 0.5)) == 1
        assert _orientation(np.ascontiguousarray(C.T), np.full(2, 0.5), np.full(2, 0.5)) == -1


class TestMemory:
    def test_solve_holds_no_plan_during_the_loop(self):
        """Peak traced allocation of a solve, in n-by-n float64 matrices."""
        n = 400
        C = np.random.default_rng(61).uniform(0.0, 4.0, size=(n, n))
        a = np.full(n, 1.0 / n)
        # One of C and C.T is solved as given, the other as a transposed view of
        # the cost, returning a view of the plan: each holds one kernel buffer.
        for cost in (C, np.ascontiguousarray(C.T)):
            tracemalloc.start()
            try:
                sinkhorn_solve(cost, epsilon=0.5)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak / cost.nbytes <= 1.25, _orientation(cost, a, a)

    def test_default_epsilon_makes_no_flattened_copy(self):
        """A cost above the bracket's size threshold, contiguous or a transposed view,
        is read in place: no copy of it is made, flattened or otherwise."""
        C = np.random.default_rng(64).uniform(0.0, 4.0, size=(1000, 1001))
        assert C.size >= sinkhorn._BRACKET_MIN
        for cost in (C, C.T):
            tracemalloc.start()
            try:
                default_epsilon(cost)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak / C.nbytes <= 0.25

    def test_default_epsilon_holds_one_copy(self):
        C = np.random.default_rng(62).uniform(0.0, 4.0, size=(300, 300))
        for cost in (C, C.T):
            tracemalloc.start()
            try:
                default_epsilon(cost)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak / C.nbytes <= 1.05


class TestLogSumExp:
    """The numpy log-sum-exp against SciPy's, which serves only as a test oracle."""

    @staticmethod
    def check(A):
        special = pytest.importorskip("scipy.special")
        for axis in (0, 1):
            np.testing.assert_allclose(_logsumexp(A.copy(), axis, sinkhorn._Lanes(0)),
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

    def test_lanes_split_rows_and_columns_with_the_bits_of_one_span(self, monkeypatch):
        """Axis 1 runs one span of rows per lane and axis 0 one span of columns, off
        the 64 grid, with ties and -inf rows and columns: the bits of one span."""
        rng = np.random.default_rng(34)
        A = np.round(rng.standard_normal((201, 333)) * 8.0) / 4.0
        A[rng.random(A.shape) < 0.1] = -np.inf
        A[70], A[:, 130] = -np.inf, -np.inf
        spans, lse = [], sinkhorn._lse
        monkeypatch.setattr(sinkhorn, "_lse", lambda S, axis: spans.append(S.shape) or lse(S, axis))
        for axis in (0, 1):
            whole = lse(A.copy(), axis)
            for count in range(1, 6):
                force_lanes(monkeypatch, count)
                spans.clear()
                with sinkhorn._Lanes(A.size) as lanes:
                    got = _logsumexp(A.copy(), axis, lanes)
                    widths = lanes.run(lambda i0, i1: i1 - i0, A.shape[1 - axis])
                assert got.tobytes() == whole.tobytes(), (axis, count)
                assert sorted(shape[1 - axis] for shape in spans) == sorted(widths)
                assert all(shape[axis] == A.shape[axis] for shape in spans)
                assert (len(spans) > 1) == (count > 1)


class TestImport:
    def test_package_import_leaves_scipy_out(self):
        src = Path(mongemmd.__file__).resolve().parents[1]
        code = ("import sys, mongemmd; "
                "print(sorted(k for k in sys.modules"
                " if k.split('.')[0] == 'scipy' or k == 'concurrent.futures'))")
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "[]"


    def test_solver_imports_only_errors_kernel_and_util(self):
        """The baseline stays independent of the trainer: sinkhorn.py's package
        imports are a subset of errors, kernel and util, all of them relative."""
        tree = ast.parse(Path(sinkhorn.__file__).read_text(encoding="utf-8"))
        relative, absolute = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                relative.update([node.module.split(".")[0]] if node.module
                                else [alias.name for alias in node.names])
            elif isinstance(node, ast.ImportFrom):
                absolute.add(node.module.split(".")[0])
            elif isinstance(node, ast.Import):
                absolute.update(alias.name.split(".")[0] for alias in node.names)
        assert "mongemmd" not in absolute
        assert relative and relative <= {"errors", "kernel", "util"}


class TestKernelUnderflow:
    C = np.array([[0.0, 2000.0], [2000.0, 0.0]])
    # The same instance in 65-by-65 blocks, so that lanes split it: rows 0..63 and 64..129.
    TILED = np.kron(C, np.ones((65, 65)))

    def test_converges_where_kernel_underflows(self, monkeypatch):
        """Column 1 of exp((f - C)/eps), with f the row minima, is exactly zero, so a
        v-half-step runs in the log domain; the plan is TestTwoByTwo's closed form,
        as C01 + C10 - C00 - C11 = 2. C is its own canonical orientation."""
        calls = count_calls(monkeypatch, "_log_potential")
        C = np.array([[0.0, 2048.0], [0.75, 2046.75]])
        assert _orientation(C, np.full(2, 0.5), np.full(2, 0.5)) == 1
        coupling = sinkhorn_solve(C, epsilon=1.0, tol=1e-12)
        assert calls["_log_potential"] >= 1
        np.testing.assert_allclose(coupling.matrix, TestTwoByTwo().analytic(1.0), atol=1e-12)
        assert coupling.converged

    def test_underflow_raises_alike_in_every_lane_count(self, monkeypatch):
        """Under np.errstate(under="raise") the kernel's underflow raises the same
        FloatingPointError in one lane and in three, where every lane underflows."""
        messages = []
        for count in (1, 3):
            force_lanes(monkeypatch, count)
            for cost in (self.C, self.TILED):
                with np.errstate(under="raise"), pytest.raises(FloatingPointError) as info:
                    sinkhorn_solve(cost, epsilon=1.0)
                messages.append(str(info.value))
        assert messages == ["underflow encountered in exp"] * 4

    def test_pool_lanes_run_under_the_callers_errstate(self, monkeypatch):
        """Only rows 64.. underflow. Three lanes split the rows as [0, 64) and [64, 130),
        so they underflow on a pool thread: it raises there, and no thread outlives the
        solve."""
        cost = self.TILED.copy()
        cost[:64] = 0.0
        with np.errstate(under="raise"):
            for count in (1, 3):
                force_lanes(monkeypatch, count)
                before = threading.active_count()
                with pytest.raises(FloatingPointError, match="^underflow encountered in exp$"):
                    sinkhorn_solve(cost, epsilon=1.0)
                assert threading.active_count() == before


def count_calls(monkeypatch, *names):
    """Count the calls of the named ``sinkhorn`` functions; returns the live counts."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(sinkhorn, name)):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(sinkhorn, name, counted)
    return counts


def force_lanes(monkeypatch, count):
    """Solve in ``count`` lanes at any size, whatever the CPU count of the host."""
    monkeypatch.setattr(sinkhorn, "_LANE_ELEMS", 1)
    monkeypatch.setattr(sinkhorn, "_cpus", lambda: count)


def settled_cpus():
    """``_cpus()`` once no thread is leaving the process: the same reading for 20 ms
    running, 2 s at most. A thread that an earlier test joined stays listed in
    /proc/self/task until the OS reaps it."""
    deadline = time.monotonic() + 2.0
    value, since = sinkhorn._cpus(), time.monotonic()
    while time.monotonic() - since < 0.02 and time.monotonic() < deadline:
        time.sleep(0.001)
        now = sinkhorn._cpus()
        if now != value:
            value, since = now, time.monotonic()
    return value


def wait_gone(tid):
    """Wait, 2 s at most, until the thread ``tid`` has left /proc/self/task."""
    deadline = time.monotonic() + 2.0
    while os.path.exists(f"/proc/self/task/{tid}") and time.monotonic() < deadline:
        time.sleep(0.001)


def lane_instances():
    """Shapes off the 64-entry grid in both orientations, an absorbing instance and
    log-domain ones: (name, cost, a, b, epsilon)."""
    for (m, n), seed in (((301, 299), 71), ((130, 70), 72), ((777, 1203), 73),
                         ((129, 193), 77)):
        C, a, b = random_problem(m, n, seed)
        yield f"{m}x{n}", C, a, b, 0.5
        if m in (777, 129):  # and the transposed orientation; 129 and 193 leave 1-entry tails
            yield f"{n}x{m}", np.ascontiguousarray(C.T), b, a, 0.5
    C, a, b = random_problem(200, 130, 74)
    # Rows 65.. lie 400 epsilon further. Solved as its transpose, whose kernel columns
    # they are, v grows to ~e**400 > _TAU and is folded.
    C[65:] += 8.0
    yield "absorbing", C, a, b, 0.02
    C, a, b = random_problem(130, 200, 75)
    C[:, 150] += 2000.0  # column 150 of the kernel underflows: a log-domain v-step
    yield "far-column", C, a, b, 0.5
    yield "far-row", np.ascontiguousarray(C.T), b, a, 0.5
    yield "underflow-2x2", TestKernelUnderflow.C, None, None, 1.0
    yield "underflow-tiled", TestKernelUnderflow.TILED, None, None, 1.0
    C, a, b = random_problem(6, 5, 21)
    a[2], b[4] = 0.0, 0.0
    yield "zero-marginals", C, a / a.sum(), b / b.sum(), 0.5


def lane_results(count):
    """(name, plan sha256, n_iters, max_violation) of each lane instance in ``count`` lanes."""
    saved = sinkhorn._LANE_ELEMS, sinkhorn._cpus
    sinkhorn._LANE_ELEMS, sinkhorn._cpus = 1, lambda: count
    try:
        return [(name, hashlib.sha256(c.matrix.tobytes()).hexdigest(), c.n_iters,
                 c.max_violation)
                for name, C, a, b, eps in lane_instances()
                for c in [sinkhorn_solve(C, a, b, epsilon=eps)]]
    finally:
        sinkhorn._LANE_ELEMS, sinkhorn._cpus = saved


class TestLanes:
    def test_spans_tile_on_the_64_grid(self, monkeypatch):
        for count in range(1, 6):
            monkeypatch.setattr(sinkhorn, "_cpus", lambda: count)
            with sinkhorn._Lanes(1 << 62) as lanes:
                for n in (*range(1, 300), 777, 1203, 2000):
                    spans = lanes.run(lambda i0, i1: (i0, i1), n)
                    assert spans[0][0] == 0 and spans[-1][1] == n and len(spans) <= count
                    assert all(i1 == j0 for (_, i1), (j0, _) in zip(spans, spans[1:]))
                    assert all(i0 % 64 == 0 and i1 - i0 >= min(n, 64) for i0, i1 in spans)

    def test_plans_keep_their_bits_at_every_lane_count(self):
        """Plan, iteration count and violation are byte-equal in 1 to 5 lanes, with BLAS
        on one thread: a multi-threaded BLAS splits each mat-vec by its own rule."""
        tests = Path(__file__).resolve().parent
        src = Path(mongemmd.__file__).resolve().parents[1]
        code = ("import json, test_sinkhorn as t; "
                "print(json.dumps([t.lane_results(k) for k in range(1, 6)]))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(src), str(tests))),
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=300)
        results = json.loads(out.stdout)
        assert len(results[0]) == len(list(lane_instances()))
        assert all(r == results[0] for r in results[1:])

    def test_instances_split_and_take_the_steps_they_name(self, monkeypatch):
        """In five lanes, every instance of at least 128 rows and columns runs in several
        spans, the far-* ones take a log-domain half-step and the absorbing one absorbs."""
        spans = []
        run = sinkhorn._Lanes.run
        monkeypatch.setattr(sinkhorn._Lanes, "run",
                            lambda self, fn, n: spans.append(len(r := run(self, fn, n))) or r)
        steps = count_calls(monkeypatch, "_gibbs", "_log_potential")
        force_lanes(monkeypatch, 5)
        for name, C, a, b, eps in lane_instances():
            spans.clear()
            steps.update(dict.fromkeys(steps, 0))
            sinkhorn_solve(C, a, b, epsilon=eps)
            assert max(spans) <= 5
            assert max(spans) > 1 or min(C.shape) < 128, name
            assert max(spans) == 5 or name not in ("777x1203", "1203x777"), name
            assert steps["_log_potential"] >= 1 or not name.startswith("far-"), name
            assert steps["_gibbs"] >= 2 + steps["_log_potential"] or name != "absorbing", name

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="counting the process's threads needs /proc")
    def test_each_other_thread_of_the_process_takes_a_cpu(self):
        """A threaded BLAS's workers, like any other thread, leave one CPU fewer for lanes."""
        before = settled_cpus()
        done = threading.Event()
        other = threading.Thread(target=done.wait)
        other.start()
        try:
            assert sinkhorn._cpus() == before - 1
        finally:
            done.set()
            other.join(timeout=5.0)
            assert not other.is_alive()
            wait_gone(other.native_id)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="counting the process's threads needs /proc")
    def test_a_closed_pool_leaves_the_cpu_count_as_it_found_it(self, monkeypatch):
        """Read right after a multi-lane ``_Lanes`` closes, ``_cpus()`` counts none of its
        threads: exit waits until they have left /proc/self/task."""
        cpus = sinkhorn._cpus
        before = settled_cpus()
        force_lanes(monkeypatch, 3)
        # A dying thread lingers in a few percent of closes, so many closes are read.
        for _ in range(300):
            with sinkhorn._Lanes(1 << 62) as lanes:
                assert len(lanes.run(lambda i0, i1: threading.get_native_id(), 3 * 64)) == 3
            assert cpus() == before

    def test_log_domain_reductions_split_by_lanes(self, monkeypatch):
        """The far-* instances' log-sum-exps run one span per lane with the bits of
        one span, and their plans, iteration counts and violations agree in 1 to 5 lanes."""
        spans, lse, logsumexp = [], sinkhorn._lse, sinkhorn._logsumexp
        checked = []

        def compared(A, axis, lanes):
            whole = lse(A.copy(), axis)
            spans.clear()
            got = logsumexp(A, axis, lanes)
            checked.append((len(spans), got.tobytes() == whole.tobytes()))
            return got

        monkeypatch.setattr(sinkhorn, "_lse", lambda S, axis: spans.append(S.shape) or lse(S, axis))
        monkeypatch.setattr(sinkhorn, "_logsumexp", compared)
        far = [inst for inst in lane_instances() if inst[0].startswith("far-")]
        results = []
        for count in range(1, 6):
            force_lanes(monkeypatch, count)
            checked.clear()
            results.append([(c.matrix.tobytes(), c.n_iters, c.max_violation)
                            for _, C, a, b, eps in far
                            for c in [sinkhorn_solve(C, a, b, epsilon=eps)]])
            assert checked and all(same for _, same in checked), count
            assert all((n_spans > 1) == (count > 1) for n_spans, _ in checked), count
        assert all(r == results[0] for r in results[1:])

    def test_no_thread_outlives_a_solve(self, monkeypatch):
        C, a, b = random_problem(301, 299, 71)
        force_lanes(monkeypatch, 4)
        before = threading.active_count()
        sinkhorn_solve(C, a, b, epsilon=0.5)
        assert threading.active_count() == before

    def test_compare_sizes_start_no_thread(self, monkeypatch):
        """Below 2 * _LANE_ELEMS entries a solve is one lane, however many CPUs."""
        def no_start(self):
            raise AssertionError("a solve started a thread")

        monkeypatch.setattr(sinkhorn, "_cpus", lambda: 64)
        monkeypatch.setattr(threading.Thread, "start", no_start)
        rng = np.random.default_rng(76)
        C = squared_distance_matrix(rng.standard_normal((200, 2)),
                                    rng.standard_normal((200, 2)) + 5.0)
        assert sinkhorn_solve(C, epsilon=default_epsilon(C)).converged
        assert sinkhorn._Lanes(1000 * 1000).count == 1
        assert sinkhorn._Lanes(2 * sinkhorn._LANE_ELEMS).count == 2


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

    def test_overflowing_distance_cost_is_refused(self):
        C = squared_distance_matrix([[1e200], [0.0]], [[-1e200], [0.0]])
        assert C[0, 0] == np.inf
        with pytest.raises(InputError, match="non-finite"):
            sinkhorn_solve(C, epsilon=1.0)

    def test_budget_checked(self):
        with pytest.raises(InputError):
            sinkhorn_solve(self.C, epsilon=1.0, max_iters=0)
        with pytest.raises(InputError):
            sinkhorn_solve(self.C, epsilon=1.0, tol=0.0)

    @pytest.mark.parametrize("name, value", [
        ("max_iters", 2.5), ("max_iters", True), ("max_iters", "10"), ("max_iters", None),
        ("tol", "1e-9"), ("tol", True), ("tol", None),
        ("epsilon", None), ("epsilon", "1.0"), ("epsilon", False), ("epsilon", [1.0]),
    ])
    def test_settings_take_the_config_types(self, name, value):
        """max_iters is an int and tol and epsilon real numbers, as in the config (bool is
        neither); anything else is an InputError naming the argument."""
        with pytest.raises(InputError, match=f"^{name}: expected"):
            sinkhorn_solve(self.C, **{"epsilon": 1.0, name: value})

    def test_numpy_scalars_are_accepted(self):
        ref = sinkhorn_solve(self.C, epsilon=0.5, max_iters=40, tol=1e-9)
        got = sinkhorn_solve(self.C, epsilon=np.float64(0.5), max_iters=np.int64(40),
                             tol=np.float64(1e-9))
        assert got.matrix.tobytes() == ref.matrix.tobytes() and got.n_iters == ref.n_iters


class TestHelpers:
    def test_default_epsilon_is_tenth_of_median(self):
        C = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(default_epsilon(C), 0.25, rtol=1e-15)

    @settings(max_examples=400, deadline=None)
    @given(C=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=7),
                    elements=st.one_of(
                        st.sampled_from([0.0, -0.0, 1.0, 2.5, -1.0, np.inf, -np.inf, np.nan]),
                        st.floats(allow_nan=False))))
    def test_default_epsilon_is_a_tenth_of_numpys_median_bit_for_bit(self, C):
        """Odd and even sizes, ties, signed zeros, infinities and overflowing middles:
        an accepted cost gives np.median's bits, and a cost whose median is NaN, zero
        or negative is refused without a warning (pytest turns warnings into errors)."""
        with np.errstate(all="ignore"):
            expected = 0.1 * float(np.median(C))
        for cost in (C, C.T):
            if np.isfinite(expected) and expected > 0.0:
                assert default_epsilon(cost).hex() == expected.hex()
            else:
                with pytest.raises(InputError, match="median-based epsilon"):
                    default_epsilon(cost)

    def test_default_epsilon_brackets_large_costs_with_numpys_bits(self, monkeypatch):
        """Costs at or above the bracket's size threshold, odd and even sizes: the value
        is a tenth of np.median's, bit for bit, or the same refusal. The sample spans a
        sorted cost end to end and brackets its middle. The full partition runs for a cost
        whose middle value fills most of it (constant, two-valued, 60% zeros or
        infinities), a NaN, a cost whose sampled entries stand above the rest, and a
        bracket that leaves out a middle entry."""
        hits, bracket = [], sinkhorn._bracket

        def recorded(C, k):
            found = bracket(C, k)
            hits.append(found is not None)
            return found

        monkeypatch.setattr(sinkhorn, "_bracket", recorded)
        rng = np.random.default_rng(65)
        for m, n in ((257, 257), (256, 300)):
            assert m * n >= sinkhorn._BRACKET_MIN
            ascending = np.arange(1.0, m * n + 1.0).reshape(m, n)
            zeros = np.where(rng.random((m, n)) < 0.5, 0.0, -0.0)
            nan = rng.uniform(0.0, 4.0, (m, n))
            nan[m // 3, n // 5] = np.nan
            missed = np.ones((m, n))
            stride = next(s for s in itertools.count(sinkhorn._SAMPLE_STRIDE)
                          if math.gcd(s, m) == math.gcd(s, n) == 1)
            missed.reshape(-1)[::stride] = 2.0
            # Columns 0 and 128 stand apart: a stride of 128 would sample only them.
            periodic = rng.uniform(0.0, 1.0, (m, n))
            periodic[:, ::128] += 10.0
            # Permutations of 0 .. m n - 1 whose sample puts the bracket's low end on the
            # upper middle k, so that the lower middle k - 1 lies below the bracket, ...
            k, size = m * n // 2, m * n
            sampled = np.arange(0, size, stride)
            at, spread = k * sampled.size // size, math.isqrt(sampled.size) * 2
            top = sampled.size - at - spread - 1
            ends = {}
            for name, picks in (
                    ("low", np.concatenate([np.arange(at - spread), np.arange(k, k + top + 2 * spread + 1)])),
                    # and its high end one below k: the middle lies above the bracket.
                    ("high", np.concatenate([np.arange(k - at - spread - 1, k), np.arange(size - top, size)]))):
                cost = np.empty(size)
                cost[sampled] = picks
                cost[np.setdiff1d(np.arange(size), sampled)] = rng.permutation(
                    np.setdiff1d(np.arange(size, dtype=float), picks))
                ends[name] = cost.reshape(m, n)
            costs = {
                "ascending": (ascending, True),
                "descending": (ascending[::-1, ::-1].copy(), True),
                "constant": (np.full((m, n), 2.5), False),
                "two values": (np.where(rng.random((m, n)) < 0.5, 1.0, 3.0), False),
                "signed zeros": (np.where(rng.random((m, n)) < 0.25, zeros,
                                          rng.uniform(0.0, 1.0, (m, n))), True),
                "zero middle": (np.where(rng.random((m, n)) < 0.6, zeros, 1.0), False),
                "infinities": (np.where(rng.random((m, n)) < 0.3, np.inf,
                                        rng.uniform(0.0, 1.0, (m, n))), True),
                "infinite middle": (np.where(rng.random((m, n)) < 0.6, np.inf, 1.0), False),
                "one NaN": (nan, False),
                "transposed view": (rng.uniform(0.0, 4.0, (n, m)).T, True),
                "missed": (missed, False),
                "column-periodic": (periodic, True),
                "middle at the low end": (ends["low"], m * n % 2 == 1),
                "middle above the high end": (ends["high"], False),
            }
            for name, (cost, hit) in costs.items():
                with np.errstate(all="ignore"):
                    expected = 0.1 * float(np.median(cost))
                hits.clear()
                if np.isfinite(expected) and expected > 0.0:
                    assert default_epsilon(cost).hex() == expected.hex(), name
                else:
                    with pytest.raises(InputError, match="median-based epsilon"):
                        default_epsilon(cost)
                assert hits == [hit], name

    def test_default_epsilon_rejects_degenerate_costs(self):
        with pytest.raises(InputError):
            default_epsilon(np.zeros((3, 3)))

    @pytest.mark.parametrize("cost", [np.zeros((0, 3)), np.zeros(0), [1.0, 2.0],
                                      np.ones((2, 2, 2)), 1.0],
                             ids=["no-rows", "empty", "vector", "3-d", "scalar"])
    def test_default_epsilon_refuses_a_cost_that_is_not_a_nonempty_matrix(self, cost):
        # Refused before the median, whose empty-slice warning pytest turns into an error.
        with pytest.raises(InputError, match="cost matrix must be 2-d and nonempty"):
            default_epsilon(cost)

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

    @pytest.mark.parametrize("m, n, d", [(130, 77, 3), (1999, 2001, 2), (65, 300, 1)])
    def test_distance_matrix_keeps_its_bits_in_every_lane_count(self, monkeypatch, m, n, d):
        from test_kernel import frozen_sqdist

        rng = np.random.default_rng(m + d)
        X, Y = rng.standard_normal((m, d)) * 3.0, rng.standard_normal((n, d))
        Y[:m:7] = X[:n:7]
        expected = frozen_sqdist(X, Y).tobytes()
        spans, run = [], sinkhorn._Lanes.run
        monkeypatch.setattr(sinkhorn._Lanes, "run",
                            lambda self, fn, n: spans.append(len(r := run(self, fn, n))) or r)
        for count in (1, 2, 3, 5):
            force_lanes(monkeypatch, count)
            spans.clear()
            assert squared_distance_matrix(X, Y).tobytes() == expected, count
            with sinkhorn._Lanes(m * n) as lanes:
                widths = run(lanes, lambda i0, i1: i1 - i0, m)
            assert spans == [len(widths)] and (len(widths) == count or m < 1000)

    def test_distance_matrix_pool_lanes_run_under_the_callers_errstate(self, monkeypatch):
        """Rows 64.. lie 1e200 from every target, so their squared distances overflow on
        a pool lane; the routine's own np.errstate silences that there too (pytest turns
        warnings into errors)."""
        X = np.zeros((130, 2))
        X[64:] = 1e200
        Y = np.full((70, 2), -1e200)
        Y[:5] = 0.0
        force_lanes(monkeypatch, 3)
        C = squared_distance_matrix(X, Y)
        assert np.isinf(C[64:]).all() and np.isinf(C[:64, 5:]).all()
        assert (C[:64, :5] == 0.0).all() and np.isinf(C[64:, :5]).all()

    def test_distance_matrix_row_blocks_keep_the_bits(self, monkeypatch):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((23, 3))
        Y = rng.standard_normal((17, 3))
        whole = kernel._sqdist(X, Y)
        monkeypatch.setattr(kernel, "_BAND_ELEMS", 17)  # one row of 17 columns per band
        np.testing.assert_array_equal(squared_distance_matrix(X, Y), whole)

    def test_distance_matrix_holds_one_matrix_and_one_block(self):
        n = 1000
        rng = np.random.default_rng(10)
        X = rng.standard_normal((n, 2))
        Y = rng.standard_normal((n, 2))
        tracemalloc.start()
        try:
            squared_distance_matrix(X, Y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The result, plus a few temporaries of one 125 KiB row block.
        assert peak < 8 * n * n + (1 << 20)


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

    def test_sinkhorn_runtime_includes_the_cost_matrix(self, monkeypatch):
        """The Sinkhorn row times the whole method, as the neural row does:
        the distance matrix and epsilon count too."""
        def slow_distances(X, Y):
            time.sleep(0.2)
            return squared_distance_matrix(X, Y)

        monkeypatch.setattr(compare, "squared_distance_matrix", slow_distances)
        rows = compare_runs(self.tiny_config(), CompareConfig(sizes=(12,), seed=3))
        assert rows[1].method == "sinkhorn"
        assert rows[1].runtime_seconds >= 0.2

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
