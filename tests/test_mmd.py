import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mongemmd import (
    InputError,
    KernelSpec,
    kernel,
    kernel_eval,
    kernel_gram,
    mmd2_biased,
    mmd2_population_gaussian,
    mmd2_unbiased,
)
from mongemmd.mmd import _source_terms


def mmd2_unbiased_oracle(spec, X, Y):
    """U-statistic by explicit pair loops."""
    m, n = len(X), len(Y)
    xx = sum(kernel_eval(spec, X[i], X[j])
             for i in range(m) for j in range(m) if i != j)
    yy = sum(kernel_eval(spec, Y[i], Y[j])
             for i in range(n) for j in range(n) if i != j)
    xy = sum(kernel_eval(spec, X[i], Y[j]) for i in range(m) for j in range(n))
    return xx / (m * (m - 1)) - 2.0 * xy / (m * n) + yy / (n * (n - 1))


def mmd2_unbiased_grad_points(spec, X, Y):
    """Gradient of the U-statistic with respect to each X_i, holding Y fixed.

    Row i is d(mmd2)/d(X_i): the gradient of the X-dependent terms from the
    kernel's one walk of X against X ‖ Y; the Y-Y term is constant in X.
    """
    return _source_terms(spec, np.asarray(X, float), np.asarray(Y, float), want_grad=True)[1]


def mmd2_biased_oracle(spec, X, Y):
    """V-statistic by explicit pair loops (diagonals included)."""
    m, n = len(X), len(Y)
    xx = sum(kernel_eval(spec, X[i], X[j]) for i in range(m) for j in range(m))
    yy = sum(kernel_eval(spec, Y[i], Y[j]) for i in range(n) for j in range(n))
    xy = sum(kernel_eval(spec, X[i], Y[j]) for i in range(m) for j in range(n))
    return xx / (m * m) - 2.0 * xy / (m * n) + yy / (n * n)


def traced_peak(call) -> int:
    """Peak bytes that tracemalloc sees allocated during ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


SPECS = [
    KernelSpec(),
    KernelSpec(alpha=0.5),
    KernelSpec(family="matern", matern_order="half", lengthscale=1.2),
    KernelSpec(family="matern", matern_order="five_halves"),
]


class TestUnbiased:
    def test_two_point_identical_sets(self):
        # X = Y = {0, 1}: xx = yy = e^{-1}, cross = -(2/4)(2 + 2e^{-1})
        v = mmd2_unbiased(KernelSpec(), [[0.0], [1.0]], [[0.0], [1.0]])
        np.testing.assert_allclose(v, math.exp(-1.0) - 1.0, rtol=1e-14)
        assert v < 0.0  # the unbiased statistic may be negative and stays so

    def test_two_point_separated_sets(self):
        v = mmd2_unbiased(KernelSpec(), [[0.0], [1.0]], [[5.0], [6.0]])
        expected = (2 * math.exp(-1.0)
                    - 0.5 * (math.exp(-25) + math.exp(-36) + math.exp(-16) + math.exp(-25)))
        np.testing.assert_allclose(v, expected, rtol=1e-14)

    def test_matches_oracle_on_random_sets(self):
        rng = np.random.default_rng(31)
        for spec in SPECS:
            for _ in range(10):
                m = int(rng.integers(2, 9))
                n = int(rng.integers(2, 9))
                X = rng.standard_normal((m, 2))
                Y = rng.standard_normal((n, 2)) + 1.0
                np.testing.assert_allclose(
                    mmd2_unbiased(spec, X, Y),
                    mmd2_unbiased_oracle(spec, X, Y),
                    rtol=1e-12, atol=1e-14,
                )

    def test_unequal_sizes_supported(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((4, 3))
        Y = rng.standard_normal((11, 3))
        np.testing.assert_allclose(
            mmd2_unbiased(KernelSpec(), X, Y),
            mmd2_unbiased_oracle(KernelSpec(), X, Y),
            rtol=1e-12,
        )

    def test_symmetry(self):
        rng = np.random.default_rng(41)
        X = rng.standard_normal((6, 2))
        Y = rng.standard_normal((9, 2))
        a = mmd2_unbiased(KernelSpec(), X, Y)
        b = mmd2_unbiased(KernelSpec(), Y, X)
        np.testing.assert_allclose(a, b, rtol=1e-13)

    def test_size_below_two_raises(self):
        with pytest.raises(InputError):
            mmd2_unbiased(KernelSpec(), [[0.0]], [[1.0], [2.0]])

    def test_dimension_mismatch_raises(self):
        with pytest.raises(InputError):
            mmd2_unbiased(KernelSpec(), np.zeros((3, 2)), np.zeros((3, 1)))

    def test_streaming_matches_full_gram(self, monkeypatch):
        rng = np.random.default_rng(23)
        X = rng.standard_normal((40, 2))
        Y = rng.standard_normal((37, 2))
        spec = KernelSpec()
        m, n = len(X), len(Y)
        full = ((kernel_gram(spec, X, X).sum() - m) / (m * (m - 1))
                - 2.0 * kernel_gram(spec, X, Y).sum() / (m * n)
                + (kernel_gram(spec, Y, Y).sum() - n) / (n * (n - 1)))
        monkeypatch.setattr(kernel, "_BLOCK_ELEMS", 8 * 40)  # 8 rows of 40 columns
        streamed = mmd2_unbiased(spec, X, Y)
        np.testing.assert_allclose(streamed, full, rtol=1e-13)

    def test_memory_is_one_row_block(self):
        """No Gram matrix is kept: the peak, in n-by-n float64 matrices, is one row block's work
        (about five temporaries of one cache-sized block, well under one matrix)."""
        n = 400
        rng = np.random.default_rng(29)
        X = rng.standard_normal((n, 2))
        Y = rng.standard_normal((n, 2))
        peak = traced_peak(lambda: mmd2_unbiased(KernelSpec(), X, Y))
        assert peak / (8 * n * n) <= 0.6

    def test_memory_does_not_grow_with_n(self):
        """At n = 2000 a Gram matrix is 32 MB; the walk holds under 1.5 MiB, with or without
        the gradient and for one set or two (its workspace is max(d, 3) planes of a block of
        up to 2 * _BLOCK_ELEMS entries, 768 KB at d = 2, with a second set and the gradient)."""
        n = 2000
        rng = np.random.default_rng(30)
        X = rng.standard_normal((n, 2))
        Y = rng.standard_normal((n, 2))
        spec = KernelSpec()
        for call in (lambda: mmd2_unbiased(spec, X, Y),
                     lambda: kernel._walk(spec, X, want_grad=True),
                     lambda: kernel._walk(spec, X, Y, want_grad=True)):
            assert traced_peak(call) < 3 << 19

    def test_memory_does_not_grow_with_the_number_of_blocks(self):
        """At 3 row blocks and at >= 100 the walk holds one workspace, max(d, 3) planes
        (2 without the gradient) of its largest block, and O(n d) beside it: the factors,
        the weighted columns, the gradient and one mirrored product at a time, never a
        temporary per block that outlives it."""
        rng = np.random.default_rng(31)
        spec = KernelSpec()
        # (rows, second set?) giving 3 blocks, then >= 100, for one set and for two.
        for m, two, few in ((250, False, True), (1800, False, False),
                            (200, True, True), (1300, True, False)):
            X = rng.standard_normal((m, 2))
            other = rng.standard_normal((m, 2)) if two else None
            n = 2 * m if two else m
            blocks = list(kernel._row_blocks(m, n))
            assert len(blocks) == 3 if few else len(blocks) >= 100
            elems = max((i1 - i0) * (n - i0) for i0, i1 in blocks)
            for want_grad in (False, True):
                workspace = 8 * (3 if want_grad else 2) * elems
                peak = traced_peak(lambda: kernel._walk(spec, X, other, want_grad=want_grad))
                assert peak - workspace < 12 * 8 * n * 2, (m, two, want_grad)

    def test_sets_too_far_apart_give_no_cross_term(self):
        X, Y = np.full((2, 1), 1e200), np.full((2, 1), -1e200)
        for spec in [KernelSpec()] + [KernelSpec(family="matern", matern_order=order)
                                      for order in ("half", "three_halves", "five_halves")]:
            assert mmd2_unbiased(spec, X, Y) == 2.0
            assert mmd2_biased(spec, X, Y) == 2.0


class TestBiased:
    def test_two_singletons(self):
        v = mmd2_biased(KernelSpec(), [[0.0]], [[1.0]])
        np.testing.assert_allclose(v, 2.0 - 2.0 * math.exp(-1.0), rtol=1e-14)

    def test_matches_oracle(self):
        rng = np.random.default_rng(37)
        for spec in SPECS:
            X = rng.standard_normal((5, 2))
            Y = rng.standard_normal((8, 2)) - 0.5
            np.testing.assert_allclose(
                mmd2_biased(spec, X, Y), mmd2_biased_oracle(spec, X, Y),
                rtol=1e-12, atol=1e-14,
            )

    def test_zero_on_identical_multisets(self):
        rng = np.random.default_rng(43)
        X = rng.standard_normal((12, 3))
        X = np.vstack([X, X[:3]])  # genuine multiset with repeats
        assert mmd2_biased(KernelSpec(), X, X.copy()) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(2, 29), d=st.integers(1, 3),
           spec=st.sampled_from(SPECS))
    def test_zero_on_identical_sets_and_a_rounding_residue_on_reordered_ones(
            self, data, n, d, spec):
        """Only a byte-identical copy gives exactly 0. A permuted copy is the same multiset,
        but its pairs are summed in another order, which may leave a positive residue of a
        few units of rounding; it is never negative."""
        X = data.draw(hnp.arrays(np.float64, (n, d), elements=st.floats(-5.0, 5.0)))
        perm = np.array(data.draw(st.permutations(range(n))))
        assert mmd2_biased(spec, X, X.copy()) == 0.0
        assert 0.0 <= mmd2_biased(spec, X, X[perm]) <= 1e-15

    def test_exact_symmetry(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            X = rng.standard_normal((6, 2))
            Y = rng.standard_normal((4, 2))
            assert mmd2_biased(KernelSpec(), X, Y) == mmd2_biased(KernelSpec(), Y, X)

    def test_nonnegative_on_random_instances(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            X = rng.standard_normal((m, 2)) * rng.uniform(0.1, 3)
            Y = rng.standard_normal((n, 2)) * rng.uniform(0.1, 3)
            assert mmd2_biased(KernelSpec(), X, Y) >= 0.0


class TestGradPoints:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(61)
        h = 1e-6
        for spec in [KernelSpec(), KernelSpec(family="matern", matern_order="three_halves")]:
            X = rng.standard_normal((5, 2))
            Y = rng.standard_normal((7, 2)) + 1.0
            grad = mmd2_unbiased_grad_points(spec, X, Y)
            assert grad.shape == X.shape
            for i in range(5):
                for j in range(2):
                    Xp = X.copy(); Xp[i, j] += h
                    Xm = X.copy(); Xm[i, j] -= h
                    fd = (mmd2_unbiased_oracle(spec, Xp, Y)
                          - mmd2_unbiased_oracle(spec, Xm, Y)) / (2 * h)
                    np.testing.assert_allclose(grad[i, j], fd, rtol=5e-5, atol=1e-9)

    def test_pair_loop_agreement_when_sets_equal(self):
        # With X == Y the i == j cross pairs sit at zero distance, where the
        # gaussian gradient vanishes, so the loop can skip them too.
        from mongemmd import kernel_grad_x

        rng = np.random.default_rng(67)
        X = rng.standard_normal((6, 2))
        grad = mmd2_unbiased_grad_points(KernelSpec(), X, X.copy())
        brute = np.zeros_like(X)
        m = X.shape[0]
        for i in range(m):
            for j in range(m):
                if j != i:
                    brute[i] += (2.0 / (m * (m - 1))) * kernel_grad_x(KernelSpec(), X[i], X[j])
                    brute[i] += -(2.0 / (m * m)) * kernel_grad_x(KernelSpec(), X[i], X[j])
        np.testing.assert_allclose(grad, brute, rtol=1e-11, atol=1e-13)


class TestPopulationGaussian:
    def test_closed_form_value(self):
        # d=1, alpha=1, means 0 and 5, unit variances:
        # 2 * 5^{-1/2} - 2 * 5^{-1/2} e^{-25/5} = 2/sqrt(5) (1 - e^{-5})
        v = mmd2_population_gaussian(KernelSpec(), [0.0], 1.0, [5.0], 1.0)
        expected = 2.0 / math.sqrt(5.0) * (1.0 - math.exp(-5.0))
        np.testing.assert_allclose(v, expected, rtol=1e-13)

    def test_identical_distributions_give_zero(self):
        v = mmd2_population_gaussian(KernelSpec(alpha=0.8), [1.0, -2.0], 1.5, [1.0, -2.0], 1.5)
        assert v == 0.0

    def test_monte_carlo_agreement(self):
        spec = KernelSpec(alpha=0.6)
        m0, s0 = np.array([0.0, 0.0]), 1.0
        m1, s1 = np.array([2.0, 1.0]), 1.4
        pop = mmd2_population_gaussian(spec, m0, s0, m1, s1)
        rng = np.random.default_rng(71)
        n = 4000
        X = m0 + s0 * rng.standard_normal((n, 2))
        Y = m1 + s1 * rng.standard_normal((n, 2))
        est = mmd2_unbiased(spec, X, Y)
        # crude 3-sigma band from resampled spread at this size
        assert abs(est - pop) < 0.02

    def test_means_too_far_apart_give_no_cross_term(self):
        # |m0 - m1|^2 overflows to inf without a warning: only 2 / sqrt(5) is left.
        v = mmd2_population_gaussian(KernelSpec(), [1e200], 1.0, [-1e200], 1.0)
        assert v == 2.0 / math.sqrt(5.0)

    def test_non_gaussian_kernel_rejected(self):
        with pytest.raises(InputError):
            mmd2_population_gaussian(
                KernelSpec(family="matern"), [0.0], 1.0, [1.0], 1.0)

    def test_bad_scales_rejected(self):
        # Non-finite input is refused up front: the final max(0, .) would turn a NaN into 0.0.
        for m0, s0, m1, s1 in [([0.0], -1.0, [1.0], 1.0), ([0.0], 1.0, [1.0], 0.0),
                               ([math.nan], 1.0, [1.0], 1.0), ([0.0], 1.0, [-math.inf], 1.0),
                               ([0.0], math.inf, [1.0], 1.0), ([0.0], 1.0, [1.0], math.nan)]:
            with pytest.raises(InputError, match="must be finite"):
                mmd2_population_gaussian(KernelSpec(), m0, s0, m1, s1)
