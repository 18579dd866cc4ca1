import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mongemmd.kernel as kmod
from mongemmd import (Activation, InputError, KernelSpec, MlpParams, NumericError, kernel_eval,
                      kernel_grad_x, kernel_gram, squared_distance_matrix)
from mongemmd.kernel import KernelFamily, MaternOrder, _WalkPlan, _row_blocks, _sqdist, _walk
from mongemmd.loss import _evaluate


def kernel_oracle(spec, x, y):
    """Scalar reference implementation, plain math on python floats."""
    sq = sum((a - b) ** 2 for a, b in zip(x, y))
    r = math.sqrt(sq)
    if spec.family == "gaussian":
        return math.exp(-spec.alpha * sq)
    ell = spec.lengthscale
    if spec.matern_order == "half":
        return math.exp(-r / ell)
    if spec.matern_order == "three_halves":
        z = math.sqrt(3.0) * r / ell
        return (1.0 + z) * math.exp(-z)
    z = math.sqrt(5.0) * r / ell
    return (1.0 + z + z * z / 3.0) * math.exp(-z)


ALL_SPECS = [
    KernelSpec(),
    KernelSpec(alpha=0.25),
    KernelSpec(alpha=3.0),
    KernelSpec(family="matern", matern_order="half", lengthscale=1.0),
    KernelSpec(family="matern", matern_order="half", lengthscale=0.7),
    KernelSpec(family="matern", matern_order="three_halves", lengthscale=1.3),
    KernelSpec(family="matern", matern_order="five_halves", lengthscale=2.0),
]


class TestKernelEval:
    def test_gaussian_unit_distance(self):
        # alpha=1, |x-y|^2=1
        v = kernel_eval(KernelSpec(), [0.0, 0.0], [1.0, 0.0])
        np.testing.assert_allclose(v, math.exp(-1.0), rtol=1e-15)

    def test_matern_half_known_value(self):
        spec = KernelSpec(family="matern", matern_order="half", lengthscale=1.0)
        v = kernel_eval(spec, [0.0], [2.0])
        np.testing.assert_allclose(v, math.exp(-2.0), rtol=1e-15)

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for spec in ALL_SPECS:
            for _ in range(40):
                d = rng.integers(1, 6)
                x = rng.standard_normal(d)
                y = rng.standard_normal(d)
                np.testing.assert_allclose(
                    kernel_eval(spec, x, y), kernel_oracle(spec, x, y), rtol=1e-13
                )

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(5)
        for spec in ALL_SPECS:
            for _ in range(40):
                x = rng.standard_normal(3) * 3
                y = rng.standard_normal(3) * 3
                kxy = kernel_eval(spec, x, y)
                assert kxy == kernel_eval(spec, y, x)
                assert 0.0 < kxy <= 1.0

    def test_self_kernel_is_exactly_one(self):
        rng = np.random.default_rng(9)
        for spec in ALL_SPECS:
            x = rng.standard_normal(4) * 10
            assert kernel_eval(spec, x, x.copy()) == 1.0

    def test_dimension_mismatch_raises(self):
        with pytest.raises(InputError):
            kernel_eval(KernelSpec(), [0.0, 1.0], [0.0])

    def test_bad_hyperparameters_raise(self):
        with pytest.raises(InputError):
            KernelSpec(alpha=0.0)
        with pytest.raises(InputError):
            KernelSpec(alpha=float("nan"))
        with pytest.raises(InputError):
            KernelSpec(family="matern", lengthscale=-1.0)
        with pytest.raises((InputError, ValueError)):
            KernelSpec(family="triangle")


class TestKernelGrad:
    def test_gaussian_grad_known_value(self):
        # d/dx exp(-|x-y|^2) at x=(1,0), y=(0,0) is -2 e^{-1} (1, 0)
        g = kernel_grad_x(KernelSpec(), [1.0, 0.0], [0.0, 0.0])
        np.testing.assert_allclose(g, [-2.0 * math.exp(-1.0), 0.0], rtol=1e-15)

    def test_grad_matches_central_differences(self):
        rng = np.random.default_rng(3)
        h = 1e-6
        for spec in ALL_SPECS:
            for _ in range(20):
                d = rng.integers(1, 5)
                x = rng.standard_normal(d)
                y = rng.standard_normal(d) + 0.5
                g = kernel_grad_x(spec, x, y)
                for j in range(d):
                    xp = x.copy(); xp[j] += h
                    xm = x.copy(); xm[j] -= h
                    fd = (kernel_eval(spec, xp, y) - kernel_eval(spec, xm, y)) / (2 * h)
                    np.testing.assert_allclose(g[j], fd, rtol=2e-5, atol=1e-9)

    def test_antisymmetry_in_arguments(self):
        rng = np.random.default_rng(8)
        for spec in ALL_SPECS:
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            np.testing.assert_allclose(
                kernel_grad_x(spec, x, y), -kernel_grad_x(spec, y, x), rtol=1e-14
            )

    def test_smooth_families_vanish_at_coincidence(self):
        x = np.array([1.5, -2.0])
        for spec in ALL_SPECS:
            if spec.family == "matern" and spec.matern_order == "half":
                continue
            np.testing.assert_array_equal(kernel_grad_x(spec, x, x.copy()), [0.0, 0.0])

    def test_matern_half_raises_at_coincidence(self):
        spec = KernelSpec(family="matern", matern_order="half")
        with pytest.raises(InputError):
            kernel_grad_x(spec, [1.0, 2.0], [1.0, 2.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", [kernel_eval, kernel_grad_x])
def test_scalar_entries_refuse_non_finite_points(entry, bad):
    # Refused before any arithmetic, so no RuntimeWarning either.
    with pytest.raises(InputError, match="^x contains non-finite values$"):
        entry(KernelSpec(), [bad, 0.0], [0.0, 0.0])
    with pytest.raises(InputError, match="^y contains non-finite values$"):
        entry(KernelSpec(), [0.0, 0.0], [0.0, bad])


# The Gaussian and each Matern order.
FAMILY_SPECS = [KernelSpec()] + [KernelSpec(family="matern", matern_order=order)
                                 for order in ("half", "three_halves", "five_halves")]


def test_points_too_far_apart_give_kernel_value_zero():
    # The squared distance overflows to inf without a RuntimeWarning (pytest
    # turns warnings into errors), and inf gives the limit value 0.
    for spec in FAMILY_SPECS:
        assert kernel_eval(spec, [1e200], [-1e200]) == 0.0
        # A finite squared distance whose Matern 5/2 term z * z overflows.
        assert kernel_eval(spec, [5e153], [-5e153]) == 0.0
        assert kernel_grad_x(spec, [1e200], [-1e200])[0] == 0.0
        # Here x - y overflows too; the gradient's limit is the zero vector.
        np.testing.assert_array_equal(kernel_grad_x(spec, [1e308, 1.0], [-1e308, 0.0]), [0, 0])
        np.testing.assert_array_equal(kernel_gram(spec, [[1e200], [0.0]], [[-1e200]]),
                                      [[0.0], [0.0]])


# Signed zeros, subnormals and magnitudes whose differences overflow, besides any finite float.
COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e308, -1e308,
                     np.finfo(np.float64).max, -np.finfo(np.float64).max]),
    st.floats(allow_nan=False, allow_infinity=False))


def layout(A, how):
    """``A`` as a C-ordered array, a Fortran-ordered copy, or a strided slice of a larger array."""
    if how == "fortran":
        return np.asfortranarray(A)
    if how == "sliced":
        big = np.zeros((2 * A.shape[0], A.shape[1] + 1))
        big[::2, 1:] = A
        return big[::2, 1:]
    return A


@st.composite
def point_pairs(draw, max_d: int):
    """Two point sets of a common dimension 1..max_d with edge-case coordinates, some
    rows of Y copied from X, and either set laid out in any of the orders of ``layout``."""
    d, m, n = draw(st.integers(1, max_d)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    X = draw(arrays(np.float64, (m, d), elements=COORDS))
    Y = draw(arrays(np.float64, (n, d), elements=COORDS))
    for j in draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True)):
        Y[j] = X[draw(st.integers(0, m - 1))]
    hows = st.sampled_from(["c", "fortran", "sliced"])
    return layout(X, draw(hows)), layout(Y, draw(hows))


class TestSqdist:
    @settings(max_examples=300, deadline=None)
    @given(pair=point_pairs(5))
    def test_equals_the_broadcast_sum_bitwise(self, pair):
        X, Y = pair
        with np.errstate(over="ignore"):
            got = _sqdist(X, Y)
            expected = ((X[:, None, :] - Y[None, :, :]) ** 2).sum(axis=2)
        assert got.tobytes() == expected.tobytes()
        assert not np.signbit(got).any()


def frozen_sqdist(X, Y):
    """The per-coordinate broadcast sum the product form replaced, kept as a reference."""
    sq = (X[:, None, 0] - Y[None, :, 0]) ** 2
    for j in range(1, X.shape[1]):
        sq += (X[:, None, j] - Y[None, :, j]) ** 2
    return sq


def kernel_values(spec, sq):
    """The formula routine's values of the squared distances ``sq`` (left intact)."""
    k = np.empty_like(sq)
    kmod._eval_from_sqdist(spec, sq.copy(), k)
    return k


def frozen_walk(spec, X, Y, wx, wy, want_grad):
    """The row-block walk of ``_walk`` over ``frozen_sqdist``, statement for statement."""
    half = spec.family is KernelFamily.MATERN and spec.matern_order is MaternOrder.HALF
    m = X.shape[0]
    C = X if Y is None else np.concatenate([X, Y])
    wg = np.full(C.shape[0], wy)
    wg[:m] = 2.0 * wx
    wt = wg.copy()
    if want_grad:
        A = np.column_stack([wg, wg[:, None] * C])
        H = np.zeros((m, A.shape[1]))
    total = 0.0
    for i0, i1 in _row_blocks(m, C.shape[0]):
        sq = frozen_sqdist(X[i0:i1], C[i0:])
        r, c = sq.shape
        diag = slice(None, None, c + 1)
        sq.reshape(-1)[diag] = np.inf
        zero = None
        if want_grad and sq.min() == 0.0:
            if half:
                raise InputError("Matern order 1/2 has no gradient at coincident points")
            zero = sq == 0.0
        k = np.empty_like(sq)
        coeff = np.empty_like(sq) if want_grad else None
        kmod._eval_from_sqdist(spec, sq, k, coeff)
        k.reshape(-1)[diag] = 1.0
        wt[i0:i1] = wx
        total += float((k @ wt[i0:]).sum())
        if not want_grad:
            continue
        if zero is not None:
            coeff[zero] = 0.0
        H[i0:i1] += coeff @ A[i0:]
        if i1 < m:
            H[i1:] += coeff[:, r:m - i0].T @ A[i0:i1]
    if not want_grad:
        return total, None
    return total, H[:, :1] * X - H[:, 1:]


FAMILY_SPECS = [KernelSpec(alpha=0.7)] + [
    KernelSpec(family="matern", matern_order=order, lengthscale=1.3)
    for order in ("half", "three_halves", "five_halves")]


class TestProductFormIsExact:
    """The walks over the product-form differences have the broadcast walks' bits."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("spec", FAMILY_SPECS, ids=lambda s: s.matern_order.value
                             if s.family == "matern" else "gaussian")
    def test_kernel_sum_at_n_500(self, spec, d):
        rng = np.random.default_rng(40 + d)
        X = rng.standard_normal((500, d))
        Y = rng.standard_normal((500, d)) + 0.5
        Y[::7] = X[::7]  # coincident pairs across the sets
        assert len(list(_row_blocks(500, 1000))) > 10
        for other, wx, wy in ((None, 0.5, 1.0), (Y, 1.0 / (500 * 499), -2.0 / 500**2)):
            for want_grad in (False, True):
                if want_grad and other is Y and spec.matern_order is MaternOrder.HALF:
                    continue  # its gradient is undefined at the coincident pairs
                total, grad = _walk(spec, X, other, wx, wy, want_grad)
                ref_total, ref_grad = frozen_walk(spec, X, other, wx, wy, want_grad)
                assert total == ref_total
                if want_grad:
                    assert grad.tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 5, 10])
    def test_gram_and_cost_matrix_across_row_blocks(self, d):
        rng = np.random.default_rng(50 + d)
        X = rng.standard_normal((300, d)) * 3
        Y = rng.standard_normal((700, d))
        Y[:300:11] = X[::11]
        assert 300 * 700 > 3 * kmod._BAND_ELEMS  # both matrices span several bands
        expected = frozen_sqdist(X, Y)
        assert squared_distance_matrix(X, Y).tobytes() == expected.tobytes()
        for spec in FAMILY_SPECS:
            ref = kernel_values(spec, expected)
            assert kernel_gram(spec, X, Y).tobytes() == ref.tobytes()


class TestKernelGram:
    def test_entries_match_kernel_eval_bitwise(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((7, 3))
        Y = rng.standard_normal((5, 3))
        for spec in ALL_SPECS:
            G = kernel_gram(spec, X, Y)
            assert G.shape == (7, 5)
            for i in range(7):
                for j in range(5):
                    assert G[i, j] == kernel_eval(spec, X[i], Y[j])

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 16])
    def test_entries_match_kernel_eval_bitwise_at_any_dimension(self, d):
        # At d >= 8 numpy's own reduction over d rounds differently from a
        # coordinate-by-coordinate sum; scalar and Gram share one routine.
        rng = np.random.default_rng(22)
        X = rng.standard_normal((6, d))
        Y = rng.standard_normal((5, d))
        for spec in ALL_SPECS:
            G = kernel_gram(spec, X, Y)
            for i in range(6):
                for j in range(5):
                    assert G[i, j] == kernel_eval(spec, X[i], Y[j])

    def test_gram_diag_is_ones_and_symmetric(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((9, 2)) * 4
        for spec in ALL_SPECS:
            G = kernel_gram(spec, X, X)
            np.testing.assert_array_equal(np.diag(G), np.ones(9))
            np.testing.assert_array_equal(G, G.T)

    def test_gram_psd_for_distinct_points(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((20, 2))
        for spec in ALL_SPECS:
            w = np.linalg.eigvalsh(kernel_gram(spec, X, X))
            assert w.min() > -1e-10

    def test_row_blocking_does_not_change_values(self, monkeypatch):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((23, 3))
        Y = rng.standard_normal((17, 3))
        spec = KernelSpec(alpha=0.5)
        whole = kernel_gram(spec, X, Y)
        monkeypatch.setattr(kmod, "_BAND_ELEMS", 17)  # one row of 17 columns per band
        np.testing.assert_array_equal(kernel_gram(spec, X, Y), whole)


def brute_rowsum(spec, X, Y, skip):
    """Per-pair gradient row sums; ``skip`` drops the j == i pairs, and
    coincident pairs contribute nothing."""
    out = np.zeros_like(X)
    for i in range(X.shape[0]):
        for j in range(Y.shape[0]):
            if skip and i == j:
                continue
            if np.array_equal(X[i], Y[j]):
                if spec.family == "matern" and spec.matern_order == "half":
                    raise AssertionError("oracle hit an invalid pair")
                continue
            out[i] += kernel_grad_x(spec, X[i], Y[j])
    return out


class TestGradRowsum:
    """``_walk(spec, X, Y, 0.0, 1.0)`` is the X–Y sum alone, and ``_walk(spec, X, None, 0.5)``
    the X–X sum with gradient rows sum_{j != i} dK/dx(X_i, X_j)."""

    def test_matches_per_pair_loop(self):
        rng = np.random.default_rng(12)
        for spec in ALL_SPECS:
            X = rng.standard_normal((8, 2))
            Y = rng.standard_normal((6, 2))
            _, got = _walk(spec, X, Y, 0.0, 1.0, want_grad=True)
            np.testing.assert_allclose(got, brute_rowsum(spec, X, Y, False), rtol=1e-12, atol=1e-14)

    def test_skip_equal_index_matches_loop(self):
        # One set alone: the walk drops the j == i pairs from the gradient.
        rng = np.random.default_rng(13)
        for spec in ALL_SPECS:
            X = rng.standard_normal((7, 3))
            _, got = _walk(spec, X, None, 0.5, want_grad=True)
            np.testing.assert_allclose(got, brute_rowsum(spec, X, X, True), rtol=1e-12, atol=1e-14)

    def test_duplicate_points_contribute_zero_for_smooth_families(self):
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        _, got = _walk(KernelSpec(), X, want_grad=True)
        assert np.all(np.isfinite(got))

    def test_matern_half_raises_on_included_coincidence(self):
        spec = KernelSpec(family="matern", matern_order="half")
        X = np.array([[0.0], [0.0], [2.0]])
        with pytest.raises(InputError):
            _walk(spec, X, want_grad=True)

    def test_fused_sum_and_grad_agree_with_parts(self):
        rng = np.random.default_rng(14)
        for spec in ALL_SPECS:
            X = rng.standard_normal((9, 2))
            Y = rng.standard_normal((9, 2))
            for other, wx, wy in ((Y, 1.0 / 72, -2.0 / 81), (Y, 0.0, 1.0), (None, 1.0, 1.0)):
                # The total has the same bits with and without its gradient.
                total, grads = _walk(spec, X, other, wx, wy, want_grad=True)
                assert _walk(spec, X, other, wx, wy) == (total, None)
                assert grads.shape == X.shape
                parts = wx * kernel_gram(spec, X, X).sum()
                if other is not None:
                    parts += wy * kernel_gram(spec, X, Y).sum()
                assert total == pytest.approx(parts, rel=1e-14)

    def test_fused_blocking_consistency(self, monkeypatch):
        # Block size changes the matmul shapes, so only closeness (not bit
        # equality) can hold across different block layouts.
        rng = np.random.default_rng(15)
        X = rng.standard_normal((25, 2))
        spec = KernelSpec()
        whole = _walk(spec, X, want_grad=True)
        monkeypatch.setattr(kmod, "_BLOCK_ELEMS", 1)  # one row per block
        blocked = _walk(spec, X, want_grad=True)
        np.testing.assert_allclose(blocked[0], whole[0], rtol=1e-13)
        np.testing.assert_allclose(blocked[1], whole[1], rtol=1e-12, atol=1e-15)


def grid_points(max_n: int, max_d: int = 3):
    """2..max_n points on a grid of spacing 1/4, so that two points either
    coincide or lie >= 1/4 apart (Matern 1/2's coefficient stays <= 4)."""
    coords = st.integers(-8, 8).map(lambda v: v / 4.0)
    return st.tuples(st.integers(2, max_n), st.integers(1, max_d)).flatmap(
        lambda s: arrays(np.float64, s, elements=coords))


def distinct_grid_points(max_n: int, max_d: int = 3):
    """Like ``grid_points``, but no two points coincide."""
    coords = st.integers(-8, 8).map(lambda v: v / 4.0)
    return st.tuples(st.integers(2, max_n), st.integers(1, max_d)).flatmap(
        lambda s: st.lists(st.tuples(*[coords] * s[1]), min_size=s[0], max_size=s[0],
                           unique=True)).map(lambda rows: np.array(rows, dtype=np.float64))


def is_half(spec) -> bool:
    return spec.family == "matern" and spec.matern_order == "half"


class TestTriangularWalk:
    """``_walk(spec, X)`` walks the upper triangle; a shrunken block
    budget makes one set span several row blocks."""

    @settings(max_examples=60, deadline=None)
    @given(X=grid_points(14), data=st.data())
    def test_matches_the_gram_and_the_pair_loop(self, X, data):
        n = X.shape[0]
        # At most n // 2 rows in the first block, so the walk has >= 2 blocks.
        budget = data.draw(st.integers(1, n * n // 2), label="budget")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kmod, "_BLOCK_ELEMS", budget)
            assert len(list(_row_blocks(n, n))) >= 2
            for spec in FAMILY_SPECS:
                total = _walk(spec, X, None, 0.5)[0]
                assert total == pytest.approx(0.5 * kernel_gram(spec, X, X).sum(), rel=1e-13)
                distinct = len(np.unique(X, axis=0)) == n
                if is_half(spec) and not distinct:
                    with pytest.raises(InputError):
                        _walk(spec, X, want_grad=True)
                    continue
                total_g, grads = _walk(spec, X, None, 0.5, want_grad=True)
                # The total has the same bits with and without the gradient.
                assert total_g == total
                # n <= 14 pair terms per row, each |c (x - y)| <= 4 * 4 here.
                np.testing.assert_allclose(grads, brute_rowsum(spec, X, X, True),
                                           rtol=1e-12, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(X=distinct_grid_points(12), data=st.data())
    def test_duplicates_in_different_blocks(self, X, data):
        """A duplicate pair whose rows sit in different blocks is reached only
        through the mirrored coefficients: zero for the smooth families, an
        InputError for Matern 1/2."""
        n = X.shape[0]
        budget = data.draw(st.integers(1, n * n // 2), label="budget")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kmod, "_BLOCK_ELEMS", budget)
            blocks = list(_row_blocks(n, n))
            b = data.draw(st.integers(0, len(blocks) - 2), label="block of i")
            i = data.draw(st.integers(blocks[b][0], blocks[b][1] - 1), label="i")
            j = data.draw(st.integers(blocks[b][1], n - 1), label="j")
            X = X.copy()
            X[j] = X[i]
            for spec in FAMILY_SPECS:
                if is_half(spec):
                    with pytest.raises(InputError):
                        _walk(spec, X, want_grad=True)
                    continue
                _, grads = _walk(spec, X, None, 0.5, want_grad=True)
                assert np.all(np.isfinite(grads))
                np.testing.assert_allclose(grads, brute_rowsum(spec, X, X, True),
                                           rtol=1e-12, atol=1e-12)


def pair_reference(spec, X, Y, wx, wy):
    """The walk's weighted total and its gradient in X, one pair at a time from
    ``kernel_eval`` and ``kernel_grad_x``, with the sums of the terms' magnitudes
    (the total's, and each gradient row's largest entries) that set the rounding
    scale. Coincident pairs other than j == i give no gradient term; the caller
    handles Matern 1/2."""
    total, total_scale = 0.0, 0.0
    grad, grad_scale = np.zeros_like(X), np.zeros(len(X))
    sets = [(X, wx, True)] + ([] if Y is None else [(Y, wy, False)])
    for i in range(len(X)):
        for Z, w, own in sets:
            for j in range(len(Z)):
                term = w * kernel_eval(spec, X[i], Z[j])
                total += term
                total_scale += abs(term)
                if (own and j == i) or np.array_equal(X[i], Z[j]):
                    continue
                g = (2.0 * w if own else w) * kernel_grad_x(spec, X[i], Z[j])
                grad[i] += g
                grad_scale[i] += np.abs(g).max()
    return total, total_scale, grad, grad_scale


class TestWalk:
    """The one walk against a per-pair reference: every family, with and without a
    second set, any weights, and a shrunken block budget so that several blocks
    and their mirrored columns run."""

    @settings(max_examples=80, deadline=None)
    @given(X=grid_points(12), data=st.data())
    def test_weighted_total_and_gradient_match_the_pair_loop(self, X, data):
        m, d = X.shape
        coords = st.integers(-8, 8).map(lambda v: v / 4.0)
        ny = data.draw(st.integers(0, 12), label="second set size")
        Y = data.draw(arrays(np.float64, (ny, d), elements=coords), label="Y") if ny else None
        # Zero or at least 1e-3 in magnitude: subnormal weights lose the relative precision.
        weight = st.floats(-2.0, 2.0).filter(lambda w: w == 0.0 or abs(w) >= 1e-3)
        wx, wy = data.draw(weight, label="wx"), data.draw(weight, label="wy")
        budget = data.draw(st.integers(1, max(1, m * max(m, ny) // 2)), label="budget")
        # The walk visits the X–X and X–Y pairs only; two equal Y points never meet.
        coincident = len(np.unique(X, axis=0)) < m or any(
            (Y == x).all(axis=1).any() for x in X if Y is not None)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kmod, "_BLOCK_ELEMS", budget)
            assert len(list(_row_blocks(m, m + ny))) >= 2
            for spec in FAMILY_SPECS:
                ref, ref_scale, ref_grad, ref_grad_scale = pair_reference(spec, X, Y, wx, wy)
                total = _walk(spec, X, Y, wx, wy)[0]
                assert abs(total - ref) <= 1e-12 * ref_scale
                if is_half(spec) and coincident:
                    with pytest.raises(InputError, match="coincident"):
                        _walk(spec, X, Y, wx, wy, want_grad=True)
                    if Y is not None:
                        # Through the loss the images are the map's output: a numeric failure.
                        identity = MlpParams([np.eye(d)], [np.zeros(d)], [Activation.IDENTITY])
                        with pytest.raises(NumericError, match="coincident"):
                            _evaluate(identity, X, Y, spec, 0.0, True, 0.0)
                    continue
                total_g, grad = _walk(spec, X, Y, wx, wy, want_grad=True)
                assert total_g == total
                # Coincident pairs of a smooth family add exactly nothing: the
                # reference skips them. On this grid |x| <= 2 * sqrt(3) and distinct
                # points lie >= 1/4 apart, so the walk's x_i * sum(c w) - sum(c w x_j)
                # rounds within a few ulps of 28 times a row's term scale.
                assert np.all(np.abs(grad - ref_grad) <= 1e-12 * ref_grad_scale[:, None])


class TestWalkPlan:
    """A walk plan built once serves any number of walks of its shapes: two walks in one
    plan give the bits of two walks that each build their own, whatever the first left in
    the workspace, the weight columns or the accumulator."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(2, 9), ny=st.sampled_from([0, 1, 4, 9]), d=st.integers(1, 3),
           want_grad=st.booleans(), seeds=st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)),
           twin=st.booleans(), data=st.data())
    def test_a_reused_plan_gives_the_bits_of_one_use_plans(self, m, ny, d, want_grad, seeds,
                                                         twin, data):
        weight = st.floats(-2.0, 2.0).filter(lambda w: w == 0.0 or abs(w) >= 1e-3)
        budget = data.draw(st.integers(1, m * (m + ny)), label="budget")
        walks = []
        for seed in seeds:
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((m, d))
            if twin:  # a coincident pair: the smooth families' zero-coefficient mask runs
                X[1] = X[0]
            Y = rng.standard_normal((ny, d)) + 1.0 if ny else None
            walks.append((X, Y, data.draw(weight, label="wx"), data.draw(weight, label="wy")))
        specs = [KernelSpec(alpha=0.7)] + [
            KernelSpec(family="matern", matern_order=order, lengthscale=1.3)
            for order in ("half", "three_halves", "five_halves")]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kmod, "_BLOCK_ELEMS", budget)
            for spec in specs:
                if want_grad and twin and is_half(spec):
                    continue
                plan = _WalkPlan(m, ny, d, want_grad)
                for X, Y, wx, wy in walks:
                    total, grad = _walk(spec, X, Y, wx, wy, want_grad, plan)
                    ref_total, ref_grad = _walk(spec, X, Y, wx, wy, want_grad)
                    assert total == ref_total
                    if want_grad:
                        assert grad.tobytes() == ref_grad.tobytes()
                    else:
                        assert grad is None and ref_grad is None
