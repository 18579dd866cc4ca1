import numpy as np
import pytest

from mongemmd.errors import InputError, NumericError
from mongemmd.nn import (
    Activation,
    MlpParams,
    ParamGrads,
    init_params,
    mlp_backward,
    mlp_forward,
    mlp_forward_batch,
)


def flatten_params(params):
    return np.concatenate([a.ravel() for a in
                           ParamGrads(params.weights, params.biases).arrays()])


def set_flat_params(params, flat):
    """Rebuild an MlpParams from a flat vector using the layout of ``params``."""
    weights, biases = [], []
    pos = 0
    for w, b in zip(params.weights, params.biases):
        weights.append(flat[pos:pos + w.size].reshape(w.shape).copy())
        pos += w.size
        biases.append(flat[pos:pos + b.size].copy())
        pos += b.size
    assert pos == flat.size
    return MlpParams(weights, biases, list(params.activations))


class TestInitParams:
    def test_shapes_follow_widths(self):
        params = init_params((3, 8, 5, 3), seed=0)
        assert [w.shape for w in params.weights] == [(8, 3), (5, 8), (3, 5)]
        assert [b.shape for b in params.biases] == [(8,), (5,), (3,)]
        assert params.widths == (3, 8, 5, 3)
        assert params.input_dim == 3
        assert params.output_dim == 3
        assert params.n_layers == 3

    def test_biases_zero_and_weights_within_bound(self):
        for seed in range(5):
            params = init_params((2, 16, 2), seed=seed)
            for b in params.biases:
                np.testing.assert_array_equal(b, np.zeros_like(b))
            for w in params.weights:
                bound = 1.0 / np.sqrt(w.shape[1])
                assert np.all(np.abs(w) <= bound)
                # a fresh draw should actually use the range, not sit at zero
                assert np.abs(w).max() > 0.1 * bound

    def test_final_activation_is_identity(self):
        params = init_params((2, 4, 2), hidden_activation=Activation.TANH)
        assert params.activations == [Activation.TANH, Activation.IDENTITY]
        # single affine layer: the only activation is the output one
        params = init_params((2, 2))
        assert params.activations == [Activation.IDENTITY]

    def test_deterministic_in_seed(self):
        a = init_params((2, 8, 2), seed=7)
        b = init_params((2, 8, 2), seed=7)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        c = init_params((2, 8, 2), seed=8)
        assert any(not np.array_equal(wa, wc)
                   for wa, wc in zip(a.weights, c.weights))

    def test_accepts_activation_by_name(self):
        params = init_params((2, 4, 2), hidden_activation="tanh")
        assert params.activations[0] is Activation.TANH

    def test_rejects_bad_widths(self):
        with pytest.raises(InputError):
            init_params((2,))
        with pytest.raises(InputError):
            init_params((2, 4, 3))  # dimension must be preserved
        with pytest.raises(InputError):
            init_params((2, 0, 2))
        with pytest.raises((InputError, ValueError)):
            init_params((2, 4, 2), hidden_activation="softplus")


class TestMlpParamsValidation:
    def test_rejects_mismatched_layer_counts(self):
        w = [np.zeros((2, 2))]
        with pytest.raises(InputError):
            MlpParams(w, [np.zeros(2), np.zeros(2)], [Activation.IDENTITY])

    def test_rejects_shape_chain_break(self):
        weights = [np.zeros((4, 2)), np.zeros((2, 3))]
        biases = [np.zeros(4), np.zeros(2)]
        with pytest.raises(InputError):
            MlpParams(weights, biases, [Activation.RELU, Activation.IDENTITY])

    def test_rejects_non_finite_entries(self):
        w = np.zeros((2, 2))
        w[0, 0] = np.inf
        with pytest.raises(InputError):
            MlpParams([w], [np.zeros(2)], [Activation.IDENTITY])

    def test_rejects_dimension_change(self):
        with pytest.raises(InputError):
            MlpParams([np.zeros((3, 2))], [np.zeros(3)], [Activation.IDENTITY])

    def test_copy_is_independent(self):
        params = init_params((2, 4, 2), seed=3)
        dup = params.copy()
        dup.weights[0][0, 0] += 1.0
        assert params.weights[0][0, 0] != dup.weights[0][0, 0]


class TestForward:
    def test_single_affine_layer_is_exact(self):
        W = np.array([[2.0, 0.0], [1.0, -1.0]])
        b = np.array([0.5, -0.25])
        params = MlpParams([W], [b], [Activation.IDENTITY])
        X = np.array([[1.0, 2.0], [0.0, 0.0], [-1.0, 3.0]])
        np.testing.assert_array_equal(mlp_forward_batch(params, X), X @ W.T + b)

    def test_relu_zeroes_negative_preactivations(self):
        W1 = np.array([[1.0], [-1.0]])
        b1 = np.zeros(2)
        W2 = np.array([[1.0, 1.0]])
        b2 = np.zeros(1)
        params = MlpParams([W1, W2], [b1, b2],
                           [Activation.RELU, Activation.IDENTITY])
        # T(x) = relu(x) + relu(-x) = |x|
        X = np.array([[-3.0], [-0.5], [0.0], [2.0]])
        np.testing.assert_array_equal(mlp_forward_batch(params, X),
                                      np.abs(X))

    def test_tanh_layer_matches_hand_computation(self):
        W1 = np.array([[0.5], [2.0]])
        b1 = np.array([0.1, -0.2])
        W2 = np.array([[1.0, -3.0]])
        b2 = np.array([0.25])
        params = MlpParams([W1, W2], [b1, b2],
                           [Activation.TANH, Activation.IDENTITY])
        x = np.array([0.7])
        h = np.tanh(W1 @ x + b1)
        expected = W2 @ h + b2
        np.testing.assert_allclose(mlp_forward(params, x), expected, rtol=1e-15)

    def test_single_point_matches_batch_row(self):
        params = init_params((3, 10, 3), seed=11)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 3))
        batch = mlp_forward_batch(params, X)
        for i in range(X.shape[0]):
            # matmul reduction order depends on the row count, so only
            # closeness holds between the 1-row and 6-row paths
            np.testing.assert_allclose(mlp_forward(params, X[i]), batch[i],
                                       rtol=1e-13)

    def test_rejects_wrong_dimension(self):
        params = init_params((2, 4, 2))
        with pytest.raises(InputError):
            mlp_forward_batch(params, np.zeros((3, 5)))
        with pytest.raises(InputError):
            mlp_forward(params, np.zeros((2, 2)))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflow_raises_numeric_error(self):
        params = MlpParams([np.array([[1e200]])], [np.zeros(1)],
                           [Activation.IDENTITY])
        X = np.array([[1e200], [0.0]])
        with pytest.raises(NumericError):
            mlp_forward_batch(params, X)


class TestBackward:
    def test_single_affine_layer_analytic(self):
        """For T(x) = Wx + b the gradient of sum <u_i, T(x_i)> is closed-form."""
        params = MlpParams([np.array([[2.0, 0.0], [1.0, -1.0]])],
                           [np.array([0.5, -0.25])],
                           [Activation.IDENTITY])
        rng = np.random.default_rng(4)
        X = rng.standard_normal((7, 2))
        U = rng.standard_normal((7, 2))
        grads = mlp_backward(params, X, U)
        np.testing.assert_allclose(grads.weights[0], U.T @ X, rtol=1e-14)
        np.testing.assert_allclose(grads.biases[0], U.sum(axis=0), rtol=1e-14)

    def test_gradient_matches_finite_differences(self):
        """Central differences on sum <u_i, T(x_i)> across widths and activations."""
        cases = [
            ((2, 16, 2), Activation.TANH, 5),
            ((2, 16, 2), Activation.RELU, 5),
            ((3, 6, 4, 3), Activation.TANH, 4),
            ((1, 8, 1), Activation.RELU, 6),
        ]
        h = 1e-6
        for widths, act, n_pts in cases:
            for seed in range(3):
                params = init_params(widths, hidden_activation=act, seed=seed)
                rng = np.random.default_rng(100 + seed)
                X = rng.standard_normal((n_pts, widths[0]))
                U = rng.standard_normal((n_pts, widths[-1]))
                grads = mlp_backward(params, X, U)
                flat_g = np.concatenate([a.ravel() for a in grads.arrays()])
                flat_p = flatten_params(params)

                def objective(vec):
                    T = mlp_forward_batch(set_flat_params(params, vec), X)
                    return float((U * T).sum())

                # spot-check a subset of coordinates to keep the test quick
                idx = rng.choice(flat_p.size, size=min(30, flat_p.size),
                                 replace=False)
                for j in idx:
                    ep = flat_p.copy()
                    em = flat_p.copy()
                    ep[j] += h
                    em[j] -= h
                    fd = (objective(ep) - objective(em)) / (2.0 * h)
                    denom = max(1.0, abs(fd))
                    assert abs(flat_g[j] - fd) / denom < 1e-6, (
                        f"widths={widths} act={act} coord={j}: "
                        f"analytic {flat_g[j]} vs fd {fd}")

    def test_grad_shapes_mirror_params(self):
        params = init_params((2, 5, 3, 2), seed=1)
        X = np.zeros((4, 2))
        U = np.ones((4, 2))
        grads = mlp_backward(params, X, U)
        for g, p in zip(grads.weights, params.weights):
            assert g.shape == p.shape
        for g, b in zip(grads.biases, params.biases):
            assert g.shape == b.shape

    def test_upstream_shape_checked(self):
        params = init_params((2, 4, 2))
        with pytest.raises(InputError):
            mlp_backward(params, np.zeros((3, 2)), np.zeros((2, 2)))
        with pytest.raises(InputError):
            mlp_backward(params, np.zeros((3, 2)), np.zeros((3, 1)))

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_overflowing_forward_raises_numeric_error(self):
        """A non-finite forward pass is refused rather than turned into non-finite gradients."""
        params = MlpParams([np.array([[1e200]]), np.array([[1.0]])], [np.zeros(1), np.zeros(1)],
                           [Activation.IDENTITY, Activation.IDENTITY])
        X = np.array([[1e200], [0.0]])
        with pytest.raises(NumericError, match="forward pass"):
            mlp_backward(params, X, np.ones((2, 1)))

    def test_linearity_in_upstream(self):
        params = init_params((2, 6, 2), hidden_activation=Activation.TANH, seed=2)
        rng = np.random.default_rng(9)
        X = rng.standard_normal((5, 2))
        U = rng.standard_normal((5, 2))
        V = rng.standard_normal((5, 2))
        gu = mlp_backward(params, X, U)
        gv = mlp_backward(params, X, V)
        gsum = mlp_backward(params, X, U + V)
        for a, b, c in zip(gsum.arrays(), gu.arrays(), gv.arrays()):
            np.testing.assert_allclose(a, b + c, rtol=1e-12, atol=1e-14)


class TestParamGrads:
    def test_zeros_like_layout(self):
        params = init_params((2, 3, 2))
        grads = ParamGrads.zeros_like(params)
        arrays = list(grads.arrays())
        assert [a.shape for a in arrays] == [(3, 2), (3,), (2, 3), (2,)]
        for a in arrays:
            np.testing.assert_array_equal(a, np.zeros_like(a))


class TestFlatLayout:
    def test_flat_holds_layers_in_order_and_views_alias_it(self):
        params = init_params((3, 5, 4, 3), seed=4)
        np.testing.assert_array_equal(
            params.flat, np.concatenate([a.ravel() for a in params.arrays()]))
        assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous
        for a in params.arrays():
            assert np.shares_memory(a, params.flat)
        params.biases[1][2] = 7.0
        assert params.flat[3 * 5 + 5 + 5 * 4 + 2] == 7.0

    def test_constructor_copies_its_arrays(self):
        w, b = np.eye(2), np.zeros(2)
        params = MlpParams([w], [b], [Activation.IDENTITY])
        w[0, 0] = 5.0
        assert params.weights[0][0, 0] == 1.0

    def test_copy_does_not_alias_flat(self):
        params = init_params((2, 4, 2), seed=3)
        dup = params.copy()
        assert not np.shares_memory(dup.flat, params.flat)
        np.testing.assert_array_equal(dup.flat, params.flat)
        assert dup.layout == params.layout and dup.activations == params.activations

    def test_backward_gradient_shares_the_parameter_layout(self):
        params = init_params((2, 5, 3, 2), seed=1)
        grads = mlp_backward(params, np.ones((4, 2)), np.ones((4, 2)))
        assert grads.layout == params.layout
        assert grads.flat.shape == params.flat.shape
        for g in grads.arrays():
            assert np.shares_memory(g, grads.flat)
