import numpy as np
import pytest

from mongemmd.errors import InputError, NumericError
from mongemmd.nn import Activation, MlpParams, ParamGrads, init_params
from mongemmd.optim import AdamHyper, AdamState, adam_init, adam_step


def scalar_params(value):
    """A 1->1 identity network holding a single weight, handy as a test vehicle."""
    return MlpParams([np.array([[float(value)]])], [np.zeros(1)],
                     [Activation.IDENTITY])


def grads_like(params, arrays):
    k = len(params.weights)
    return ParamGrads([np.asarray(a, dtype=np.float64) for a in arrays[:k]],
                      [np.asarray(a, dtype=np.float64) for a in arrays[k:]])


def adam_oracle(hyper, params_flat, grad_seq):
    """Plain per-coordinate Adam on a flat vector, written independently."""
    p = params_flat.astype(np.float64).copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grad_seq, start=1):
        m = hyper.beta1 * m + (1.0 - hyper.beta1) * g
        v = hyper.beta2 * v + (1.0 - hyper.beta2) * g * g
        mhat = m / (1.0 - hyper.beta1 ** t)
        vhat = v / (1.0 - hyper.beta2 ** t)
        p = p - hyper.learning_rate * mhat / (np.sqrt(vhat) + hyper.eps)
    return p


class TestHyper:
    def test_defaults(self):
        h = AdamHyper()
        assert h.learning_rate == 1e-4
        assert h.beta1 == 0.9
        assert h.beta2 == 0.999
        assert h.eps == 1e-8

    def test_validation(self):
        with pytest.raises(InputError):
            AdamHyper(learning_rate=0.0)
        with pytest.raises(InputError):
            AdamHyper(learning_rate=-1e-3)
        with pytest.raises(InputError):
            AdamHyper(beta1=1.0)
        with pytest.raises(InputError):
            AdamHyper(beta2=-0.1)
        with pytest.raises(InputError):
            AdamHyper(eps=0.0)
        with pytest.raises(InputError):
            AdamHyper(learning_rate=float("nan"))


class TestAdamStep:
    def test_first_step_closed_form(self):
        """With zero moments the first update is lr * g / (|g| + eps)."""
        h = AdamHyper(learning_rate=0.01)
        params = scalar_params(2.0)
        state = adam_init(params, h)
        g = 3.0
        state2, params2 = adam_step(state, params,
                                    grads_like(params, [[[g]], [0.0]]))
        expected = 2.0 - 0.01 * g / (abs(g) + h.eps)
        np.testing.assert_allclose(params2.weights[0][0, 0], expected,
                                   rtol=1e-12)
        assert state2.step_count == 1

    def test_matches_reference_over_many_steps(self):
        h = AdamHyper(learning_rate=0.05, beta1=0.8, beta2=0.95, eps=1e-8)
        params = scalar_params(1.5)
        state = adam_init(params, h)
        rng = np.random.default_rng(21)
        grad_seq = rng.standard_normal(40)
        p = params
        for g in grad_seq:
            state, p = adam_step(state, p, grads_like(p, [[[g]], [0.0]]))
        expected = adam_oracle(h, np.array([1.5]), [np.array([g]) for g in grad_seq])
        np.testing.assert_allclose(p.weights[0][0, 0], expected[0], rtol=1e-12)
        assert state.step_count == len(grad_seq)

    def test_step_direction_opposes_gradient(self):
        params = init_params((2, 4, 2), seed=5)
        state = adam_init(params)
        rng = np.random.default_rng(3)
        grads = ParamGrads([rng.standard_normal(w.shape) for w in params.weights],
                           [rng.standard_normal(b.shape) for b in params.biases])
        _, new_params = adam_step(state, params, grads)
        for p_old, p_new, g in zip(
                list(params.weights) + list(params.biases),
                list(new_params.weights) + list(new_params.biases),
                list(grads.weights) + list(grads.biases)):
            moved = p_new - p_old
            nonzero = np.abs(g) > 1e-12
            assert np.all(np.sign(moved[nonzero]) == -np.sign(g[nonzero]))

    def test_minimizes_a_quadratic(self):
        """Descending (w - 3)^2 from 0 should settle near 3."""
        h = AdamHyper(learning_rate=0.01)
        p = scalar_params(0.0)
        state = adam_init(p, h)
        for _ in range(2000):
            w = p.weights[0][0, 0]
            g = 2.0 * (w - 3.0)
            state, p = adam_step(state, p, grads_like(p, [[[g]], [0.0]]))
        assert abs(p.weights[0][0, 0] - 3.0) < 1e-2

    def test_functional_purity(self):
        params = init_params((2, 4, 2), seed=8)
        state = adam_init(params)
        before_w = [w.copy() for w in params.weights]
        before_m = [m.copy() for m in state.first_moment.arrays()]
        grads = ParamGrads([np.ones_like(w) for w in params.weights],
                           [np.ones_like(b) for b in params.biases])
        adam_step(state, params, grads)
        for w, w0 in zip(params.weights, before_w):
            np.testing.assert_array_equal(w, w0)
        for m, m0 in zip(state.first_moment.arrays(), before_m):
            np.testing.assert_array_equal(m, m0)
        assert state.step_count == 0

    def test_non_finite_gradient_raises_and_preserves_state(self):
        params = scalar_params(1.0)
        state = adam_init(params)
        bad = grads_like(params, [[[float("nan")]], [0.0]])
        with pytest.raises(NumericError):
            adam_step(state, params, bad)
        assert state.step_count == 0
        np.testing.assert_array_equal(state.first_moment.weights[0],
                                      np.zeros((1, 1)))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_runaway_update_raises_numeric_error_and_preserves_state(self):
        """An update that overflows a parameter is a numeric failure, not bad input."""
        params = scalar_params(1.7e308)
        state = adam_init(params, AdamHyper(learning_rate=1.7e308))
        with pytest.raises(NumericError, match="overflow"):
            adam_step(state, params, grads_like(params, [[[-1.0]], [0.0]]))
        assert state.step_count == 0
        np.testing.assert_array_equal(params.flat, [1.7e308, 0.0])
        np.testing.assert_array_equal(state.first_moment.flat, [0.0, 0.0])
        np.testing.assert_array_equal(state.second_moment.flat, [0.0, 0.0])

    def test_shape_mismatch_rejected(self):
        params = init_params((2, 4, 2))
        state = adam_init(params)
        wrong = ParamGrads([np.zeros((4, 2)), np.zeros((2, 5))],
                           [np.zeros(4), np.zeros(2)])
        with pytest.raises(InputError):
            adam_step(state, params, wrong)

    def test_two_steps_accumulate_moments(self):
        """Second-step update uses the blended moments, not the raw gradient."""
        h = AdamHyper(learning_rate=0.1, beta1=0.9, beta2=0.999)
        p = scalar_params(0.0)
        state = adam_init(p, h)
        state, p = adam_step(state, p, grads_like(p, [[[1.0]], [0.0]]))
        state, p = adam_step(state, p, grads_like(p, [[[-1.0]], [0.0]]))
        expected = adam_oracle(h, np.array([0.0]),
                               [np.array([1.0]), np.array([-1.0])])
        np.testing.assert_allclose(p.weights[0][0, 0], expected[0], rtol=1e-12)
        m = state.first_moment.weights[0][0, 0]
        np.testing.assert_allclose(m, 0.9 * 0.1 + 0.1 * (-1.0), rtol=1e-12)


    def test_flat_update_equals_per_layer_update(self):
        """Adam is element-wise: the flat update has the bits of a loop over the arrays."""
        h = AdamHyper(learning_rate=0.03, beta1=0.7, beta2=0.99)
        params = init_params((3, 5, 4, 3), seed=2)
        state = adam_init(params, h)
        rng = np.random.default_rng(6)
        ps = [a.copy() for a in params.arrays()]
        ms = [np.zeros_like(a) for a in ps]
        vs = [np.zeros_like(a) for a in ps]
        for t in range(1, 6):
            grads = ParamGrads([rng.standard_normal(w.shape) for w in params.weights],
                               [rng.standard_normal(b.shape) for b in params.biases])
            state, params = adam_step(state, params, grads)
            for i, g in enumerate(grads.arrays()):
                ms[i] = h.beta1 * ms[i] + (1.0 - h.beta1) * g
                vs[i] = h.beta2 * vs[i] + (1.0 - h.beta2) * (g * g)
                ps[i] = ps[i] - h.learning_rate * (ms[i] / (1.0 - h.beta1 ** t)) / (
                    np.sqrt(vs[i] / (1.0 - h.beta2 ** t)) + h.eps)
        for got, want in zip(params.arrays(), ps):
            assert got.tobytes() == want.tobytes()
        for got, want in zip(state.first_moment.arrays(), ms):
            assert got.tobytes() == want.tobytes()
        for got, want in zip(state.second_moment.arrays(), vs):
            assert got.tobytes() == want.tobytes()


class TestAdamInit:
    def test_zero_moments_and_counter(self):
        params = init_params((2, 6, 2), seed=0)
        state = adam_init(params)
        assert state.step_count == 0
        assert isinstance(state, AdamState)
        for a in state.first_moment.arrays():
            np.testing.assert_array_equal(a, np.zeros_like(a))
        for a in state.second_moment.arrays():
            np.testing.assert_array_equal(a, np.zeros_like(a))

    def test_default_hyper_attached(self):
        state = adam_init(scalar_params(0.0))
        assert state.hyper == AdamHyper()
