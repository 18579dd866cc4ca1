import math

import numpy as np
import pytest

from mongemmd import kernel
from mongemmd import loss as loss_module
from mongemmd import mmd as mmd_module
from mongemmd.errors import InputError, NumericError
from mongemmd.kernel import KernelSpec
from mongemmd.config import config_from_tree
from mongemmd.loss import (
    LossValues,
    cost_grad_images,
    cost_values,
    monge_mmd_loss,
    monge_mmd_loss_with_grad,
)
from mongemmd.mmd import mmd2_unbiased
from mongemmd.nn import Activation, MlpParams, init_params, mlp_forward_batch

GAUSS = KernelSpec(family="gaussian", alpha=1.0)
ALL_FAMILIES = [GAUSS] + [KernelSpec(family="matern", matern_order=order)
                          for order in ("half", "three_halves", "five_halves")]


def frozen_one_block_walk(spec, X, Y=None, wx=1.0, wy=1.0, want_grad=False, plan=None):
    """The weighted kernel sum of sets that fit in one row block, frozen as the one
    walk computes it: X against X ‖ Y as one Gram block, K(x, x) == 1 on the j == i
    pairs, which have no gradient, and the column weights in the right-hand operands.
    It takes ``_walk``'s arguments and ignores the walk plan."""
    m = X.shape[0]
    C = X if Y is None else np.concatenate([X, Y])
    sq = kernel._sqdist(X, C)
    diag = (np.arange(m), np.arange(m))
    zero = sq == 0.0
    zero[diag] = False
    if want_grad and zero.any() and spec.family == "matern" and spec.matern_order == "half":
        raise InputError("Matern order 1/2 has no gradient at coincident points")
    sq[diag] = np.inf
    k = np.empty_like(sq)
    coeff = np.empty_like(sq) if want_grad else None
    kernel._eval_from_sqdist(spec, sq, k, coeff)
    k[diag] = 1.0
    w = np.full(C.shape[0], wy)
    w[:m] = wx
    total = float((k @ w).sum())
    if not want_grad:
        return total, None
    coeff[zero] = 0.0
    w[:m] = 2.0 * wx
    H = coeff @ np.column_stack([w, w[:, None] * C])
    return total, H[:, :1] * X - H[:, 1:]


def constant_map_params(value, dim=1):
    """A 1-layer net with zero weights, so T(x) == value for every x."""
    return MlpParams([np.zeros((dim, dim))],
                     [np.full(dim, float(value))],
                     [Activation.IDENTITY])


def loss_oracle_fd(params, X, Y, kernel, inv_lambda, h=1e-6):
    """Central-difference gradient of the objective over every parameter."""
    grads_w = [np.zeros_like(w) for w in params.weights]
    grads_b = [np.zeros_like(b) for b in params.biases]
    for arrs, grads in ((params.weights, grads_w), (params.biases, grads_b)):
        for a, g in zip(arrs, grads):
            flat = a.ravel()
            gflat = g.ravel()
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                up = monge_mmd_loss(params, X, Y, kernel, inv_lambda).objective
                flat[j] = orig - h
                dn = monge_mmd_loss(params, X, Y, kernel, inv_lambda).objective
                flat[j] = orig
                gflat[j] = (up - dn) / (2.0 * h)
    return grads_w, grads_b


class TestCost:
    def test_squared_euclidean_values(self):
        X = np.array([[0.0, 0.0], [1.0, 2.0]])
        T = np.array([[3.0, 4.0], [1.0, 0.0]])
        np.testing.assert_array_equal(cost_values(X, T),
                                      np.array([25.0, 4.0]))

    def test_gradient_is_twice_the_difference(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 3))
        T = rng.standard_normal((6, 3))
        np.testing.assert_array_equal(cost_grad_images(X, T),
                                      2.0 * (T - X))

    def test_unknown_family_rejected(self):
        with pytest.raises((InputError, ValueError)):
            config_from_tree({"out_dir": "x", "cost": {"family": "manhattan"}})


class TestWorkedExample:
    """Constant map T == 5.5 on X = {0, 1}, Y = {5, 6}, alpha = 1, 1/lambda = 1e-6.

    Every term is computable by hand: all pushforward points coincide so the
    XX term is exactly 1, the cross term is -2 e^{-1/4}, mean cost is 25.25,
    and the YY term is e^{-1}.
    """

    X = np.array([[0.0], [1.0]])
    Y = np.array([[5.0], [6.0]])
    params = constant_map_params(5.5)
    inv_lambda = 1e-6

    def test_loss_values(self):
        values = monge_mmd_loss(self.params, self.X, self.Y, GAUSS,
                                self.inv_lambda)
        expected_obj = 1e-6 * 25.25 + 1.0 - 2.0 * math.exp(-0.25)
        expected_mmd2 = 1.0 - 2.0 * math.exp(-0.25) + math.exp(-1.0)
        np.testing.assert_allclose(values.objective, expected_obj, rtol=1e-14)
        np.testing.assert_allclose(values.mmd2, expected_mmd2, rtol=1e-14)
        np.testing.assert_allclose(values.mean_cost, 25.25, rtol=1e-15)

    def test_gradients_are_analytic(self):
        """The kernel gradients cancel here, leaving only the cost pull.

        All T_i coincide so the XX gradient vanishes, and T = 5.5 sits exactly
        midway between the two targets so the cross attraction cancels too.
        What survives is upstream_i = (1/(lambda M)) * 2 (T_i - X_i).
        """
        _, grads = monge_mmd_loss_with_grad(self.params, self.X, self.Y,
                                            GAUSS, self.inv_lambda)
        [(grad_w, grad_b)] = self.params.split(grads)
        upstream = 1e-6 * np.array([5.5 - 0.0, 5.5 - 1.0])
        # the cross-term cancellation is exact in real arithmetic but leaves
        # a ~1e-15 rounding residue in floating point
        np.testing.assert_allclose(grad_b, [upstream.sum()],
                                   rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(grad_w,
                                   [[upstream[0] * 0.0 + upstream[1] * 1.0]],
                                   rtol=1e-12, atol=1e-13)

    def test_zero_inv_lambda_drops_the_cost_term(self):
        values = monge_mmd_loss(self.params, self.X, self.Y, GAUSS, 0.0)
        np.testing.assert_allclose(values.objective,
                                   1.0 - 2.0 * math.exp(-0.25), rtol=1e-14)
        np.testing.assert_allclose(values.mean_cost, 25.25, rtol=1e-15)


class TestGradientAgainstFiniteDifferences:
    def test_random_instances(self):
        specs = [
            (KernelSpec(family="gaussian", alpha=0.7), Activation.TANH),
            (KernelSpec(family="gaussian", alpha=1.0), Activation.RELU),
            (KernelSpec(family="matern", matern_order="three_halves",
                        lengthscale=1.2), Activation.TANH),
        ]
        for case_idx, (kernel, act) in enumerate(specs):
            params = init_params((2, 8, 2), hidden_activation=act,
                                 seed=case_idx)
            rng = np.random.default_rng(50 + case_idx)
            X = rng.standard_normal((5, 2))
            Y = rng.standard_normal((5, 2)) + 1.0
            inv_lambda = 0.5
            _, got = monge_mmd_loss_with_grad(params, X, Y, kernel, inv_lambda)
            fd_w, fd_b = loss_oracle_fd(params, X, Y, kernel, inv_lambda)
            got_w, got_b = zip(*params.split(got))
            for g, f in zip(got_w + got_b, fd_w + fd_b):
                scale = max(1.0, np.abs(f).max())
                np.testing.assert_allclose(g, f, rtol=0, atol=1e-5 * scale)

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family.value
                             if s.family == "gaussian" else s.matern_order.value)
    def test_batch_of_40_across_row_blocks(self, monkeypatch, spec):
        """A 40-point batch split into >= 4 row blocks, so the mirrored columns and
        the weights of every block reach the gradient."""
        monkeypatch.setattr(kernel, "_BLOCK_ELEMS", 8 * 40)  # 8 rows per block
        assert len(list(kernel._row_blocks(40, 80))) >= 4
        params = init_params((2, 4, 2), hidden_activation=Activation.TANH, seed=7)
        rng = np.random.default_rng(400)
        X = rng.standard_normal((40, 2))
        Y = rng.standard_normal((40, 2)) + 1.0
        _, got = monge_mmd_loss_with_grad(params, X, Y, spec, 0.5)
        fd_w, fd_b = loss_oracle_fd(params, X, Y, spec, 0.5)
        got_w, got_b = zip(*params.split(got))
        for g, f in zip(got_w + got_b, fd_w + fd_b):
            scale = max(1.0, np.abs(f).max())
            np.testing.assert_allclose(g, f, rtol=0, atol=1e-5 * scale)


class TestConsistency:
    def test_value_paths_agree_bitwise(self):
        """The fused value+gradient path must not change the reported numbers."""
        for spec in ALL_FAMILIES:
            for seed in range(5):
                params = init_params((2, 6, 2), hidden_activation=Activation.TANH,
                                     seed=seed)
                rng = np.random.default_rng(seed)
                X = rng.standard_normal((7, 2))
                Y = rng.standard_normal((7, 2))
                plain = monge_mmd_loss(params, X, Y, spec, 1e-3)
                fused, _ = monge_mmd_loss_with_grad(params, X, Y, spec, 1e-3)
                assert plain.objective == fused.objective, spec
                assert plain.mmd2 == fused.mmd2, spec
                assert plain.mean_cost == fused.mean_cost, spec

    def test_value_paths_agree_bitwise_across_row_blocks(self, monkeypatch):
        """Both paths add the same per-block kernel sums in the same order."""
        monkeypatch.setattr(kernel, "_BLOCK_ELEMS", 64)
        for spec in ALL_FAMILIES:
            for seed in range(20):
                params = init_params((2, 8, 2), hidden_activation=Activation.TANH,
                                     seed=seed)
                rng = np.random.default_rng(200 + seed)
                X = rng.standard_normal((40, 2))
                Y = rng.standard_normal((40, 2)) + 1.0
                plain = monge_mmd_loss(params, X, Y, spec, 1e-3)
                fused, _ = monge_mmd_loss_with_grad(params, X, Y, spec, 1e-3)
                assert plain == fused, spec

    def test_batch_of_60_keeps_the_one_block_arithmetic(self, monkeypatch):
        """A 60-point batch fits in one row block, so its values and gradients
        equal the frozen one-block walk bit for bit; this is what keeps
        batch-60 training artifacts reproducible from that arithmetic alone."""
        assert len(list(kernel._row_blocks(60, 120))) == 1
        for spec in ALL_FAMILIES:
            for seed, act in enumerate([Activation.TANH, Activation.RELU] * 2):
                params = init_params((2, 64, 2), hidden_activation=act, seed=seed)
                rng = np.random.default_rng(300 + seed)
                X = rng.standard_normal((60, 2))
                Y = rng.standard_normal((60, 2)) + 5.0
                got, got_grads = loss_module._evaluate(
                    params, X, Y, spec, 1e-6, True, loss_module._target_term(spec, Y))
                with monkeypatch.context() as mp:
                    mp.setattr(mmd_module, "_walk", frozen_one_block_walk)
                    want, want_grads = loss_module._evaluate(
                        params, X, Y, spec, 1e-6, True, loss_module._target_term(spec, Y))
                assert got == want, spec
                np.testing.assert_array_equal(got_grads, want_grads)

    def test_reported_mmd2_equals_unbiased_estimator(self):
        for seed in range(5):
            params = init_params((3, 5, 3), seed=seed)
            rng = np.random.default_rng(100 + seed)
            X = rng.standard_normal((6, 3))
            Y = rng.standard_normal((6, 3))
            values = monge_mmd_loss(params, X, Y, GAUSS, 1e-2)
            T = mlp_forward_batch(params, X)
            assert values.mmd2 == mmd2_unbiased(GAUSS, T, Y)

    @pytest.mark.parametrize("act", [Activation.TANH, Activation.RELU])
    def test_a_reused_step_plan_gives_the_bits_of_one_use_plans(self, act):
        """Training evaluates every batch in one step plan; each evaluation has the bits
        of one in a fresh plan, whatever the network, the kernel or the last batch left
        in it. Two hidden layers make the backward pass carry a delta between them."""
        rng = np.random.default_rng(41)
        plan = loss_module._step_plan(init_params((2, 9, 7, 2)), 12, 12, True)
        for seed, spec in enumerate(ALL_FAMILIES[:1] + ALL_FAMILIES[2:] + ALL_FAMILIES[:1]):
            params = init_params((2, 9, 7, 2), hidden_activation=act, seed=seed)
            X = rng.standard_normal((12, 2))
            Y = rng.standard_normal((12, 2)) + 1.0
            got, grads = loss_module._evaluate(params, X, Y, spec, 1e-2, True, 0.25, plan)
            grads = grads.tobytes()  # the plan's vector, overwritten by its next step
            want, want_grads = loss_module._evaluate(params, X, Y, spec, 1e-2, True, 0.25)
            assert got == want, spec
            assert grads == want_grads.tobytes(), spec

    def test_loss_values_is_a_named_tuple(self):
        v = LossValues(1.0, 2.0, 3.0)
        assert v.objective == 1.0 and v.mmd2 == 2.0 and v.mean_cost == 3.0
        assert tuple(v) == (1.0, 2.0, 3.0)


class TestValidation:
    params = init_params((2, 4, 2), seed=0)

    def test_batch_sizes_must_match(self):
        with pytest.raises(InputError):
            monge_mmd_loss(self.params, np.zeros((3, 2)), np.zeros((4, 2)),
                           GAUSS, 1.0)

    def test_need_at_least_two_points(self):
        with pytest.raises(InputError):
            monge_mmd_loss(self.params, np.zeros((1, 2)), np.zeros((1, 2)),
                           GAUSS, 1.0)

    def test_dimension_must_match_network(self):
        with pytest.raises(InputError):
            monge_mmd_loss(self.params, np.zeros((3, 5)), np.zeros((3, 5)),
                           GAUSS, 1.0)

    def test_inv_lambda_must_be_finite_nonnegative(self):
        X = np.zeros((2, 2))
        with pytest.raises(InputError):
            monge_mmd_loss(self.params, X, X, GAUSS, -1.0)
        with pytest.raises(InputError):
            monge_mmd_loss(self.params, X, X, GAUSS, float("nan"))

    def test_coincident_matern_half_images_are_a_numeric_failure(self):
        """Duplicate source rows map to coincident images, where Matern 1/2
        has no gradient; the images are computed, so this is exit 3, not 2."""
        half = KernelSpec(family="matern", matern_order="half")
        X = np.array([[0.0, 1.0], [0.0, 1.0], [2.0, -1.0]])
        Y = np.array([[5.0, 5.0], [4.0, 6.0], [6.0, 4.0]])
        with pytest.raises(NumericError, match="coincident"):
            monge_mmd_loss_with_grad(self.params, X, Y, half, 1e-6)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_forward_raises_numeric_error(self):
        X = np.full((3, 2), 1e308)
        Y = np.zeros((3, 2))
        with pytest.raises(NumericError):
            monge_mmd_loss(self.params, X, Y, GAUSS, 1e-6)
