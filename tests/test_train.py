import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mongemmd import util
from mongemmd.data import DatasetSpec, generate
from mongemmd.errors import InputError, NumericError
from mongemmd.kernel import KernelSpec
from mongemmd.loss import monge_mmd_loss, monge_mmd_loss_with_grad
from mongemmd.nn import mlp_forward_batch
from mongemmd.optim import adam_step
from mongemmd.train import (
    LossHistory,
    TrainConfig,
    TrainState,
    epoch_rng,
    init_state,
    train,
)

SMALL = dict(epochs=5, batch_size=10, hidden_widths=(8,), seed=0)


def clouds(n=30, seed_a=1, seed_b=2):
    src = generate(DatasetSpec(family="isotropic_gaussian", n=n, seed=seed_a))
    tgt = generate(DatasetSpec(family="isotropic_gaussian", n=n, seed=seed_b,
                               mean=(2.0, 2.0)))
    return src, tgt


def assert_params_equal(a, b):
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        np.testing.assert_array_equal(ba, bb)


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(InputError):
            TrainConfig(epochs=-1, batch_size=10)
        with pytest.raises(InputError):
            TrainConfig(epochs=1, batch_size=1)
        with pytest.raises(InputError):
            TrainConfig(epochs=1, batch_size=10, inv_lambda=-1e-6)
        with pytest.raises(InputError):
            TrainConfig(epochs=1, batch_size=10, hidden_widths=())
        with pytest.raises(InputError):
            TrainConfig(epochs=1, batch_size=10, seed=-3)

    def test_activation_coerced_from_name(self):
        cfg = TrainConfig(epochs=1, batch_size=5, hidden_activation="tanh")
        assert cfg.hidden_activation.value == "tanh"


class TestTrainingLoop:
    def test_zero_epochs_returns_initial_params(self):
        src, tgt = clouds()
        cfg = TrainConfig(epochs=0, batch_size=10, hidden_widths=(8,), seed=4)
        state, history = train(cfg, src, tgt)
        assert len(history) == 0
        assert state.epoch == 0
        assert_params_equal(state.params, init_state(cfg, 2).params)

    def test_history_has_one_row_per_epoch(self):
        src, tgt = clouds()
        state, history = train(TrainConfig(**SMALL), src, tgt)
        assert history.epochs == [1, 2, 3, 4, 5]
        assert len(history.objective) == 5
        assert state.epoch == 5

    def test_objective_decreases_on_easy_problem(self):
        src, tgt = clouds(n=60)
        cfg = TrainConfig(epochs=60, batch_size=20, hidden_widths=(16,),
                          seed=0)
        state, history = train(cfg, src, tgt)
        assert history.objective[-1] < history.objective[0]

    def test_bit_identical_reruns(self):
        src, tgt = clouds()
        cfg = TrainConfig(**SMALL)
        s1, h1 = train(cfg, src, tgt)
        s2, h2 = train(cfg, src, tgt)
        assert_params_equal(s1.params, s2.params)
        assert h1.objective == h2.objective
        assert h1.mmd2 == h2.mmd2
        assert h1.cost == h2.cost

    def test_seed_changes_the_run(self):
        src, tgt = clouds()
        _, h0 = train(TrainConfig(**{**SMALL, "seed": 0}), src, tgt)
        _, h1 = train(TrainConfig(**{**SMALL, "seed": 1}), src, tgt)
        assert h0.objective != h1.objective

    def test_resume_matches_uninterrupted_run(self):
        """Stopping after epoch 3 and resuming gives the exact same state."""
        src, tgt = clouds()
        cfg8 = TrainConfig(**{**SMALL, "epochs": 8})
        full_state, full_hist = train(cfg8, src, tgt)

        cfg3 = TrainConfig(**{**SMALL, "epochs": 3})
        mid_state, first_hist = train(cfg3, src, tgt)
        resumed_state, rest_hist = train(cfg8, src, tgt, state=mid_state)

        assert_params_equal(full_state.params, resumed_state.params)
        assert resumed_state.optimizer.step_count == full_state.optimizer.step_count
        assert first_hist.objective + rest_hist.objective == full_hist.objective
        assert rest_hist.epochs == [4, 5, 6, 7, 8]

    def test_shuffle_off_uses_data_order(self):
        """Without shuffling every epoch sees identical batches, so a single

        epoch's recorded loss equals the direct loss of the first batch
        sequence under the initial parameters."""
        src, tgt = clouds(n=20)
        cfg = TrainConfig(epochs=1, batch_size=20, hidden_widths=(4,),
                          seed=7, shuffle=False)
        state0 = init_state(cfg, 2)
        expected = monge_mmd_loss(state0.params, src, tgt, cfg.kernel,
                                  cfg.inv_lambda)
        _, history = train(cfg, src, tgt)
        assert history.objective[0] == expected.objective

    def test_remainder_points_are_dropped(self):
        """With 25 points and batch 10 only 2 batches run per epoch."""
        src, tgt = clouds(n=25)
        cfg = TrainConfig(epochs=2, batch_size=10, hidden_widths=(4,), seed=0)
        calls = []
        train(cfg, src, tgt, progress=lambda e, v: calls.append(e))
        assert calls == [1, 2]

    def test_unequal_sizes_use_smaller_count(self):
        src = generate(DatasetSpec(family="isotropic_gaussian", n=40, seed=1))
        tgt = generate(DatasetSpec(family="isotropic_gaussian", n=23, seed=2))
        cfg = TrainConfig(epochs=1, batch_size=23, hidden_widths=(4,), seed=0)
        _, history = train(cfg, src, tgt)
        assert len(history) == 1

    def test_progress_callback_sees_history_rows(self):
        src, tgt = clouds()
        seen = []
        _, history = train(TrainConfig(**SMALL), src, tgt,
                           progress=lambda e, v: seen.append((e, v.objective)))
        assert [e for e, _ in seen] == history.epochs
        assert [o for _, o in seen] == history.objective


def reference_train(config, source, target):
    """The training loop written from the public, validating API alone."""
    state = init_state(config, source.shape[1])
    params, opt = state.params, state.optimizer
    n_pairs = min(source.shape[0], target.shape[0])
    n_batches = n_pairs // config.batch_size
    rows = []
    for epoch in range(1, config.epochs + 1):
        if config.shuffle:
            rng = epoch_rng(config.seed, epoch)
            order_x = rng.permutation(source.shape[0])
            order_y = rng.permutation(target.shape[0])
        else:
            order_x = np.arange(source.shape[0])
            order_y = np.arange(target.shape[0])
        tot = np.zeros(3)
        for b in range(n_batches):
            sl = slice(b * config.batch_size, (b + 1) * config.batch_size)
            values, grads = monge_mmd_loss_with_grad(
                params, source[order_x[sl]], target[order_y[sl]],
                config.kernel, config.inv_lambda)
            opt, params = adam_step(opt, params, grads)
            tot += np.array(values)
        rows.append(tuple(tot / n_batches))
    return params, opt, rows


def state_bytes(state):
    return (state.params.flat.tobytes(), state.optimizer.first_moment.flat.tobytes(),
            state.optimizer.second_moment.flat.tobytes(), state.optimizer.step_count,
            state.epoch)


class TestEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        widths=st.lists(st.integers(1, 6), min_size=1, max_size=2),
        activation=st.sampled_from(["relu", "tanh"]),
        batch_size=st.integers(2, 12),
        shuffle=st.booleans(),
        kernel=st.sampled_from([
            KernelSpec(family="gaussian", alpha=0.5),
            KernelSpec(family="matern", matern_order="three_halves", lengthscale=1.5),
        ]),
        epochs=st.integers(1, 3),
    )
    def test_train_equals_public_reference_loop(self, widths, activation, batch_size,
                                                shuffle, kernel, epochs):
        """train() validates once and then skips the public checks; the bits must not move."""
        src, tgt = clouds(n=24)
        cfg = TrainConfig(epochs=epochs, batch_size=batch_size, hidden_widths=widths,
                          hidden_activation=activation, shuffle=shuffle, kernel=kernel,
                          inv_lambda=0.1, seed=3)
        params, opt, rows = reference_train(cfg, src, tgt)
        state, history = train(cfg, src, tgt)
        assert state.params.flat.tobytes() == params.flat.tobytes()
        assert state.optimizer.first_moment.flat.tobytes() == opt.first_moment.flat.tobytes()
        assert state.optimizer.second_moment.flat.tobytes() == opt.second_moment.flat.tobytes()
        assert state.optimizer.step_count == opt.step_count
        assert list(zip(history.objective, history.mmd2, history.cost)) == rows

        # Resuming from an earlier state reaches the same end and leaves that state alone.
        mid, _ = train(replace(cfg, epochs=epochs - 1), src, tgt)
        before = state_bytes(mid)
        resumed, _ = train(cfg, src, tgt, state=mid)
        assert state_bytes(mid) == before
        assert state_bytes(resumed) == state_bytes(state)


def count_as_points(monkeypatch):
    """Route every mongemmd module's binding of ``util.as_points`` through a counter."""
    calls = []
    orig = util.as_points

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    bound = [mod for name, mod in list(sys.modules.items())
             if name.split(".")[0] == "mongemmd" and mod is not None
             and getattr(mod, "as_points", None) is orig]
    assert len(bound) > 3
    for mod in bound:
        monkeypatch.setattr(mod, "as_points", counted)
    return calls


class TestValidateOnce:
    def test_as_points_calls_do_not_grow_with_epochs_or_batches(self, monkeypatch):
        calls = count_as_points(monkeypatch)
        src, tgt = clouds(n=30)
        counts = []
        for epochs, batch_size in ((1, 30), (4, 10), (4, 5)):
            del calls[:]
            train(TrainConfig(epochs=epochs, batch_size=batch_size, hidden_widths=(4,)),
                  src, tgt)
            counts.append(len(calls))
        assert counts[0] > 0
        assert counts == [counts[0]] * 3


class TestTrainingErrors:
    def test_batch_size_larger_than_data(self):
        src, tgt = clouds(n=5)
        with pytest.raises(InputError):
            train(TrainConfig(epochs=1, batch_size=10), src, tgt)

    def test_dimension_mismatch(self):
        src = np.zeros((10, 2))
        tgt = np.zeros((10, 3))
        with pytest.raises(InputError):
            train(TrainConfig(epochs=1, batch_size=5), src, tgt)

    def test_state_past_requested_epochs(self):
        src, tgt = clouds()
        cfg = TrainConfig(**SMALL)
        state, _ = train(cfg, src, tgt)
        shorter = TrainConfig(**{**SMALL, "epochs": 3})
        with pytest.raises(InputError):
            train(shorter, src, tgt, state=state)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_numeric_error_reports_epoch_and_batch(self):
        src, tgt = clouds(n=10)
        cfg = TrainConfig(epochs=1, batch_size=10, hidden_widths=(4,), seed=0)
        with pytest.raises(NumericError, match="epoch 1, batch 0"):
            train(cfg, src * 1e200, tgt)

    def test_coincident_matern_half_images_report_epoch_and_batch(self):
        src, tgt = clouds(n=10)
        src[1] = src[0]
        cfg = TrainConfig(epochs=1, batch_size=10, hidden_widths=(4,), seed=0,
                          kernel=KernelSpec(family="matern", matern_order="half"))
        with pytest.raises(NumericError, match="epoch 1, batch 0: .*coincident"):
            train(cfg, src, tgt)


class TestEpochRng:
    def test_deterministic_per_epoch(self):
        a = epoch_rng(3, 7).permutation(10)
        b = epoch_rng(3, 7).permutation(10)
        np.testing.assert_array_equal(a, b)

    def test_distinct_across_epochs_and_seeds(self):
        perms = {tuple(epoch_rng(s, e).permutation(20))
                 for s in range(3) for e in range(5)}
        assert len(perms) == 15


class TestLossHistory:
    def sample(self):
        hist = LossHistory()
        hist.epochs = [1, 2]
        hist.objective = [0.5, -0.25]
        hist.mmd2 = [0.125, 0.0625]
        hist.cost = [3.0, 2.5]
        return hist

    def test_csv_round_trip_exact(self):
        hist = self.sample()
        hist.objective[0] = 1.0 / 3.0  # not representable in short decimal
        back = LossHistory.from_csv(hist.to_csv())
        assert back.epochs == hist.epochs
        assert back.objective == hist.objective
        assert back.mmd2 == hist.mmd2
        assert back.cost == hist.cost

    def test_csv_header(self):
        assert self.sample().to_csv().splitlines()[0] == "epoch,objective,mmd2,cost"

    def test_from_csv_rejects_wrong_header(self):
        with pytest.raises(InputError):
            LossHistory.from_csv("a,b,c\n1,2,3\n")

    def test_extend_concatenates(self):
        a, b = self.sample(), self.sample()
        a.extend(b)
        assert a.epochs == [1, 2, 1, 2]
        assert len(a) == 4


class TestTrainState:
    def test_init_state_seeding(self):
        cfg = TrainConfig(**SMALL)
        a = init_state(cfg, 2)
        b = init_state(cfg, 2)
        assert_params_equal(a.params, b.params)
        assert isinstance(a, TrainState)
        assert a.epoch == 0
        assert a.optimizer.step_count == 0
        assert a.params.widths == (2, 8, 2)
