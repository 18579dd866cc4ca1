import importlib
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mongemmd import kernel, util
from mongemmd import loss as loss_module
from mongemmd import mmd as mmd_module
from mongemmd.checkpoint import load_train_state, save_train_state
from mongemmd.data import DatasetSpec, generate
from mongemmd.errors import InputError, NumericError
from mongemmd.kernel import KernelSpec, kernel_gram
from mongemmd.loss import monge_mmd_loss, monge_mmd_loss_with_grad
from mongemmd.nn import mlp_forward_batch
from mongemmd.optim import AdamHyper, adam_step
from mongemmd.train import (
    LossHistory,
    TrainConfig,
    TrainState,
    epoch_rng,
    init_state,
    train,
)

train_module = importlib.import_module("mongemmd.train")  # the package's ``train`` is the function

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


def state_bytes(state):
    """Everything a run holds, floats as their bytes: equal results compare equal."""
    h = state.history
    return (state.params.flat.tobytes(), state.optimizer.first_moment.tobytes(),
            state.optimizer.second_moment.tobytes(), state.optimizer.step_count,
            state.epoch, tuple(h.epochs),
            *(np.array(c, dtype=np.float64).tobytes() for c in (h.objective, h.mmd2, h.cost)))


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
        state = train(cfg, src, tgt)
        assert len(state.history) == 0
        assert state.epoch == 0
        assert_params_equal(state.params, init_state(cfg, 2).params)

    def test_history_has_one_row_per_epoch(self):
        src, tgt = clouds()
        state = train(TrainConfig(**SMALL), src, tgt)
        assert state.history.epochs == [1, 2, 3, 4, 5]
        assert len(state.history.objective) == 5
        assert state.epoch == 5

    def test_objective_decreases_on_easy_problem(self):
        src, tgt = clouds(n=60)
        cfg = TrainConfig(epochs=60, batch_size=20, hidden_widths=(16,),
                          seed=0)
        history = train(cfg, src, tgt).history
        assert history.objective[-1] < history.objective[0]

    def test_bit_identical_reruns(self):
        src, tgt = clouds()
        cfg = TrainConfig(**SMALL)
        s1, s2 = train(cfg, src, tgt), train(cfg, src, tgt)
        h1, h2 = s1.history, s2.history
        assert_params_equal(s1.params, s2.params)
        assert h1.objective == h2.objective
        assert h1.mmd2 == h2.mmd2
        assert h1.cost == h2.cost

    def test_seed_changes_the_run(self):
        src, tgt = clouds()
        h0 = train(TrainConfig(**{**SMALL, "seed": 0}), src, tgt).history
        h1 = train(TrainConfig(**{**SMALL, "seed": 1}), src, tgt).history
        assert h0.objective != h1.objective

    def test_resume_matches_uninterrupted_run(self):
        """Stopping after epoch 3 and resuming gives the exact same state, with the
        uninterrupted run's whole history: all four columns, bit for bit."""
        src, tgt = clouds()
        cfg8 = TrainConfig(**{**SMALL, "epochs": 8})
        full = train(cfg8, src, tgt)
        mid = train(replace(cfg8, epochs=3), src, tgt)
        resumed = train(cfg8, src, tgt, state=mid)
        assert mid.history.epochs == [1, 2, 3]
        assert resumed.history.epochs == full.history.epochs == [1, 2, 3, 4, 5, 6, 7, 8]
        assert state_bytes(resumed) == state_bytes(full)

    def test_two_resumes_from_one_loaded_state_agree_and_leave_it_alone(self, tmp_path):
        """train() returns a new state with a copy of the history: resuming twice from one
        loaded checkpoint gives equal runs, and the loaded parameters, moments and history
        lists keep their values."""
        src, tgt = clouds()
        cfg = TrainConfig(**{**SMALL, "epochs": 6})
        path = tmp_path / "state.ckpt"
        save_train_state(path, train(replace(cfg, epochs=2), src, tgt))
        loaded = load_train_state(path)
        before = state_bytes(loaded)
        first = train(cfg, src, tgt, state=loaded)
        assert state_bytes(loaded) == before
        second = train(cfg, src, tgt, state=loaded)
        assert state_bytes(loaded) == before
        assert state_bytes(first) == state_bytes(second) == state_bytes(train(cfg, src, tgt))

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
        history = train(cfg, src, tgt).history
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
        assert len(train(cfg, src, tgt).history) == 1

    def test_progress_callback_sees_history_rows(self):
        src, tgt = clouds()
        seen = []
        history = train(TrainConfig(**SMALL), src, tgt,
                        progress=lambda e, v: seen.append((e, v.objective))).history
        assert [e for e, _ in seen] == history.epochs
        assert [o for _, o in seen] == history.objective


def reference_train(config, source, target):
    """The training loop written from the public, validating API alone. Each row is the
    batch mean of the public loss values, so its ``mmd2`` holds each batch's own target term.
    Also returns the target terms of epoch 1's batches from the public Gram matrix."""
    state = init_state(config, source.shape[1])
    params, opt = state.params, state.optimizer
    n_pairs = min(source.shape[0], target.shape[0])
    n_batches = n_pairs // config.batch_size
    rows, yy = [], []
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
            if epoch == 1:
                Y, m = target[order_y[sl]], config.batch_size
                gram = kernel_gram(config.kernel, Y, Y)
                yy.append((gram.sum() - np.trace(gram)) / (m * (m - 1)))
        rows.append(tuple(tot / n_batches))
    return params, opt, rows, yy


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
        """train() validates once and then skips the public checks; the bits must not move.

        Its ``mmd2`` takes every batch's target term from epoch 1's batch of the same index,
        so that column equals the reference's at epoch 1 and, without shuffling, in every row;
        elsewhere ``mmd2 - (objective - inv_lambda * cost)`` is the mean of those terms."""
        src, tgt = clouds(n=24)
        cfg = TrainConfig(epochs=epochs, batch_size=batch_size, hidden_widths=widths,
                          hidden_activation=activation, shuffle=shuffle, kernel=kernel,
                          inv_lambda=0.1, seed=3)
        params, opt, rows, yy = reference_train(cfg, src, tgt)
        state = train(cfg, src, tgt)
        history = state.history
        assert state.params.flat.tobytes() == params.flat.tobytes()
        assert state.optimizer.first_moment.tobytes() == opt.first_moment.tobytes()
        assert state.optimizer.second_moment.tobytes() == opt.second_moment.tobytes()
        assert state.optimizer.step_count == opt.step_count
        assert list(zip(history.objective, history.cost)) == [(o, c) for o, _, c in rows]
        assert history.mmd2[0] == rows[0][1]
        if not shuffle:
            assert history.mmd2 == [m for _, m, _ in rows]
        for o, m, c in zip(history.objective, history.mmd2, history.cost):
            assert m - (o - cfg.inv_lambda * c) == pytest.approx(np.mean(yy), rel=1e-12, abs=0)

        # Resuming from an earlier state reaches the same end, history included, and leaves
        # that state alone.
        mid = train(replace(cfg, epochs=epochs - 1), src, tgt)
        before = state_bytes(mid)
        resumed = train(cfg, src, tgt, state=mid)
        assert state_bytes(mid) == before
        assert state_bytes(resumed) == state_bytes(state)


class TestStepPlan:
    @pytest.mark.parametrize("shuffle", [False, True])
    def test_five_epochs_equal_a_hand_loop_of_the_public_calls(self, shuffle):
        """A batch-60 run in one step plan, with per-epoch gathers and the in-place Adam
        core, keeps the bits of the public loss and ``adam_step`` over the same batches:
        the history (its ``mmd2`` after epoch 1 only without shuffling, as above) and the
        final parameters, moments and step count. 150 points leave 30 out of each epoch."""
        src, tgt = clouds(n=150)
        cfg = TrainConfig(epochs=5, batch_size=60, hidden_widths=(64,),
                          hidden_activation="tanh", inv_lambda=1e-6, shuffle=shuffle, seed=4)
        params, opt, rows, _ = reference_train(cfg, src, tgt)
        state = train(cfg, src, tgt)
        assert state.params.flat.tobytes() == params.flat.tobytes()
        assert state.optimizer.first_moment.tobytes() == opt.first_moment.tobytes()
        assert state.optimizer.second_moment.tobytes() == opt.second_moment.tobytes()
        assert state.optimizer.step_count == opt.step_count == 10
        h = state.history
        assert h.epochs == [1, 2, 3, 4, 5]
        assert list(zip(h.objective, h.cost)) == [(o, c) for o, _, c in rows]
        if shuffle:
            assert h.mmd2[0] == rows[0][1]
        else:
            assert h.mmd2 == [m for _, m, _ in rows]


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


def count_kernel_walks(monkeypatch):
    """Route every package binding of ``kernel._walk`` outside ``kernel`` through a counter."""
    calls = []
    orig = kernel._walk

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    bound = [mod for mod in (loss_module, mmd_module, train_module)
             if getattr(mod, "_walk", None) is orig]
    assert bound
    for mod in bound:
        monkeypatch.setattr(mod, "_walk", counted)
    return calls


class TestKernelWalks:
    @pytest.mark.parametrize("epochs, batch_size, shuffle", [
        (1, 10, True), (4, 10, True), (3, 30, True), (4, 5, False)])
    def test_a_step_walks_once_and_a_run_walks_the_targets_once(
            self, monkeypatch, epochs, batch_size, shuffle):
        """E epochs of k batches make E·k walks (images against images ‖ targets, one
        per step) plus k for the target terms of epoch 1's batches."""
        calls = count_kernel_walks(monkeypatch)
        src, tgt = clouds(n=30)
        cfg = TrainConfig(epochs=epochs, batch_size=batch_size, hidden_widths=(4,),
                          shuffle=shuffle)
        train(cfg, src, tgt)
        k = 30 // batch_size
        assert len(calls) == epochs * k + k

    def test_resume_walks_the_targets_once_and_not_at_all_when_done(self, monkeypatch):
        src, tgt = clouds(n=30)
        cfg = TrainConfig(epochs=5, batch_size=10, hidden_widths=(4,))
        mid = train(replace(cfg, epochs=2), src, tgt)
        done = train(cfg, src, tgt)
        calls = count_kernel_walks(monkeypatch)
        train(cfg, src, tgt, state=mid)
        assert len(calls) == 3 * 3 + 3
        del calls[:]
        history = train(cfg, src, tgt, state=done).history
        assert len(calls) == 0 and history == done.history


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
        state = train(cfg, src, tgt)
        shorter = TrainConfig(**{**SMALL, "epochs": 3})
        with pytest.raises(InputError):
            train(shorter, src, tgt, state=state)

    def test_state_built_under_other_settings_names_each_key(self):
        src, tgt = clouds()
        cfg = TrainConfig(**SMALL)
        state = train(cfg, src, tgt)
        changed = replace(cfg, epochs=8, hidden_widths=(4,), optimizer=AdamHyper(beta1=0.5))
        with pytest.raises(InputError) as info:
            train(changed, src, tgt, state=state)
        assert str(info.value).endswith("(train.hidden_widths: checkpoint [8], config [4];"
                                        " train.beta1: checkpoint 0.9, config 0.5)")

    @pytest.mark.parametrize("epoch, history, message", [
        (3, LossHistory([1, 2], [0.5] * 2, [0.25] * 2, [1.0] * 2), "1..3"),
        (3, LossHistory([1, 2, 4], [0.5] * 3, [0.25] * 3, [1.0] * 3), "1..3"),
        (3, LossHistory([1, 2, 3], [0.5] * 3, [0.25] * 2, [1.0] * 3), "1..3"),
        (1, LossHistory(), "1..1"),
        (0, LossHistory([1], [0.5], [0.25], [1.0]), "1..0"),
    ], ids=["too-few", "gap", "short-column", "empty", "rows-past-epoch"])
    def test_history_must_hold_exactly_epochs_one_to_epoch(self, monkeypatch, epoch, history,
                                                            message):
        """The rule save_train_state applies naming the file: train() applies it to the
        state it is given, before any step."""
        src, tgt = clouds()
        cfg = TrainConfig(**SMALL)
        fresh = init_state(cfg, 2)

        def no_step(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(train_module, "_evaluate", no_step)
        state = TrainState(fresh.params, fresh.optimizer, epoch, history)
        with pytest.raises(InputError, match=f"^state: the loss history must hold exactly "
                                             f"epochs {re.escape(message)}$"):
            train(cfg, src, tgt, state=state)

    def test_history_epochs_may_be_a_numpy_array(self):
        """train() reads a numpy ``epochs`` as its entries: 1..epoch resumes as the list
        would; any other is refused with InputError, not numpy's ValueError."""
        src, tgt = clouds()
        cfg = TrainConfig(**SMALL)
        short = train(replace(cfg, epochs=2), src, tgt)
        h = short.history
        as_array = short._replace(history=LossHistory(np.array(h.epochs), h.objective, h.mmd2,
                                                      h.cost))
        resumed = train(cfg, src, tgt, state=as_array)
        assert resumed.history.to_csv() == train(cfg, src, tgt, state=short).history.to_csv()
        for epochs in (np.array([1, 3]), np.array([1]), np.array([[1, 2]])):
            wrong = short._replace(history=LossHistory(epochs, h.objective, h.mmd2, h.cost))
            with pytest.raises(InputError, match="^state: the loss history must hold exactly "
                                                 "epochs 1..2$"):
                train(cfg, src, tgt, state=wrong)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_numeric_error_reports_epoch_and_batch(self):
        src, tgt = clouds(n=10)
        cfg = TrainConfig(epochs=1, batch_size=10, hidden_widths=(4,), seed=0)
        with pytest.raises(NumericError, match="epoch 1, batch 0"):
            train(cfg, src * 1e200, tgt)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_numeric_error_mid_run_leaves_the_resumed_state_alone(self):
        """train() updates its own copies of the parameters and moments in place: a
        failure after some steps of a resumed run leaves the caller's state, history
        included, byte for byte as it was. Without shuffling, row 25 lies in batch 2, so
        batches 0 and 1 of epoch 3 update the copies before it overflows the cost."""
        src, tgt = clouds(n=30)
        cfg = TrainConfig(epochs=4, batch_size=10, hidden_widths=(4,), shuffle=False, seed=0)
        mid = train(replace(cfg, epochs=2), src, tgt)
        before = state_bytes(mid)
        bad = src.copy()
        bad[25] = 1e200
        with pytest.raises(NumericError, match="^epoch 3, batch 2: "):
            train(cfg, bad, tgt, state=mid)
        assert state_bytes(mid) == before
        assert state_bytes(train(cfg, src, tgt, state=mid)) == state_bytes(train(cfg, src, tgt))

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

    @pytest.mark.parametrize("row", ["2,nan,0.1,1", "2,0.5,inf,1", "2,0.5,0.1,-inf",
                                     "2,1e999,0.1,1"])
    def test_from_csv_rejects_non_finite_values(self, row):
        with pytest.raises(InputError, match=f"loss history line 3: non-finite value in '{row}'"):
            LossHistory.from_csv(f"epoch,objective,mmd2,cost\n1,0.5,0.1,1\n{row}\n")


class TestTrainState:
    def test_init_state_seeding(self):
        cfg = TrainConfig(**SMALL)
        a = init_state(cfg, 2)
        b = init_state(cfg, 2)
        assert_params_equal(a.params, b.params)
        assert isinstance(a, TrainState)
        assert a.epoch == 0 and a.history == LossHistory()
        assert a.optimizer.step_count == 0
        assert a.params.widths == (2, 8, 2)
