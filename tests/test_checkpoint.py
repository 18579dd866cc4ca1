import ast
import json
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mongemmd import checkpoint
from mongemmd.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    load_train_state,
    save_train_state,
)
from mongemmd.errors import InputError
from mongemmd.nn import Activation, MlpParams, init_params, n_params
from mongemmd.optim import AdamHyper, AdamState, adam_init, adam_step
from mongemmd.train import LossHistory, TrainState


def random_grads(params, rng):
    """A standard-normal gradient, drawn layer by layer (weights, then bias)."""
    g = np.empty_like(params.flat)
    for w, b in params.split(g):
        w[...] = rng.standard_normal(w.shape)
        b[...] = rng.standard_normal(b.shape)
    return g


def trained_state(seed=0, steps=3, widths=(2, 5, 2), activation=Activation.TANH,
                  hyper=AdamHyper(learning_rate=0.01)):
    """A network plus an optimizer state with nonzero moments."""
    params = init_params(widths, hidden_activation=activation, seed=seed)
    state = adam_init(params, hyper)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        state, params = adam_step(state, params, random_grads(params, rng))
    return params, state


def loss_history(epoch, seed=0):
    """A loss history of epochs 1..``epoch`` with distinct finite values."""
    columns = np.random.default_rng(seed).standard_normal((3, epoch))
    return LossHistory(list(range(1, epoch + 1)), *columns.tolist())


def assert_history_equal(a, b):
    """Equal epochs and bit-equal columns."""
    assert a.epochs == b.epochs
    for col in ("objective", "mmd2", "cost"):
        assert np.array(getattr(a, col)).tobytes() == np.array(getattr(b, col)).tobytes()


def read_parts(path):
    """The checkpoint's JSON header, parsed, and its payload bytes."""
    blob = path.read_bytes()
    header_len = struct.unpack_from("<I", blob, 12)[0]
    return json.loads(blob[16:16 + header_len]), blob[16 + header_len:]


def rewrite(path, edit, payload=lambda data: data):
    """Replace the checkpoint's JSON header by ``edit(header)`` and its payload bytes
    by ``payload(data)``, keeping the magic and version."""
    blob = path.read_bytes()
    header, data = read_parts(path)
    raw = json.dumps(edit(header)).encode()
    path.write_bytes(blob[:12] + struct.pack("<I", len(raw)) + raw + payload(data))


def assert_params_equal(a, b):
    assert a.activations == b.activations
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        np.testing.assert_array_equal(ba, bb)


class TestMapCheckpoint:
    """The network as ``load_train_state`` reads it back from a training-state checkpoint."""

    def test_round_trip_is_bit_exact(self, tmp_path):
        params = init_params((3, 7, 4, 3), seed=5)
        path = tmp_path / "state.ckpt"
        save_train_state(path, TrainState(params, adam_init(params), 0, LossHistory()))
        assert_params_equal(load_train_state(path).params, params)

    def test_identical_params_identical_bytes(self, tmp_path):
        params = init_params((2, 6, 2), seed=1)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_train_state(p1, TrainState(params, adam_init(params), 3, loss_history(3)))
        save_train_state(p2, TrainState(params.copy(), adam_init(params.copy()), 3,
                                        loss_history(3)))
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_starts_with_magic_and_version(self, tmp_path):
        params = init_params((2, 2))
        path = tmp_path / "state.ckpt"
        save_train_state(path, TrainState(params, adam_init(params), 0, LossHistory()))
        blob = path.read_bytes()
        assert blob[:8] == MAGIC
        version, header_len = struct.unpack_from("<II", blob, 8)
        assert version == FORMAT_VERSION
        assert header_len > 0


class TestTrainStateCheckpoint:
    def test_round_trip_restores_everything(self, tmp_path):
        params, state = trained_state(seed=2, steps=5)
        path = tmp_path / "state.ckpt"
        save_train_state(path, TrainState(params, state, 17, loss_history(17)))
        params2, state2, epoch, history = load_train_state(path)
        assert epoch == 17
        assert_history_equal(history, loss_history(17))
        assert state2.step_count == state.step_count
        assert state2.hyper == state.hyper
        assert_params_equal(params2, params)
        np.testing.assert_array_equal(state2.first_moment, state.first_moment)
        np.testing.assert_array_equal(state2.second_moment, state.second_moment)

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(1, 3),
        hidden=st.lists(st.integers(1, 8), min_size=1, max_size=3),
        activation=st.sampled_from(list(Activation)),
        hyper=st.builds(AdamHyper, learning_rate=st.floats(1e-6, 1.0),
                        beta1=st.floats(0.0, 0.99), beta2=st.floats(0.0, 0.9999),
                        eps=st.floats(1e-12, 1e-3)),
        steps=st.integers(0, 4),
        epoch=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_save_load_save_is_a_fixed_point(self, tmp_path_factory, d, hidden, activation,
                                             hyper, steps, epoch, seed):
        params, state = trained_state(seed, steps, (d, *hidden, d), activation, hyper)
        path = tmp_path_factory.mktemp("ckpt") / "state.ckpt"
        save_train_state(path, TrainState(params, state, epoch, loss_history(epoch, seed)))
        first = path.read_bytes()
        params2, state2, epoch2, history2 = load_train_state(path)
        assert params2.flat.tobytes() == params.flat.tobytes()
        assert params2.activations == params.activations
        assert state2.first_moment.tobytes() == state.first_moment.tobytes()
        assert state2.second_moment.tobytes() == state.second_moment.tobytes()
        assert (state2.hyper, state2.step_count, epoch2) == (hyper, steps, epoch)
        assert_history_equal(history2, loss_history(epoch, seed))
        save_train_state(path, TrainState(params2, state2, epoch2, history2))
        assert path.read_bytes() == first

    def test_resumed_optimizer_continues_identically(self, tmp_path):
        """A step taken after reload matches the step without the round trip."""
        params, state = trained_state(seed=3, steps=4)
        path = tmp_path / "state.ckpt"
        save_train_state(path, TrainState(params, state, 4, loss_history(4)))
        params2, state2, _, _ = load_train_state(path)
        grads = random_grads(params, np.random.default_rng(99))
        _, direct = adam_step(state, params, grads)
        _, resumed = adam_step(state2, params2, grads)
        assert_params_equal(direct, resumed)

    def test_load_train_state_rejects_map_files(self, tmp_path, rewrite_as_v1):
        """The map-only kind existed only in format version 1: the reader refuses such a
        file by its version."""
        params = init_params((2, 2))
        path = tmp_path / "map.ckpt"
        save_train_state(path, TrainState(params, adam_init(params), 0, LossHistory()))
        rewrite_as_v1(path, kind="map")
        assert read_parts(path)[0]["kind"] == "map"
        with pytest.raises(InputError, match=re.escape(
                f"{path}: unsupported checkpoint version 1")):
            load_train_state(path)

    def test_format_1_training_state_is_refused(self, tmp_path, rewrite_as_v1):
        """No reader of format version 1 is kept, though its payload bytes equal the current
        format's parameters and moments."""
        params, state = trained_state()
        path = tmp_path / "state.ckpt"
        save_train_state(path, TrainState(params, state, 2, loss_history(2)))
        payload = read_parts(path)[1]
        rewrite_as_v1(path)
        assert read_parts(path)[1] == payload[:24 * params.flat.size]
        with pytest.raises(InputError, match=re.escape(
                f"{path}: unsupported checkpoint version 1")):
            load_train_state(path)

    def test_format_2_training_state_is_refused(self, tmp_path, rewrite_as_v2):
        """No reader of format version 2 is kept: its header is the current format's, and its
        payload is the current format's without the loss history."""
        params, state = trained_state()
        path = tmp_path / "state.ckpt"
        save_train_state(path, TrainState(params, state, 2, loss_history(2)))
        header, payload = read_parts(path)
        rewrite_as_v2(path)
        assert read_parts(path) == (header, payload[:24 * params.flat.size])
        with pytest.raises(InputError, match=re.escape(
                f"{path}: unsupported checkpoint version 2")):
            load_train_state(path)

    def test_format_3_training_state_is_refused(self, tmp_path, rewrite_as_v3):
        """No reader of format version 3 is kept: its layout is the current format's, but
        its ``mmd2`` column held each batch's own target term."""
        params, state = trained_state()
        path = tmp_path / "state.ckpt"
        save_train_state(path, TrainState(params, state, 2, loss_history(2)))
        parts = read_parts(path)
        rewrite_as_v3(path)
        assert read_parts(path) == parts
        with pytest.raises(InputError, match=re.escape(
                f"{path}: unsupported checkpoint version 3")):
            load_train_state(path)

    def test_flat_state_saves_like_per_layer_copies(self, tmp_path):
        """The file is written from the flat buffers' views and must not depend on them."""
        params, state = trained_state(seed=4, steps=5)

        params2 = MlpParams([w.copy() for w in params.weights],
                            [b.copy() for b in params.biases], params.activations)
        state2 = AdamState(state.hyper, state.first_moment.copy(),
                           state.second_moment.copy(), state.step_count)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_train_state(a, TrainState(params, state, 5, loss_history(5)))
        save_train_state(b, TrainState(params2, state2, 5, loss_history(5)))
        assert a.read_bytes() == b.read_bytes()


class TestFormat:
    """Version 4: a header of exactly five keys, then ``flat``, first moment, second moment,
    then the loss history's objective, mmd2 and cost columns."""

    def test_header_holds_widths_and_counters_only(self, tmp_path):
        params, state = trained_state(widths=(2, 5, 3, 2))
        path = tmp_path / "state.ckpt"
        save_train_state(path, TrainState(params, state, 9, loss_history(9)))
        blob = path.read_bytes()
        assert struct.unpack_from("<I", blob, 8)[0] == FORMAT_VERSION == 4
        header, _ = read_parts(path)
        assert header == {"activations": ["tanh", "tanh", "identity"],
                          "adam": {"learning_rate": 0.01, "beta1": 0.9, "beta2": 0.999,
                                   "eps": 1e-08},
                          "epoch": 9, "step_count": 3, "widths": [2, 5, 3, 2]}
        raw = blob[16:16 + struct.unpack_from("<I", blob, 12)[0]]
        assert raw == json.dumps(header, sort_keys=True).encode()

    @settings(max_examples=30, deadline=None)
    @given(
        d=st.integers(1, 3),
        hidden=st.lists(st.integers(1, 6), max_size=3),
        steps=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
        change=st.integers(1, 64),
        longer=st.booleans(),
    )
    def test_payload_is_flat_then_moments_and_nothing_else(self, tmp_path_factory, d, hidden,
                                                           steps, seed, change, longer):
        """The payload is exactly the three vectors and the three history columns; any
        payload 1-64 bytes shorter or longer is refused, before any vector is read."""
        params, state = trained_state(seed, steps, (d, *hidden, d))
        path = tmp_path_factory.mktemp("ckpt") / "state.ckpt"
        history = loss_history(2, seed)
        save_train_state(path, TrainState(params, state, 2, history))
        _, payload = read_parts(path)
        expected = np.concatenate([params.flat, state.first_moment, state.second_moment,
                                   history.objective, history.mmd2, history.cost])
        assert payload == expected.astype("<f8").tobytes()
        assert len(payload) == 24 * (n_params(params.widths) + 2)
        blob = path.read_bytes()
        path.write_bytes(blob + bytes(change) if longer else blob[:-change])
        message = f"{change} trailing bytes after payload" if longer else "truncated checkpoint"
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: {message}"):
            load_train_state(path)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        d=st.integers(1, 3),
        hidden=st.lists(st.integers(1, 4), max_size=2),
        epoch=st.integers(0, 40),
        step_count=st.integers(0, 10**6),
        change=st.integers(1, 64),
        longer=st.booleans(),
    )
    def test_any_finite_state_round_trips_bit_for_bit(self, tmp_path_factory, data, d, hidden,
                                                      epoch, step_count, change, longer):
        """Any finite parameters, moments and history entries, -0.0 and subnormals among
        them, load back bit for bit from a file of 16 + H + 24·(P + epoch) bytes. A payload
        1-64 bytes shorter or longer, or a header epoch one past the history's rows, is
        refused."""
        finite = (st.floats(allow_nan=False, allow_infinity=False)
                  | st.sampled_from([-0.0, 5e-324, -5e-324, 2.5e-310]))
        widths, size = (d, *hidden, d), n_params((d, *hidden, d))

        def vector(n, elements=finite):
            return data.draw(hnp.arrays(np.float64, n, elements=elements))

        params = MlpParams.from_flat(widths, ["relu"] * len(hidden) + ["identity"],
                                     vector(size))
        second = vector(size, st.floats(0.0, allow_infinity=False) | st.just(-0.0))
        state = AdamState(AdamHyper(), vector(size), second, step_count)
        history = LossHistory(list(range(1, epoch + 1)),
                              *(vector(epoch).tolist() for _ in range(3)))
        path = tmp_path_factory.mktemp("ckpt") / "state.ckpt"
        save_train_state(path, TrainState(params, state, epoch, history))
        blob = path.read_bytes()
        assert len(blob) == 16 + struct.unpack_from("<I", blob, 12)[0] + 24 * (size + epoch)
        params2, state2, epoch2, history2 = load_train_state(path)
        assert params2.flat.tobytes() == params.flat.tobytes()
        assert state2.first_moment.tobytes() == state.first_moment.tobytes()
        assert state2.second_moment.tobytes() == second.tobytes()
        assert (state2.step_count, epoch2) == (step_count, epoch)
        assert_history_equal(history2, history)

        path.write_bytes(blob + bytes(change) if longer else blob[:-change])
        message = f"{change} trailing bytes after payload" if longer else "truncated checkpoint"
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: {message}"):
            load_train_state(path)
        path.write_bytes(blob)
        rewrite(path, lambda h: {**h, "epoch": epoch + 1})
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: truncated checkpoint"):
            load_train_state(path)

    def test_checkpoint_touches_no_per_layer_attribute(self):
        """``nn.MlpParams`` alone knows how a vector tiles into layers: checkpoint.py reads
        no ``split``, ``weights``, ``biases`` or ``layout`` of any object."""
        tree = ast.parse(Path(checkpoint.__file__).read_text(encoding="utf-8"))
        touched = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert "flat" in touched
        assert not touched & {"split", "weights", "biases", "layout"}


class TestCorruption:
    def write_state(self, tmp_path):
        params, state = trained_state()
        path = tmp_path / "state.ckpt"
        save_train_state(path, TrainState(params, state, 2, loss_history(2)))
        return path

    def test_bad_magic(self, tmp_path):
        path = self.write_state(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(InputError, match="magic"):
            load_train_state(path)

    def test_unsupported_version(self, tmp_path):
        path = self.write_state(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 8, 999)
        path.write_bytes(bytes(blob))
        with pytest.raises(InputError, match="version"):
            load_train_state(path)

    def test_truncated_payload(self, tmp_path):
        path = self.write_state(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(InputError, match="truncated"):
            load_train_state(path)

    def test_moment_layouts_must_match_parameters(self, tmp_path):
        """A moment vector not shaped like ``flat`` is refused when saving, and a file whose
        moments hold one entry fewer or more than the parameters is refused when loading."""
        params, state = trained_state()
        path = tmp_path / "state.ckpt"
        for wrong in (np.zeros(params.flat.size + 1), np.zeros((1, params.flat.size))):
            for first, second in ((wrong, state.second_moment), (state.first_moment, wrong)):
                with pytest.raises(InputError, match=re.escape(
                        f"{path}: the Adam moments must be vectors of {params.flat.size}")):
                    save_train_state(path, TrainState(
                        params, AdamState(state.hyper, first, second, 3), 1, loss_history(1)))
                assert not path.exists()
        for payload, message in ((lambda data: data[:-8], "truncated checkpoint payload"),
                                 (lambda data: data + data[-8:], "8 trailing bytes")):
            path = self.write_state(tmp_path)
            rewrite(path, lambda h: h, payload)
            with pytest.raises(InputError, match=message):
                load_train_state(path)

    @pytest.mark.parametrize("vector, value, message", [
        (2, -1.0, "negative entries in the checkpoint's second moment"),
        (2, np.inf, "non-finite entries in the checkpoint's second moment"),
        (1, np.nan, "non-finite entries in the checkpoint's first moment"),
        (0, np.nan, "non-finite"),
        (3, np.nan, "non-finite entries in the checkpoint's objective"),
        (4, np.inf, "non-finite entries in the checkpoint's mmd2"),
        (5, -np.inf, "non-finite entries in the checkpoint's cost"),
    ], ids=["negative-second-moment", "infinite-second-moment", "nan-first-moment",
            "nan-parameter", "nan-objective", "infinite-mmd2", "minus-infinite-cost"])
    def test_state_adam_cannot_continue_from_is_refused(self, tmp_path, vector, value, message):
        """Writer and reader both refuse a non-finite parameter, moment or loss history
        entry and a negative second moment, naming the file; the writer writes nothing."""
        params, state = trained_state()
        history = loss_history(3)
        vectors = [params.flat.copy(), state.first_moment.copy(), state.second_moment.copy(),
                   *map(np.array, (history.objective, history.mmd2, history.cost))]
        vectors[vector][1] = value
        bad_params = MlpParams(params.weights, params.biases, params.activations)
        bad_params.flat[...] = vectors[0]
        bad_state = AdamState(state.hyper, vectors[1], vectors[2], state.step_count)
        bad_history = LossHistory(history.epochs, *(v.tolist() for v in vectors[3:]))
        path = tmp_path / "state.ckpt"
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: .*{message}"):
            save_train_state(path, TrainState(bad_params, bad_state, 3, bad_history))
        assert not path.exists()
        # The same entry written into a valid file's payload: parameters, m, v, then the
        # history's objective, mmd2 and cost.
        save_train_state(path, TrainState(params, state, 3, history))
        blob = bytearray(path.read_bytes())
        start = len(blob) - len(read_parts(path)[1]) + sum(v.nbytes for v in vectors[:vector])
        blob[start:start + vectors[vector].nbytes] = vectors[vector].astype("<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: .*{message}"):
            load_train_state(path)

    @pytest.mark.parametrize("history", [
        LossHistory([1, 2], [0.5] * 2, [0.25] * 2, [1.0] * 2),
        LossHistory([1, 2, 3, 4], [0.5] * 4, [0.25] * 4, [1.0] * 4),
        LossHistory([1, 2, 4], [0.5] * 3, [0.25] * 3, [1.0] * 3),
        LossHistory([2, 1, 3], [0.5] * 3, [0.25] * 3, [1.0] * 3),
        LossHistory([0, 1, 2], [0.5] * 3, [0.25] * 3, [1.0] * 3),
        LossHistory([1, 2, 3], [0.5] * 3, [0.25] * 2, [1.0] * 3),
        LossHistory(),
    ], ids=["too-few", "too-many", "gap", "out-of-order", "from-zero", "short-column",
            "empty"])
    def test_history_must_hold_exactly_epochs_one_to_epoch(self, tmp_path, history):
        """The writer refuses, naming the file and before writing, a history whose rows are
        not exactly epochs 1..epoch with one value per column each."""
        params, state = trained_state()
        path = tmp_path / "state.ckpt"
        with pytest.raises(InputError, match=re.escape(
                f"{path}: the loss history must hold exactly epochs 1..3")):
            save_train_state(path, TrainState(params, state, 3, history))
        assert not path.exists()

    def test_history_epochs_may_be_a_numpy_array(self, tmp_path):
        """A numpy ``epochs`` is read as its entries: 1..epoch is written and reads back as
        the same history; any other is refused with InputError, not numpy's ValueError."""
        params, state = trained_state()
        path = tmp_path / "state.ckpt"
        cols = loss_history(3)
        save_train_state(path, TrainState(params, state, 3, LossHistory(
            np.arange(1, 4), cols.objective, cols.mmd2, cols.cost)))
        assert_history_equal(load_train_state(path).history, cols)
        for epochs in (np.array([1, 2, 4]), np.array([1, 2]), np.array([[1, 2, 3]])):
            bad = tmp_path / "bad.ckpt"
            with pytest.raises(InputError, match=re.escape(
                    f"{bad}: the loss history must hold exactly epochs 1..3")):
                save_train_state(bad, TrainState(params, state, 3, LossHistory(
                    epochs, cols.objective, cols.mmd2, cols.cost)))
            assert not bad.exists()

    @pytest.mark.parametrize("epoch, message", [
        (2.0, "epoch: expected an integer, got 2.0"),
        (np.float64(2), "epoch: expected an integer, got np.float64(2.0)"),
        (True, "epoch: expected an integer, got True"),
        ("2", "epoch: expected an integer, got '2'"),
        (-1, "epoch must be >= 0, got -1"),
    ], ids=["float", "numpy-float", "bool", "string", "negative"])
    def test_epoch_must_be_an_integer_at_least_zero(self, tmp_path, epoch, message):
        """The writer types ``epoch`` as the reader does, naming the file and before writing."""
        params, state = trained_state()
        path = tmp_path / "state.ckpt"
        with pytest.raises(InputError, match=f"^{re.escape(f'{path}: {message}')}$"):
            save_train_state(path, TrainState(params, state, epoch, loss_history(2)))
        assert not path.exists()

    @pytest.mark.parametrize("epoch", [np.int64(2), np.int32(2), np.uint8(2)])
    def test_numpy_integer_epoch_saves_as_an_int(self, tmp_path, epoch):
        params, state = trained_state()
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_train_state(a, TrainState(params, state, epoch, loss_history(2)))
        save_train_state(b, TrainState(params, state, 2, loss_history(2)))
        assert a.read_bytes() == b.read_bytes()
        assert load_train_state(a)[2] == 2

    def test_trailing_garbage(self, tmp_path):
        path = self.write_state(tmp_path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(InputError, match="trailing"):
            load_train_state(path)

    def test_corrupt_header_json(self, tmp_path):
        path = self.write_state(tmp_path)
        blob = bytearray(path.read_bytes())
        header_len = struct.unpack_from("<I", blob, 12)[0]
        for i in range(16, 16 + header_len):
            blob[i] = ord("?")
        path.write_bytes(bytes(blob))
        with pytest.raises(InputError):
            load_train_state(path)

    def write_edited_header(self, tmp_path, edit):
        """A state checkpoint whose JSON header is replaced by ``edit(header)``."""
        path = self.write_state(tmp_path)
        rewrite(path, edit)
        return path

    @pytest.mark.parametrize("edit, payload, message", [
        (lambda h: h, lambda data: data + data[8 * 27:16 * 27],
         f"{8 * 27} trailing bytes after payload"),
        (lambda h: h, lambda data: data + np.full(3, 7.0).tobytes(), "24 trailing bytes"),
        (lambda h: h, lambda data: data[:8 * 27] + data[16 * 27:24 * 27]
         + data[8 * 27:16 * 27] + data[24 * 27:],
         "negative entries in the checkpoint's second moment"),
        (lambda h: {k: v for k, v in h.items() if k != "widths"}, lambda data: b"",
         "corrupt checkpoint header"),
    ], ids=["duplicate-m_w0", "extra-unknown-array", "m_w0-and-v_w0-swapped", "no-arrays"])
    def test_array_list_must_be_exactly_the_writers(self, tmp_path, edit, payload, message):
        """The payload is the writer's three vectors, flat, first moment and second moment,
        of the length the header's widths give: a repeated or extra vector, moments in the
        other order (the first moment has negative entries) or a header without widths is
        refused instead of loading silently."""
        params, state = trained_state()
        assert params.flat.size == 27 and state.first_moment.min() < 0.0
        path = self.write_state(tmp_path)
        rewrite(path, edit, payload)
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: .*{message}"):
            load_train_state(path)

    @pytest.mark.parametrize("edit", [
        lambda h: {**h, "widths": [2, "5", 2]},
        lambda h: [h],
        lambda h: {k: v for k, v in h.items() if k != "widths"},
        lambda h: {k: v for k, v in h.items() if k != "activations"},
        lambda h: {**h, "arrays": [{"name": "w0", "shape": [5, 2]}]},
        lambda h: {**h, "widths": "2,5,2"},
        lambda h: {**h, "widths": [2, 0, 2]},
        lambda h: {**h, "widths": [2, -5, 2]},
        lambda h: {**h, "widths": [2, True, 2]},
        lambda h: {**h, "widths": [2, 5.0, 2]},
        lambda h: {**h, "widths": [2], "activations": []},
        lambda h: {**h, "activations": h["activations"] + ["identity"]},
        lambda h: {**h, "activations": "tanh"},
    ], ids=["entry-is-a-string", "header-is-a-list", "no-widths", "no-activations",
            "extra-key", "widths-not-a-list", "zero-width", "negative-width", "bool-width",
            "float-width", "one-width", "one-activation-too-many", "activations-not-a-list"])
    def test_malformed_header_names_the_file(self, tmp_path, edit):
        path = self.write_edited_header(tmp_path, edit)
        with pytest.raises(InputError, match=re.escape(f"{path}: corrupt checkpoint header")):
            load_train_state(path)

    @pytest.mark.parametrize("widths, activations", [
        ([2, 5, 2], ["softmax", "identity"]),
        ([2, 5, 3], ["tanh", "identity"]),
    ], ids=["unknown-activation", "ends-differ"])
    def test_unloadable_network_names_the_file(self, tmp_path, widths, activations):
        """A well-formed header and payload that MlpParams refuses; the payload is resized
        to the widths, so only the network is at fault."""
        path = self.write_state(tmp_path)
        rewrite(path, lambda h: {**h, "widths": widths, "activations": activations},
                lambda data: bytes(24 * (n_params(widths) + 2)))
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: checkpoint holds an "
                                             "inconsistent network"):
            load_train_state(path)

    @pytest.mark.parametrize("widths, epoch", [
        ([2, 2**70, 2], 2), ([2, 2**32, 2**32, 2], 2), ([2, 5, 2], 2**62),
    ], ids=["beyond-int64", "product-wraps-in-int64", "epoch-2**62"])
    def test_huge_shape_is_a_truncated_payload(self, tmp_path, widths, epoch):
        """The payload length is checked in Python ints before anything is allocated."""
        path = self.write_edited_header(tmp_path, lambda h: {
            **h, "widths": widths, "epoch": epoch,
            "activations": ["tanh"] * (len(widths) - 2) + ["identity"]})
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="truncated checkpoint payload"):
                load_train_state(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_train_state(tmp_path / "absent.ckpt")

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("hello")
        with pytest.raises(InputError):
            load_train_state(path)
