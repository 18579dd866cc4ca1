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

from mongemmd import checkpoint
from mongemmd.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    load_params,
    load_train_state,
    save_train_state,
)
from mongemmd.errors import InputError
from mongemmd.nn import Activation, MlpParams, init_params, n_params
from mongemmd.optim import AdamHyper, AdamState, adam_init, adam_step


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
    """The network as ``load_params`` reads it back from a training-state checkpoint."""

    def test_round_trip_is_bit_exact(self, tmp_path):
        params = init_params((3, 7, 4, 3), seed=5)
        path = tmp_path / "state.ckpt"
        save_train_state(path, params, adam_init(params), epoch=0)
        assert_params_equal(load_params(path), params)

    def test_identical_params_identical_bytes(self, tmp_path):
        params = init_params((2, 6, 2), seed=1)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_train_state(p1, params, adam_init(params), epoch=3)
        save_train_state(p2, params.copy(), adam_init(params.copy()), epoch=3)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_starts_with_magic_and_version(self, tmp_path):
        params = init_params((2, 2))
        path = tmp_path / "state.ckpt"
        save_train_state(path, params, adam_init(params), epoch=0)
        blob = path.read_bytes()
        assert blob[:8] == MAGIC
        version, header_len = struct.unpack_from("<II", blob, 8)
        assert version == FORMAT_VERSION
        assert header_len > 0


class TestTrainStateCheckpoint:
    def test_round_trip_restores_everything(self, tmp_path):
        params, state = trained_state(seed=2, steps=5)
        path = tmp_path / "state.ckpt"
        save_train_state(path, params, state, epoch=17)
        params2, state2, epoch = load_train_state(path)
        assert epoch == 17
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
        epoch=st.integers(0, 10**6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_save_load_save_is_a_fixed_point(self, tmp_path_factory, d, hidden, activation,
                                             hyper, steps, epoch, seed):
        params, state = trained_state(seed, steps, (d, *hidden, d), activation, hyper)
        path = tmp_path_factory.mktemp("ckpt") / "state.ckpt"
        save_train_state(path, params, state, epoch)
        first = path.read_bytes()
        params2, state2, epoch2 = load_train_state(path)
        assert params2.flat.tobytes() == params.flat.tobytes()
        assert params2.activations == params.activations
        assert state2.first_moment.tobytes() == state.first_moment.tobytes()
        assert state2.second_moment.tobytes() == state.second_moment.tobytes()
        assert (state2.hyper, state2.step_count, epoch2) == (hyper, steps, epoch)
        save_train_state(path, params2, state2, epoch2)
        assert path.read_bytes() == first

    def test_resumed_optimizer_continues_identically(self, tmp_path):
        """A step taken after reload matches the step without the round trip."""
        params, state = trained_state(seed=3, steps=4)
        path = tmp_path / "state.ckpt"
        save_train_state(path, params, state, epoch=4)
        params2, state2, _ = load_train_state(path)
        grads = random_grads(params, np.random.default_rng(99))
        _, direct = adam_step(state, params, grads)
        _, resumed = adam_step(state2, params2, grads)
        assert_params_equal(direct, resumed)

    def test_load_params_accepts_train_state_files(self, tmp_path):
        params, state = trained_state()
        path = tmp_path / "state.ckpt"
        save_train_state(path, params, state, epoch=1)
        assert_params_equal(load_params(path), params)

    def test_load_train_state_rejects_map_files(self, tmp_path, rewrite_as_v1):
        """The map-only kind existed only in format version 1: both readers refuse such a
        file by its version."""
        params = init_params((2, 2))
        path = tmp_path / "map.ckpt"
        save_train_state(path, params, adam_init(params), epoch=0)
        rewrite_as_v1(path, kind="map")
        assert read_parts(path)[0]["kind"] == "map"
        for load in (load_train_state, load_params):
            with pytest.raises(InputError, match=re.escape(
                    f"{path}: unsupported checkpoint version 1")):
                load(path)

    def test_format_1_training_state_is_refused(self, tmp_path, rewrite_as_v1):
        """No reader of format version 1 is kept, though its payload bytes equal version 2's."""
        params, state = trained_state()
        path = tmp_path / "state.ckpt"
        save_train_state(path, params, state, epoch=2)
        payload = read_parts(path)[1]
        rewrite_as_v1(path)
        assert read_parts(path)[1] == payload
        for load in (load_train_state, load_params):
            with pytest.raises(InputError, match=re.escape(
                    f"{path}: unsupported checkpoint version 1")):
                load(path)

    def test_flat_state_saves_like_per_layer_copies(self, tmp_path):
        """The file is written from the flat buffers' views and must not depend on them."""
        params, state = trained_state(seed=4, steps=5)

        params2 = MlpParams([w.copy() for w in params.weights],
                            [b.copy() for b in params.biases], params.activations)
        state2 = AdamState(state.hyper, state.first_moment.copy(),
                           state.second_moment.copy(), state.step_count)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_train_state(a, params, state, epoch=5)
        save_train_state(b, params2, state2, epoch=5)
        assert a.read_bytes() == b.read_bytes()


class TestFormat:
    """Version 2: a header of exactly five keys, then ``flat``, first moment, second moment."""

    def test_header_holds_widths_and_counters_only(self, tmp_path):
        params, state = trained_state(widths=(2, 5, 3, 2))
        path = tmp_path / "state.ckpt"
        save_train_state(path, params, state, epoch=9)
        blob = path.read_bytes()
        assert struct.unpack_from("<I", blob, 8)[0] == FORMAT_VERSION == 2
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
        """The payload is exactly the three vectors; any payload 1-64 bytes shorter or
        longer is refused, before any vector is read."""
        params, state = trained_state(seed, steps, (d, *hidden, d))
        path = tmp_path_factory.mktemp("ckpt") / "state.ckpt"
        save_train_state(path, params, state, epoch=1)
        _, payload = read_parts(path)
        expected = np.concatenate([params.flat, state.first_moment, state.second_moment])
        assert payload == expected.astype("<f8").tobytes()
        assert len(payload) == 24 * n_params(params.widths)
        blob = path.read_bytes()
        path.write_bytes(blob + bytes(change) if longer else blob[:-change])
        message = f"{change} trailing bytes after payload" if longer else "truncated checkpoint"
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: {message}"):
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
        save_train_state(path, params, state, epoch=2)
        return path

    def test_bad_magic(self, tmp_path):
        path = self.write_state(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(InputError, match="magic"):
            load_params(path)

    def test_unsupported_version(self, tmp_path):
        path = self.write_state(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 8, 999)
        path.write_bytes(bytes(blob))
        with pytest.raises(InputError, match="version"):
            load_params(path)

    def test_truncated_payload(self, tmp_path):
        path = self.write_state(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(InputError, match="truncated"):
            load_params(path)

    def test_moment_layouts_must_match_parameters(self, tmp_path):
        """A moment vector not shaped like ``flat`` is refused when saving, and a file whose
        moments hold one entry fewer or more than the parameters is refused when loading."""
        params, state = trained_state()
        path = tmp_path / "state.ckpt"
        for wrong in (np.zeros(params.flat.size + 1), np.zeros((1, params.flat.size))):
            for first, second in ((wrong, state.second_moment), (state.first_moment, wrong)):
                with pytest.raises(InputError, match=re.escape(
                        f"{path}: the Adam moments must be vectors of {params.flat.size}")):
                    save_train_state(path, params, AdamState(state.hyper, first, second, 3), 1)
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
    ], ids=["negative-second-moment", "infinite-second-moment", "nan-first-moment",
            "nan-parameter"])
    def test_state_adam_cannot_continue_from_is_refused(self, tmp_path, vector, value, message):
        """Writer and reader both refuse a non-finite parameter or moment entry and a
        negative second moment, naming the file; the writer writes nothing."""
        params, state = trained_state()
        n = params.flat.size
        vectors = [params.flat.copy(), state.first_moment.copy(), state.second_moment.copy()]
        vectors[vector][1] = value
        bad_params = MlpParams(params.weights, params.biases, params.activations)
        bad_params.flat[...] = vectors[0]
        bad_state = AdamState(state.hyper, vectors[1], vectors[2], state.step_count)
        path = tmp_path / "state.ckpt"
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: .*{message}"):
            save_train_state(path, bad_params, bad_state, epoch=3)
        assert not path.exists()
        # The same entry written into a valid file's payload: parameters, m, then v.
        save_train_state(path, params, state, epoch=3)
        blob = bytearray(path.read_bytes())
        start = len(blob) - 8 * n * (3 - vector)
        blob[start:start + 8 * n] = vectors[vector].astype("<f8").tobytes()
        path.write_bytes(bytes(blob))
        for load in (load_train_state, load_params):
            with pytest.raises(InputError, match=f"^{re.escape(str(path))}: .*{message}"):
                load(path)

    def test_trailing_garbage(self, tmp_path):
        path = self.write_state(tmp_path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(InputError, match="trailing"):
            load_params(path)

    def test_corrupt_header_json(self, tmp_path):
        path = self.write_state(tmp_path)
        blob = bytearray(path.read_bytes())
        header_len = struct.unpack_from("<I", blob, 12)[0]
        for i in range(16, 16 + header_len):
            blob[i] = ord("?")
        path.write_bytes(bytes(blob))
        with pytest.raises(InputError):
            load_params(path)

    def write_edited_header(self, tmp_path, edit):
        """A state checkpoint whose JSON header is replaced by ``edit(header)``."""
        path = self.write_state(tmp_path)
        rewrite(path, edit)
        return path

    @pytest.mark.parametrize("edit, payload, message", [
        (lambda h: h, lambda data: data + data[len(data) // 3:2 * len(data) // 3],
         f"{8 * 27} trailing bytes after payload"),
        (lambda h: h, lambda data: data + np.full(3, 7.0).tobytes(), "24 trailing bytes"),
        (lambda h: h, lambda data: data[:len(data) // 3] + data[2 * len(data) // 3:]
         + data[len(data) // 3:2 * len(data) // 3],
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
        for load in (load_train_state, load_params):
            with pytest.raises(InputError, match=f"^{re.escape(str(path))}: .*{message}"):
                load(path)

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
            load_params(path)

    @pytest.mark.parametrize("widths, activations", [
        ([2, 5, 2], ["softmax", "identity"]),
        ([2, 5, 3], ["tanh", "identity"]),
    ], ids=["unknown-activation", "ends-differ"])
    def test_unloadable_network_names_the_file(self, tmp_path, widths, activations):
        """A well-formed header and payload that MlpParams refuses; the payload is resized
        to the widths, so only the network is at fault."""
        path = self.write_state(tmp_path)
        rewrite(path, lambda h: {**h, "widths": widths, "activations": activations},
                lambda data: bytes(24 * n_params(widths)))
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: checkpoint holds an "
                                             "inconsistent network"):
            load_params(path)

    @pytest.mark.parametrize("widths", [[2, 2**70, 2], [2, 2**32, 2**32, 2]],
                             ids=["beyond-int64", "product-wraps-in-int64"])
    def test_huge_shape_is_a_truncated_payload(self, tmp_path, widths):
        """The payload length is checked in Python ints before anything is allocated."""
        path = self.write_edited_header(tmp_path, lambda h: {
            **h, "widths": widths, "activations": ["tanh"] * (len(widths) - 2) + ["identity"]})
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="truncated checkpoint payload"):
                load_params(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_params(tmp_path / "absent.ckpt")

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("hello")
        with pytest.raises(InputError):
            load_params(path)
