import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mongemmd.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    load_params,
    load_train_state,
    save_train_state,
)
from mongemmd.errors import InputError
from mongemmd.nn import Activation, MlpParams, init_params
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


def rewrite(path, edit, payload=lambda data: data):
    """Replace the checkpoint's JSON header by ``edit(header)`` and its payload bytes
    by ``payload(data)``, keeping the magic and version."""
    blob = path.read_bytes()
    header_len = struct.unpack_from("<I", blob, 12)[0]
    header = json.dumps(edit(json.loads(blob[16:16 + header_len]))).encode()
    path.write_bytes(blob[:12] + struct.pack("<I", len(header)) + header
                     + payload(blob[16 + header_len:]))


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

    def test_load_train_state_rejects_map_files(self, tmp_path):
        """The map-only kind is gone: a file of that kind is refused by both readers."""
        params = init_params((2, 2))
        path = tmp_path / "map.ckpt"
        save_train_state(path, params, adam_init(params), epoch=0)
        rewrite(path, lambda h: {"kind": "map", "activations": h["activations"],
                                 "arrays": h["arrays"][:2]},
                lambda data: data[:8 * params.flat.size])
        for load in (load_train_state, load_params):
            with pytest.raises(InputError, match=re.escape(
                    f"{path}: not a training-state checkpoint (kind 'map')")):
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
        """A moment vector of another length is refused when saving, and a file whose
        moment arrays are shaped unlike the parameters is refused when loading."""
        params, state = trained_state()
        path = tmp_path / "state.ckpt"
        for wrong in (np.zeros(params.flat.size + 1), np.zeros((1, params.flat.size))):
            for first, second in ((wrong, state.second_moment), (state.first_moment, wrong)):
                with pytest.raises(InputError):
                    save_train_state(path, params, AdamState(state.hyper, first, second, 3), 1)
                assert not path.exists()
        # each new shape keeps the array's size, so the payload still parses
        for name, shape in (("m_w0", [2, 5]), ("v_w1", [5, 2]), ("m_b1", [2, 1])):
            path = self.write_edited_header(tmp_path, lambda h: {**h, "arrays": [
                {**a, "shape": shape} if a["name"] == name else a for a in h["arrays"]]})
            with pytest.raises(InputError, match="each moment shaped like its parameter"):
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

    @pytest.mark.parametrize("edit, payload", [
        (lambda h: {**h, "arrays": h["arrays"] + [{"name": "m_w0", "shape": [5, 2]}]},
         lambda data: data + np.full(10, 7.0).tobytes()),
        (lambda h: {**h, "arrays": h["arrays"] + [{"name": "extra", "shape": [3]}]},
         lambda data: data + np.full(3, 7.0).tobytes()),
        (lambda h: {**h, "arrays": [{**a, "name": {"m_w0": "v_w0", "v_w0": "m_w0"}.get(
            a["name"], a["name"])} for a in h["arrays"]]}, lambda data: data),
        (lambda h: {k: v for k, v in h.items() if k != "arrays"}, lambda data: b""),
    ], ids=["duplicate-m_w0", "extra-unknown-array", "m_w0-and-v_w0-swapped", "no-arrays"])
    def test_array_list_must_be_exactly_the_writers(self, tmp_path, edit, payload):
        """Each payload is read once, under the name the writer gives it: a repeated,
        unknown, reordered or missing array is refused instead of loading silently."""
        path = self.write_state(tmp_path)
        rewrite(path, edit, payload)
        for load in (load_train_state, load_params):
            with pytest.raises(InputError, match=re.escape(
                    f"{path}: checkpoint arrays are not w0, b0, ..., m_w0, ..., v_w0, ...")):
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

    @pytest.mark.parametrize("edit", [
        lambda h: {**h, "arrays": [{"name": a["name"]} for a in h["arrays"]]},
        lambda h: {**h, "arrays": ["w0"] + h["arrays"][1:]},
        lambda h: [h],
    ], ids=["entry-without-shape", "entry-is-a-string", "header-is-a-list"])
    def test_malformed_header_names_the_file(self, tmp_path, edit):
        path = self.write_edited_header(tmp_path, edit)
        with pytest.raises(InputError, match=re.escape(f"{path}: corrupt checkpoint header")):
            load_params(path)

    @pytest.mark.parametrize("edit", [
        lambda h: {k: v for k, v in h.items() if k != "activations"},
        lambda h: {**h, "arrays": [{**h["arrays"][0], "name": "x0"}] + h["arrays"][1:]},
        lambda h: {**h, "activations": ["softmax", "identity"]},
    ], ids=["no-activations", "array-renamed", "unknown-activation"])
    def test_unloadable_network_names_the_file(self, tmp_path, edit):
        path = self.write_edited_header(tmp_path, edit)
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: checkpoint "):
            load_params(path)

    @pytest.mark.parametrize("shape", [[2**70], [2**32, 2**32]],
                             ids=["beyond-int64", "product-wraps-in-int64"])
    def test_huge_shape_is_a_truncated_payload(self, tmp_path, shape):
        path = self.write_edited_header(
            tmp_path, lambda h: {**h, "arrays": [{"name": "w0", "shape": shape}] + h["arrays"][1:]})
        with pytest.raises(InputError, match="truncated checkpoint payload"):
            load_params(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_params(tmp_path / "absent.ckpt")

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("hello")
        with pytest.raises(InputError):
            load_params(path)
