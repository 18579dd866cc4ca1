import json
import re
import struct

import numpy as np
import pytest

from mongemmd.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    load_params,
    load_train_state,
    save_params,
    save_train_state,
)
from mongemmd.errors import InputError
from mongemmd.nn import Activation, MlpParams, ParamGrads, init_params
from mongemmd.optim import AdamHyper, AdamState, adam_init, adam_step


def trained_state(seed=0, steps=3):
    """A network plus an optimizer state with nonzero moments."""
    params = init_params((2, 5, 2), hidden_activation=Activation.TANH,
                         seed=seed)
    state = adam_init(params, AdamHyper(learning_rate=0.01))
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        grads = ParamGrads([rng.standard_normal(w.shape) for w in params.weights],
                           [rng.standard_normal(b.shape) for b in params.biases])
        state, params = adam_step(state, params, grads)
    return params, state


def assert_params_equal(a, b):
    assert a.activations == b.activations
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        np.testing.assert_array_equal(ba, bb)


class TestMapCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        params = init_params((3, 7, 4, 3), seed=5)
        path = tmp_path / "map.ckpt"
        save_params(path, params)
        assert_params_equal(load_params(path), params)

    def test_identical_params_identical_bytes(self, tmp_path):
        params = init_params((2, 6, 2), seed=1)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_params(p1, params)
        save_params(p2, params.copy())
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_starts_with_magic_and_version(self, tmp_path):
        params = init_params((2, 2))
        path = tmp_path / "map.ckpt"
        save_params(path, params)
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
        for a, b in zip(state2.first_moment.arrays(),
                        state.first_moment.arrays()):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(state2.second_moment.arrays(),
                        state.second_moment.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_resumed_optimizer_continues_identically(self, tmp_path):
        """A step taken after reload matches the step without the round trip."""
        params, state = trained_state(seed=3, steps=4)
        path = tmp_path / "state.ckpt"
        save_train_state(path, params, state, epoch=4)
        params2, state2, _ = load_train_state(path)
        rng = np.random.default_rng(99)
        grads = ParamGrads([rng.standard_normal(w.shape) for w in params.weights],
                           [rng.standard_normal(b.shape) for b in params.biases])
        _, direct = adam_step(state, params, grads)
        _, resumed = adam_step(state2, params2, grads)
        assert_params_equal(direct, resumed)

    def test_load_params_accepts_train_state_files(self, tmp_path):
        params, state = trained_state()
        path = tmp_path / "state.ckpt"
        save_train_state(path, params, state, epoch=1)
        assert_params_equal(load_params(path), params)

    def test_load_train_state_rejects_map_files(self, tmp_path):
        path = tmp_path / "map.ckpt"
        save_params(path, init_params((2, 2)))
        with pytest.raises(InputError):
            load_train_state(path)


    def test_flat_state_saves_like_per_layer_copies(self, tmp_path):
        """The file is written from the flat buffers' views and must not depend on them."""
        params, state = trained_state(seed=4, steps=5)

        def rebuilt(moment):
            return ParamGrads([w.copy() for w in moment.weights],
                              [b.copy() for b in moment.biases])

        params2 = MlpParams([w.copy() for w in params.weights],
                            [b.copy() for b in params.biases], params.activations)
        state2 = AdamState(state.hyper, rebuilt(state.first_moment),
                           rebuilt(state.second_moment), state.step_count)
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
        params, state = trained_state()
        wrong = ParamGrads([np.zeros((5, 3)), np.zeros((2, 5))], [np.zeros(5), np.zeros(2)])
        for first, second in ((wrong, state.second_moment), (state.first_moment, wrong)):
            path = tmp_path / "state.ckpt"
            save_train_state(path, params, AdamState(state.hyper, first, second, 3), epoch=1)
            with pytest.raises(InputError, match="moment"):
                load_train_state(path)

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
        blob = path.read_bytes()
        header_len = struct.unpack_from("<I", blob, 12)[0]
        header = json.dumps(edit(json.loads(blob[16:16 + header_len]))).encode()
        path.write_bytes(blob[:12] + struct.pack("<I", len(header)) + header
                         + blob[16 + header_len:])
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
