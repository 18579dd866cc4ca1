import json
import struct

import pytest

from mongemmd.checkpoint import MAGIC
from mongemmd.nn import n_params


def _parts(path):
    """The checkpoint's parsed JSON header and its payload bytes."""
    blob = path.read_bytes()
    header_len = struct.unpack_from("<I", blob, 12)[0]
    return json.loads(blob[16:16 + header_len]), blob[16 + header_len:]


def _write(path, version, header, payload):
    raw = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(MAGIC + struct.pack("<II", version, len(raw)) + raw + payload)


@pytest.fixture
def rewrite_as_v1():
    """``rewrite(path, kind="train_state")`` turns the checkpoint at ``path`` into a format
    version 1 file of the same state, laid out as that version's writer did: the header also
    names the kind and lists each per-layer array (w0, b0, w1, ..., then m_w0, ... and
    v_w0, ... for a training state), before the same parameter and moment bytes and no loss
    history. The old ``map`` kind kept only the activations and the network's arrays."""
    def rewrite(path, kind="train_state"):
        header, payload = _parts(path)
        widths = header.pop("widths")
        shapes = [s for k, m in zip(widths, widths[1:]) for s in ([m, k], [m])]
        prefixes = ("", "m_", "v_") if kind == "train_state" else ("",)
        names = [f"{p}{a}{l}" for p in prefixes for l in range(len(widths) - 1) for a in "wb"]
        if kind != "train_state":
            header = {"activations": header["activations"]}
        header.update(kind=kind, arrays=[{"name": n, "shape": s}
                                         for n, s in zip(names, shapes * 3)])
        _write(path, 1, header, payload[:8 * n_params(widths) * len(prefixes)])
    return rewrite


@pytest.fixture
def rewrite_as_v2():
    """``rewrite(path)`` turns the checkpoint at ``path`` into a format version 2 file of the
    same state: the same header keys, then ``flat ‖ m ‖ v`` and no loss history."""
    def rewrite(path):
        header, payload = _parts(path)
        _write(path, 2, header, payload[:24 * n_params(header["widths"])])
    return rewrite


@pytest.fixture
def rewrite_as_v3():
    """``rewrite(path)`` turns the checkpoint at ``path`` into a format version 3 file: the
    same layout and bytes, whose ``mmd2`` column held each batch's own target term."""
    def rewrite(path):
        header, payload = _parts(path)
        _write(path, 3, header, payload)
    return rewrite
