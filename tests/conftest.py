import json
import struct

import pytest

from mongemmd.checkpoint import MAGIC


@pytest.fixture
def rewrite_as_v1():
    """``rewrite(path, kind="train_state")`` turns the checkpoint at ``path`` into a format
    version 1 file of the same state, laid out as that version's writer did: the header also
    names the kind and lists each per-layer array (w0, b0, w1, ..., then m_w0, ... and
    v_w0, ... for a training state), before the same payload bytes. The old ``map`` kind
    kept only the activations and the network's arrays."""
    def rewrite(path, kind="train_state"):
        blob = path.read_bytes()
        header_len = struct.unpack_from("<I", blob, 12)[0]
        header = json.loads(blob[16:16 + header_len])
        widths = header.pop("widths")
        shapes = [s for k, m in zip(widths, widths[1:]) for s in ([m, k], [m])]
        prefixes = ("", "m_", "v_") if kind == "train_state" else ("",)
        names = [f"{p}{a}{l}" for p in prefixes for l in range(len(widths) - 1) for a in "wb"]
        if kind != "train_state":
            header = {"activations": header["activations"]}
        header.update(kind=kind, arrays=[{"name": n, "shape": s}
                                         for n, s in zip(names, shapes * 3)])
        raw = json.dumps(header, sort_keys=True).encode()
        payload = blob[16 + header_len:]
        path.write_bytes(MAGIC + struct.pack("<II", 1, len(raw)) + raw
                         + payload[:len(payload) // 3 * len(prefixes)])
    return rewrite
