"""Versioned binary checkpoints of the full training state.

Layout, all little-endian:

    bytes 0..7    magic b"MMDCKPT\\n"
    bytes 8..11   format version (uint32), currently 1
    bytes 12..15  JSON header length H (uint32)
    bytes 16..    H bytes of UTF-8 JSON with sorted keys
    then          raw float64 array payloads, C order, in header order

The header's ``arrays`` list gives each payload array's name and shape, so
the payload offsets are implied. There is one kind, ``train_state``: the
network's ``w0, b0, w1, b1, ...``, then the first Adam moment's ``m_w0,
m_b0, ...`` and the second's ``v_w0, ...``, each moment per layer shaped
like its parameter, plus the activations, step counter and epoch. The
reader refuses any other array list, and reader and writer both refuse a
non-finite parameter or moment entry and a negative second moment.
Identical inputs produce byte-identical files, and loading restores every
float bit-exactly, which is what makes checkpoint-resume reproduce an
uninterrupted run.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import InputError
from .nn import MlpParams
from .optim import AdamHyper, AdamState
from .util import atomic_write_bytes

MAGIC = b"MMDCKPT\n"
FORMAT_VERSION = 1

KIND_TRAIN_STATE = "train_state"

_ADAM_KEYS = tuple(f.name for f in fields(AdamHyper))  # as saved in the header


def _array_names(n_layers: int) -> list[str]:
    """The payload's array names in order: parameters, then first and second moments."""
    return [f"{p}{a}{l}" for p in ("", "m_", "v_") for l in range(n_layers) for a in "wb"]


def _per_layer(params: MlpParams, vec: np.ndarray) -> list[np.ndarray]:
    """The views of ``params.split(vec)`` in payload order: w0, b0, w1, b1, ..."""
    return [a for pair in params.split(vec) for a in pair]


def _check_values(path, params: MlpParams, opt: AdamState) -> None:
    """Refuse a state Adam cannot continue from: a non-finite parameter or moment
    entry, or a negative second moment (its square root is taken)."""
    for name, vec in (("parameters", params.flat), ("first moment", opt.first_moment),
                      ("second moment", opt.second_moment)):
        # min is NaN when any entry is: two reductions, no boolean temporary.
        if not (np.isfinite(vec.min()) and np.isfinite(vec.max())):
            raise InputError(f"{path}: non-finite entries in the checkpoint's {name}")
    if opt.second_moment.min() < 0.0:
        raise InputError(f"{path}: negative entries in the checkpoint's second moment")


def _encode(meta: dict, arrays: list[tuple[str, np.ndarray]]) -> bytes:
    header = dict(meta)
    header["kind"] = KIND_TRAIN_STATE
    header["arrays"] = [{"name": n, "shape": list(a.shape)} for n, a in arrays]
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(header_bytes)), header_bytes]
    for _, a in arrays:
        parts.append(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return b"".join(parts)


def _decode(path: Path) -> tuple[dict, list[np.ndarray]]:
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(blob) < len(MAGIC) + 8 or blob[: len(MAGIC)] != MAGIC:
        raise InputError(f"{path} is not a checkpoint (bad magic)")
    version, header_len = struct.unpack_from("<II", blob, len(MAGIC))
    if version != FORMAT_VERSION:
        raise InputError(f"{path}: unsupported checkpoint version {version}")
    start = len(MAGIC) + 8
    if len(blob) < start + header_len:
        raise InputError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(blob[start : start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: corrupt checkpoint header: {exc}") from exc
    entries = header.get("arrays", []) if isinstance(header, dict) else None
    well_formed = isinstance(entries, list) and all(
        isinstance(e, dict) and isinstance(e.get("name"), str) and isinstance(e.get("shape"), list)
        and all(type(v) is int and v >= 0 for v in e["shape"]) for e in entries)
    if not well_formed:
        raise InputError(f"{path}: corrupt checkpoint header: expected an object naming each array "
                         "and its shape of non-negative ints")
    offset = start + header_len
    arrays = []
    for entry in entries:
        shape = tuple(entry["shape"])
        end = offset + 8 * math.prod(shape)
        if end > len(blob):
            raise InputError(f"{path}: truncated checkpoint payload")
        arr = np.frombuffer(blob[offset:end], dtype="<f8").reshape(shape)
        arrays.append(arr.astype(np.float64, copy=True))
        offset = end
    if offset != len(blob):
        raise InputError(f"{path}: {len(blob) - offset} trailing bytes after payload")
    return header, arrays


def save_train_state(path, params: MlpParams, opt: AdamState, epoch: int) -> None:
    """Write a resumable checkpoint: parameters, Adam moments, counters."""
    meta = {
        "activations": [a.value for a in params.activations],
        "epoch": int(epoch),
        "step_count": int(opt.step_count),
        "adam": {k: getattr(opt.hyper, k) for k in _ADAM_KEYS},
    }
    arrays = [a for vec in (params.flat, opt.first_moment, opt.second_moment)
              for a in _per_layer(params, vec)]
    _check_values(path, params, opt)
    atomic_write_bytes(Path(path), _encode(meta, list(zip(_array_names(params.n_layers), arrays))))


def load_train_state(path) -> tuple[MlpParams, AdamState, int]:
    """Read back (params, optimizer state, completed epoch count)."""
    header, arrays = _decode(Path(path))
    if header.get("kind") != KIND_TRAIN_STATE:
        raise InputError(f"{path}: not a training-state checkpoint (kind {header.get('kind')!r})")
    acts = header.get("activations")
    if not isinstance(acts, list) or not acts:
        raise InputError(f"{path}: checkpoint header lacks activations")
    n = len(acts)
    shapes = [a.shape for a in arrays]
    if ([e["name"] for e in header.get("arrays", [])] != _array_names(n)
            or shapes[2 * n:] != shapes[:2 * n] * 2):
        raise InputError(f"{path}: checkpoint arrays are not w0, b0, ..., m_w0, ..., v_w0, ... of "
                         f"a {n}-layer network, each moment shaped like its parameter")
    try:
        params = MlpParams(arrays[0:2 * n:2], arrays[1:2 * n:2], acts)
    except InputError as exc:
        raise InputError(f"{path}: checkpoint holds an inconsistent network: {exc}") from exc
    adam_cfg = header.get("adam")
    if not (isinstance(adam_cfg, dict) and sorted(adam_cfg) == sorted(_ADAM_KEYS)
            and all(type(v) in (int, float) for v in adam_cfg.values())):
        raise InputError(f"{path}: corrupt checkpoint header: adam must be an object of four "
                         f"real numbers ({', '.join(_ADAM_KEYS)})")
    for key in ("epoch", "step_count"):
        if type(header.get(key)) is not int or header[key] < 0:
            raise InputError(f"{path}: corrupt checkpoint header: {key} must be an integer "
                             f">= 0, got {header.get(key)!r}")
    try:
        hyper = AdamHyper(**adam_cfg)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
    first, second = np.empty_like(params.flat), np.empty_like(params.flat)
    for view, a in zip(_per_layer(params, first) + _per_layer(params, second), arrays[2 * n:]):
        view[...] = a
    opt = AdamState(hyper=hyper, first_moment=first, second_moment=second,
                    step_count=header["step_count"])
    _check_values(path, params, opt)
    return params, opt, header["epoch"]


def load_params(path) -> MlpParams:
    """Read the network from a training-state checkpoint."""
    return load_train_state(path)[0]
