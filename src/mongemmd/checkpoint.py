"""Versioned binary checkpoints for maps and full training state.

Layout, all little-endian:

    bytes 0..7    magic b"MMDCKPT\\n"
    bytes 8..11   format version (uint32), currently 1
    bytes 12..15  JSON header length H (uint32)
    bytes 16..    H bytes of UTF-8 JSON with sorted keys
    then          raw float64 array payloads, C order, in header order

The header's ``arrays`` list gives each payload array's name and shape, so
the payload offsets are implied. ``kind`` is ``map`` (parameters only) or
``train_state`` (parameters, Adam moments, step counter, epoch). Identical
inputs produce byte-identical files, and loading restores every float
bit-exactly, which is what makes checkpoint-resume reproduce an
uninterrupted run.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import InputError
from .nn import MlpParams, ParamGrads
from .optim import AdamHyper, AdamState
from .util import atomic_write_bytes

MAGIC = b"MMDCKPT\n"
FORMAT_VERSION = 1

KIND_MAP = "map"
KIND_TRAIN_STATE = "train_state"

_ADAM_KEYS = ("learning_rate", "beta1", "beta2", "eps")  # AdamHyper's fields, as saved


def _layer_arrays(layers: MlpParams | ParamGrads, prefix: str = "") -> list[tuple[str, np.ndarray]]:
    """Named per-layer views in payload order: w0, b0, w1, b1, ..."""
    out = []
    for l, (w, b) in enumerate(zip(layers.weights, layers.biases)):
        out += [(f"{prefix}w{l}", w), (f"{prefix}b{l}", b)]
    return out


def _layer_lists(arrays: dict[str, np.ndarray], n_layers: int, prefix: str = ""):
    """The weight and bias lists that ``_layer_arrays`` named; KeyError if one is missing."""
    return ([arrays[f"{prefix}w{l}"] for l in range(n_layers)],
            [arrays[f"{prefix}b{l}"] for l in range(n_layers)])


def _encode(kind: str, meta: dict, arrays: list[tuple[str, np.ndarray]]) -> bytes:
    header = dict(meta)
    header["kind"] = kind
    header["arrays"] = [{"name": n, "shape": list(a.shape)} for n, a in arrays]
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(header_bytes)), header_bytes]
    for _, a in arrays:
        parts.append(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return b"".join(parts)


def _decode(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
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
    arrays: dict[str, np.ndarray] = {}
    for entry in entries:
        shape = tuple(entry["shape"])
        end = offset + 8 * math.prod(shape)
        if end > len(blob):
            raise InputError(f"{path}: truncated checkpoint payload")
        arr = np.frombuffer(blob[offset:end], dtype="<f8").reshape(shape)
        arrays[entry["name"]] = arr.astype(np.float64, copy=True)
        offset = end
    if offset != len(blob):
        raise InputError(f"{path}: {len(blob) - offset} trailing bytes after payload")
    return header, arrays


def _params_from(path, header: dict, arrays: dict[str, np.ndarray]) -> MlpParams:
    acts = header.get("activations")
    if not isinstance(acts, list) or not acts:
        raise InputError(f"{path}: checkpoint header lacks activations")
    try:
        weights, biases = _layer_lists(arrays, len(acts))
    except KeyError as exc:
        raise InputError(f"{path}: checkpoint payload missing array {exc}") from exc
    try:
        return MlpParams(weights, biases, acts)
    except (InputError, ValueError) as exc:
        raise InputError(f"{path}: checkpoint holds an inconsistent network: {exc}") from exc


def save_params(path, params: MlpParams) -> None:
    """Write a map-only checkpoint."""
    meta = {"activations": [a.value for a in params.activations]}
    atomic_write_bytes(Path(path), _encode(KIND_MAP, meta, _layer_arrays(params)))


def load_params(path) -> MlpParams:
    """Read the network from a checkpoint of either kind."""
    header, arrays = _decode(Path(path))
    if header.get("kind") not in (KIND_MAP, KIND_TRAIN_STATE):
        raise InputError(f"{path}: unknown checkpoint kind {header.get('kind')!r}")
    return _params_from(path, header, arrays)


def save_train_state(path, params: MlpParams, opt: AdamState, epoch: int) -> None:
    """Write a resumable checkpoint: parameters, Adam moments, counters."""
    meta = {
        "activations": [a.value for a in params.activations],
        "epoch": int(epoch),
        "step_count": int(opt.step_count),
        "adam": {k: getattr(opt.hyper, k) for k in _ADAM_KEYS},
    }
    arrays = (_layer_arrays(params) + _layer_arrays(opt.first_moment, "m_")
              + _layer_arrays(opt.second_moment, "v_"))
    atomic_write_bytes(Path(path), _encode(KIND_TRAIN_STATE, meta, arrays))


def load_train_state(path) -> tuple[MlpParams, AdamState, int]:
    """Read back (params, optimizer state, completed epoch count)."""
    header, arrays = _decode(Path(path))
    if header.get("kind") != KIND_TRAIN_STATE:
        raise InputError(f"{path}: not a training-state checkpoint")
    params = _params_from(path, header, arrays)
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
    try:
        first = ParamGrads(*_layer_lists(arrays, params.n_layers, "m_"))
        second = ParamGrads(*_layer_lists(arrays, params.n_layers, "v_"))
    except KeyError as exc:
        raise InputError(f"{path}: checkpoint payload missing array {exc}") from exc
    if not first.layout == second.layout == params.layout:
        raise InputError(f"{path}: moment arrays do not match parameters")
    opt = AdamState(hyper=hyper, first_moment=first, second_moment=second,
                    step_count=header["step_count"])
    return params, opt, header["epoch"]
