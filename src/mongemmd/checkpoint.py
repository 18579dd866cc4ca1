"""Versioned binary checkpoints of one run, a ``train.TrainState``, saved and loaded whole.

Layout, all little-endian:

    bytes 0..7    magic b"MMDCKPT\\n"
    bytes 8..11   format version (uint32), currently 4
    bytes 12..15  JSON header length H (uint32)
    bytes 16..    H bytes of UTF-8 JSON with sorted keys, exactly: activations,
                  adam, epoch, step_count and widths
    then          three float64 vectors of P = nn.n_params(widths) entries each:
                  the network's ``flat``, then Adam's first and second moments
    then          three float64 vectors of ``epoch`` entries each: the loss
                  history's objective, mmd2 and cost columns of epochs 1..epoch

Version 4 keeps version 3's layout, but its ``mmd2`` column reports each
batch's target term from epoch 1's batches (see ``train``), so version 3 files
are refused by their version. ``loss.csv`` is written from the checkpoint's
history. Only ``nn.MlpParams`` knows how a vector tiles into layers. The reader
refuses a payload of any length but 24·(P + epoch) bytes before allocating it;
reader and writer both refuse a non-finite parameter, moment or history entry
and a negative second moment, and the writer a history that breaks ``train``'s
rule of exactly epochs 1..epoch. Identical inputs produce byte-identical files,
and loading restores every float bit-exactly, so checkpoint-resume reproduces
an uninterrupted run.
"""

from __future__ import annotations

import json
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import InputError
from .nn import MlpParams, n_params
from .optim import AdamHyper, AdamState
from .train import LossHistory, TrainState, _checked_epoch
from .util import atomic_write_bytes

MAGIC = b"MMDCKPT\n"
FORMAT_VERSION = 4

_ADAM_KEYS = tuple(f.name for f in fields(AdamHyper))  # as saved in the header
_HEADER_KEYS = ["activations", "adam", "epoch", "step_count", "widths"]


def _check_values(path, flat: np.ndarray, first, second, history) -> None:
    """Refuse a state Adam cannot continue from: moments not shaped like ``flat``, a non-finite
    entry (also in the ``history`` columns), or a negative second moment (its root is taken)."""
    if not np.shape(first) == np.shape(second) == flat.shape:
        raise InputError(f"{path}: the Adam moments must be vectors of {flat.size} parameters")
    names = ("parameters", "first moment", "second moment", "objective", "mmd2", "cost")
    for name, vec in zip(names, (flat, first, second, *history)):
        # min is NaN when any entry is: two reductions, no boolean temporary; [] has no min.
        if vec.size and not (np.isfinite(vec.min()) and np.isfinite(vec.max())):
            raise InputError(f"{path}: non-finite entries in the checkpoint's {name}")
    if second.min() < 0.0:
        raise InputError(f"{path}: negative entries in the checkpoint's second moment")


def save_train_state(path, state: TrainState) -> None:
    """Write ``state`` as a resumable checkpoint: parameters, Adam moments, counters and
    the loss history, which must hold exactly epochs 1..``state.epoch``."""
    epoch = _checked_epoch(state, path)
    params, opt, history = state.params, state.optimizer, state.history
    cols = [np.array(c, dtype=np.float64) for c in (history.objective, history.mmd2, history.cost)]
    vectors = (params.flat, opt.first_moment, opt.second_moment, *cols)
    _check_values(path, *vectors[:3], cols)
    header = {"activations": [a.value for a in params.activations], "epoch": epoch,
              "adam": {k: getattr(opt.hyper, k) for k in _ADAM_KEYS},
              "step_count": int(opt.step_count), "widths": list(params.widths)}
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(header_bytes)), header_bytes]
    parts += [np.ascontiguousarray(v, dtype="<f8").tobytes() for v in vectors]
    atomic_write_bytes(Path(path), b"".join(parts))


def _read(path: Path) -> tuple[dict, memoryview]:
    """The file's checked JSON header, and a view of the payload bytes after it."""
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
    if not (isinstance(header, dict) and sorted(header) == _HEADER_KEYS):
        raise InputError(f"{path}: corrupt checkpoint header: expected an object of exactly "
                         f"the keys {', '.join(_HEADER_KEYS)}")
    widths, acts, adam = header["widths"], header["activations"], header["adam"]
    layers = len(widths) - 1 if isinstance(widths, list) else None
    rules = {  # key: (holds, what it must be), checked in this order
        "widths": (layers is not None and layers >= 1 and all(
            type(v) is int and v >= 1 for v in widths), "a list of at least two ints >= 1"),
        "activations": (isinstance(acts, list) and len(acts) == layers, "one entry per layer"),
        "adam": (isinstance(adam, dict) and sorted(adam) == sorted(_ADAM_KEYS) and all(
            type(v) in (int, float) for v in adam.values()),
            f"an object of four real numbers ({', '.join(_ADAM_KEYS)})"),
        **{key: (type(header[key]) is int and header[key] >= 0, "an integer >= 0")
           for key in ("epoch", "step_count")}}
    for key, (holds, want) in rules.items():
        if not holds:
            raise InputError(f"{path}: corrupt checkpoint header: {key} must be {want}, "
                             f"got {header[key]!r}")
    return header, memoryview(blob)[start + header_len:]


def load_train_state(path) -> TrainState:
    """Read back the ``TrainState`` that ``save_train_state`` wrote."""
    header, payload = _read(Path(path))
    size, epoch = n_params(header["widths"]), header["epoch"]  # Python ints: no wrap
    extra = len(payload) - 24 * (size + epoch)  # checked before any array
    if extra:
        raise InputError(f"{path}: " + ("truncated checkpoint payload" if extra < 0
                                        else f"{extra} trailing bytes after payload"))
    values = np.frombuffer(payload, "<f8").astype(np.float64)
    flat, first, second = values[:3 * size].reshape(3, size)
    columns = values[3 * size:].reshape(3, epoch)
    _check_values(path, flat, first, second, columns)
    try:
        params = MlpParams.from_flat(header["widths"], header["activations"], flat)
    except InputError as exc:
        raise InputError(f"{path}: checkpoint holds an inconsistent network: {exc}") from exc
    try:
        hyper = AdamHyper(**header["adam"])
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return TrainState(params, AdamState(hyper, first, second, header["step_count"]), epoch,
                      LossHistory(list(range(1, epoch + 1)), *(c.tolist() for c in columns)))
