"""Small shared helpers: config fields, point-set validation and atomic file writes."""

from __future__ import annotations

import functools
import math
import numbers
import operator
import os
import tempfile
import types
import typing
from dataclasses import field, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import InputError

_BOUNDS = {">": operator.gt, ">=": operator.ge, "<": operator.lt}


def setting(default, help: str, key: str | None = None, *, above=None, at_least=None, below=None):
    """A run-config field: its default, help line and valid range, which ``--help`` shows.

    ``MISSING`` means no default; ``key`` is the YAML key if not the field name.
    ``above``/``at_least`` is an exclusive/inclusive lower bound and ``below``
    an exclusive upper bound on each number the field holds."""
    bounds = [(op, b) for op, b in ((">", above), (">=", at_least), ("<", below)) if b is not None]
    return field(default=default, metadata={"help": help, "key": key, "bounds": bounds})


@functools.cache
def field_types(cls) -> dict:
    """The resolved annotations of a config dataclass, by field name."""
    return typing.get_type_hints(cls)


def valid_range(cls, f) -> str:
    """What each number of field ``f`` must be, e.g. ``finite and > 0``; '' if it holds none."""
    kind = field_types(cls)[f.name]
    num = (typing.get_args(kind) or (kind,))[0]  # X of X, X | None and tuple[X, ...]
    if num not in (int, float):
        return ""
    words = ["finite"] if num is float else []
    text = " and ".join(words + [f"{op} {b}" for op, b in f.metadata["bounds"]])
    return f"nonempty, each {text}" if typing.get_origin(kind) is tuple else text


def choices(kind) -> str:
    return ", ".join(e.value for e in kind)


_WANTED = {bool: (bool, "true/false"), int: (numbers.Integral, "an integer"),
           float: (numbers.Real, "a number"), str: (str, "a string")}


def _typed(kind, value, key: str):
    """``value`` as the annotated type ``kind``, stored as a Python int/float/tuple/Enum;
    bool is not a number, a tuple needs a nonempty list and ``X | None`` allows None."""
    if typing.get_origin(kind) is types.UnionType:
        if value is None:
            return None
        kind = next(a for a in typing.get_args(kind) if a is not type(None))
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)) or not value:
            raise InputError(f"{key}: expected a nonempty list, got {value!r}")
        return tuple(_typed(typing.get_args(kind)[0], v, key) for v in value)
    enum = issubclass(kind, Enum)  # every config Enum is a str Enum
    want, name = _WANTED.get(str if enum else kind, (kind, kind.__name__))
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, want):
        raise InputError(f"{key}: expected {name}, got {value!r}")
    if enum and value not in [e.value for e in kind]:
        raise InputError(f"{key}: expected one of {choices(kind)}, got {value!r}")
    try:
        return kind(value) if enum or kind in (int, float) else value
    except OverflowError:  # a number too large for a float, e.g. 10**400
        raise InputError(f"{key} must be finite, got {value!r}") from None


def check_settings(obj) -> None:
    """The ``__post_init__`` of every config dataclass, so YAML, ``--set``, flags and Python
    all pass here: each field takes its annotated type (``_typed``), then each number must
    be finite and in its ``setting`` bounds. An InputError names the key."""
    for f in fields(obj):
        key = f.metadata.get("key") or f.name
        value = _typed(field_types(type(obj))[f.name], getattr(obj, f.name), key)
        object.__setattr__(obj, f.name, value)
        entries = value if isinstance(value, tuple) else (value,)
        rng = valid_range(type(obj), f) if value is not None else ""
        if rng and not all(math.isfinite(v) and all(
                _BOUNDS[op](v, b) for op, b in f.metadata["bounds"]) for v in entries):
            raise InputError(f"{key} must be {rng}, got {value!r}")


def as_points(x, name: str = "points") -> np.ndarray:
    """Validate and return a sample set as a float64 array of shape (n, d).

    A sample set is a finite list of d-dimensional points, one per row.
    A 1-d array is treated as n points in dimension 1.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise InputError(f"{name} must be a 2-d array of shape (n, d), got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InputError(f"{name} must contain at least one point of dimension >= 1")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite values")
    return np.ascontiguousarray(arr)


def as_point_pair(x, y, names: tuple[str, str] = ("X", "Y")) -> tuple[np.ndarray, np.ndarray]:
    """``as_points`` on two sample sets, which must also share their dimension."""
    X, Y = as_points(x, names[0]), as_points(y, names[1])
    if X.shape[1] != Y.shape[1]:
        raise InputError(f"{names[0]} and {names[1]} dimensions differ: "
                         f"{X.shape[1]} vs {Y.shape[1]}")
    return X, Y


def atomic_write_bytes(path, data: bytes) -> None:
    """Write a file via temp-file-plus-rename so readers never see a partial file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
