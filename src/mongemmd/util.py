"""Small shared helpers: config fields, point-set validation and atomic file writes."""

from __future__ import annotations

import os
import tempfile
from dataclasses import field
from pathlib import Path

import numpy as np

from .errors import InputError


def setting(default, help: str, key: str | None = None):
    """A run-config field: its default and the help line that ``--help`` and the README show.

    Pass ``dataclasses.MISSING`` for a field without a default. ``key`` is
    the YAML key when it differs from the field name.
    """
    meta = {"help": help} if key is None else {"help": help, "key": key}
    return field(default=default, metadata=meta)


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
