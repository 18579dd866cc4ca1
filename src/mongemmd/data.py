"""Synthetic point clouds and the plain-text point format.

Three families: two interleaved half-moons, two concentric circles, and an
isotropic Gaussian with configurable mean and per-coordinate variance. The
curve families place n//2 points on the first curve and the rest on the
second, at evenly spaced parameter values, then add isotropic Gaussian
jitter of scale ``noise``. All randomness comes from numpy's default PCG64
generator seeded from the spec, so equal specs give bit-identical clouds.

Points travel as CSV with a ``x0,x1,...`` header and 17 significant digits
per value, which round-trips float64 exactly.
"""

from __future__ import annotations

import io
from dataclasses import MISSING, dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import InputError
from .util import as_points, atomic_write_text, check_settings, setting


class DatasetFamily(str, Enum):
    TWO_MOONS = "two_moons"
    TWO_CIRCLES = "two_circles"
    ISOTROPIC_GAUSSIAN = "isotropic_gaussian"


@dataclass(frozen=True)
class DatasetSpec:
    family: DatasetFamily = setting(MISSING, "point cloud family")
    n: int = setting(MISSING, "number of points", at_least=1)
    seed: int = setting(0, "draw seed", at_least=0)
    noise: float = setting(0.05, "curve jitter SD (moons, circles)", at_least=0)
    factor: float = setting(0.5, "inner circle radius (circles)", above=0, below=1)
    mean: tuple[float, ...] = setting((0.0, 0.0), "gaussian location")
    variance: float = setting(1.0, "gaussian per-coordinate variance", above=0)

    __post_init__ = check_settings


# The default run maps N(0, I) onto N((5, 5), I), the Gaussian translation task.
DEFAULT_SOURCE = DatasetSpec(family=DatasetFamily.ISOTROPIC_GAUSSIAN, n=500, seed=1)
DEFAULT_TARGET = replace(DEFAULT_SOURCE, seed=2, mean=(5.0, 5.0))


def _moons(n: int) -> np.ndarray:
    n_out = n // 2
    n_in = n - n_out
    t_out = np.linspace(0.0, np.pi, n_out)
    t_in = np.linspace(0.0, np.pi, n_in)
    outer = np.column_stack([np.cos(t_out), np.sin(t_out)])
    inner = np.column_stack([1.0 - np.cos(t_in), 0.5 - np.sin(t_in)])
    return np.vstack([outer, inner])


def _circles(n: int, factor: float) -> np.ndarray:
    n_out = n // 2
    n_in = n - n_out
    t_out = np.linspace(0.0, 2.0 * np.pi, n_out, endpoint=False)
    t_in = np.linspace(0.0, 2.0 * np.pi, n_in, endpoint=False)
    outer = np.column_stack([np.cos(t_out), np.sin(t_out)])
    inner = factor * np.column_stack([np.cos(t_in), np.sin(t_in)])
    return np.vstack([outer, inner])


def generate(spec: DatasetSpec) -> np.ndarray:
    """Draw the point cloud described by spec; shape (n, d), float64."""
    rng = np.random.default_rng(spec.seed)
    if spec.family is DatasetFamily.ISOTROPIC_GAUSSIAN:
        d = len(spec.mean)
        pts = np.asarray(spec.mean) + np.sqrt(spec.variance) * rng.standard_normal((spec.n, d))
        return np.ascontiguousarray(pts)
    if spec.family is DatasetFamily.TWO_MOONS:
        pts = _moons(spec.n)
    else:
        pts = _circles(spec.n, spec.factor)
    if spec.noise > 0.0:
        pts = pts + rng.normal(0.0, spec.noise, size=pts.shape)
    return np.ascontiguousarray(pts)


def points_to_csv(X) -> str:
    X = as_points(X, "points")
    buf = io.StringIO()
    buf.write(",".join(f"x{j}" for j in range(X.shape[1])) + "\n")
    for row in X:
        buf.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return buf.getvalue()


def write_points_csv(path, X) -> None:
    """Write points atomically; a crash never leaves a truncated file behind."""
    atomic_write_text(Path(path), points_to_csv(X))


def read_points_csv(path) -> np.ndarray:
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            header = fh.readline()
            cols = header.strip().split(",")
            if cols != [f"x{j}" for j in range(len(cols))] or not cols[0]:
                raise InputError(f"{path}: expected a x0,x1,... header, got {header.strip()!r}")
            body = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read points from {path}: {exc}") from exc
    if not body.strip():
        raise InputError(f"{path}: no data rows")
    try:
        pts = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    except ValueError as exc:
        raise InputError(f"{path}: malformed point row: {exc}") from exc
    if pts.shape[1] != len(cols):
        raise InputError(f"{path}: rows have {pts.shape[1]} fields, header has {len(cols)}")
    return as_points(pts, str(path))
