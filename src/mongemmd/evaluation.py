"""Held-out evaluation of a trained map, plus closed-form Gaussian references.

For isotropic Gaussians with equal covariance the optimal map under squared
Euclidean cost is the plain translation x + (m1 - m0), and the squared
2-Wasserstein distance is |m1 - m0|^2. Those two facts give an exact
yardstick: ``map_deviation`` measures how far a trained map strays from the
translation on a probe cloud, and the mean transport cost of a good map
should approach the squared Wasserstein distance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .kernel import KernelSpec
from .loss import cost_values
from .mmd import mmd2_unbiased
from .nn import MlpParams, mlp_forward_batch
from .util import as_point_pair, as_points


@dataclass
class EvalReport:
    """Pushforward statistics of a map on held-out data."""

    mean: np.ndarray
    sd: np.ndarray
    transport_cost: float
    mmd2: float
    n: int

    def to_json(self) -> str:
        """Serialize; pooled scalars (coordinate averages) ride along for
        comparison against single-number tables."""
        payload = {
            "mean": [float(v) for v in self.mean],
            "sd": [float(v) for v in self.sd],
            "mean_pooled": float(np.mean(self.mean)),
            "sd_pooled": float(np.mean(self.sd)),
            "transport_cost": float(self.transport_cost),
            "mmd2": float(self.mmd2),
            "n": int(self.n),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        try:
            payload = json.loads(text)
            return cls(
                mean=np.asarray(payload["mean"], dtype=np.float64),
                sd=np.asarray(payload["sd"], dtype=np.float64),
                transport_cost=float(payload["transport_cost"]),
                mmd2=float(payload["mmd2"]),
                n=int(payload["n"]),
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed evaluation report: {exc}") from exc


def evaluate(
    params: MlpParams,
    source_test,
    target_test,
    kernel: KernelSpec,
) -> EvalReport:
    """Push source_test through the map and compare against target_test.

    Reports per-coordinate mean and sample standard deviation (ddof=1) of
    the images, the mean transport cost, and the unbiased squared MMD
    between images and targets. Both test sets need at least 2 points.
    """
    source_test, target_test = as_point_pair(source_test, target_test,
                                             ("source_test", "target_test"))
    if source_test.shape[0] < 2 or target_test.shape[0] < 2:
        raise InputError("evaluation needs at least 2 points on each side")
    images = mlp_forward_batch(params, source_test)
    return EvalReport(
        mean=images.mean(axis=0),
        sd=images.std(axis=0, ddof=1),
        transport_cost=float(cost_values(source_test, images).mean()),
        mmd2=mmd2_unbiased(kernel, images, target_test),
        n=source_test.shape[0],
    )


@dataclass(frozen=True)
class TranslationMap:
    """x -> x + offset; optimal between equal-covariance isotropic Gaussians."""

    offset: tuple[float, ...]

    def __call__(self, X) -> np.ndarray:
        X = as_points(X, "X")
        off = np.asarray(self.offset, dtype=np.float64)
        if X.shape[1] != off.shape[0]:
            raise InputError(f"points have dimension {X.shape[1]}, offset {off.shape[0]}")
        return X + off


def _mean_pair(m0, m1) -> tuple[np.ndarray, np.ndarray]:
    m0 = np.asarray(m0, dtype=np.float64).reshape(-1)
    m1 = np.asarray(m1, dtype=np.float64).reshape(-1)
    if m0.shape != m1.shape or m0.size == 0:
        raise InputError(f"means must share a nonzero dimension, got {m0.shape} and {m1.shape}")
    if not (np.all(np.isfinite(m0)) and np.all(np.isfinite(m1))):
        raise InputError("means must be finite")
    return m0, m1


def gaussian_optimal_map(m0, m1) -> TranslationMap:
    """Optimal transport map from N(m0, s^2 I) to N(m1, s^2 I)."""
    m0, m1 = _mean_pair(m0, m1)
    return TranslationMap(offset=tuple(float(v) for v in m1 - m0))


def w2_squared_gaussian(m0, m1) -> float:
    """Squared 2-Wasserstein distance between equal-covariance isotropic Gaussians."""
    m0, m1 = _mean_pair(m0, m1)
    return float(((m1 - m0) ** 2).sum())


def map_deviation(params: MlpParams, reference, probe) -> float:
    """Mean squared Euclidean gap between the trained map and a reference map.

    ``reference`` is any callable taking an (n, d) array to an (n, d) array,
    e.g. a TranslationMap.
    """
    probe = as_points(probe, "probe")
    images = mlp_forward_batch(params, probe)
    ref = np.asarray(reference(probe), dtype=np.float64)
    if ref.shape != images.shape:
        raise InputError(f"reference map returned shape {ref.shape}, expected {images.shape}")
    return float(((images - ref) ** 2).sum(axis=1).mean())
