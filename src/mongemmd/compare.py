"""The method comparison: trained network map vs Sinkhorn barycentric map.

``compare_runs`` reruns the Gaussian translation task at several sample
sizes with both methods, recording pushforward statistics and wall-clock
time per run.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .data import DEFAULT_SOURCE, DEFAULT_TARGET, DatasetFamily, DatasetSpec, generate
from .errors import InputError
from .nn import mlp_forward_batch
from .sinkhorn import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    barycentric_map,
    default_epsilon,
    sinkhorn_solve,
    squared_distance_matrix,
)
from .train import TrainConfig, train
from .util import check_settings, setting


@dataclass(frozen=True)
class CompareConfig:
    sizes: tuple[int, ...] = setting((200, 1000, 2000), "data sizes to benchmark", at_least=2)
    epsilon: float | None = setting(
        None, "sinkhorn regularization; null means 0.1 * median cost", above=0)
    max_iters: int = setting(DEFAULT_MAX_ITERS, "sinkhorn iteration limit", at_least=1)
    tol: float = setting(DEFAULT_TOL, "sinkhorn marginal violation to stop at", above=0)
    seed: int = setting(0, "seed of the per-size draws", at_least=0)
    size_cap: int = setting(4096, "refuse larger sizes (dense cost matrix memory)", at_least=2)

    __post_init__ = check_settings


@dataclass(frozen=True)
class ComparisonRow:
    method: str
    data_size: int
    epsilon: float  # nan for the neural rows, where it does not apply
    mean0: float
    mean1: float
    sd0: float
    sd1: float
    runtime_seconds: float


COMPARISON_HEADER = "method,data_size,epsilon,mean0,mean1,sd0,sd1,runtime_seconds"


def comparison_to_csv(rows: Sequence[ComparisonRow]) -> str:
    buf = io.StringIO()
    buf.write(COMPARISON_HEADER + "\n")
    for r in rows:
        eps = "" if np.isnan(r.epsilon) else f"{r.epsilon:.17g}"
        buf.write(
            f"{r.method},{r.data_size},{eps},{r.mean0:.17g},{r.mean1:.17g},"
            f"{r.sd0:.17g},{r.sd1:.17g},{r.runtime_seconds:.6f}\n"
        )
    return buf.getvalue()


def _derived_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1, dtype=np.uint32)[0])


def _stats(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return points.mean(axis=0), points.std(axis=0, ddof=1)


def compare_runs(
    train_config: TrainConfig,
    compare: CompareConfig = CompareConfig(),
    source: DatasetSpec = DEFAULT_SOURCE,
    target: DatasetSpec = DEFAULT_TARGET,
) -> list[ComparisonRow]:
    """Neural map vs Sinkhorn barycentric map on the Gaussian translation task.

    For each size n in ``compare.sizes``, both methods map the same n draws
    from ``source`` onto n draws from ``target``; the specs give the means
    (two coordinates each, as the rows report two) and variances, their own
    sizes and seeds are replaced per run. Rows report per-coordinate mean and
    SD of the mapped points. The neural rows time training; the Sinkhorn rows
    time the whole method: the cost matrix, epsilon (0.1 * median cost unless
    given, recorded per row), the solve and the barycentric map.
    """
    worst = max(compare.sizes)
    if worst > compare.size_cap:
        per_matrix = 8 * worst * worst
        raise InputError(
            f"compare size {worst} exceeds size_cap {compare.size_cap}: the dense cost "
            f"matrix needs {per_matrix / 1e9:.2f} GB and the solver holds several arrays "
            f"of that footprint; raise compare.size_cap only with enough memory"
        )
    gaussian = DatasetFamily.ISOTROPIC_GAUSSIAN
    if source.family is not gaussian or target.family is not gaussian:
        raise InputError("compare requires isotropic_gaussian source and target")
    for name, spec in (("source", source), ("target", target)):
        if len(spec.mean) != 2:
            raise InputError(f"compare reports two coordinates, so {name}.mean must have "
                             f"length 2, got {len(spec.mean)}")
    rows: list[ComparisonRow] = []
    for size in compare.sizes:
        src = generate(replace(source, n=size, seed=_derived_seed(compare.seed, size, 0)))
        tgt = generate(replace(target, n=size, seed=_derived_seed(compare.seed, size, 1)))

        cfg = replace(train_config, batch_size=min(train_config.batch_size, size))
        t0 = time.perf_counter()
        params = train(cfg, src, tgt).params
        neural_time = time.perf_counter() - t0
        mean, sd = _stats(mlp_forward_batch(params, src))
        rows.append(ComparisonRow(
            method="neural", data_size=size, epsilon=float("nan"),
            mean0=float(mean[0]), mean1=float(mean[1]),
            sd0=float(sd[0]), sd1=float(sd[1]), runtime_seconds=neural_time,
        ))

        t0 = time.perf_counter()
        C = squared_distance_matrix(src, tgt)
        eps = default_epsilon(C) if compare.epsilon is None else float(compare.epsilon)
        coupling = sinkhorn_solve(C, epsilon=eps, max_iters=compare.max_iters, tol=compare.tol)
        images = barycentric_map(coupling, tgt)
        sink_time = time.perf_counter() - t0
        mean, sd = _stats(images)
        rows.append(ComparisonRow(
            method="sinkhorn", data_size=size, epsilon=eps,
            mean0=float(mean[0]), mean1=float(mean[1]),
            sd0=float(sd[0]), sd1=float(sd[1]), runtime_seconds=sink_time,
        ))
    return rows
