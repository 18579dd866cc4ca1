"""One benchmark process: set up a workload, run its operations, check every output.

run.py starts this file in a fresh interpreter for every sample:

    python3 bench/worker.py --workload W --seed S --seconds T --min-ops K
        --mode run|probe --traced 0|1 --spawn-ns N --result PATH

``probe`` stops at the first call into ``train()`` (or, for Sinkhorn, the
first call of the solve pipeline) and reports only the set-up time: from
``--spawn-ns`` (CLOCK_MONOTONIC, taken by the parent just before it started
this process) to that call. ``run`` repeats the workload's operation in a
closed loop, one caller and each operation starting when the previous one
returned, until ``--seconds`` have passed and at least ``--min-ops``
operations ran; with ``--traced 1`` each operation runs twice, traced and
untraced. Every operation's outputs are checked; an operation that raises,
yields a non-finite value or fails a check is recorded as failed with its
reasons. The package sees only the generated config file and the arrays
drawn from it.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parents[1]

MAX_FAILURES = 3

LAYERS = ("config", "data", "util", "nn", "kernel", "mmd", "loss", "optim", "train",
          "checkpoint", "evaluation", "sinkhorn", "cli")

ARTIFACTS = ("loss.csv", "model.ckpt", "eval.json")

COMMON = {
    "kernel": {"family": "gaussian", "alpha": 1.0},
    "eval": {"n": 1000, "seed_offset": 10000},
}

# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
# Training epochs are cut from the acceptance run's 3000 so that several
# operations fit into one run; every epoch does the same work as there.
WORKLOADS = {
    "gauss-b60": {
        "kind": "train",
        "source": {"family": "isotropic_gaussian", "n": 500, "mean": [0.0, 0.0]},
        "target": {"family": "isotropic_gaussian", "n": 500, "mean": [5.0, 5.0]},
        "train": {"epochs": 300, "batch_size": 60, "hidden_widths": [64],
                  "hidden_activation": "tanh", "inv_lambda": 1e-6, "seed": 0},
    },
    "moons-b500": {
        "kind": "train",
        "source": {"family": "two_moons", "n": 2000},
        "target": {"family": "two_circles", "n": 2000},
        "train": {"epochs": 12, "batch_size": 500, "hidden_widths": [64],
                  "hidden_activation": "relu", "inv_lambda": 1e-6, "seed": 0},
    },
    "sinkhorn-n2000": {
        "kind": "sinkhorn",
        "source": {"family": "isotropic_gaussian", "n": 2000, "mean": [0.0, 0.0]},
        "target": {"family": "isotropic_gaussian", "n": 2000, "mean": [5.0, 5.0]},
        "compare": {"sizes": [2000], "tol": 1e-9, "max_iters": 10000},
    },
}


def _pair_meter(first: int):
    """Counters for a pairwise routine whose point sets are args[first], args[first + 1].

    ``bytes`` is computed, not measured: the (M, N, d) difference tensor and
    the (M, N) squared distances in float64 that the dense routine forms.
    """
    def meter(args, kwargs, result):
        m, d = np.shape(args[first])
        n = np.shape(args[first + 1])[0]
        return {"pairs": m * n, "bytes": 8 * m * n * (d + 1)}
    return meter


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _solve_meter(args, kwargs, result):
    return {"iters": int(result.n_iters), "max_violation": float(result.max_violation),
            "converged": int(bool(result.converged))}


TARGETS = (
    ("config.load_config", None),
    ("data.generate", None),
    ("util.as_points", None),
    ("nn.mlp_forward_batch", None),
    ("nn.mlp_backward", None),
    ("kernel.kernel_sum_and_grad_rowsum", _pair_meter(1)),
    ("kernel.kernel_gram", _pair_meter(1)),
    ("mmd.mmd2_unbiased", None),
    ("loss.monge_mmd_loss_with_grad", None),
    ("optim.adam_step", None),
    ("train.train", None),
    ("checkpoint.save_train_state", _file_bytes),
    ("evaluation.evaluate", None),
    ("sinkhorn.squared_distance_matrix", _pair_meter(0)),
    ("sinkhorn.default_epsilon", None),
    ("sinkhorn.sinkhorn_solve", _solve_meter),
    ("sinkhorn.barycentric_map", None),
    ("cli.cmd_train", None),
)


class SetupDone(Exception):
    """Raised in probe mode at the end of set-up."""


def op_seed(workload: str, seed: int, op: int, side: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{op}/{side}".encode()).digest()
    return int.from_bytes(digest[:4], "little") % 2**30


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Context:
    def __init__(self, args, pkg, cli):
        self.args = args
        self.m = pkg
        self.cli = cli
        self.workload = WORKLOADS[args.workload]
        self.out = Path(args.result).parent / f"{Path(args.result).stem}-ops"
        self.tracer = None
        self.hook = None
        self.setup_ns = None

    @property
    def traced(self) -> bool:
        return self.tracer is not None and self.tracer.enabled

    def setup_done(self) -> None:
        if self.setup_ns is None:
            self.setup_ns = time.monotonic_ns() - self.args.spawn_ns
        if self.args.mode == "probe":
            raise SetupDone

    def write_config(self, op: int) -> tuple[dict, Path, Path]:
        cfg = json.loads(json.dumps({**COMMON, **self.workload}))
        del cfg["kind"]
        for side, key in enumerate(("source", "target")):
            cfg[key]["seed"] = op_seed(self.args.workload, self.args.seed, op, side)
        op_dir = self.out / f"op{op}"
        cfg["out_dir"] = str(op_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        path = self.out / f"op{op}.yaml"
        path.write_text(yaml.safe_dump(cfg, sort_keys=True), encoding="utf-8")
        return cfg, path, op_dir


class TrainHook:
    """Stands in for ``train`` in the CLI's namespace.

    Marks the end of set-up on entry, times the call and each epoch through
    the ``progress(epoch, values)`` callback, and chains the CLI's own
    callback so its behaviour is unchanged.
    """

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.train = ctx.cli.train
        self.last = None
        ctx.cli.train = self

    def __call__(self, *args, **kwargs):
        self.ctx.setup_done()
        stamps = [time.perf_counter_ns()]
        inner_progress = kwargs.get("progress")

        def progress(epoch, values):
            stamps.append(time.perf_counter_ns())
            if inner_progress is not None:
                inner_progress(epoch, values)

        kwargs["progress"] = progress
        tracer = self.ctx.tracer
        train = self.train if tracer is None else tracer.route(self.train)
        result = train(*args, **kwargs)
        end = time.perf_counter_ns()
        self.last = {"train_ns": end - stamps[0],
                     "epoch_ns": [b - a for a, b in zip(stamps, stamps[1:])]}
        return result


def _map_dev(ctx: Context, cfg: dict, params, probe: np.ndarray) -> float:
    """Mean squared gap of the mapped probe points to a known answer.

    Gaussian targets: the optimal translation x + (m1 - m0), via the
    package's map_deviation. Circle targets: the target's support, the two
    circles of radius 1 and ``factor`` (0.5) about the origin.
    """
    m = ctx.m
    src, tgt = cfg["source"], cfg["target"]
    if tgt["family"] == "isotropic_gaussian":
        return m.map_deviation(params, m.gaussian_optimal_map(src["mean"], tgt["mean"]), probe)
    factor = m.DatasetSpec(family=tgt["family"], n=1).factor
    radius = np.linalg.norm(m.mlp_forward_batch(params, probe), axis=1)
    return float(np.minimum((radius - 1.0) ** 2, (radius - factor) ** 2).mean())


def _check_training(ctx: Context, cfg: dict, op_dir: Path, rec: dict) -> list[str]:
    m = ctx.m
    problems = []
    blobs = {name: (op_dir / name).read_bytes() for name in ARTIFACTS}
    rec["fingerprint"] = {name: sha256(blob) for name, blob in blobs.items()}
    epochs = cfg["train"]["epochs"]
    hist = m.LossHistory.from_csv(blobs["loss.csv"].decode("utf-8"))
    if hist.epochs != list(range(1, epochs + 1)):
        problems.append(f"loss.csv has epochs {hist.epochs[:3]}..., expected 1..{epochs}")
    rows = np.array([hist.objective, hist.mmd2, hist.cost], dtype=np.float64)
    if not np.all(np.isfinite(rows)):
        problems.append("loss.csv has non-finite values")
    elif not hist.objective[-1] < hist.objective[0]:
        problems.append("objective did not decrease over the run")
    report = m.EvalReport.from_json(blobs["eval.json"].decode("utf-8"))
    state = m.load_train_state(op_dir / "model.ckpt")
    params, epoch = state[0], state[2]
    if epoch != epochs:
        problems.append(f"model.ckpt holds epoch {epoch}, expected {epochs}")
    n_eval, offset = cfg["eval"]["n"], cfg["eval"]["seed_offset"]
    probe = m.generate(m.DatasetSpec(**{**cfg["source"], "n": n_eval,
                                        "seed": cfg["source"]["seed"] + offset}))
    images = m.mlp_forward_batch(params, probe)
    scalars = [report.transport_cost, report.mmd2]
    if report.n != n_eval or not np.all(np.isfinite(np.r_[report.mean, report.sd, scalars])):
        problems.append("eval.json is incomplete or non-finite")
    elif not (np.allclose(images.mean(axis=0), report.mean, rtol=1e-12, atol=1e-12)
              and np.allclose(images.std(axis=0, ddof=1), report.sd, rtol=1e-12, atol=1e-12)):
        problems.append("model.ckpt does not reproduce the statistics in eval.json")
    rec["heldout_mmd2"] = float(report.mmd2)
    rec["map_dev"] = _map_dev(ctx, cfg, params, probe)
    return problems


def train_op(ctx: Context, op: int) -> dict:
    cfg, path, op_dir = ctx.write_config(op)
    hook = ctx.hook
    hook.last = None
    t0 = time.perf_counter_ns()
    rc = ctx.cli.main(["train", str(path), "--quiet"])
    t1 = time.perf_counter_ns()
    rec = {"op": op, "op_s": (t1 - t0) / 1e9}
    if ctx.traced:
        rec["layers"] = ctx.tracer.summarize()
    if rc != 0:
        return {**rec, "problems": [f"mongemmd train exited {rc}"]}
    if hook.last is None:
        return {**rec, "problems": ["the CLI did not call train()"]}
    batches = min(cfg["source"]["n"], cfg["target"]["n"]) // cfg["train"]["batch_size"]
    rec["solve_s"] = hook.last["train_ns"] / 1e9
    rec["epoch_ms"] = [ns / 1e6 for ns in hook.last["epoch_ns"]]
    rec["steps"] = len(rec["epoch_ms"]) * batches
    rec["steps_per_s"] = rec["steps"] / rec["solve_s"]
    problems = _check_training(ctx, cfg, op_dir, rec)
    if ctx.traced:
        span_ns = rec["layers"]["train_ns"]
        if not 0 < span_ns <= hook.last["train_ns"] < 1.01 * span_ns:
            problems.append(f"train() spans {span_ns} ns of {hook.last['train_ns']} ns")
        rec["train_ns"] = hook.last["train_ns"]
    return {**rec, "problems": problems}


def sinkhorn_op(ctx: Context, op: int) -> dict:
    m = ctx.m
    _, path, _ = ctx.write_config(op)
    t0 = time.perf_counter_ns()
    cfg = m.load_config(path)
    src = m.generate(cfg.source)
    tgt = m.generate(cfg.target)
    reference = m.generate(replace(cfg.target, seed=cfg.target.seed + cfg.eval.seed_offset))
    ctx.setup_done()
    t1 = time.perf_counter_ns()
    cost = m.squared_distance_matrix(src, tgt)
    eps = m.default_epsilon(cost) if cfg.compare.epsilon is None else cfg.compare.epsilon
    s0 = time.perf_counter_ns()
    coupling = m.sinkhorn_solve(cost, epsilon=eps, max_iters=cfg.compare.max_iters,
                                tol=cfg.compare.tol)
    s1 = time.perf_counter_ns()
    images = m.barycentric_map(coupling, tgt)
    t2 = time.perf_counter_ns()
    mmd2 = m.mmd2_unbiased(cfg.train.kernel, images, reference)
    t3 = time.perf_counter_ns()
    rec = {"op": op, "op_s": (t3 - t0) / 1e9, "solve_s": (t2 - t1) / 1e9,
           "steps": int(coupling.n_iters), "fingerprint": {"images": sha256(images.tobytes())}}
    if ctx.traced:
        rec["layers"] = ctx.tracer.summarize()
    problems = []
    if not (coupling.converged and coupling.max_violation < cfg.compare.tol):
        problems.append(f"sinkhorn did not converge: {coupling.n_iters} iterations, "
                        f"violation {coupling.max_violation:.3g}")
    if coupling.n_iters < 1:
        problems.append("sinkhorn ran no iteration")
    else:
        rec["steps_per_s"] = coupling.n_iters / ((s1 - s0) / 1e9)
        rec["epoch_ms"] = [(s1 - s0) / 1e6 / coupling.n_iters]
    if not (np.all(np.isfinite(images)) and np.isfinite(mmd2)):
        problems.append("non-finite barycentric images or MMD")
    rec["heldout_mmd2"] = float(mmd2)
    optimal = m.gaussian_optimal_map(cfg.source.mean, cfg.target.mean)
    rec["map_dev"] = float(((images - optimal(src)) ** 2).sum(axis=1).mean())
    return {**rec, "problems": problems}


def blas_info() -> dict:
    info = {"blas": "unknown", "blas_version": "unknown", "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(blas=blas.get("name", "unknown"), blas_version=blas.get("version", "unknown"))
    except (TypeError, KeyError):
        pass
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return info
    for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            info["blas_threads"] = fn()
            break
    return info


def host_info() -> dict:
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **blas_info(),
    }


def run_ops(ctx: Context) -> list[dict]:
    """Operations 0, 1, ... until time is up; each twice, traced and not, with a tracer.

    The order of the traced and untraced run of one operation alternates, so
    their time ratio carries no order effect.
    """
    op_fn = train_op if ctx.workload["kind"] == "train" else sinkhorn_op
    records = []
    start = time.perf_counter()
    op = 0
    while op < ctx.args.min_ops or time.perf_counter() - start < ctx.args.seconds:
        for traced in ((None,) if ctx.tracer is None else (op % 2 == 1, op % 2 == 0)):
            if traced is not None:
                ctx.tracer.enable(traced)
                ctx.tracer.reset()
            try:
                rec = op_fn(ctx, op)
            except SetupDone:
                raise
            except Exception:  # one operation's failure is recorded, the run goes on
                rec = {"op": op, "problems": [traceback.format_exc()]}
            rec["traced"] = bool(traced)
            rec["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            records.append(rec)
            shutil.rmtree(ctx.out, ignore_errors=True)
        if sum(1 for r in records if r["problems"]) >= MAX_FAILURES:
            break
        op += 1
    return records


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--min-ops", type=int, default=1)
    p.add_argument("--mode", choices=("run", "probe"), required=True)
    p.add_argument("--traced", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawn-ns", type=int, required=True)
    p.add_argument("--result", required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import mongemmd
    from mongemmd import cli

    if Path(mongemmd.__file__).resolve().parent != ROOT / "src" / "mongemmd":
        print(f"imported {mongemmd.__file__}, not the checkout's src/", file=sys.stderr)
        return 2
    ctx = Context(args, mongemmd, cli)
    ctx.hook = TrainHook(ctx)
    if args.traced:
        from tracer import Tracer  # bench/ is on sys.path as this script's directory

        ctx.tracer = Tracer()
        ctx.tracer.install("mongemmd", LAYERS, TARGETS)
    result = {"mode": args.mode}
    try:
        result["records"] = run_ops(ctx)
    except SetupDone:
        pass
    finally:
        shutil.rmtree(ctx.out, ignore_errors=True)
    result["setup_s"] = None if ctx.setup_ns is None else ctx.setup_ns / 1e9
    if args.mode == "run":
        result["host"] = host_info()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if ctx.tracer is not None:
            result["absent"] = ctx.tracer.absent
            result["unmetered"] = sorted(ctx.tracer.unmetered)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
