"""Benchmark entry point for the mongemmd package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ``src/`` of
that checkout, nothing is installed. This process imports no numpy: it pins
the BLAS thread count for the worker processes it starts (bench/worker.py),
gathers their results and computes the metrics named in BENCHMARK.json.

``--trace 0`` gives the end-to-end metrics. SETUP_PROBES fresh processes
each stop at the end of set-up, then one fresh process runs the workload
untraced for ``--seconds``; ``setup_s`` is the median over all of them.
``--trace 1`` gives the per-layer metrics. One fresh process runs every
operation twice, traced and untraced, in alternating order; the two output
fingerprints must agree, which shows the spans observe without perturbing,
and the median ratio of their times is the tracing overhead.

Human-readable lines go to standard output, and the last line is the JSON
result. A record with host details, sample counts and output fingerprints
is written to ``.bench_out/<workload>-seed<N>-trace<T>/record.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "bench" / "worker.py"

BLAS_THREADS = 1
SETUP_PROBES = 6
# Quality metrics average the first QUALITY_OPS operations of an untraced
# run, so they are a function of the seed alone.
QUALITY_OPS = 8
DEADLINE_S = 170

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Per-layer statistic suffixes: which span total they read and what divides it.
PER_STEP = {"calls_per_step": "calls", "ms_per_step": "ns", "self_ms_per_step": "self_ns",
            "pairs_per_step": "pairs", "bytes_per_step": "bytes"}
PER_OP = {"calls": "calls", "ms": "ns", "self_ms": "self_ns", "pairs": "pairs",
          "bytes": "bytes"}


class BenchError(Exception):
    pass


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def src_digest() -> str:
    """sha256 over the package sources, naming the code measured without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    def __init__(self, args, out: Path):
        self.args = args
        self.out = out
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, **{var: str(BLAS_THREADS) for var in THREAD_VARS})

    def spawn(self, tag: str, mode: str, seconds: float, traced: int, min_ops: int = 1) -> dict:
        """Run one worker process to completion and return its result."""
        result = self.out / f"{tag}.json"
        with open(self.out / f"{tag}.log", "wb") as log:
            cmd = [sys.executable, str(WORKER), "--workload", self.args.workload,
                   "--seed", str(self.args.seed), "--seconds", str(seconds),
                   "--min-ops", str(min_ops),
                   "--mode", mode, "--traced", str(traced), "--result", str(result),
                   "--spawn-ns"]
            proc = subprocess.Popen(cmd + [str(time.monotonic_ns())], cwd=ROOT, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError(f"{tag} did not finish within {DEADLINE_S} s")
        if code != 0 or not result.is_file():
            tail = (self.out / f"{tag}.log").read_text(errors="replace")[-2000:]
            raise BenchError(f"{tag} exited with code {code}:\n{tail}")
        return json.loads(result.read_text())


def tally(records) -> tuple[int, int, list[dict]]:
    good = [r for r in records if not r["problems"]]
    if not good:
        first = next((r["problems"] for r in records if r["problems"]), [])
        raise BenchError("no operation succeeded; the first failed with: "
                         + " / ".join(p.strip() for p in first))
    return len(records), len(records) - len(good), good


def end_to_end(runner: Runner) -> tuple[dict, dict, dict]:
    setups = [runner.spawn(f"probe{i}", "probe", 0, 0)["setup_s"] for i in range(SETUP_PROBES)]
    main = runner.spawn("run", "run", runner.args.seconds, 0, QUALITY_OPS)
    attempted, failed, good = tally(main["records"])
    setups = [s for s in setups + [main["setup_s"]] if s is not None]
    epochs = [ms for r in good for ms in r["epoch_ms"]]
    quality = [r for r in main["records"][:QUALITY_OPS] if not r["problems"]]
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (statistics.median(r["op_s"] for r in good), len(good)),
        "solve_s_p50": (statistics.median(r["solve_s"] for r in good), len(good)),
        "steps_per_s": (statistics.median(r["steps_per_s"] for r in good), len(good)),
        "epoch_ms_p50": (percentile(epochs, 0.5), len(epochs)),
        "epoch_ms_p90": (percentile(epochs, 0.9), len(epochs)),
        "peak_rss_mb": (main["peak_rss_mb"], 1),
        "heldout_mmd2": (statistics.fmean(r["heldout_mmd2"] for r in quality), len(quality)),
        "map_dev": (statistics.fmean(r["map_dev"] for r in quality), len(quality)),
    }
    outcome = {"attempted": attempted, "failed": failed,
               "problems": {r["op"]: r["problems"] for r in main["records"] if r["problems"]},
               "fingerprints": {r["op"]: r.get("fingerprint") for r in main["records"]}}
    return values, outcome, main["host"]


def _layer_value(name: str, layers: dict, ops: int, steps: int) -> float:
    module, function, stat = name.split(".")
    target = f"{module}.{function}"
    if stat in PER_STEP:
        st = layers["train"].get(target, {})
        total = st.get(PER_STEP[stat], 0)
        return (total / 1e6 if stat.endswith("ms_per_step") else total) / steps if steps else 0.0
    st = layers["all"].get(target, {})
    if stat in PER_OP:
        total = st.get(PER_OP[stat], 0)
        return (total / 1e6 if stat.endswith("ms") else total) / ops
    calls, iters = st.get("calls", 0), st.get("iters", 0)
    if stat == "iters":
        return iters / calls if calls else 0.0
    if stat == "ms_per_iter":
        return st.get("ns", 0) / 1e6 / iters if iters else 0.0
    if stat == "max_violation":
        return st.get("max_violation", 0.0)
    if stat == "converged_ratio":
        return st.get("converged", 0) / calls if calls else 0.0
    raise BenchError(f"no rule computes per-layer metric {name}")


def merge_layers(records) -> dict:
    merged = {"all": {}, "train": {}}
    for rec in records:
        for group in ("all", "train"):
            for target, st in rec["layers"][group].items():
                acc = merged[group].setdefault(target, {})
                for key, value in st.items():
                    acc[key] = max(acc.get(key, value), value) if key.startswith("max_") \
                        else acc.get(key, 0) + value
    return merged


def per_layer(runner: Runner, names) -> tuple[dict, dict, dict]:
    run = runner.spawn("traced", "run", runner.args.seconds, 1)
    attempted, failed, _ = tally(run["records"])
    pairs = {}
    for rec in run["records"]:
        pairs.setdefault(rec["op"], {})[rec["traced"]] = rec
    pairs = [p for p in pairs.values() if len(p) == 2]
    mismatched = [p[True]["op"] for p in pairs
                  if p[True].get("fingerprint") != p[False].get("fingerprint")]
    failed += len(mismatched)
    good = [p for p in pairs if not (p[True]["problems"] or p[False]["problems"])]
    if not good:
        raise BenchError(f"no operation succeeded in both forms; mismatched: {mismatched}")
    traced = [p[True] for p in good]
    layers = merge_layers(traced)
    train_steps = sum(r["steps"] for r in traced if "train_ns" in r)
    values = {}
    for name in names:
        if name == "trace.overhead_ratio":
            value = statistics.median(p[True]["op_s"] / p[False]["op_s"] for p in good)
        elif name == "trace.unattributed_ratio":
            wall = sum(r.get("train_ns", 0) for r in traced)
            inner = sum(st["self_ns"] for target, st in layers["train"].items()
                        if target != "train.train")
            value = (wall - inner) / wall if wall else 0.0
        else:
            value = _layer_value(name, layers, len(traced), train_steps)
        values[name] = (value, len(traced))
    outcome = {"attempted": attempted, "failed": failed,
               "problems": {f"{'traced' if r['traced'] else 'untraced'} op {r['op']}":
                            r["problems"] for r in run["records"] if r["problems"]},
               "fingerprint_mismatches": mismatched, "fingerprints_compared": len(pairs),
               "absent": run["absent"], "unmetered": run["unmetered"],
               "train_steps": train_steps}
    return values, outcome, run["host"]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="Run one benchmark workload of mongemmd.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mongemmd" / "__init__.py").is_file():
        print(f"error: no package sources at {ROOT / 'src' / 'mongemmd'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    runner = Runner(args, out)
    try:
        if args.trace:
            values, outcome, host = per_layer(runner, [m["name"] for m in metrics])
        else:
            values, outcome, host = end_to_end(runner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = {m["name"] for m in metrics} ^ set(values)
    if missing:
        print(f"error: metrics computed and declared differ: {sorted(missing)}", file=sys.stderr)
        return 1

    host = {**host, "blas_threads_pinned": BLAS_THREADS, "git_rev": git_rev(),
            "src_sha256": src_digest()}
    print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
    print(f"run workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"fail_ratio {failed / attempted:.4g} ({failed} failed of {attempted} operations)")
    for m in metrics:
        value, samples = values[m["name"]]
        print(f"{m['name']} {value:.6g} {m['unit']} (n={samples})")
    for op, prints in list(outcome.get("fingerprints", {}).items())[:1]:
        print(f"fingerprint op{op} " + " ".join(f"{k}={v}" for k, v in (prints or {}).items()))
    for key in ("absent", "unmetered", "fingerprint_mismatches"):
        if outcome.get(key):
            print(f"{key}: {', '.join(map(str, outcome[key]))}")
    for op, problems in outcome["problems"].items():
        print(f"failed op {op}: {' / '.join(p.strip() for p in problems)}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                    for m in metrics},
    }
    record = {"host": host, "args": vars(args), **outcome,
              "samples": {name: n for name, (_, n) in values.items()}, "result": result}
    (out / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
