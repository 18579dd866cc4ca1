"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
        [--out PATH] [--against PATH]

For every workload and seed it runs ``bench/run.py`` once, with the
``run_seconds`` of BENCHMARK.json, and collects the JSON result. For each
end-to-end metric it reports the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the first and third quartile as a share of the median. A
spread above the metric's bound marks the metric unsteady (set-up time
excepted). ``--against`` compares the medians with an earlier summary and
marks every metric whose median got worse by more than its bound. The
summary, with every run's values, is written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The JSON result of one run and the host it printed."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    host = next((dict(kv.split("=", 1) for kv in line.split()[1:])
                 for line in lines if line.startswith("host ")), {})
    return json.loads(lines[-1]), host


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None, "values": values}


def worse_by(metric: dict, old: float, new: float) -> float:
    """Share of ``old`` by which ``new`` is worse (negative when better)."""
    change = (new - old) / abs(old)
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=str(ROOT / ".bench_out" / "spread.json"))
    p.add_argument("--against", help="an earlier summary written by --out")
    args = p.parse_args(argv)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    before = json.loads(Path(args.against).read_text()) if args.against else None

    summary = {"seconds": spec["run_seconds"], "seeds": args.seeds, "trace": args.trace,
               "workloads": {}}
    bad = []
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_range(args.seeds):
            result, summary["host"] = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']} of {result['attempted']}", flush=True)
            if not result["correct"]:
                bad.append(f"{workload} seed {seed}: incorrect output")
        summary["workloads"][workload] = {}
        for metric in metrics:
            name = metric["name"]
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            summary["workloads"][workload][name] = stats
            flags = []
            bound, spread = metric.get("bound"), stats["spread"]
            unsteady = bound is not None and (spread is None or spread > bound / 3)
            if unsteady and name != "setup_s" and (spread is None or spread > bound):
                flags.append("SPREAD>BOUND")
            if unsteady:
                flags.append("spread>bound/3")
            if before and bound is not None:
                old = before["workloads"][workload][name]["median"]
                change = worse_by(metric, old, stats["median"])
                stats["worse_by"] = change
                if change > bound:
                    flags.append("MEDIAN WORSE THAN BOUND")
            if any(f.isupper() for f in flags):
                bad.append(f"{workload} {name}: {' '.join(flags)}")
            print(f"  {name:48s} median {stats['median']:<12.6g} {metric['unit']:6s} "
                  f"spread {spread if spread is None else round(spread, 4)} {' '.join(flags)}",
                  flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    for line in bad:
        print(f"FAIL {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
