"""Time the stages of compare's Sinkhorn leg in two forms, and compare their outputs.

Not collected by pytest. Run from the repository root:

    python tests/sinkhorn_ab.py [--reps N] [--against OTHER_SRC]

It runs itself twice, once with BLAS pinned to one thread
(``OPENBLAS_NUM_THREADS=1``) and once under the BLAS default. Each run
times, in one process, the leg of ``mongemmd compare``'s Gaussian task
(N(0, I) to N((5, 5), I), d=2) at n = 1000 and 2000, stage by stage: the
cost (``squared_distance_matrix``), epsilon (``default_epsilon``), the solve
(``sinkhorn_solve``) and the barycentric images (``barycentric_map``). Both
orientations run: source to target, whose cost the solver reads as given,
and target to source, whose cost it reads as a transposed view.

The two forms alternate, the first one first on odd repetitions:

- by default, this tree in one lane and in one lane per CPU, at any size and
  beside any BLAS workers, forced through ``sinkhorn._LANE_ELEMS`` and
  ``sinkhorn._cpus``; the solver by itself takes the count it prints as "own";
- with ``--against``, the package under OTHER_SRC (say, the ``src`` of a
  checkout of the parent commit) and this tree's, each at its own lane count.
  Each BLAS mode then runs twice, in fresh processes, once with this tree's
  package loaded first and once with OTHER_SRC's: the load order alone has
  moved a ratio by ~10% at n = 1000, so a difference counts only if it shows
  in both.

It prints, per size, orientation and stage, the median time of each form,
their ratio (second / first), the repetitions the second form won, and
whether the stage's outputs (cost, epsilon, plan with its iteration count
and violation, images) are equal bit for bit, with the kernel builds per
solve.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
STAGES = ("cost", "epsilon", "solve", "images", "leg")


def load(src: Path, name: str):
    """The ``mongemmd`` package under ``src``, imported as ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, src / "mongemmd" / "__init__.py", submodule_search_locations=[str(src / "mongemmd")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def leg(pkg, X, Y, lanes):
    """Run the leg on X to Y in ``pkg``, in ``lanes`` lanes (None: its own count);
    return the stage times and the stage outputs as bytes."""
    s = pkg.sinkhorn
    saved = s._LANE_ELEMS, s._cpus
    if lanes is not None:
        s._LANE_ELEMS, s._cpus = 1, lambda: lanes
    try:
        t = [time.perf_counter()]
        C = s.squared_distance_matrix(X, Y)
        t.append(time.perf_counter())
        eps = s.default_epsilon(C)
        t.append(time.perf_counter())
        coupling = s.sinkhorn_solve(C, epsilon=eps)
        t.append(time.perf_counter())
        images = s.barycentric_map(coupling, Y)
        t.append(time.perf_counter())
    finally:
        s._LANE_ELEMS, s._cpus = saved
    times = [b - a for a, b in zip(t, t[1:])] + [t[-1] - t[0]]
    outputs = (C.tobytes(), eps.hex(), (coupling.matrix.tobytes(), coupling.n_iters,
                                        coupling.max_violation), images.tobytes())
    return times, outputs, coupling.n_iters


def report(reps, against, against_first):
    cpus = len(os.sched_getaffinity(0))
    if against is None:
        this = load(SRC, "mongemmd")
        forms = [("1 lane", this, 1), (f"{cpus} lanes", this, cpus)]
        order = ""
    else:
        packages = [(SRC, "mongemmd"), (Path(against).resolve(), "mongemmd_against")]
        if against_first:
            packages.reverse()
        loaded = {name: load(src, name) for src, name in packages}
        this = loaded["mongemmd"]
        forms = [("against", loaded["mongemmd_against"], None), ("this", this, None)]
        order = f", {'against' if against_first else 'this'} loaded first"
    # Count the kernel builds of each solve.
    builds = [0]
    for _, pkg, _ in forms:
        def counted(*args, _gibbs=pkg.sinkhorn._gibbs):
            builds[0] += 1
            return _gibbs(*args)
        pkg.sinkhorn._gibbs = counted
    blas = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    print(f"numpy {np.__version__}, {cpus} cpus, OPENBLAS_NUM_THREADS={blas}{order}:")
    names = [name for name, _, _ in forms]
    for n in (1000, 2000):
        rng = np.random.default_rng(n)
        X, Y = rng.standard_normal((n, 2)), rng.standard_normal((n, 2)) + 5.0
        own = this.sinkhorn._Lanes(n * n).count
        for name, (P, Q) in (("as given", (X, Y)), ("transposed", (Y, X))):
            times = {k: [] for k in range(len(forms))}
            outputs, built = {}, set()
            for rep in range(reps):
                for k in (0, 1)[::1 if rep % 2 else -1]:
                    builds[0] = 0
                    seconds, outputs[k], iters = leg(forms[k][1], P, Q, forms[k][2])
                    times[k].append(seconds)
                    built.add(builds[0])
            print(f"  n {n:5d} {name} (own {own} lanes, {iters} iterations,"
                  f" {'/'.join(map(str, sorted(built)))} kernel builds per solve):")
            for i, stage in enumerate(STAGES):
                first, second = (np.array([t[i] for t in times[k]]) for k in (0, 1))
                a, b = float(np.median(first)) * 1e3, float(np.median(second)) * 1e3
                same = "" if stage == "leg" else (
                    "bit-equal" if outputs[0][i] == outputs[1][i] else "DIFFER")
                print(f"    {stage:>8}: {names[0]} {a:8.2f} ms, {names[1]} {b:8.2f} ms,"
                      f" ratio {b / a:.3f}, {int((second < first).sum())}/{reps} wins {same}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=11, help="timed legs per form, size and orientation")
    ap.add_argument("--against", metavar="OTHER_SRC",
                    help="a directory holding another tree's mongemmd package")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--against-first", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        report(args.reps, args.against, args.against_first)
        return
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    runs = [[]] if args.against is None else [
        ["--against", args.against], ["--against", args.against, "--against-first"]]
    for extra in ({var: "1" for var in THREAD_VARS}, {}):
        for run_args in runs:
            subprocess.run([sys.executable, __file__, "--child", "--reps", str(args.reps),
                            *run_args], env={**env, **extra}, check=True)


if __name__ == "__main__":
    main()
