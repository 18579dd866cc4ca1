"""Time the Sinkhorn solve in one lane against all lanes, and compare their plans.

Not collected by pytest. Run from the repository root:

    python tests/sinkhorn_ab.py [--reps N]

It runs itself twice, once with BLAS pinned to one thread
(``OPENBLAS_NUM_THREADS=1``) and once under the BLAS default. Each run
alternates, in one process, a one-lane and an all-lane ``sinkhorn_solve`` of
``mongemmd compare``'s Gaussian task (N(0, I) to N((5, 5), I), d=2, at the
default epsilon) at n = 1000 and 2000. The lane count is forced through
``sinkhorn._LANE_ELEMS`` and ``sinkhorn._cpus``: one lane, or one lane per CPU
at any size and beside any BLAS workers, where the solver by itself takes
the count it prints as "own". Both orientations are timed: the cost as
drawn, and its transpose; the solver reads whichever is not its canonical
orientation as a transposed view, without a copy. It prints, per size and
orientation, the median time of each form, their ratio (all lanes / one
lane), the kernel builds per solve and whether the two plans, iteration
counts and violations are equal bit for bit.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mongemmd import sinkhorn  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def solve(C, eps, lanes):
    sinkhorn._LANE_ELEMS, sinkhorn._cpus = 1, lambda: lanes
    t0 = time.perf_counter()
    coupling = sinkhorn.sinkhorn_solve(C, epsilon=eps)
    return time.perf_counter() - t0, coupling


def report(reps):
    # Count the kernel builds of each solve.
    builds, gibbs = [0], sinkhorn._gibbs

    def counted(*args):
        builds[0] += 1
        return gibbs(*args)

    sinkhorn._gibbs = counted
    cpus = len(os.sched_getaffinity(0))
    blas = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    print(f"numpy {np.__version__}, {cpus} cpus, OPENBLAS_NUM_THREADS={blas}:")
    own = {n: sinkhorn._Lanes(n * n).count for n in (1000, 2000)}
    for n in (1000, 2000):
        rng = np.random.default_rng(n)
        X, Y = rng.standard_normal((n, 2)), rng.standard_normal((n, 2)) + 5.0
        C = sinkhorn.squared_distance_matrix(X, Y)
        eps = sinkhorn.default_epsilon(C)
        for cost in (C, np.ascontiguousarray(C.T)):
            a = np.full(n, 1.0 / n)
            name = "transposed" if sinkhorn._orientation(cost, a, a) < 0 else "as given"
            times = {1: [], cpus: []}
            plans, built = {}, set()
            for rep in range(reps):
                for lanes in (1, cpus)[::1 if rep % 2 else -1]:
                    builds[0] = 0
                    seconds, coupling = solve(cost, eps, lanes)
                    times[lanes].append(seconds)
                    built.add(builds[0])
                    plans[lanes] = (coupling.matrix.tobytes(), coupling.n_iters,
                                    coupling.max_violation)
            one, every = (float(np.median(times[k])) * 1e3 for k in (1, cpus))
            same = plans[1] == plans[cpus]
            print(f"  n {n:5d} {name:>10} (own {own[n]}): 1 lane {one:8.2f} ms,"
                  f" {cpus} lanes {every:8.2f} ms, ratio {every / one:.3f},"
                  f" {plans[1][1]} iterations, {'/'.join(map(str, sorted(built)))} kernel"
                  f" builds, plans {'bit-equal' if same else 'DIFFER'}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=11, help="timed solves per form, size and orientation")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        report(args.reps)
        return
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    for extra in ({var: "1" for var in THREAD_VARS}, {}):
        subprocess.run([sys.executable, __file__, "--child", "--reps", str(args.reps)],
                       env={**env, **extra}, check=True)


if __name__ == "__main__":
    main()
