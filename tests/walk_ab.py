"""Time the one-walk kernel sum against a frozen copy of the two walks it replaced.

Not collected by pytest. Run from the repository root:

    python tests/walk_ab.py [--reps N]

It pins BLAS to one thread, then alternates the two forms in one process and
prints, per size, the median time of each and their ratio (one walk / two walks):

* with the gradient, the image-dependent part of the training statistic at
  batch 60, 500 and 2000: ``mmd._source_terms(T, Y)`` against the frozen
  ``_kernel_sum(T, T)`` and ``_kernel_sum(T, Y)`` with their assembly;
* value-only, the held-out unbiased MMD^2 at n = 1000 and 2000:
  ``mmd2_unbiased`` (two walks) against the frozen three walks.

Last it reruns itself once under the default allocator and once under
``MALLOC_MMAP_THRESHOLD_=131072``, each in a fresh process, and prints the
minor page faults (``ru_minflt``) per ``train()`` step at batch 500 (two_moons
to two_circles, n = 2000, relu, width 64): after one warm-up run, a 12-epoch
run's faults from the end of epoch 1 to the end, over its 44 steps. Run
alone, that part is ``python tests/walk_ab.py --faults-only``.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import argparse  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mongemmd.data import DatasetSpec, generate  # noqa: E402
from mongemmd.kernel import KernelFamily, KernelSpec, MaternOrder  # noqa: E402
from mongemmd.mmd import _source_terms, mmd2_unbiased  # noqa: E402
from mongemmd.train import TrainConfig, train  # noqa: E402

# --- The two walks as they were before the one walk replaced them, frozen. ---

_FROZEN_BLOCK_ELEMS = 16000
_Z_MAX = 1000.0


def _frozen_eval(spec, sq, want_coeff=False):
    ell = spec.lengthscale
    if spec.family is KernelFamily.GAUSSIAN:
        k = np.exp(-spec.alpha * sq)
        return k, -2.0 * spec.alpha * k if want_coeff else None
    r = np.sqrt(sq)
    if spec.matern_order is MaternOrder.HALF:
        k = np.exp(-r / ell)
        with np.errstate(divide="ignore"):
            return k, -k / (ell * r) if want_coeff else None
    three = spec.matern_order is MaternOrder.THREE_HALVES
    z = np.minimum((math.sqrt(3.0 if three else 5.0) / ell) * r, _Z_MAX)
    e = np.exp(-z)
    if three:
        return (1.0 + z) * e, -(3.0 / ell**2) * e if want_coeff else None
    k = (1.0 + z + z * z / 3.0) * e
    return k, -(5.0 / (3.0 * ell**2)) * (1.0 + z) * e if want_coeff else None


def _frozen_row_blocks(n_rows, n_cols, triangular=False):
    i0 = 0
    while i0 < n_rows:
        width = n_cols - i0 if triangular else n_cols
        i1 = min(n_rows, i0 + max(1, _FROZEN_BLOCK_ELEMS // max(1, width)))
        yield i0, i1
        i0 = i1


def _frozen_sqdist_blocks(X, Y, triangular=False):
    d, m, n = X.shape[1], X.shape[0], Y.shape[0]
    L = np.empty((d, m, 2))
    L[:, :, 0] = X.T
    L[:, :, 1] = 1.0
    R = np.empty((d, 2, n))
    R[:, 0] = 1.0
    np.negative(Y.T, out=R[:, 1])
    ws = np.empty(d * min(m * n, max(_FROZEN_BLOCK_ELEMS, n)))
    for i0, i1 in _frozen_row_blocks(m, n, triangular):
        c0 = i0 if triangular else 0
        D = ws[:d * (i1 - i0) * (n - c0)].reshape(d, i1 - i0, n - c0)
        np.matmul(L[:, i0:i1], R[:, :, c0:], out=D)
        np.square(D, out=D)
        sq = D[0]
        for j in range(1, d):
            sq += D[j]
        yield i0, i1, sq


def _frozen_kernel_sum(spec, X, Y, want_grad=False):
    half = spec.family is KernelFamily.MATERN and spec.matern_order is MaternOrder.HALF
    same = Y is X
    out = np.zeros_like(X) if want_grad else None
    total = 0.0
    n = Y.shape[0]
    for i0, i1, sq in _frozen_sqdist_blocks(X, Y, same):
        rows = X[i0:i1]
        cols = X[i0:] if same else Y
        w = i1 - i0
        mirror = same and i1 < n
        k, coeff = _frozen_eval(spec, sq, want_grad)
        total += float(k.sum())
        if mirror:
            total += float(k[:, w:].sum())
        if not want_grad:
            continue
        zero = sq == 0.0
        if same:
            diag = (np.arange(w), np.arange(w))
            zero[diag] = False
        if half and zero.any():
            raise ValueError("Matern order 1/2 has no gradient at coincident points")
        coeff[zero] = 0.0
        if same:
            coeff[diag] = 0.0
        g = coeff.sum(axis=1)[:, None] * rows - coeff @ cols
        if same and i0:
            g += out[i0:i1]
        out[i0:i1] = g
        if mirror:
            rest = coeff[:, w:]
            out[i1:] += rest.sum(axis=0)[:, None] * X[i1:] - rest.T @ rows
    return total, out


def two_walks(spec, T, Y):
    """The frozen step: T–T and T–Y walks with the gradient, and their assembly."""
    m = T.shape[0]
    sxx, gxx = _frozen_kernel_sum(spec, T, T, want_grad=True)
    sxy, gxy = _frozen_kernel_sum(spec, T, Y, want_grad=True)
    value = (sxx - m) / (m * (m - 1)) - 2.0 * sxy / (m * m)
    return value, (2.0 / (m * (m - 1))) * gxx - (2.0 / (m * m)) * gxy


def three_walks(spec, X, Y):
    """The frozen held-out unbiased MMD^2: X–X, Y–Y and X–Y walks."""
    m, n = X.shape[0], Y.shape[0]
    sxx = _frozen_kernel_sum(spec, X, X)[0] - m
    syy = _frozen_kernel_sum(spec, Y, Y)[0] - n
    sxy = _frozen_kernel_sum(spec, X, Y)[0]
    return sxx / (m * (m - 1)) - 2.0 * sxy / (m * n) + syy / (n * (n - 1))


# --- Measurement. ---

def clouds(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 2)), rng.standard_normal((n, 2)) + 1.0


def alternate(old, new, reps):
    """Median seconds of ``old()`` and ``new()``, run in alternating order."""
    t_old, t_new = [], []
    for rep in range(reps):
        for which in ((old, t_old), (new, t_new))[::1 if rep % 2 else -1]:
            t0 = time.perf_counter()
            which[0]()
            which[1].append(time.perf_counter() - t0)
    return float(np.median(t_old)), float(np.median(t_new))


def report_faults():
    """Minor faults per train() step at batch 500, from the end of epoch 1 on."""
    config = TrainConfig(epochs=12, batch_size=500, hidden_widths=(64,),
                         hidden_activation="relu", inv_lambda=1e-6)
    source = generate(DatasetSpec(family="two_moons", n=2000, seed=1))
    target = generate(DatasetSpec(family="two_circles", n=2000, seed=2))
    train(replace(config, epochs=1), source, target)
    marks = []
    train(config, source, target,
          progress=lambda epoch, values: marks.append(
              resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
    steps = (config.epochs - 1) * (len(source) // config.batch_size)
    mode = os.environ.get("MALLOC_MMAP_THRESHOLD_", "default")
    print(f"  mmap threshold {mode:>8}: {(marks[-1] - marks[0]) / steps:7.2f}"
          f" minor faults per train() step at batch 500 ({steps} steps)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=41, help="timed calls per form and size")
    ap.add_argument("--faults-only", action="store_true",
                    help="print the faults per train() step in this process's allocator mode")
    args = ap.parse_args()
    if args.faults_only:
        report_faults()
        return
    print(f"numpy {np.__version__}, {os.cpu_count()} cpus,"
          f" OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")
    spec = KernelSpec()
    print("with the gradient (images against images and targets):")
    for batch in (60, 500, 2000):
        T, Y = clouds(batch, 1)
        v_old, g_old = two_walks(spec, T, Y)
        v_new, g_new = _source_terms(spec, T, Y, True)
        err = max(abs(v_new - v_old) / abs(v_old),
                  float(np.abs(g_new - g_old).max() / np.abs(g_old).max()))
        reps = args.reps if batch < 2000 else max(5, args.reps // 4)
        old, new = alternate(lambda: two_walks(spec, T, Y),
                             lambda: _source_terms(spec, T, Y, True), reps)
        print(f"  batch {batch:5d}: two walks {old * 1e3:8.3f} ms, one walk {new * 1e3:8.3f} ms,"
              f" ratio {new / old:.3f} (max relative difference {err:.1e})")
    print("value-only (held-out unbiased MMD^2):")
    for n in (1000, 2000):
        X, Y = clouds(n, 2)
        ref = three_walks(spec, X, Y)
        err = abs(mmd2_unbiased(spec, X, Y) - ref) / abs(ref)
        old, new = alternate(lambda: three_walks(spec, X, Y),
                             lambda: mmd2_unbiased(spec, X, Y), max(5, args.reps // 4))
        print(f"  n {n:5d}: three walks {old * 1e3:8.3f} ms, two walks {new * 1e3:8.3f} ms,"
              f" ratio {new / old:.3f} (relative difference {err:.1e})")
    print("minor page faults (each mode in a fresh process):")
    for extra in ({}, {"MALLOC_MMAP_THRESHOLD_": "131072"}):
        env = {k: v for k, v in os.environ.items() if k != "MALLOC_MMAP_THRESHOLD_"}
        subprocess.run([sys.executable, __file__, "--faults-only"], env={**env, **extra},
                       check=True)


if __name__ == "__main__":
    main()
