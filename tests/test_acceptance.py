"""End-to-end acceptance checks, one test per numbered criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion. The two training runs (criteria 3-5) take a few minutes combined
on a laptop CPU; everything else is seconds.
"""

import time

import numpy as np
import pytest

import mongemmd as m
from mongemmd.cli import main as cli_main
from mongemmd.compare import comparison_to_csv
from mongemmd.loss import monge_mmd_loss, monge_mmd_loss_grad
from mongemmd.sinkhorn import (
    default_epsilon,
    sinkhorn_solve,
    squared_distance_matrix,
)

# Training configuration shared by the gaussian (criteria 3, 4) and the
# moons-to-circles (criterion 5) runs. The bounds in criteria 3 and 4 pin
# width 64, alpha=1, lr 1e-4, 1/lambda=1e-6 and 3000 epochs; batch size,
# activation and seed are free, and this combination converges: minibatches
# of 60 give 8 Adam updates per epoch (24000 total), which is enough step
# budget to translate the cloud by 5, where a single full batch per epoch
# (3000 updates at lr 1e-4) demonstrably is not.
RUN_CONFIG = dict(
    epochs=3000,
    batch_size=60,
    inv_lambda=1e-6,
    hidden_widths=(64,),
    hidden_activation="tanh",
    seed=0,
)


def report(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} [{label}]: {status} ({detail})", flush=True)
    assert ok, f"criterion {num} [{label}]: {detail}"


def gaussian_cloud(n, seed, mean):
    return m.generate(m.DatasetSpec(
        family="isotropic_gaussian", n=n, seed=seed, mean=mean))


@pytest.fixture(scope="module")
def gaussian_run():
    """Train the translation task once; criteria 3 and 4 share the result."""
    source = gaussian_cloud(500, 1, (0.0, 0.0))
    target = gaussian_cloud(500, 2, (5.0, 5.0))
    config = m.TrainConfig(**RUN_CONFIG)
    state, history = m.train(config, source, target)
    report_eval = m.evaluate(
        state.params,
        gaussian_cloud(1000, 10001, (0.0, 0.0)),
        gaussian_cloud(1000, 10002, (5.0, 5.0)),
        config.kernel,
    )
    return state, history, report_eval


@pytest.fixture(scope="module")
def moons_run():
    """Train the same configuration on the moons-to-circles task."""
    source = m.generate(m.DatasetSpec(family="two_moons", n=500, seed=1))
    target = m.generate(m.DatasetSpec(family="two_circles", n=500, seed=2))
    config = m.TrainConfig(**RUN_CONFIG)
    state, history = m.train(config, source, target)
    return state, history, source


def test_criterion_1_gradient_matches_finite_differences():
    started = time.perf_counter()
    spec = m.KernelSpec()
    inv_lambda = 0.5
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        params = m.init_params((2, 16, 2), hidden_activation="tanh", seed=seed)
        X = rng.standard_normal((6, 2))
        Y = rng.standard_normal((6, 2)) + 1.0
        grads = monge_mmd_loss_grad(params, X, Y, spec, inv_lambda)
        flat_grad = np.concatenate([a.ravel() for a in grads.arrays()])
        # central differences over every parameter, in arrays() order
        fd_blocks = []
        for arr in (a for wb in zip(params.weights, params.biases) for a in wb):
            block = np.empty_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                h = 1e-6 * max(1.0, abs(orig))
                arr[idx] = orig + h
                up = monge_mmd_loss(params, X, Y, spec, inv_lambda).objective
                arr[idx] = orig - h
                down = monge_mmd_loss(params, X, Y, spec, inv_lambda).objective
                arr[idx] = orig
                block[idx] = (up - down) / (2.0 * h)
            fd_blocks.append(block)
        flat_fd = np.concatenate([b.ravel() for b in fd_blocks])
        rel = np.abs(flat_grad - flat_fd) / np.maximum(np.abs(flat_fd), 1e-10)
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - started
    report(1, "gradient vs finite differences",
           worst < 1e-5 and elapsed < 10.0,
           f"max rel err {worst:.3e} < 1e-5, {elapsed:.1f}s < 10s")


def test_criterion_2_unbiased_estimator_matches_population_value():
    started = time.perf_counter()
    spec = m.KernelSpec()
    population = m.mmd2_population_gaussian(
        spec, (0.0, 0.0), 1.0, (5.0, 5.0), 1.0)

    rng = np.random.default_rng(0)
    estimates = np.array([
        m.mmd2_unbiased(spec,
                        rng.standard_normal((100, 2)),
                        rng.standard_normal((100, 2)) + np.array([5.0, 5.0]))
        for _ in range(200)
    ])
    se_mean = estimates.std(ddof=1) / np.sqrt(estimates.size)
    gap_mean = abs(estimates.mean() - population)

    # Monte-Carlo check of the closed form itself: one million independent
    # pairs per expectation term, standard errors added in variance.
    rng_mc = np.random.default_rng(1)
    n = 1_000_000
    X1 = rng_mc.standard_normal((n, 2))
    X2 = rng_mc.standard_normal((n, 2))
    Y1 = rng_mc.standard_normal((n, 2)) + 5.0
    Y2 = rng_mc.standard_normal((n, 2)) + 5.0
    kxx = np.exp(-((X1 - X2) ** 2).sum(axis=1))
    kyy = np.exp(-((Y1 - Y2) ** 2).sum(axis=1))
    kxy = np.exp(-((X1 - Y2) ** 2).sum(axis=1))
    mc = kxx.mean() + kyy.mean() - 2.0 * kxy.mean()
    se_mc = np.sqrt(
        (kxx.var(ddof=1) + kyy.var(ddof=1) + 4.0 * kxy.var(ddof=1)) / n)
    gap_mc = abs(mc - population)

    elapsed = time.perf_counter() - started
    report(2, "estimator unbiasedness",
           gap_mean < 3.0 * se_mean and gap_mc < 3.0 * se_mc
           and elapsed < 60.0,
           f"resample gap {gap_mean:.2e} < 3*{se_mean:.2e}, "
           f"closed form vs MC gap {gap_mc:.2e} < 3*{se_mc:.2e}, "
           f"{elapsed:.1f}s < 60s")


def test_criterion_3_gaussian_translation_statistics(gaussian_run):
    _, _, report_eval = gaussian_run
    mean = np.asarray(report_eval.mean)
    sd = np.asarray(report_eval.sd)
    ok = (np.abs(mean - 5.0) <= 0.2).all() and (np.abs(sd - 1.0) <= 0.2).all()
    report(3, "pushforward mean 5+-0.2, sd 1+-0.2", ok,
           f"mean {np.round(mean, 4).tolist()}, sd {np.round(sd, 4).tolist()}")


def test_criterion_4_cost_near_analytic_optimum(gaussian_run):
    state, _, report_eval = gaussian_run
    optimum = m.w2_squared_gaussian((0.0, 0.0), (5.0, 5.0))
    assert optimum == 50.0
    probe = gaussian_cloud(1000, 777, (0.0, 0.0))
    deviation = m.map_deviation(
        state.params, m.gaussian_optimal_map((0.0, 0.0), (5.0, 5.0)), probe)
    cost = report_eval.transport_cost
    ok = 45.0 <= cost <= 65.0 and deviation < 2.0
    report(4, "cost in [45, 65], map deviation < 2", ok,
           f"cost {cost:.3f} vs optimum {optimum}, deviation {deviation:.4f}")


def test_criterion_5_moons_to_circles_fit(moons_run):
    state, history, source = moons_run
    config = m.TrainConfig(**RUN_CONFIG)
    source_test = m.generate(m.DatasetSpec(family="two_moons", n=500,
                                           seed=10001))
    target_test = m.generate(m.DatasetSpec(family="two_circles", n=500,
                                           seed=10002))
    mmd_train = m.mmd2_unbiased(config.kernel,
                                m.mlp_forward_batch(state.params, source),
                                target_test)
    mmd_test = m.mmd2_unbiased(config.kernel,
                               m.mlp_forward_batch(state.params, source_test),
                               target_test)
    early, final = history.objective[499], history.objective[2999]
    gap = abs(early - final) / abs(final)
    ok = mmd_train < 5e-3 and mmd_test < 5e-3 and gap <= 0.20
    report(5, "held-out fit and early convergence", ok,
           f"mmd2 {mmd_train:.2e}/{mmd_test:.2e} < 5e-3, "
           f"epoch-500 objective within {gap:.2%} of final")


def test_criterion_6_mmd_metric_axioms():
    spec = m.KernelSpec()
    rng = np.random.default_rng(0)

    X = rng.standard_normal((40, 3))
    identical = m.mmd2_biased(spec, X, X.copy())
    assert abs(identical) < 1e-12

    for _ in range(50):
        A = rng.standard_normal((7, 2))
        B = rng.standard_normal((9, 2)) + 0.5
        assert m.mmd2_biased(spec, A, B) == m.mmd2_biased(spec, B, A)

    smallest = np.inf
    for k in range(1000):
        d = 1 + k % 4
        A = rng.standard_normal((2 + k % 11, d)) * (0.5 + rng.random())
        B = rng.standard_normal((2 + (k // 7) % 9, d)) + rng.random()
        smallest = min(smallest, m.mmd2_biased(spec, A, B))
    report(6, "biased estimator metric axioms", smallest >= 0.0,
           f"identical {identical:.1e}, min over 1000 instances "
           f"{smallest:.3e} >= 0")


def test_criterion_7_sinkhorn_feasibility_and_limits():
    rng = np.random.default_rng(0)
    worst_violation = 0.0
    for _ in range(3):
        C = squared_distance_matrix(rng.standard_normal((500, 3)),
                                    rng.standard_normal((500, 3)) + 1.0)
        a = rng.random(500) + 0.1
        b = rng.random(500) + 0.1
        a /= a.sum()
        b /= b.sum()
        coupling = sinkhorn_solve(C, a, b, epsilon=default_epsilon(C),
                                  tol=1e-9)
        assert coupling.converged
        P = coupling.matrix
        violation = max(np.abs(P.sum(axis=1) - a).max(),
                        np.abs(P.sum(axis=0) - b).max())
        worst_violation = max(worst_violation, violation)

    C2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    half = np.array([0.5, 0.5])
    # enumerate both vertices of the 2x2 transport polytope
    vertices = [np.array([[0.5, 0.0], [0.0, 0.5]]),
                np.array([[0.0, 0.5], [0.5, 0.0]])]
    best = min(vertices, key=lambda P: float((P * C2).sum()))
    sharp = sinkhorn_solve(C2, half, half, epsilon=0.01, tol=1e-14)
    gap_sharp = np.abs(sharp.matrix - best).max()
    smooth = sinkhorn_solve(C2, half, half, epsilon=1000.0, tol=1e-14)
    gap_smooth = np.abs(smooth.matrix - np.outer(half, half)).max()

    ok = worst_violation < 1e-8 and gap_sharp < 1e-6 and gap_smooth < 1e-3
    report(7, "sinkhorn feasibility and epsilon limits", ok,
           f"marginal violation {worst_violation:.1e} < 1e-8, "
           f"assignment gap {gap_sharp:.1e} < 1e-6, "
           f"product gap {gap_smooth:.1e} < 1e-3")


def test_criterion_8_comparison_harness():
    config = m.TrainConfig(epochs=500, batch_size=100, inv_lambda=1e-6,
                           hidden_activation="tanh", seed=0)
    rows = m.compare_runs(config, m.CompareConfig(sizes=(200, 1000), seed=0))
    again = m.compare_runs(config, m.CompareConfig(sizes=(200, 1000), seed=0))

    sinkhorn_200 = next(r for r in rows
                        if r.method == "sinkhorn" and r.data_size == 200)
    means = (sinkhorn_200.mean0, sinkhorn_200.mean1)
    in_band = all(4.5 <= v <= 5.2 for v in means)

    # every column except wall-clock runtime must reproduce exactly
    strip = lambda text: [line.rsplit(",", 1)[0]
                          for line in text.splitlines()]
    deterministic = strip(comparison_to_csv(rows)) == \
        strip(comparison_to_csv(again))

    report(8, "sinkhorn pushforward mean and csv determinism",
           in_band and deterministic,
           f"size-200 mean ({means[0]:.4f}, {means[1]:.4f}) in [4.5, 5.2], "
           f"deterministic={deterministic}")


def test_criterion_9_pipeline_reruns_bit_identical(tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text(
        f"out_dir: {tmp_path / 'out'}\n"
        "source: {family: isotropic_gaussian, n: 60, seed: 1}\n"
        "target: {family: isotropic_gaussian, n: 60, seed: 2, mean: [2.0, 2.0]}\n"
        "train: {epochs: 30, batch_size: 20, hidden_widths: [8], seed: 0}\n"
        "eval: {n: 40}\n"
    )
    artifacts = ("loss.csv", "model.ckpt", "eval.json")
    assert cli_main(["train", str(config), "--quiet"]) == 0
    first = {name: (tmp_path / "out" / name).read_bytes()
             for name in artifacts}
    assert cli_main(["train", str(config), "--quiet"]) == 0
    identical = {name: (tmp_path / "out" / name).read_bytes() == first[name]
                 for name in artifacts}
    report(9, "bit-identical rerun artifacts", all(identical.values()),
           ", ".join(f"{k}={'same' if v else 'DIFFERS'}"
                     for k, v in identical.items()))
