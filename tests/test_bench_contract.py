"""The benchmark's own output checks accept what ``mongemmd train`` writes.

``bench/worker.py`` counts a training operation as failed when its artifacts
fail ``_check_training``. This test runs that function, loaded from the file
and left unedited, on a short run of the moons-b500 workload, so an artifact
change the benchmark would refuse fails here first.
"""

import argparse
import importlib.util
import sys
from pathlib import Path

import mongemmd
from mongemmd import cli

WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"


def load_worker(monkeypatch):
    """``bench/worker.py`` as a module, without writing its bytecode under ``bench/``."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_checks_accept_a_short_moons_run(tmp_path, monkeypatch):
    worker = load_worker(monkeypatch)
    args = argparse.Namespace(workload="moons-b500", seed=1, mode="run", spawn_ns=0,
                              result=str(tmp_path / "result.json"))
    ctx = worker.Context(args, mongemmd, cli)
    assert (ctx.workload["source"]["family"], ctx.workload["target"]["family"],
            ctx.workload["train"]["batch_size"]) == ("two_moons", "two_circles", 500)
    ctx.workload = {**ctx.workload, "train": {**ctx.workload["train"], "epochs": 2}}
    cfg, path, op_dir = ctx.write_config(0)
    assert cli.main(["train", str(path), "--quiet"]) == 0
    rec = {}
    assert worker._check_training(ctx, cfg, op_dir, rec) == []
    assert sorted(rec["fingerprint"]) == sorted(worker.ARTIFACTS)
