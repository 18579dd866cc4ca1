"""The benchmark's own output checks accept what the package returns and writes.

``bench/worker.py`` counts an operation as failed when it raises or its outputs
fail the worker's checks. These tests run the worker's functions, loaded from
the file and left unedited, on short operations of every workload, so a change
of a return type, of the ``progress`` hook or of an artifact that the benchmark
would refuse fails here first.
"""

import argparse
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import mongemmd
from mongemmd import cli

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "bench" / "worker.py"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


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


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_workload_operation_reports_no_problem(tmp_path, monkeypatch, name):
    """One operation of each workload, run by the worker's own function: ``train_op``
    through the ``TrainHook`` that stands in for ``cli.train`` (epochs cut to 2), or
    ``sinkhorn_op``."""
    worker = load_worker(monkeypatch)
    args = argparse.Namespace(workload=name, seed=1, mode="run", spawn_ns=0,
                              result=str(tmp_path / "result.json"))
    ctx = worker.Context(args, mongemmd, cli)
    if ctx.workload["kind"] == "train":
        ctx.workload = {**ctx.workload, "train": {**ctx.workload["train"], "epochs": 2}}
        monkeypatch.setattr(cli, "train", cli.train)  # restored after the hook replaces it
        ctx.hook = worker.TrainHook(ctx)
        rec = worker.train_op(ctx, 0)
        assert sorted(rec["fingerprint"]) == sorted(worker.ARTIFACTS)
        assert len(rec["epoch_ms"]) == 2
    else:
        rec = worker.sinkhorn_op(ctx, 0)
    assert rec["problems"] == []
