import argparse
import ast
import importlib
import json
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mongemmd.checkpoint import load_train_state
from mongemmd.cli import _KERNEL_DESTS, _spec_from_flags, build_parser, main
from mongemmd.data import DatasetSpec, generate, read_points_csv, write_points_csv
from mongemmd.kernel import KernelSpec
from mongemmd.train import LossHistory


def write_config(path, out_dir, extra=""):
    path.write_text(
        f"out_dir: {out_dir}\n"
        "source: {family: isotropic_gaussian, n: 24, seed: 1}\n"
        "target: {family: isotropic_gaussian, n: 24, seed: 2, mean: [2.0, 2.0]}\n"
        "train: {epochs: 4, batch_size: 8, hidden_widths: [6], seed: 0}\n"
        "eval: {n: 16}\n"
        + extra
    )
    return path


def edit_checkpoint_header(path, edit):
    """Apply ``edit`` in place to the JSON header of the checkpoint at ``path``."""
    blob = path.read_bytes()
    header_len = struct.unpack_from("<I", blob, 12)[0]
    header = json.loads(blob[16:16 + header_len])
    edit(header)
    raw = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(blob[:12] + struct.pack("<I", len(raw)) + raw + blob[16 + header_len:])


class TestGenerate:
    def test_writes_matching_csv(self, tmp_path, capsys):
        out = tmp_path / "cloud.csv"
        rc = main(["generate", "--family", "two_moons", "--n", "30",
                   "--seed", "7", "--out", str(out)])
        assert rc == 0
        assert "wrote 30 points" in capsys.readouterr().out
        expected = generate(DatasetSpec(family="two_moons", n=30, seed=7))
        np.testing.assert_array_equal(read_points_csv(out), expected)

    def test_gaussian_flags(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = main(["generate", "--family", "isotropic_gaussian", "--n", "10",
                   "--mean", "1.5,-2", "--variance", "4.0", "--out", str(out)])
        assert rc == 0
        expected = generate(DatasetSpec(family="isotropic_gaussian", n=10,
                                        mean=(1.5, -2.0), variance=4.0))
        np.testing.assert_array_equal(read_points_csv(out), expected)

    def test_bad_mean_is_usage_error(self, tmp_path, capsys):
        rc = main(["generate", "--family", "isotropic_gaussian", "--n", "5",
                   "--mean", "one,two", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestTrain:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out")
        rc = main(["train", str(cfg), "--quiet"])
        assert rc == 0
        out = tmp_path / "out"
        assert (out / "model.ckpt").exists()
        assert (out / "loss.csv").exists()
        assert (out / "eval.json").exists()
        hist = LossHistory.from_csv((out / "loss.csv").read_text())
        assert hist.epochs == [1, 2, 3, 4]
        params, opt, epoch, stored = load_train_state(out / "model.ckpt")
        assert epoch == 4
        assert stored.to_csv() == (out / "loss.csv").read_text()
        assert opt.step_count == 4 * 3  # 24 points / batch 8 = 3 per epoch
        report = json.loads((out / "eval.json").read_text())
        assert report["n"] == 16
        summary = capsys.readouterr().out
        assert "pushforward mean" in summary

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg_a = write_config(tmp_path / "a.yaml", tmp_path / "out_a")
        cfg_b = write_config(tmp_path / "b.yaml", tmp_path / "out_b")
        assert main(["train", str(cfg_a), "--quiet"]) == 0
        assert main(["train", str(cfg_b), "--quiet"]) == 0
        for name in ("model.ckpt", "loss.csv", "eval.json"):
            a = (tmp_path / "out_a" / name).read_bytes()
            b = (tmp_path / "out_b" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_set_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out")
        rc = main(["train", str(cfg), "--quiet", "--set", "train.epochs=2"])
        assert rc == 0
        hist = LossHistory.from_csv((tmp_path / "out" / "loss.csv").read_text())
        assert hist.epochs == [1, 2]

    def test_resume_equals_uninterrupted_run(self, tmp_path):
        cfg_full = write_config(tmp_path / "full.yaml", tmp_path / "out_full")
        assert main(["train", str(cfg_full), "--quiet"]) == 0

        cfg_two = write_config(tmp_path / "two.yaml", tmp_path / "out_two")
        assert main(["train", str(cfg_two), "--quiet",
                     "--set", "train.epochs=2"]) == 0
        assert main(["train", str(cfg_two), "--quiet", "--resume"]) == 0

        for name in ("model.ckpt", "loss.csv", "eval.json"):
            full = (tmp_path / "out_full" / name).read_bytes()
            stitched = (tmp_path / "out_two" / name).read_bytes()
            assert full == stitched, f"{name}: resume diverged from one-shot run"

    def test_resume_past_config_epochs_fails_cleanly(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out")
        assert main(["train", str(cfg), "--quiet"]) == 0
        rc = main(["train", str(cfg), "--quiet", "--resume",
                   "--set", "train.epochs=2"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_zero_epoch_run_resumes_like_a_straight_run(self, tmp_path):
        """``train.epochs=0`` writes the initial state with an empty history (a payload of
        exactly 24·P bytes), and resuming it to 2 epochs gives a straight 2-epoch run's
        three artifacts byte for byte."""
        cfg_two = write_config(tmp_path / "two.yaml", tmp_path / "out_two")
        assert main(["train", str(cfg_two), "--quiet", "--set", "train.epochs=2"]) == 0
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out")
        assert main(["train", str(cfg), "--quiet", "--set", "train.epochs=0"]) == 0
        ckpt = tmp_path / "out" / "model.ckpt"
        blob = ckpt.read_bytes()
        payload = len(blob) - 16 - struct.unpack_from("<I", blob, 12)[0]
        assert payload == 24 * load_train_state(ckpt).params.flat.size
        assert (tmp_path / "out" / "loss.csv").read_text() == "epoch,objective,mmd2,cost\n"
        assert main(["train", str(cfg), "--quiet", "--resume", "--set", "train.epochs=2"]) == 0
        for name in ("model.ckpt", "loss.csv", "eval.json"):
            assert ((tmp_path / "out" / name).read_bytes()
                    == (tmp_path / "out_two" / name).read_bytes()), name

    @pytest.mark.parametrize("vector, value", [(2, -1.0), (2, np.inf), (1, np.nan), (0, np.nan),
                                               (3, np.nan)],
                             ids=["negative-second-moment", "infinite-second-moment",
                                  "nan-first-moment", "nan-parameter", "nan-objective"])
    def test_checkpoint_adam_cannot_continue_from_is_usage_error(self, tmp_path, capsys,
                                                                  vector, value):
        """Train 2 epochs, overwrite the saved parameters (0), first moment (1), second
        moment (2) or objective history (3) with ``value``, resume to 4: refused before
        any step."""
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out")
        assert main(["train", str(cfg), "--quiet", "--set", "train.epochs=2"]) == 0
        loss, ckpt = tmp_path / "out" / "loss.csv", tmp_path / "out" / "model.ckpt"
        sizes = [load_train_state(ckpt).params.flat.size] * 3 + [2] * 3
        blob = bytearray(ckpt.read_bytes())
        start = 16 + struct.unpack_from("<I", blob, 12)[0] + 8 * sum(sizes[:vector])
        blob[start:start + 8 * sizes[vector]] = np.full(sizes[vector], value, "<f8").tobytes()
        ckpt.write_bytes(bytes(blob))
        before = loss.read_bytes(), ckpt.read_bytes()
        capsys.readouterr()
        assert main(["train", str(cfg), "--quiet", "--resume"]) == 2
        assert f"{ckpt}: " in capsys.readouterr().err
        assert (loss.read_bytes(), ckpt.read_bytes()) == before

    @pytest.mark.parametrize("key, value, held", [
        ("hidden_widths", "[8]", "checkpoint [6], config [8]"),
        ("hidden_activation", "tanh", "checkpoint relu, config tanh"),
        ("learning_rate", "0.001", "checkpoint 0.0001, config 0.001"),
        ("beta1", "0.8", "checkpoint 0.9, config 0.8"),
        ("beta2", "0.99", "checkpoint 0.999, config 0.99"),
        ("adam_eps", "1e-7", "checkpoint 1e-08, config 1e-07"),
    ])
    def test_resume_refuses_a_setting_the_checkpoint_contradicts(
            self, tmp_path, capsys, monkeypatch, key, value, held):
        """Train 2 epochs, resume to 4 with one network or Adam key changed: exit 2
        naming the key and both values, before any step, with both files as they were."""
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out")
        assert main(["train", str(cfg), "--quiet", "--set", "train.epochs=2"]) == 0
        loss, ckpt = tmp_path / "out" / "loss.csv", tmp_path / "out" / "model.ckpt"
        before = loss.read_bytes(), ckpt.read_bytes()

        def no_step(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(importlib.import_module("mongemmd.train"), "_evaluate", no_step)
        capsys.readouterr()
        rc = main(["train", str(cfg), "--quiet", "--resume", "--set", f"train.{key}={value}"])
        assert rc == 2
        assert f"train.{key}: {held}" in capsys.readouterr().err
        assert (loss.read_bytes(), ckpt.read_bytes()) == before

    def test_resume_accepts_a_changed_epoch_count(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out")
        assert main(["train", str(cfg), "--quiet", "--set", "train.epochs=2"]) == 0
        assert main(["train", str(cfg), "--quiet", "--resume", "--set", "train.epochs=3"]) == 0
        hist = LossHistory.from_csv((tmp_path / "out" / "loss.csv").read_text())
        assert hist.epochs == [1, 2, 3]
        assert load_train_state(tmp_path / "out" / "model.ckpt")[2] == 3

    @pytest.mark.parametrize("damage", [
        lambda loss: loss.unlink(),
        lambda loss: loss.write_text("epoch,objective,mmd2,cost\n1,nan,oops\n"),
        lambda loss: loss.write_text("".join(loss.read_text().splitlines(True)[:2])),
    ], ids=["deleted", "garbled", "cut-short"])
    def test_resume_rebuilds_a_lost_or_damaged_loss_csv(self, tmp_path, damage):
        """--resume reads only model.ckpt, which holds the loss history: with loss.csv
        deleted, garbled or cut short, it still writes the uninterrupted run's bytes."""
        cfg_full = write_config(tmp_path / "full.yaml", tmp_path / "out_full")
        assert main(["train", str(cfg_full), "--quiet"]) == 0
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out")
        assert main(["train", str(cfg), "--quiet", "--set", "train.epochs=2"]) == 0
        damage(tmp_path / "out" / "loss.csv")
        assert main(["train", str(cfg), "--quiet", "--resume"]) == 0
        for name in ("model.ckpt", "loss.csv", "eval.json"):
            assert ((tmp_path / "out" / name).read_bytes()
                    == (tmp_path / "out_full" / name).read_bytes()), name

    def test_crash_between_the_writes_leaves_a_resumable_run(self, tmp_path, monkeypatch):
        """model.ckpt is written first and holds the loss history, so a crash before the
        loss.csv write leaves a stale loss.csv that resume rebuilds from the checkpoint."""
        cfg_full = write_config(tmp_path / "full.yaml", tmp_path / "out_full")
        assert main(["train", str(cfg_full), "--quiet"]) == 0
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out")
        assert main(["train", str(cfg), "--quiet", "--set", "train.epochs=2"]) == 0
        cli = importlib.import_module("mongemmd.cli")
        write_text = cli.atomic_write_text

        def disk_full_for_loss_csv(path, text):
            if path.name == "loss.csv":
                raise OSError("no space left on device")
            write_text(path, text)

        with monkeypatch.context() as patch:
            patch.setattr(cli, "atomic_write_text", disk_full_for_loss_csv)
            assert main(["train", str(cfg), "--quiet", "--resume"]) == 2
        out = tmp_path / "out"
        assert LossHistory.from_csv((out / "loss.csv").read_text()).epochs == [1, 2]
        assert load_train_state(out / "model.ckpt").history.epochs == [1, 2, 3, 4]
        assert (out / "model.ckpt").read_bytes() == (tmp_path / "out_full/model.ckpt").read_bytes()
        assert main(["train", str(cfg), "--quiet", "--resume"]) == 0
        for name in ("model.ckpt", "loss.csv", "eval.json"):
            assert (out / name).read_bytes() == (tmp_path / "out_full" / name).read_bytes()

    def test_no_module_but_the_trainer_reads_a_loss_history(self):
        """No module of the package but train.py, where it is defined, names ``from_csv``:
        no command reads loss.csv back."""
        package = Path(importlib.import_module("mongemmd").__file__).parent
        callers = sorted({
            path.name for path in package.glob("*.py") if path.name != "train.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if getattr(node, "attr", getattr(node, "id", None)) == "from_csv"})
        assert callers == []

    @pytest.mark.parametrize("section, key, value, message", [
        (None, "adam", [1e-4, 0.9, 0.999, 1e-8], "adam must be an object of four real numbers"),
        ("adam", "beta1", "x", "adam must be an object of four real numbers"),
        ("adam", "beta1", True, "adam must be an object of four real numbers"),
        (None, "epoch", "x", "epoch must be an integer >= 0, got 'x'"),
        (None, "epoch", -3, "epoch must be an integer >= 0, got -3"),
        (None, "epoch", 1.7, "epoch must be an integer >= 0, got 1.7"),
        (None, "epoch", True, "epoch must be an integer >= 0, got True"),
        (None, "step_count", -1, "step_count must be an integer >= 0, got -1"),
    ], ids=["adam-list", "beta1-string", "beta1-bool", "epoch-string", "epoch-negative",
            "epoch-fraction", "epoch-bool", "step_count-negative"])
    def test_corrupt_training_state_header_is_usage_error(
            self, tmp_path, capsys, section, key, value, message):
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out")
        assert main(["train", str(cfg), "--quiet", "--set", "train.epochs=2"]) == 0
        path = tmp_path / "out" / "model.ckpt"
        edit_checkpoint_header(path, lambda h: (h[section] if section else h).update({key: value}))
        capsys.readouterr()
        assert main(["train", str(cfg), "--quiet", "--resume"]) == 2
        assert f"{path}: corrupt checkpoint header: {message}" in capsys.readouterr().err

    def refuses_old_format(self, tmp_path, capsys, rewrite, version, command):
        """Train 2 epochs, ``rewrite`` the checkpoint as format ``version``, and run
        ``command``: exit 2 naming the version, with model.ckpt and loss.csv untouched."""
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out")
        assert main(["train", str(cfg), "--quiet", "--set", "train.epochs=2"]) == 0
        loss, ckpt = tmp_path / "out" / "loss.csv", tmp_path / "out" / "model.ckpt"
        rewrite(ckpt)
        before = loss.read_bytes(), ckpt.read_bytes()
        src = tmp_path / "src.csv"
        write_points_csv(src, generate(DatasetSpec(family="isotropic_gaussian", n=12, seed=5)))
        capsys.readouterr()
        argv = {"resume": ["train", str(cfg), "--quiet", "--resume"],
                "eval": ["eval", "--checkpoint", str(ckpt), "--source", str(src),
                         "--target", str(src)]}[command]
        assert main(argv) == 2
        assert f"{ckpt}: unsupported checkpoint version {version}" in capsys.readouterr().err
        assert (loss.read_bytes(), ckpt.read_bytes()) == before

    @pytest.mark.parametrize("command", ["resume", "eval"])
    def test_format_1_checkpoint_is_usage_error(self, tmp_path, capsys, rewrite_as_v1, command):
        """Per-layer array lists (format version 1) are refused by ``train --resume`` and
        by ``eval``."""
        self.refuses_old_format(tmp_path, capsys, rewrite_as_v1, 1, command)

    @pytest.mark.parametrize("command", ["resume", "eval"])
    def test_format_2_checkpoint_is_usage_error(self, tmp_path, capsys, rewrite_as_v2, command):
        """A checkpoint without the loss history (format version 2) is refused by
        ``train --resume`` and by ``eval``."""
        self.refuses_old_format(tmp_path, capsys, rewrite_as_v2, 2, command)

    @pytest.mark.parametrize("command", ["resume", "eval"])
    def test_format_3_checkpoint_is_usage_error(self, tmp_path, capsys, rewrite_as_v3, command):
        """A checkpoint whose ``mmd2`` column held each batch's own target term (format
        version 3) is refused by ``train --resume`` and by ``eval``."""
        self.refuses_old_format(tmp_path, capsys, rewrite_as_v3, 3, command)

    def test_out_of_range_adam_header_keeps_the_range_message(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out")
        assert main(["train", str(cfg), "--quiet", "--set", "train.epochs=2"]) == 0
        path = tmp_path / "out" / "model.ckpt"
        edit_checkpoint_header(path, lambda h: h["adam"].update(beta1=2.0))
        capsys.readouterr()
        assert main(["train", str(cfg), "--quiet", "--resume"]) == 2
        assert (f"{path}: beta1 must be finite and >= 0 and < 1, got 2.0"
                in capsys.readouterr().err)

    def test_progress_lines_go_to_stderr(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out")
        assert main(["train", str(cfg)]) == 0
        err = capsys.readouterr().err
        assert "epoch 4" in err

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        rc = main(["train", str(tmp_path / "absent.yaml")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out",
                           extra="mystery: 1\n")
        rc = main(["train", str(cfg)])
        assert rc == 2
        assert "mystery" in capsys.readouterr().err

    def test_integer_too_large_for_a_float_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out")
        rc = main(["train", str(cfg), "--quiet", "--set", "train.inv_lambda=1" + "0" * 400])
        assert rc == 2
        assert "error: train.inv_lambda must be finite, got 10000" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_numeric_blowup_exits_three(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out")
        # the exponent sign matters: pyyaml reads 1.0e200 as a string
        rc = main(["train", str(cfg), "--quiet",
                   "--set", "source.mean=[1.0e+200, 1.0e+200]"])
        assert rc == 3
        assert "numeric failure" in capsys.readouterr().err


    @pytest.mark.filterwarnings("ignore:overflow")
    def test_runaway_adam_update_exits_three(self, tmp_path, capsys):
        """A step size that overflows the parameters is a numeric failure with its epoch."""
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out")
        rc = main(["train", str(cfg), "--quiet", "--set", "train.learning_rate=1.7e+308",
                   "--set", "train.inv_lambda=1000"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "numeric failure: epoch 1, batch 0: update overflowed" in err


class TestEval:
    def make_artifacts(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out")
        main(["train", str(cfg), "--quiet"])
        src = tmp_path / "src.csv"
        tgt = tmp_path / "tgt.csv"
        write_points_csv(src, generate(DatasetSpec(
            family="isotropic_gaussian", n=12, seed=5)))
        write_points_csv(tgt, generate(DatasetSpec(
            family="isotropic_gaussian", n=12, seed=6, mean=(2.0, 2.0))))
        return tmp_path / "out" / "model.ckpt", src, tgt

    def test_report_to_stdout(self, tmp_path, capsys):
        ckpt, src, tgt = self.make_artifacts(tmp_path)
        capsys.readouterr()  # drop the training summary
        rc = main(["eval", "--checkpoint", str(ckpt), "--source", str(src),
                   "--target", str(tgt)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 12
        assert len(payload["mean"]) == 2

    def test_report_to_file(self, tmp_path, capsys):
        ckpt, src, tgt = self.make_artifacts(tmp_path)
        out = tmp_path / "report.json"
        rc = main(["eval", "--checkpoint", str(ckpt), "--source", str(src),
                   "--target", str(tgt), "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["n"] == 12
        assert "wrote report" in capsys.readouterr().out

    def test_missing_checkpoint_is_usage_error(self, tmp_path, capsys):
        _, src, tgt = self.make_artifacts(tmp_path)
        rc = main(["eval", "--checkpoint", str(tmp_path / "no.ckpt"),
                   "--source", str(src), "--target", str(tgt)])
        assert rc == 2

    def test_map_kind_checkpoint_is_usage_error(self, tmp_path, capsys, rewrite_as_v1):
        """Only training-state checkpoints exist; a file of the old map-only kind, which
        only format version 1 could hold, is refused by its version."""
        ckpt, src, tgt = self.make_artifacts(tmp_path)
        rewrite_as_v1(ckpt, kind="map")
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(ckpt), "--source", str(src),
                   "--target", str(tgt)])
        assert rc == 2
        assert f"{ckpt}: unsupported checkpoint version 1" in capsys.readouterr().err

    def test_dimension_mismatch_is_usage_error(self, tmp_path, capsys):
        ckpt, src, _ = self.make_artifacts(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("x0,x1,x2\n1,2,3\n4,5,6\n")
        rc = main(["eval", "--checkpoint", str(ckpt), "--source", str(bad),
                   "--target", str(src)])
        assert rc == 2


class TestCompare:
    def compare_config(self, tmp_path):
        return write_config(
            tmp_path / "cmp.yaml", tmp_path / "out",
            extra="compare: {sizes: [8, 12], max_iters: 2000}\n")

    def test_writes_comparison_csv(self, tmp_path, capsys):
        cfg = self.compare_config(tmp_path)
        rc = main(["compare", str(cfg), "--quiet"])
        assert rc == 0
        lines = (tmp_path / "out" / "comparison.csv").read_text().splitlines()
        assert lines[0].startswith("method,data_size,epsilon")
        assert len(lines) == 5  # header + 2 methods x 2 sizes
        assert lines[1].startswith("neural,8,")
        assert lines[2].startswith("sinkhorn,8,")

    def test_stat_columns_deterministic(self, tmp_path):
        cfg = self.compare_config(tmp_path)
        main(["compare", str(cfg), "--quiet"])
        first = (tmp_path / "out" / "comparison.csv").read_text()
        main(["compare", str(cfg), "--quiet"])
        second = (tmp_path / "out" / "comparison.csv").read_text()
        strip = lambda text: [l.rsplit(",", 1)[0] for l in text.splitlines()]
        assert strip(first) == strip(second)

    def test_size_cap_refusal_names_memory(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cmp.yaml", tmp_path / "out",
            extra="compare: {sizes: [500], size_cap: 100}\n")
        rc = main(["compare", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "size_cap" in err and "GB" in err

    def test_infinite_tol_is_refused_before_any_training(self, tmp_path, capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("compare trained a map before refusing its config")

        monkeypatch.setattr("mongemmd.compare.train", no_training)
        rc = main(["compare", str(self.compare_config(tmp_path)), "--set", "compare.tol=.inf"])
        assert rc == 2
        assert "compare.tol must be finite and > 0, got inf" in capsys.readouterr().err

    @pytest.mark.parametrize("mean", ["[0.0]", "[0.0, 0.0, 0.0]"], ids=["d1", "d3"])
    def test_mean_not_of_two_coordinates_is_refused_before_any_training(
            self, tmp_path, capsys, monkeypatch, mean):
        def no_training(*args, **kwargs):
            raise AssertionError("compare trained a map before refusing its config")

        monkeypatch.setattr("mongemmd.compare.train", no_training)
        for side in ("source", "target"):
            rc = main(["compare", str(self.compare_config(tmp_path)),
                       "--set", f"{side}.mean={mean}"])
            assert rc == 2
            assert f"{side}.mean must have length 2" in capsys.readouterr().err
            assert not (tmp_path / "out" / "comparison.csv").exists()

    def test_non_gaussian_task_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cmp.yaml", tmp_path / "out",
            extra="compare: {sizes: [8]}\n")
        rc = main(["compare", str(cfg), "--set", "source.family=two_moons"])
        assert rc == 2
        assert "isotropic_gaussian" in capsys.readouterr().err


class TestParser:
    def test_train_help_documents_config_keys(self):
        parser = build_parser()
        # find the train subparser and inspect its help text
        subactions = [a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)]
        train = subactions[0].choices["train"]
        text = train.format_help()
        for key in ("inv_lambda", "hidden_widths", "hidden_activation",
                    "learning_rate", "seed_offset", "size_cap", "epsilon"):
            assert key in text, f"--help does not document {key}"

    def test_help_shows_each_range(self):
        subactions = [a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)]
        help_of = {name: " ".join(p.format_help().split())
                   for name, p in subactions[0].choices.items()}
        assert "inner circle radius (circles); finite and > 0 and < 1" in help_of["generate"]
        assert "matern lengthscale; finite and > 0" in help_of["eval"]
        assert "compare.sizes ([200, 1000, 2000]) data sizes to benchmark; nonempty, each >= 2" \
            in help_of["compare"]
        assert "train.adam_eps (1.0e-08) adam stabilizer; finite and > 0" in help_of["train"]

    def test_flag_defaults_are_the_dataclass_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["eval", "--checkpoint", "c", "--source", "s",
                                  "--target", "t"])
        assert KernelSpec(family=args.kernel_family, alpha=args.alpha,
                          matern_order=args.matern_order,
                          lengthscale=args.lengthscale) == KernelSpec()
        args = parser.parse_args(["generate", "--family", "two_moons", "--n", "3",
                                  "--out", "x.csv"])
        assert DatasetSpec(family=args.family, n=args.n, seed=args.seed,
                           noise=args.noise, factor=args.factor,
                           variance=args.variance) == DatasetSpec(family="two_moons", n=3)
        assert args.mean == "0.0,0.0"
        # Each spec field has exactly one flag, and default flags build the default spec.
        subactions = [a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)]
        for command, cls, argv, default in [
                ("generate", DatasetSpec, ["--family", "two_moons", "--n", "3", "--out", "x"],
                 DatasetSpec(family="two_moons", n=3)),
                ("eval", KernelSpec, ["--checkpoint", "c", "--source", "s", "--target", "t"],
                 KernelSpec())]:
            dests = _KERNEL_DESTS if cls is KernelSpec else {}
            taken = [a.dest for a in subactions[0].choices[command]._actions]
            for f in fields(cls):
                assert taken.count(dests.get(f.name, f.name)) == 1, (command, f.name)
            args = parser.parse_args([command, *argv])
            assert _spec_from_flags(args, cls, dests) == default

    def test_all_subcommands_present(self):
        parser = build_parser()
        subactions = [a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)]
        assert set(subactions[0].choices) == {"generate", "train", "eval",
                                              "compare"}
