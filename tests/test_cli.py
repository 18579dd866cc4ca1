import argparse
import json
import struct

import numpy as np
import pytest

from mongemmd.checkpoint import load_params, load_train_state
from mongemmd.cli import build_parser, main
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
        params, opt, epoch = load_train_state(out / "model.ckpt")
        assert epoch == 4
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

    @pytest.mark.parametrize("bad_row", ["2,0.5,0.25", "2,0.5,oops,0.125"])
    def test_malformed_loss_history_on_resume_is_usage_error(self, tmp_path, capsys, bad_row):
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out")
        assert main(["train", str(cfg), "--quiet", "--set", "train.epochs=2"]) == 0
        loss = tmp_path / "out" / "loss.csv"
        lines = loss.read_text().splitlines()
        lines[2] = bad_row
        loss.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["train", str(cfg), "--quiet", "--resume"])
        assert rc == 2
        assert "loss history line 3" in capsys.readouterr().err

    def test_resume_refuses_a_loss_history_with_a_gap(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out")
        assert main(["train", str(cfg), "--quiet"]) == 0
        loss = tmp_path / "out" / "loss.csv"
        loss.write_text("".join(loss.read_text().splitlines(keepends=True)[:3]))
        capsys.readouterr()
        rc = main(["train", str(cfg), "--quiet", "--resume", "--set", "train.epochs=6"])
        assert rc == 2
        assert "epochs 1..4 once each, in order; missing: 3, 4" in capsys.readouterr().err
        assert LossHistory.from_csv(loss.read_text()).epochs == [1, 2]

    def test_resume_refuses_a_deleted_loss_history(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out")
        assert main(["train", str(cfg), "--quiet", "--set", "train.epochs=6"]) == 0
        loss = tmp_path / "out" / "loss.csv"
        loss.unlink()
        capsys.readouterr()
        rc = main(["train", str(cfg), "--quiet", "--resume", "--set", "train.epochs=8"])
        assert rc == 2
        assert "missing: 1, 2, 3, 4, 5, 6" in capsys.readouterr().err
        assert not loss.exists()

    def test_crash_between_the_writes_leaves_a_resumable_run(self, tmp_path, monkeypatch):
        """loss.csv is written first, so the crash leaves extra rows that resume drops."""
        cfg_full = write_config(tmp_path / "full.yaml", tmp_path / "out_full")
        assert main(["train", str(cfg_full), "--quiet"]) == 0
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out")
        assert main(["train", str(cfg), "--quiet", "--set", "train.epochs=2"]) == 0

        def disk_full(*args, **kwargs):
            raise OSError("no space left on device")

        with monkeypatch.context() as patch:
            patch.setattr("mongemmd.checkpoint.save_train_state", disk_full)
            assert main(["train", str(cfg), "--quiet", "--resume"]) == 2
        out = tmp_path / "out"
        assert LossHistory.from_csv((out / "loss.csv").read_text()).epochs == [1, 2, 3, 4]
        assert load_train_state(out / "model.ckpt")[2] == 2
        assert main(["train", str(cfg), "--quiet", "--resume"]) == 0
        for name in ("model.ckpt", "loss.csv", "eval.json"):
            assert (out / name).read_bytes() == (tmp_path / "out_full" / name).read_bytes()

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

    def test_all_subcommands_present(self):
        parser = build_parser()
        subactions = [a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)]
        assert set(subactions[0].choices) == {"generate", "train", "eval",
                                              "compare"}
