"""Command-line entry point.

Subcommands:
    generate   draw a synthetic point cloud and write it as CSV
    train      fit the transport map from a YAML config; writes loss.csv,
               model.ckpt, eval.json into the config's out_dir
    eval       push a CSV through a saved checkpoint and report statistics
    compare    neural map vs Sinkhorn baseline across sample sizes

Exit codes: 0 success, 2 usage/config/input problems, 3 numeric failure
during computation. All artifacts are written atomically, so an interrupted
run never leaves a truncated file.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, fields, replace
from enum import Enum
from pathlib import Path

from . import checkpoint as ckpt
from .compare import compare_runs, comparison_to_csv
from .config import RunConfig, config_reference, load_config
from .data import DatasetSpec, generate, read_points_csv, write_points_csv
from .errors import InputError, NumericError
from .evaluation import evaluate
from .kernel import KernelSpec
from .train import LossHistory, TrainState, train
from .util import atomic_write_text, field_types, valid_range


def _config_keys_help() -> str:
    lines = ["config file keys (YAML; defaults in parentheses):"]
    for key, default, text in config_reference():
        head = f"{key} ({'required' if default is None else default})"
        lines.append(f"  {head:<34} {text}")
    return "\n".join(lines) + "\n"


def _field_flag(parser, flag: str, cls, name: str, **kw) -> None:
    """Add ``flag`` for field ``name`` of ``cls``, typed, documented and defaulted by the field."""
    f = next(f for f in fields(cls) if f.name == name)
    kind = field_types(cls)[name]
    if kind in (int, float):
        kw["type"] = kind
    elif isinstance(kind, type) and issubclass(kind, Enum):
        kw["choices"] = [e.value for e in kind]
    text = "; ".join(filter(None, (f.metadata["help"], valid_range(cls, f))))
    if f.default is not MISSING:
        default = f.default
        if isinstance(default, Enum):
            default = default.value
        elif isinstance(default, tuple):
            default = ",".join(str(v) for v in default)
        kw["default"] = default
        text += " (default: %(default)s)"
    parser.add_argument(flag, help=text, **kw)


def _mean_arg(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise InputError(f"--mean expects comma-separated numbers, got {text!r}") from exc


def cmd_generate(args) -> int:
    spec = DatasetSpec(
        family=args.family,
        n=args.n,
        seed=args.seed,
        noise=args.noise,
        factor=args.factor,
        mean=_mean_arg(args.mean),
        variance=args.variance,
    )
    points = generate(spec)
    write_points_csv(args.out, points)
    print(f"wrote {points.shape[0]} points to {args.out}")
    return 0


def _test_specs(cfg: RunConfig) -> tuple[DatasetSpec, DatasetSpec]:
    off = cfg.eval.seed_offset
    src = replace(cfg.source, n=cfg.eval.n, seed=cfg.source.seed + off)
    tgt = replace(cfg.target, n=cfg.eval.n, seed=cfg.target.seed + off)
    return src, tgt


def _prepare_out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create out_dir {out}: {exc}") from exc
    return out


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.set)
    out = _prepare_out_dir(cfg)
    ckpt_path = out / "model.ckpt"
    loss_path = out / "loss.csv"

    source = generate(cfg.source)
    target = generate(cfg.target)

    state = None
    prior = LossHistory()
    if args.resume and ckpt_path.exists():
        params, opt, epoch = ckpt.load_train_state(ckpt_path)
        state = TrainState(params=params, optimizer=opt, epoch=epoch)
        stored = (LossHistory.from_csv(loss_path.read_text(encoding="utf-8"))
                  if loss_path.exists() else LossHistory())
        prior = stored.through(epoch)
        print(f"resuming {cfg.label} at epoch {epoch}", file=sys.stderr)

    every = max(1, cfg.train.epochs // 10)

    def progress(epoch, values):
        if not args.quiet and (epoch % every == 0 or epoch == cfg.train.epochs):
            print(
                f"epoch {epoch}: objective={values.objective:.6g} "
                f"mmd2={values.mmd2:.6g} cost={values.mean_cost:.6g}",
                file=sys.stderr,
            )

    state, hist = train(cfg.train, source, target, state=state, progress=progress)
    prior.extend(hist)

    # loss.csv first: a crash between the writes leaves extra rows, which --resume drops.
    atomic_write_text(loss_path, prior.to_csv())
    ckpt.save_train_state(ckpt_path, state.params, state.optimizer, state.epoch)

    src_spec, tgt_spec = _test_specs(cfg)
    report = evaluate(state.params, generate(src_spec), generate(tgt_spec), cfg.train.kernel)
    atomic_write_text(out / "eval.json", report.to_json())

    mean = ", ".join(f"{v:.4f}" for v in report.mean)
    sd = ", ".join(f"{v:.4f}" for v in report.sd)
    print(f"trained {cfg.train.epochs} epochs; artifacts in {out}")
    print(f"pushforward mean [{mean}] sd [{sd}] "
          f"cost {report.transport_cost:.4f} mmd2 {report.mmd2:.3e}")
    return 0


def _kernel_from_flags(args) -> KernelSpec:
    return KernelSpec(
        family=args.kernel_family,
        alpha=args.alpha,
        matern_order=args.matern_order,
        lengthscale=args.lengthscale,
    )


def cmd_eval(args) -> int:
    params = ckpt.load_params(args.checkpoint)
    source = read_points_csv(args.source)
    target = read_points_csv(args.target)
    report = evaluate(params, source, target, _kernel_from_flags(args))
    text = report.to_json()
    if args.out:
        atomic_write_text(Path(args.out), text)
        print(f"wrote report to {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_compare(args) -> int:
    cfg = load_config(args.config, args.set)
    out = _prepare_out_dir(cfg)
    rows = compare_runs(cfg.train, cfg.compare, cfg.source, cfg.target)
    csv_text = comparison_to_csv(rows)
    path = out / "comparison.csv"
    atomic_write_text(path, csv_text)
    if not args.quiet:
        print(csv_text, end="", file=sys.stderr)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mongemmd",
        description="Neural transport maps with a kernel matching penalty, "
                    "plus a Sinkhorn baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config_keys = _config_keys_help()

    p = sub.add_parser(
        "generate", help="draw a synthetic point cloud and write CSV",
        description="Draw a synthetic point cloud and write it as CSV "
                    "(header x0,x1,...; 17 significant digits).",
    )
    _field_flag(p, "--family", DatasetSpec, "family", required=True)
    _field_flag(p, "--n", DatasetSpec, "n", required=True)
    _field_flag(p, "--seed", DatasetSpec, "seed")
    _field_flag(p, "--noise", DatasetSpec, "noise")
    _field_flag(p, "--factor", DatasetSpec, "factor")
    _field_flag(p, "--mean", DatasetSpec, "mean", metavar="M0,M1,...")
    _field_flag(p, "--variance", DatasetSpec, "variance")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "train", help="fit the transport map from a YAML config",
        description="Train the map described by the config; writes loss.csv, "
                    "model.ckpt and eval.json into out_dir.",
        epilog=config_keys, formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("config", help="YAML config path")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key, e.g. --set train.epochs=100")
    p.add_argument("--resume", action="store_true",
                   help="continue from out_dir/model.ckpt if present")
    p.add_argument("--quiet", action="store_true", help="suppress progress lines")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "eval", help="evaluate a checkpoint on CSV data",
        description="Load a checkpoint, push the source CSV through the map, "
                    "and report pushforward statistics against the target CSV.",
    )
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--source", required=True, help="source points CSV")
    p.add_argument("--target", required=True, help="target points CSV")
    p.add_argument("--out", help="write the JSON report here (default: stdout)")
    _field_flag(p, "--kernel-family", KernelSpec, "family")
    _field_flag(p, "--alpha", KernelSpec, "alpha")
    _field_flag(p, "--matern-order", KernelSpec, "matern_order")
    _field_flag(p, "--lengthscale", KernelSpec, "lengthscale")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "compare", help="benchmark neural map vs sinkhorn across sizes",
        description="Run both methods on the Gaussian translation task at the "
                    "configured sizes and write comparison.csv into out_dir.",
        epilog=config_keys, formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("config", help="YAML config path")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key, e.g. --set compare.sizes=[200]")
    p.add_argument("--quiet", action="store_true", help="suppress the table echo")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
