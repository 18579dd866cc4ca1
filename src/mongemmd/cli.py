"""Command-line entry point.

Subcommands:
    generate   draw a synthetic point cloud and write it as CSV
    train      fit the transport map from a YAML config; writes model.ckpt (the run
               train() returns), loss.csv from its history and eval.json into out_dir;
               --resume reads model.ckpt only, as the state train() continues
    eval       push a CSV through a saved checkpoint and report statistics
    compare    neural map vs Sinkhorn baseline across sample sizes

Exit codes: 0 success, 2 usage/config/input problems, 3 numeric failure
during computation. All artifacts are written atomically, so an interrupted
run never leaves a truncated file.
"""

from __future__ import annotations

import argparse
import sys
import typing
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
from .train import train
from .util import atomic_write_text, field_types, valid_range


def _config_command(sub, name: str, func, example: str, switches: dict[str, str], **kw) -> None:
    """Add subcommand ``name``, run from a YAML config: ``config``, ``--set`` and the
    store-true ``switches`` (flag -> help), with every config key listed after its help."""
    lines = ["config file keys (YAML; defaults in parentheses):"]
    for key, default, text in config_reference():
        head = f"{key} ({'required' if default is None else default})"
        lines.append(f"  {head:<34} {text}")
    p = sub.add_parser(name, epilog="\n".join(lines) + "\n",
                       formatter_class=argparse.RawDescriptionHelpFormatter, **kw)
    p.add_argument("config", help="YAML config path")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help=f"override a config key, e.g. --set {example}")
    for flag, text in switches.items():
        p.add_argument(flag, action="store_true", help=text)
    p.set_defaults(func=func)


# eval's kernel family flag; its other flags are named after their fields.
_KERNEL_DESTS = {"family": "kernel_family"}


def _spec_flags(parser, cls, dests: dict[str, str] = {}) -> None:
    """Add a flag per field of spec ``cls``, ``--name`` or ``--`` + ``dests[name]``: typed,
    documented, ranged and defaulted by the field, and required when it has no default."""
    for f in fields(cls):
        kind, default = field_types(cls)[f.name], f.default
        text = "; ".join(filter(None, (f.metadata["help"], valid_range(cls, f))))
        kw = {"type": kind} if kind in (int, float) else {}
        if isinstance(kind, type) and issubclass(kind, Enum):
            kw["choices"] = [e.value for e in kind]
        elif typing.get_origin(kind) is tuple:
            kw["metavar"] = "{0}0,{0}1,...".format(f.name[0].upper())
        if default is not MISSING:
            kw["default"] = (",".join(map(str, default)) if isinstance(default, tuple) else
                             default.value if isinstance(default, Enum) else default)
            text += " (default: %(default)s)"
        dest = dests.get(f.name, f.name)
        parser.add_argument("--" + dest.replace("_", "-"), help=text,
                            required=default is MISSING, **kw)


def _spec_from_flags(args, cls, dests: dict[str, str] = {}):
    """The ``cls`` that the flags of ``_spec_flags`` describe in ``args``."""
    values = {f.name: getattr(args, dests.get(f.name, f.name)) for f in fields(cls)}
    for name, kind in field_types(cls).items():
        if typing.get_origin(kind) is tuple:  # given as "v0,v1,..."
            try:
                values[name] = tuple(map(typing.get_args(kind)[0], values[name].split(",")))
            except ValueError as exc:
                raise InputError(f"--{name} expects comma-separated numbers, "
                                 f"got {values[name]!r}") from exc
    return cls(**values)


def cmd_generate(args) -> int:
    points = generate(_spec_from_flags(args, DatasetSpec))
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

    source = generate(cfg.source)
    target = generate(cfg.target)

    state = None
    if args.resume and ckpt_path.exists():
        state = ckpt.load_train_state(ckpt_path)
        print(f"resuming {cfg.label} at epoch {state.epoch}", file=sys.stderr)

    every = max(1, cfg.train.epochs // 10)

    def progress(epoch, values):
        if not args.quiet and (epoch % every == 0 or epoch == cfg.train.epochs):
            print(
                f"epoch {epoch}: objective={values.objective:.6g} "
                f"mmd2={values.mmd2:.6g} cost={values.mean_cost:.6g}",
                file=sys.stderr,
            )

    state = train(cfg.train, source, target, state=state, progress=progress)

    ckpt.save_train_state(ckpt_path, state)
    atomic_write_text(out / "loss.csv", state.history.to_csv())

    src_spec, tgt_spec = _test_specs(cfg)
    report = evaluate(state.params, generate(src_spec), generate(tgt_spec), cfg.train.kernel)
    atomic_write_text(out / "eval.json", report.to_json())

    mean = ", ".join(f"{v:.4f}" for v in report.mean)
    sd = ", ".join(f"{v:.4f}" for v in report.sd)
    print(f"trained {cfg.train.epochs} epochs; artifacts in {out}")
    print(f"pushforward mean [{mean}] sd [{sd}] "
          f"cost {report.transport_cost:.4f} mmd2 {report.mmd2:.3e}")
    return 0


def cmd_eval(args) -> int:
    params = ckpt.load_train_state(args.checkpoint).params
    source = read_points_csv(args.source)
    target = read_points_csv(args.target)
    report = evaluate(params, source, target, _spec_from_flags(args, KernelSpec, _KERNEL_DESTS))
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

    p = sub.add_parser(
        "generate", help="draw a synthetic point cloud and write CSV",
        description="Draw a synthetic point cloud and write it as CSV "
                    "(header x0,x1,...; 17 significant digits).",
    )
    _spec_flags(p, DatasetSpec)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_generate)

    _config_command(sub, "train", cmd_train, "train.epochs=100",
                    {"--resume": "continue from out_dir/model.ckpt if present",
                     "--quiet": "suppress progress lines"},
                    help="fit the transport map from a YAML config",
                    description="Train the map described by the config; writes loss.csv, "
                                "model.ckpt and eval.json into out_dir.")

    p = sub.add_parser(
        "eval", help="evaluate a checkpoint on CSV data",
        description="Load a checkpoint, push the source CSV through the map, "
                    "and report pushforward statistics against the target CSV.",
    )
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--source", required=True, help="source points CSV")
    p.add_argument("--target", required=True, help="target points CSV")
    p.add_argument("--out", help="write the JSON report here (default: stdout)")
    _spec_flags(p, KernelSpec, _KERNEL_DESTS)
    p.set_defaults(func=cmd_eval)

    _config_command(sub, "compare", cmd_compare, "compare.sizes=[200]",
                    {"--quiet": "suppress the table echo"},
                    help="benchmark neural map vs sinkhorn across sizes",
                    description="Run both methods on the Gaussian translation task at the "
                                "configured sizes and write comparison.csv into out_dir.")

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
