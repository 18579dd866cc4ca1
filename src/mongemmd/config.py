"""Run configuration: YAML schema, validation, and dotted-key overrides.

A run is described by one YAML file. Each key is a field of a config
dataclass declared with ``util.setting``, which holds the key's default,
type and help line; this module reads every section, and builds the
``--help`` and README key tables, from those fields alone. Scalar keys can
be overridden on the command line with ``--set section.key=value`` (values
parsed as YAML). Validation errors always name the offending key.
"""

from __future__ import annotations

import functools
import re
import types
import typing
from dataclasses import MISSING, Field, dataclass, fields, replace
from enum import Enum
from pathlib import Path

import yaml

from .compare import CompareConfig
from .data import DEFAULT_SOURCE, DEFAULT_TARGET, DatasetSpec
from .errors import InputError
from .kernel import KernelSpec
from .optim import AdamHyper
from .train import TrainConfig
from .util import setting


@dataclass(frozen=True)
class EvalConfig:
    """Held-out evaluation: fresh draws with shifted seeds, never training data."""

    n: int = setting(1000, "held-out test points per side")
    seed_offset: int = setting(10000, "test seed = data seed + offset")

    def __post_init__(self):
        if self.n < 2:
            raise InputError(f"eval.n must be >= 2, got {self.n}")
        if self.seed_offset < 1:
            raise InputError(f"eval.seed_offset must be >= 1, got {self.seed_offset}")


@dataclass(frozen=True)
class RunConfig:
    out_dir: str = setting(MISSING, "artifact directory")
    source: DatasetSpec
    target: DatasetSpec
    train: TrainConfig
    eval: EvalConfig = EvalConfig()
    compare: CompareConfig = CompareConfig()
    label: str = setting("run", "free-form run name")


# Each section's keys and their defaults: the keyed fields of these objects,
# in table order. The train section also carries the Adam keys.
_SECTIONS = {
    "source": (DEFAULT_SOURCE,),
    "target": (DEFAULT_TARGET,),
    "kernel": (KernelSpec(),),
    "train": (TrainConfig(), AdamHyper()),
    "eval": (EvalConfig(),),
    "compare": (CompareConfig(),),
}

# The only transport cost; the section stays readable for older configs.
_COST_FAMILY = "squared_euclidean"


class _Loader(yaml.SafeLoader):
    """Safe YAML 1.1 loading that also reads 1e-6 and 1.0e6 as numbers, as YAML 1.2 does."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?[0-9][0-9_]*(?:\.[0-9_]*)?[eE][-+]?[0-9]+$"),
    list("-+0123456789"),
)


def _expect_mapping(node, where: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise InputError(f"{where}: expected a mapping, got {type(node).__name__}")
    return dict(node)


def _reject_unknown(node: dict, allowed, where: str) -> None:
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise InputError(f"{where}: unknown key(s) {', '.join(unknown)}")


@functools.cache
def field_types(cls) -> dict:
    """The resolved annotations of a config dataclass, by field name."""
    return typing.get_type_hints(cls)


def _keys(cls) -> dict[str, Field]:
    """YAML key -> field, for the fields of ``cls`` declared with ``setting``."""
    return {f.metadata.get("key", f.name): f for f in fields(cls) if "help" in f.metadata}


def _convert(kind, v, where: str):
    """``v`` as a value of the annotated type ``kind``; bool is not a number."""
    if typing.get_origin(kind) is types.UnionType:
        if v is None:
            return None
        kind = next(a for a in typing.get_args(kind) if a is not type(None))
    if typing.get_origin(kind) is tuple:
        if not isinstance(v, (list, tuple)) or not v:
            raise InputError(f"{where}: expected a nonempty list, got {v!r}")
        return tuple(_convert(typing.get_args(kind)[0], x, where) for x in v)
    if kind is bool:
        if not isinstance(v, bool):
            raise InputError(f"{where}: expected true/false, got {v!r}")
        return v
    if kind is int:
        if isinstance(v, bool) or not isinstance(v, int):
            raise InputError(f"{where}: expected an integer, got {v!r}")
        return v
    if kind is float:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise InputError(f"{where}: expected a number, got {v!r}")
        return float(v)
    if not isinstance(v, str):
        raise InputError(f"{where}: expected a string, got {v!r}")
    if issubclass(kind, Enum):
        try:
            return kind(v)
        except ValueError:
            raise InputError(f"{where}: expected one of {_choices(kind)}, got {v!r}") from None
    return v


def _choices(kind) -> str:
    return ", ".join(e.value for e in kind)


def _read(base, node: dict, where: str, **fixed):
    """``base`` with the keys given in ``node`` replaced; unknown keys are refused."""
    keys = _keys(type(base))
    _reject_unknown(node, keys, where)
    hints = field_types(type(base))
    changes = {}
    for key, v in node.items():
        name = keys[key].name
        changes[name] = _convert(hints[name], v, f"{where}.{key}")
    try:
        return replace(base, **fixed, **changes)
    except (InputError, ValueError) as exc:
        raise InputError(f"{where}: {exc}") from exc


def _check_cost(node) -> None:
    node = _expect_mapping(node, "cost")
    _reject_unknown(node, {"family"}, "cost")
    if node.get("family", _COST_FAMILY) != _COST_FAMILY:
        raise InputError(f"cost.family: only {_COST_FAMILY} is supported, got {node['family']!r}")


def config_from_tree(tree: dict) -> RunConfig:
    """Validate a parsed YAML tree into a RunConfig; errors name their key."""
    tree = _expect_mapping(tree, "config")
    top = _keys(RunConfig)
    _reject_unknown(tree, {*top, *_SECTIONS, "cost"}, "config")
    if "out_dir" not in tree:
        raise InputError("config: out_dir is required")
    scalars = {top[k].name: _convert(str, tree[k], k) for k in top if k in tree}
    _check_cost(tree.get("cost"))
    node = {name: _expect_mapping(tree.get(name), name) for name in _SECTIONS}
    adam_keys = _keys(AdamHyper)
    optimizer = _read(AdamHyper(), {k: v for k, v in node["train"].items() if k in adam_keys},
                      "train")
    train = {k: v for k, v in node["train"].items() if k not in adam_keys}
    return RunConfig(
        source=_read(DEFAULT_SOURCE, node["source"], "source"),
        target=_read(DEFAULT_TARGET, node["target"], "target"),
        train=_read(TrainConfig(), train, "train",
                    kernel=_read(KernelSpec(), node["kernel"], "kernel"), optimizer=optimizer),
        eval=_read(EvalConfig(), node["eval"], "eval"),
        compare=_read(CompareConfig(), node["compare"], "compare"),
        **scalars,
    )


def _yaml_text(value) -> str:
    """A default written as it would be in the config file or after ``--set``."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return "[" + ", ".join(_yaml_text(v) for v in value) + "]"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float) and "." not in repr(value):
        return repr(value).replace("e", ".0e")  # YAML 1.1 reads 1e-06 as a string
    return str(value)


def _rows(prefix: str, base) -> list[tuple[str, str | None, str]]:
    cls = base if isinstance(base, type) else type(base)
    hints = field_types(cls)
    rows = []
    for key, f in _keys(cls).items():
        default = getattr(base, f.name, MISSING)
        text = f.metadata["help"]
        if isinstance(hints[f.name], type) and issubclass(hints[f.name], Enum):
            text = f"{text}: {_choices(hints[f.name])}"
        rows.append((prefix + key, None if default is MISSING else _yaml_text(default), text))
    return rows


def config_reference() -> list[tuple[str, str | None, str]]:
    """(dotted key, default as YAML or None when required, help) for every config key."""
    rows = _rows("", RunConfig)
    for section, bases in _SECTIONS.items():
        for base in bases:
            rows += _rows(section + ".", base)
    rows.append(("cost.family", _COST_FAMILY, "transport cost; the only value"))
    return rows


def apply_override(tree: dict, assignment: str) -> None:
    """Apply one ``--set dotted.key=value`` onto the raw config tree in place."""
    key, sep, raw = assignment.partition("=")
    key = key.strip()
    if not sep or not key:
        raise InputError(f"--set expects dotted.key=value, got {assignment!r}")
    try:
        value = yaml.load(raw, Loader=_Loader) if raw.strip() else None
    except yaml.YAMLError as exc:
        raise InputError(f"--set {key}: cannot parse value {raw!r}: {exc}") from exc
    parts = key.split(".")
    node = tree
    for part in parts[:-1]:
        nxt = node.get(part)
        if nxt is None:
            nxt = {}
            node[part] = nxt
        if not isinstance(nxt, dict):
            raise InputError(f"--set {key}: {part} is not a section")
        node = nxt
    node[parts[-1]] = value


def load_config(path, overrides: list[str] | None = None) -> RunConfig:
    """Read and validate a YAML run configuration file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    try:
        tree = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise InputError(f"{path}: invalid YAML: {exc}") from exc
    tree = _expect_mapping(tree, str(path))
    for assignment in overrides or []:
        apply_override(tree, assignment)
    return config_from_tree(tree)
