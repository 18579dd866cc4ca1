import inspect
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import mongemmd
from mongemmd.config import (
    DEFAULT_SOURCE,
    DEFAULT_TARGET,
    CompareConfig,
    EvalConfig,
    RunConfig,
    apply_override,
    config_from_tree,
    config_reference,
    load_config,
)
from mongemmd.data import DatasetFamily, DatasetSpec
from mongemmd.errors import InputError
from mongemmd.kernel import KernelSpec
from mongemmd.optim import AdamHyper
from mongemmd.train import TrainConfig

MINIMAL = {"out_dir": "runs/demo"}


class TestDefaults:
    def test_minimal_tree_fills_defaults(self):
        cfg = config_from_tree(dict(MINIMAL))
        assert cfg.out_dir == "runs/demo"
        assert cfg.label == "run"
        assert cfg.source == DEFAULT_SOURCE
        assert cfg.target == DEFAULT_TARGET
        assert cfg.train.epochs == 3000
        assert cfg.train.batch_size == 500
        assert cfg.train.inv_lambda == 1e-6
        assert cfg.train.hidden_widths == (64,)
        assert cfg.train.optimizer.learning_rate == 1e-4
        assert cfg.eval.n == 1000
        assert cfg.eval.seed_offset == 10000
        assert cfg.compare.sizes == (200, 1000, 2000)
        assert RunConfig(out_dir="x") == config_from_tree({"out_dir": "x"})

    def test_default_task_is_the_gaussian_translation(self):
        cfg = config_from_tree(dict(MINIMAL))
        assert cfg.source.family is DatasetFamily.ISOTROPIC_GAUSSIAN
        assert cfg.source.mean == (0.0, 0.0)
        assert cfg.target.mean == (5.0, 5.0)

    def test_out_dir_required(self):
        with pytest.raises(InputError, match="out_dir"):
            config_from_tree({"label": "x"})


class TestSections:
    def test_full_tree(self):
        tree = {
            "out_dir": "runs/full",
            "label": "moons",
            "source": {"family": "two_moons", "n": 400, "seed": 3,
                       "noise": 0.02},
            "target": {"family": "two_circles", "n": 400, "seed": 4,
                       "factor": 0.6},
            "kernel": {"family": "matern", "matern_order": "five_halves",
                       "lengthscale": 2.0},
            "train": {"epochs": 10, "batch_size": 40, "inv_lambda": 0.001,
                      "hidden_widths": [32, 32], "hidden_activation": "tanh",
                      "learning_rate": 0.001, "beta1": 0.85, "beta2": 0.99,
                      "adam_eps": 1e-9, "seed": 5, "shuffle": False},
            "eval": {"n": 200, "seed_offset": 500},
            "compare": {"sizes": [50, 100], "epsilon": 0.3, "max_iters": 50,
                        "tol": 1e-6, "seed": 9, "size_cap": 1000},
        }
        cfg = config_from_tree(tree)
        assert cfg.source.family is DatasetFamily.TWO_MOONS
        assert cfg.source.noise == 0.02
        assert cfg.target.factor == 0.6
        assert cfg.train.kernel.lengthscale == 2.0
        assert cfg.train.kernel.matern_order.value == "five_halves"
        assert cfg.train.hidden_widths == (32, 32)
        assert cfg.train.hidden_activation.value == "tanh"
        assert cfg.train.optimizer.beta1 == 0.85
        assert cfg.train.optimizer.eps == 1e-9
        assert cfg.train.shuffle is False
        assert cfg.eval.n == 200
        assert cfg.compare.epsilon == 0.3
        assert cfg.compare.size_cap == 1000

    def test_partial_dataset_overrides_keep_other_defaults(self):
        cfg = config_from_tree({**MINIMAL, "source": {"n": 50}})
        assert cfg.source.n == 50
        assert cfg.source.seed == DEFAULT_SOURCE.seed
        assert cfg.source.mean == DEFAULT_SOURCE.mean


class TestErrorsNameTheKey:
    def test_unknown_top_level_key(self):
        with pytest.raises(InputError, match="config: unknown key"):
            config_from_tree({**MINIMAL, "trian": {}})

    def test_unknown_section_key(self):
        with pytest.raises(InputError, match="train: unknown key"):
            config_from_tree({**MINIMAL, "train": {"lr": 0.1}})

    def test_type_errors_are_prefixed(self):
        with pytest.raises(InputError, match="train.epochs"):
            config_from_tree({**MINIMAL, "train": {"epochs": "many"}})
        with pytest.raises(InputError, match="train.shuffle"):
            config_from_tree({**MINIMAL, "train": {"shuffle": "yes please"}})
        with pytest.raises(InputError, match="source.mean"):
            config_from_tree({**MINIMAL, "source": {"mean": "origin"}})
        with pytest.raises(InputError, match="kernel.alpha"):
            config_from_tree({**MINIMAL, "kernel": {"alpha": "big"}})

    def test_bool_is_not_an_integer(self):
        with pytest.raises(InputError, match="train.epochs"):
            config_from_tree({**MINIMAL, "train": {"epochs": True}})

    def test_domain_errors_are_prefixed(self):
        with pytest.raises(InputError, match="train"):
            config_from_tree({**MINIMAL, "train": {"batch_size": 1}})
        with pytest.raises(InputError, match="source"):
            config_from_tree({**MINIMAL, "source": {"factor": 2.0}})
        with pytest.raises(InputError, match="kernel"):
            config_from_tree({**MINIMAL, "kernel": {"alpha": -1.0}})

    def test_section_must_be_mapping(self):
        with pytest.raises(InputError, match="train"):
            config_from_tree({**MINIMAL, "train": [1, 2]})


class TestStandaloneConfigs:
    def test_eval_config_validation(self):
        with pytest.raises(InputError):
            EvalConfig(n=1)
        with pytest.raises(InputError):
            EvalConfig(seed_offset=0)

    def test_compare_config_validation(self):
        with pytest.raises(InputError):
            CompareConfig(sizes=())
        with pytest.raises(InputError):
            CompareConfig(sizes=(1,))
        with pytest.raises(InputError):
            CompareConfig(epsilon=0.0)
        with pytest.raises(InputError):
            CompareConfig(size_cap=1)


class TestOverrides:
    def test_override_scalar(self):
        tree = dict(MINIMAL)
        apply_override(tree, "train.epochs=7")
        assert tree["train"]["epochs"] == 7
        cfg = config_from_tree(tree)
        assert cfg.train.epochs == 7

    def test_override_creates_sections(self):
        tree = dict(MINIMAL)
        apply_override(tree, "compare.sizes=[10, 20]")
        assert config_from_tree(tree).compare.sizes == (10, 20)

    def test_override_values_parse_as_yaml(self):
        tree = dict(MINIMAL)
        apply_override(tree, "train.shuffle=false")
        apply_override(tree, "train.inv_lambda=1e-3")
        apply_override(tree, "label=pilot")
        cfg = config_from_tree(tree)
        assert cfg.train.shuffle is False
        assert cfg.train.inv_lambda == 1e-3
        assert cfg.label == "pilot"

    def test_override_requires_equals(self):
        with pytest.raises(InputError):
            apply_override(dict(MINIMAL), "train.epochs")

    def test_override_through_scalar_rejected(self):
        tree = {"out_dir": "x", "label": "y"}
        with pytest.raises(InputError):
            apply_override(tree, "label.inner=1")


class TestLoadConfig:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(
            "out_dir: runs/a\n"
            "train:\n"
            "  epochs: 4\n"
            "  batch_size: 16\n"
            "source:\n"
            "  family: two_moons\n"
            "  n: 64\n"
        )
        cfg = load_config(path)
        assert cfg.train.epochs == 4
        assert cfg.source.family is DatasetFamily.TWO_MOONS

    def test_overrides_apply_after_file(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("out_dir: runs/a\ntrain:\n  epochs: 4\n")
        cfg = load_config(path, overrides=["train.epochs=9"])
        assert cfg.train.epochs == 9

    def test_exponents_without_a_dot_are_numbers(self, tmp_path):
        # Plain YAML 1.1 reads both of these as strings.
        path = tmp_path / "run.yaml"
        path.write_text("out_dir: runs/a\ntrain:\n  inv_lambda: 1e-6\n"
                        "source:\n  mean: [1e3, 0.0]\n")
        cfg = load_config(path)
        assert cfg.train.inv_lambda == 1e-06
        assert cfg.source.mean == (1000.0, 0.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_config(tmp_path / "none.yaml")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("out_dir: [unclosed\n")
        with pytest.raises(InputError, match="invalid YAML"):
            load_config(path)

    def test_non_mapping_document(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(InputError):
            load_config(path)


REFERENCE = config_reference()
README = Path(__file__).resolve().parents[1] / "README.md"


def reference_markdown() -> str:
    """The README's config table as generated from the config dataclasses."""
    lines = ["| Key | Default | Meaning |", "| --- | --- | --- |"]
    for key, default, text in REFERENCE:
        shown = "required" if default is None else f"`{default}`"
        lines.append(f"| `{key}` | {shown} | {text} |")
    return "\n".join(lines)


def tree_with(key: str, value) -> dict:
    tree = dict(MINIMAL)
    *sections, leaf = key.split(".")
    node = tree
    for name in sections:
        node = node.setdefault(name, {})
    node[leaf] = value
    return tree


def wrong_values(default):
    """Values of another YAML type than a key's documented default."""
    texts = st.text(max_size=6)
    if isinstance(default, bool):
        return st.one_of(st.integers(), st.floats(), texts, st.lists(st.booleans(), max_size=2))
    if isinstance(default, int):
        return st.one_of(st.booleans(), st.floats(), texts, st.lists(st.integers(), max_size=2))
    if default is None or isinstance(default, float):
        return st.one_of(st.booleans(), texts, st.lists(st.floats(), max_size=2))
    if isinstance(default, str):
        return st.one_of(st.booleans(), st.integers(), st.floats(), st.lists(texts, max_size=2))
    return st.one_of(st.booleans(), st.integers(), st.floats(), texts,
                     st.lists(st.one_of(texts, st.booleans()), min_size=1, max_size=2))


class TestReference:
    def test_every_key_is_documented_once(self):
        keys = [key for key, _, _ in REFERENCE]
        assert len(keys) == len(set(keys))
        assert {"out_dir", "label", "cost.family", "train.adam_eps",
                "compare.epsilon"} <= set(keys)

    @pytest.mark.parametrize("key,default", [(k, d) for k, d, _ in REFERENCE if d is not None],
                             ids=[k for k, d, _ in REFERENCE if d is not None])
    def test_documented_default_is_the_default(self, key, default):
        tree = dict(MINIMAL)
        apply_override(tree, f"{key}={default}")
        assert config_from_tree(tree) == config_from_tree(dict(MINIMAL))

    @pytest.mark.parametrize("key,default", [(k, d) for k, d, _ in REFERENCE],
                             ids=[k for k, _, _ in REFERENCE])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_wrong_type_names_the_key(self, key, default, data):
        # A required key (no default) is a string, like out_dir.
        value = data.draw(wrong_values("" if default is None else yaml.safe_load(default)))
        with pytest.raises(InputError, match=re.escape(key)):
            config_from_tree(tree_with(key, value))

    def test_readme_table_is_the_generated_one(self):
        text = README.read_text(encoding="utf-8")
        block = text.split("<!-- config-reference:begin -->\n")[1]
        block = block.split("\n<!-- config-reference:end -->")[0]
        assert block == reference_markdown()

    def test_readme_python_api_names_only_public_names(self):
        section = README.read_text(encoding="utf-8").split("## Python API\n")[1].split("\n## ")[0]
        fence = re.compile(r"```.*?```", re.S)
        # Names the example calls as ``m.name``, and each `name` or `name(...)` of the prose.
        named = {n for block in fence.findall(section) for n in re.findall(r"\bm\.(\w+)", block)}
        named |= {m[1] for token in re.findall(r"`([^`]+)`", fence.sub("", section))
                  if (m := re.match(r"(\w+)(\(|$)", token))}
        # The one bare argument name it mentions, which is not a package name.
        assert "tol" in inspect.signature(mongemmd.sinkhorn_solve).parameters
        named.discard("tol")
        assert {"monge_mmd_loss_with_grad", "mlp_forward_batch"} <= named
        assert [n for n in sorted(named) if not hasattr(mongemmd, n)] == []
        assert [n for n in mongemmd.__all__ if not hasattr(mongemmd, n)] == []
        assert len(mongemmd.__all__) == len(set(mongemmd.__all__))

    def test_readme_layout_names_every_module(self):
        block = README.read_text(encoding="utf-8").split("## Layout\n")[1].split("```")[1]
        named = re.findall(r"^  (\w+\.py) ", block, re.M)
        package = Path(mongemmd.__file__).parent
        assert sorted(named) == sorted(p.name for p in package.glob("*.py")
                                       if p.name != "__init__.py")

    def test_only_the_squared_euclidean_cost_is_accepted(self):
        cfg = config_from_tree({**MINIMAL, "cost": {"family": "squared_euclidean"}})
        assert cfg == config_from_tree(dict(MINIMAL))
        with pytest.raises(InputError, match="cost.family"):
            config_from_tree({**MINIMAL, "cost": {"family": "manhattan"}})
        with pytest.raises(InputError, match="cost: unknown key"):
            config_from_tree({**MINIMAL, "cost": {"p": 1}})

    def test_epsilon_may_be_null(self):
        cfg = config_from_tree({**MINIMAL, "compare": {"epsilon": None}})
        assert cfg.compare.epsilon is None


TINY = 5e-324  # the smallest positive float
BELOW_ONE = 0.9999999999999999  # the largest float below 1
INF, NAN = float("inf"), float("nan")
HUGE = 10**400  # an integer too large for a float

# (YAML key, last accepted values, first refused values) of every bounded key,
# read off the ranges that the config dataclasses have always enforced. Only
# the infinite tol and epsilon were once accepted.
BOUNDARIES = [
    ("train.epochs", [0], [-1]),
    ("train.batch_size", [2], [1]),
    ("train.inv_lambda", [0.0], [-1e-300, INF, HUGE]),
    ("train.hidden_widths", [[1]], [[], [0]]),
    ("train.seed", [0], [-1]),
    ("train.learning_rate", [TINY], [0.0]),
    ("train.beta1", [0.0, BELOW_ONE], [-TINY, 1.0]),
    ("train.beta2", [0.0, BELOW_ONE], [-TINY, 1.0]),
    ("train.adam_eps", [TINY], [0.0]),
    ("source.n", [1], [0]),
    ("source.seed", [0], [-1]),
    ("source.noise", [0.0], [-TINY]),
    ("source.factor", [TINY, BELOW_ONE], [0.0, 1.0]),
    ("source.mean", [[0.0]], [[], [NAN], [INF]]),
    ("source.variance", [TINY], [0.0]),
    ("kernel.alpha", [TINY], [0.0, NAN, INF, HUGE]),
    ("kernel.lengthscale", [TINY], [0.0, NAN, INF]),
    ("eval.n", [2], [1]),
    ("eval.seed_offset", [1], [0]),
    ("compare.sizes", [[2]], [[], [1]]),
    ("compare.epsilon", [None, TINY], [0.0, INF]),
    ("compare.tol", [TINY], [0.0, INF]),
    ("compare.max_iters", [1], [0]),
    ("compare.seed", [0], [-1]),
    ("compare.size_cap", [2], [1]),
]
ACCEPTED = [(key, v) for key, ok, _ in BOUNDARIES for v in ok]
REFUSED = [(key, v) for key, _, bad in BOUNDARIES for v in bad]


def construct(key: str, value):
    """The dataclass that holds ``key``, built directly with ``value`` for it."""
    section, leaf = key.split(".")
    if section == "train" and leaf in ("learning_rate", "beta1", "beta2", "adam_eps"):
        return replace(AdamHyper(), **{"eps" if leaf == "adam_eps" else leaf: value})
    base = {"train": TrainConfig(), "source": DEFAULT_SOURCE, "kernel": KernelSpec(),
            "eval": EvalConfig(), "compare": CompareConfig()}[section]
    return replace(base, **{leaf: value})


class TestRangeBoundaries:
    @pytest.mark.parametrize("key,value", ACCEPTED, ids=[f"{k}={v!r}" for k, v in ACCEPTED])
    def test_last_accepted_value(self, key, value):
        config_from_tree(tree_with(key, value))
        construct(key, value)

    @pytest.mark.parametrize("key,value", REFUSED, ids=[
        f"{k}={'10**400' if v is HUGE else repr(v)}" for k, v in REFUSED])
    def test_first_refused_value(self, key, value):
        section = key.split(".")[0]
        with pytest.raises(InputError, match=rf"^{section}[.:]"):
            config_from_tree(tree_with(key, value))
        with pytest.raises(InputError):
            construct(key, value)

    def test_message_names_the_key_and_the_range(self):
        with pytest.raises(InputError, match=re.escape(
                "train.adam_eps must be finite and > 0, got 0.0")):
            config_from_tree(tree_with("train.adam_eps", 0.0))
        with pytest.raises(InputError, match=re.escape(
                "hidden_widths must be nonempty, each >= 1, got (1, 0)")):
            TrainConfig(hidden_widths=[1, 0])
        with pytest.raises(InputError, match=re.escape("n must be >= 2, got 1")):
            EvalConfig(n=1)
        with pytest.raises(InputError, match="^inv_lambda must be finite, got 10{400}$"):
            TrainConfig(inv_lambda=HUGE)

    def test_lists_and_enum_names_are_coerced(self):
        spec = replace(DEFAULT_SOURCE, family="two_moons", mean=[1, 2])
        assert spec.family is DatasetFamily.TWO_MOONS
        assert spec.mean == (1.0, 2.0) and all(type(v) is float for v in spec.mean)
        assert CompareConfig(sizes=[8, 12]).sizes == (8, 12)
        with pytest.raises(ValueError):
            KernelSpec(family="laplace")


# One instance of each config dataclass, and (instance, field name, key) for
# every field declared with ``setting``.
BASES = [DEFAULT_SOURCE, KernelSpec(), TrainConfig(), AdamHyper(), EvalConfig(), CompareConfig(),
         config_from_tree(dict(MINIMAL))]
SETTINGS = [(base, f.name, f.metadata["key"] or f.name)
            for base in BASES for f in fields(base) if "help" in f.metadata]


class TestConstruction:
    """Built in Python, a config dataclass refuses what the config file refuses."""

    def test_every_config_dataclass_is_covered(self):
        assert {type(base) for base, _, _ in SETTINGS} == {
            DatasetSpec, KernelSpec, TrainConfig, AdamHyper, EvalConfig, CompareConfig, RunConfig}

    @pytest.mark.parametrize("base,name,key", SETTINGS,
                             ids=[f"{type(b).__name__}.{k}" for b, _, k in SETTINGS])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_wrong_type_names_the_key(self, base, name, key, data):
        value = data.draw(wrong_values(getattr(base, name)))
        with pytest.raises(InputError, match=rf"^{re.escape(key)}: expected "):
            replace(base, **{name: value})

    @pytest.mark.parametrize("build,key", [
        (lambda: TrainConfig(shuffle="no"), "shuffle"),
        (lambda: TrainConfig(hidden_widths=[8.9]), "hidden_widths"),
        (lambda: CompareConfig(sizes=[200.5]), "sizes"),
        (lambda: TrainConfig(epochs=2.5), "epochs"),
        (lambda: DatasetSpec(family="two_moons", n=2.5), "n"),
        (lambda: KernelSpec(alpha="1"), "alpha"),
    ], ids=["shuffle", "hidden_widths", "sizes", "epochs", "n", "alpha"])
    def test_wrong_type_once_accepted_is_refused(self, build, key):
        with pytest.raises(InputError, match=rf"^{key}: expected "):
            build()

    def test_numpy_scalars_are_stored_as_python_numbers(self):
        spec = DatasetSpec(family="two_moons", n=np.int64(5), noise=np.float32(0.25))
        assert type(spec.n) is int and spec.n == 5
        assert type(spec.noise) is float and spec.noise == 0.25
        assert type(AdamHyper(learning_rate=1).learning_rate) is float
        assert TrainConfig(hidden_widths=[np.int32(3)]).hidden_widths == (3,)

    def test_file_messages_keep_their_wording(self):
        with pytest.raises(InputError, match=re.escape(
                "train.epochs: expected an integer, got 'many'")):
            config_from_tree(tree_with("train.epochs", "many"))
        with pytest.raises(InputError, match=re.escape(
                "kernel.family: expected one of gaussian, matern, got 'laplace'")):
            config_from_tree(tree_with("kernel.family", "laplace"))
