import re
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from mongemmd.config import (
    DEFAULT_SOURCE,
    DEFAULT_TARGET,
    CompareConfig,
    EvalConfig,
    apply_override,
    config_from_tree,
    config_reference,
    load_config,
)
from mongemmd.data import DatasetFamily
from mongemmd.errors import InputError

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
