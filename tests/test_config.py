"""Config validation: field-path errors, canonical JSON, hashing."""

import copy
import dataclasses
import json

import pytest

from mhnes import cli, runner
from mhnes.config import (
    ConfigError,
    DataSpec,
    ExperimentConfig,
    SearchHyperparams,
    TrainHyperparams,
)

# one wrong-typed field per case: (field path, JSON value)
WRONG_TYPES = [
    ("train.epochs", "2"),
    ("train.epochs", 1.5),
    ("train.epochs", True),
    ("data.n_train", 8.5),
    ("train.lr", "0.1"),
    ("data.path", 3),
    ("seeds", 3),
    ("model.ops", [["skip_connect"]]),
]

# one wrong-typed field per hand-built config: (config, expected error)
HAND_BUILT_WRONG_TYPES = [
    (ExperimentConfig(train=TrainHyperparams(epochs=1.5)),
     "config.train.epochs: expected int, got 1.5"),
    (ExperimentConfig(train=TrainHyperparams(lr="0.1")),
     "config.train.lr: expected float, got '0.1'"),
    (ExperimentConfig(train=TrainHyperparams(batch=True)),
     "config.train.batch: expected int, got True"),
    (ExperimentConfig(data=DataSpec(path=3)),
     "config.data.path: expected str | None, got 3"),
    (ExperimentConfig(seeds=[0]), "config.seeds: expected a tuple, got [0]"),
]

# a run small enough to finish quickly if a bad value got through
SMALL_RUN = {
    "method": "nes_rs", "seeds": [0], "pool_size": 1,
    "data": {"n_train": 8, "n_val": 4, "n_test": 4},
    "train": {"epochs": 1, "batch": 8},
}


def with_field(path, value, base):
    """A copy of the config dict ``base`` with the field at dotted ``path`` set."""
    d = copy.deepcopy(base)
    *sections, key = path.split(".")
    node = d
    for name in sections:
        node = node.setdefault(name, {})
    node[key] = value
    return d


class TestValidation:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

    def test_unknown_field_names_path(self):
        with pytest.raises(ConfigError, match=r"config\.budget"):
            ExperimentConfig.from_dict({"budget": 3})
        with pytest.raises(ConfigError, match=r"search\.lr"):
            ExperimentConfig.from_dict({"search": {"lr": 0.1}})
        with pytest.raises(ConfigError, match=r"model\.in_channels"):
            ExperimentConfig.from_dict({"model": {"in_channels": 1}})

    def test_out_of_range_names_path(self):
        with pytest.raises(ConfigError, match=r"search\.batch"):
            ExperimentConfig.from_dict({"search": {"batch": 0}})
        with pytest.raises(ConfigError, match=r"data\.classes"):
            ExperimentConfig.from_dict({"data": {"classes": 1}})
        with pytest.raises(ConfigError, match=r"train\.label_smoothing"):
            ExperimentConfig.from_dict({"train": {"label_smoothing": 1.0}})
        with pytest.raises(ConfigError, match=r"model\.ops"):
            ExperimentConfig.from_dict({"model": {"ops": ["conv_9x9"]}})

    def test_unknown_method(self):
        with pytest.raises(ConfigError, match="method"):
            ExperimentConfig.from_dict({"method": "grid_search"})

    def test_warmstart_must_fit_budget(self):
        with pytest.raises(ConfigError, match="warmstart"):
            SearchHyperparams(epochs=10, warmstart_epochs=10).validate()

    def test_partial_k_divisibility(self):
        with pytest.raises(ConfigError, match="partial_k"):
            ExperimentConfig.from_dict(
                {"model": {"head_width": 6}, "search": {"partial_k": 4}}
            )

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seeds"):
            ExperimentConfig.from_dict({"seeds": [-1]})

    @pytest.mark.parametrize("path,value", WRONG_TYPES)
    def test_wrong_type_rejected_with_its_path(self, tmp_path, capsys, path, value):
        out = tmp_path / "run"
        d = with_field(path, value, {**SMALL_RUN, "out_dir": str(out)})
        with pytest.raises(ConfigError, match=rf"^config\.{path}\b.*: expected"):
            ExperimentConfig.from_dict(d)
        (tmp_path / "c.json").write_text(json.dumps(d))
        assert cli.main(["baseline", "--config", str(tmp_path / "c.json")]) == 1
        assert f"config.{path}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cfg,error", HAND_BUILT_WRONG_TYPES,
                             ids=[e.split(":")[0] for _, e in HAND_BUILT_WRONG_TYPES])
    def test_hand_built_wrong_type_rejected_with_its_path(self, tmp_path, cfg, error):
        with pytest.raises(ConfigError) as exc:
            cfg.validate()
        assert str(exc.value) == error
        out = tmp_path / "run"
        with pytest.raises(ConfigError, match=error.split(":")[0]):
            runner.run(dataclasses.replace(cfg, out_dir=str(out)))
        assert not out.exists()

    def test_ints_accepted_unconverted_in_float_fields(self):
        cfg = ExperimentConfig.from_dict({"train": {"lr": 1}, "data": {"noise_std": 0}})
        assert type(cfg.train.lr) is int and type(cfg.data.noise_std) is int
        assert '"lr": 1,' in cfg.canonical_json()

    def test_val_fraction_bounds(self):
        with pytest.raises(ConfigError, match="val_fraction"):
            SearchHyperparams(val_fraction=1.0).validate()


class TestSerialization:
    def test_roundtrip_through_dict(self):
        cfg = ExperimentConfig(method="nes_rs", seeds=(3, 4), pool_size=7)
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_canonical_json_is_stable(self):
        cfg = ExperimentConfig()
        assert cfg.canonical_json() == cfg.canonical_json()
        assert cfg.config_hash() == cfg.config_hash()

    def test_hash_changes_with_any_field(self):
        base = ExperimentConfig()
        tweaked = dataclasses.replace(base, train=TrainHyperparams(epochs=99))
        assert base.config_hash() != tweaked.config_hash()

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            ExperimentConfig.load(tmp_path / "nope.json")

    def test_load_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            ExperimentConfig.load(p)

    def test_load_valid_file(self, tmp_path):
        p = tmp_path / "ok.json"
        p.write_text(json.dumps({"method": "mhe_sample", "seeds": [1]}))
        cfg = ExperimentConfig.load(p)
        assert cfg.method == "mhe_sample" and cfg.seeds == (1,)


class TestDataSpec:
    def test_path_passthrough(self):
        cfg = ExperimentConfig.from_dict({"data": {"path": "some/file.bin"}})
        assert cfg.data.path == "some/file.bin"

    def test_split_sizes_positive(self):
        with pytest.raises(ConfigError, match=r"data\.n_val"):
            ExperimentConfig.from_dict({"data": {"n_val": 0}})
