"""Config validation: field-path errors, canonical JSON, hashing."""

import dataclasses
import json

import pytest

from mhnes.config import (
    ConfigError,
    DataSpec,
    ExperimentConfig,
    SearchHyperparams,
    TrainHyperparams,
)


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
        spec = DataSpec.from_dict({"path": "some/file.bin"})
        assert spec.path == "some/file.bin"

    def test_split_sizes_positive(self):
        with pytest.raises(ConfigError, match=r"data\.n_val"):
            DataSpec.from_dict({"n_val": 0})
