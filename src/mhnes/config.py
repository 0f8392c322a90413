"""Declarative experiment configuration: dataclasses, JSON I/O, validation.

Every run is a pure function of one config plus its seed list; configs
serialize to canonical JSON whose sha256 hash identifies the run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from .space import OP_BUILDERS, ModelSpec

METHODS = (
    "pcdarts",
    "drnas",
    "randomnas",
    "mhe_rs",
    "mhe_sample",
    "nes_rs",
    "deepens_sample",
    "deepens_rs",
    "hyperdeepens_rs",
)

ONE_SHOT_METHODS = ("pcdarts", "drnas", "randomnas")


class ConfigError(ValueError):
    pass


def _take(d, cls, path):
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    known = {f.name for f in dataclasses.fields(cls)}
    for key in d:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown field")
    return d


def _check(cond, path, msg):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


@dataclass(frozen=True)
class DataSpec:
    classes: int = 4
    image_size: int = 16
    n_train: int = 2000
    n_val: int = 500
    n_test: int = 500
    noise_std: float = 0.15
    seed: int = 0
    path: str | None = None  # load a stored bundle instead of generating

    def validate(self, path="data"):
        _check(self.classes >= 2, f"{path}.classes", "must be >= 2")
        _check(self.image_size >= 8, f"{path}.image_size", "must be >= 8")
        for name in ("n_train", "n_val", "n_test"):
            _check(getattr(self, name) >= 1, f"{path}.{name}", "must be >= 1")
        _check(self.noise_std >= 0, f"{path}.noise_std", "must be >= 0")
        return self

    @classmethod
    def from_dict(cls, d, path="data"):
        return cls(**_take(d, cls, path)).validate(path)


def model_spec_from_dict(d, path="model"):
    d = dict(_take(d, ModelSpec, path))
    if "ops" in d:
        d["ops"] = tuple(d["ops"])
    spec = ModelSpec(**d)
    _check(spec.num_classes >= 2, f"{path}.num_classes", "must be >= 2")
    _check(spec.num_heads >= 1, f"{path}.num_heads", "must be >= 1")
    _check(spec.cells_per_head >= 1, f"{path}.cells_per_head", "must be >= 1")
    _check(spec.nodes >= 1, f"{path}.nodes", "must be >= 1")
    _check(len(spec.ops) >= 1, f"{path}.ops", "must name at least one operation")
    for op in spec.ops:
        _check(op in OP_BUILDERS, f"{path}.ops", f"unknown operation {op!r}")
    _check(len(set(spec.ops)) == len(spec.ops), f"{path}.ops", "duplicate operation")
    for name in ("backbone_layers", "backbone_width", "head_width"):
        _check(getattr(spec, name) >= 1, f"{path}.{name}", "must be >= 1")
    return spec


@dataclass(frozen=True)
class SearchHyperparams:
    epochs: int = 50
    batch: int = 64
    weight_lr: float = 0.1
    weight_momentum: float = 0.9
    weight_decay: float = 3e-4
    arch_lr: float = 3e-4
    arch_beta1: float = 0.5
    arch_beta2: float = 0.999
    arch_weight_decay: float = 1e-3
    partial_k: int = 4
    warmstart_epochs: int = 15
    drnas_stage_epochs: int = 25
    drnas_warmstart_epochs: int = 10
    drnas_keep_ops: int = 4
    drnas_stage2_k: int = 2
    jsd_weight: float = 0.1
    eval_samples: int = 100
    eval_examples: int = 0  # validation examples per candidate eval (0 = all)
    val_fraction: float = 0.5

    def validate(self, path="search"):
        _check(self.eval_examples >= 0, f"{path}.eval_examples", "must be >= 0")
        for name in ("epochs", "batch", "partial_k", "drnas_stage_epochs",
                     "drnas_keep_ops", "drnas_stage2_k", "eval_samples"):
            _check(getattr(self, name) >= 1, f"{path}.{name}", "must be >= 1")
        for name in ("weight_lr", "arch_lr"):
            _check(getattr(self, name) > 0, f"{path}.{name}", "must be > 0")
        for name in ("weight_momentum", "weight_decay", "arch_weight_decay",
                     "jsd_weight"):
            _check(getattr(self, name) >= 0, f"{path}.{name}", "must be >= 0")
        for name, hi in (("arch_beta1", 1.0), ("arch_beta2", 1.0)):
            _check(0 <= getattr(self, name) < hi, f"{path}.{name}", "must be in [0,1)")
        _check(
            0 <= self.warmstart_epochs < self.epochs,
            f"{path}.warmstart_epochs",
            "must be below the epoch budget",
        )
        _check(
            0 <= self.drnas_warmstart_epochs < self.drnas_stage_epochs,
            f"{path}.drnas_warmstart_epochs",
            "must be below the stage budget",
        )
        _check(0 < self.val_fraction < 1, f"{path}.val_fraction", "must be in (0,1)")
        return self

    @classmethod
    def from_dict(cls, d, path="search"):
        return cls(**_take(d, cls, path)).validate(path)


@dataclass(frozen=True)
class TrainHyperparams:
    epochs: int = 100
    batch: int = 128
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 3e-4
    label_smoothing: float = 0.0

    def validate(self, path="train"):
        _check(self.epochs >= 1, f"{path}.epochs", "must be >= 1")
        _check(self.batch >= 1, f"{path}.batch", "must be >= 1")
        _check(self.lr > 0, f"{path}.lr", "must be > 0")
        _check(self.momentum >= 0, f"{path}.momentum", "must be >= 0")
        _check(self.weight_decay >= 0, f"{path}.weight_decay", "must be >= 0")
        _check(
            0 <= self.label_smoothing < 1, f"{path}.label_smoothing", "must be in [0,1)"
        )
        return self

    @classmethod
    def from_dict(cls, d, path="train"):
        return cls(**_take(d, cls, path)).validate(path)


@dataclass(frozen=True)
class ExperimentConfig:
    method: str = "drnas"
    data: DataSpec = field(default_factory=DataSpec)
    model: ModelSpec = field(default_factory=ModelSpec)
    search: SearchHyperparams = field(default_factory=SearchHyperparams)
    train: TrainHyperparams = field(default_factory=TrainHyperparams)
    seeds: tuple = (0, 1, 2)
    out_dir: str = "runs/exp"
    pool_size: int = 25  # sample budget of random-search baselines

    def validate(self):
        _check(
            self.method in METHODS,
            "method",
            f"must be one of {', '.join(METHODS)}",
        )
        self.data.validate()
        model_spec_from_dict(dataclasses.asdict(self.model))
        self.search.validate()
        self.train.validate()
        _check(len(self.seeds) >= 1, "seeds", "must list at least one seed")
        for s in self.seeds:
            _check(
                isinstance(s, int) and s >= 0, "seeds", "must be non-negative integers"
            )
        _check(self.pool_size >= 1, "pool_size", "must be >= 1")
        if self.model.head_width % self.search.partial_k:
            raise ConfigError(
                "search.partial_k: head_width "
                f"{self.model.head_width} not divisible by K={self.search.partial_k}"
            )
        if self.model.head_width % self.search.drnas_stage2_k:
            raise ConfigError(
                "search.drnas_stage2_k: head_width "
                f"{self.model.head_width} not divisible by K={self.search.drnas_stage2_k}"
            )
        return self

    @classmethod
    def from_dict(cls, d):
        d = dict(_take(d, cls, "config"))
        if "data" in d:
            d["data"] = DataSpec.from_dict(d["data"])
        if "model" in d:
            d["model"] = model_spec_from_dict(d["model"])
        if "search" in d:
            d["search"] = SearchHyperparams.from_dict(d["search"])
        if "train" in d:
            d["train"] = TrainHyperparams.from_dict(d["train"])
        if "seeds" in d:
            d["seeds"] = tuple(d["seeds"])
        return cls(**d).validate()

    @classmethod
    def load(cls, path):
        try:
            with open(path) as f:
                raw = json.load(f)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON ({e})")
        return cls.from_dict(raw)

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["seeds"] = list(self.seeds)
        d["model"]["ops"] = list(self.model.ops)
        return d

    def canonical_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n"

    def config_hash(self):
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()
