"""Declarative experiment configuration: dataclasses, JSON I/O, validation.

Every run is a pure function of one config plus its seed list; configs
serialize to canonical JSON whose sha256 hash identifies the run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
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


def _check(cond, path, msg):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _parse(value, cls, path, seq=list):
    """Build ``cls`` from its JSON ``value``: a config dataclass from an
    object, ``tuple[T, ...]`` from a ``seq`` of ``T`` (a list in JSON, a
    tuple in a hand-built config's ``to_dict``), a scalar as itself.

    Unknown keys and wrong-typed values raise ``ConfigError`` naming their
    path. A bool is never a number, and an int is kept, unconverted, where
    a float is expected, so a config's hash does not change with parsing.
    """
    if dataclasses.is_dataclass(cls):
        _check(isinstance(value, dict), path, f"expected an object, got {value!r}")
        types = typing.get_type_hints(cls)
        for key in value:
            _check(key in types, f"{path}.{key}", "unknown field")
        return cls(**{k: _parse(v, types[k], f"{path}.{k}", seq)
                      for k, v in value.items()})
    if typing.get_origin(cls) is tuple:
        _check(isinstance(value, seq), path, f"expected a {seq.__name__}, got {value!r}")
        item = typing.get_args(cls)[0]
        return tuple(_parse(v, item, f"{path}[{i}]", seq)
                     for i, v in enumerate(value))
    allowed = typing.get_args(cls) or (cls,)  # `str | None` -> (str, NoneType)
    if float in allowed:
        allowed += (int,)
    name = getattr(cls, "__name__", cls)
    _check(type(value) in allowed, path, f"expected {name}, got {value!r}")
    return value


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

    def validate(self):
        _check(self.classes >= 2, "data.classes", "must be >= 2")
        _check(self.image_size >= 8, "data.image_size", "must be >= 8")
        for name in ("n_train", "n_val", "n_test"):
            _check(getattr(self, name) >= 1, f"data.{name}", "must be >= 1")
        _check(self.noise_std >= 0, "data.noise_std", "must be >= 0")
        return self


def _validate_model(spec: ModelSpec):
    _check(spec.num_classes >= 2, "model.num_classes", "must be >= 2")
    _check(len(spec.ops) >= 1, "model.ops", "must name at least one operation")
    for op in spec.ops:
        _check(op in OP_BUILDERS, "model.ops", f"unknown operation {op!r}")
    _check(len(set(spec.ops)) == len(spec.ops), "model.ops", "duplicate operation")
    for name in ("num_heads", "cells_per_head", "nodes", "backbone_layers",
                 "backbone_width", "head_width"):
        _check(getattr(spec, name) >= 1, f"model.{name}", "must be >= 1")


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

    def validate(self):
        _check(self.eval_examples >= 0, "search.eval_examples", "must be >= 0")
        for name in ("epochs", "batch", "partial_k", "drnas_stage_epochs",
                     "drnas_keep_ops", "drnas_stage2_k", "eval_samples"):
            _check(getattr(self, name) >= 1, f"search.{name}", "must be >= 1")
        for name in ("weight_lr", "arch_lr"):
            _check(getattr(self, name) > 0, f"search.{name}", "must be > 0")
        for name in ("weight_momentum", "weight_decay", "arch_weight_decay",
                     "jsd_weight"):
            _check(getattr(self, name) >= 0, f"search.{name}", "must be >= 0")
        for name in ("arch_beta1", "arch_beta2"):
            _check(0 <= getattr(self, name) < 1, f"search.{name}", "must be in [0,1)")
        _check(
            0 <= self.warmstart_epochs < self.epochs,
            "search.warmstart_epochs",
            "must be below the epoch budget",
        )
        _check(
            0 <= self.drnas_warmstart_epochs < self.drnas_stage_epochs,
            "search.drnas_warmstart_epochs",
            "must be below the stage budget",
        )
        _check(0 < self.val_fraction < 1, "search.val_fraction", "must be in (0,1)")
        return self


@dataclass(frozen=True)
class TrainHyperparams:
    epochs: int = 100
    batch: int = 128
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 3e-4
    label_smoothing: float = 0.0

    def validate(self):
        _check(self.epochs >= 1, "train.epochs", "must be >= 1")
        _check(self.batch >= 1, "train.batch", "must be >= 1")
        _check(self.lr > 0, "train.lr", "must be > 0")
        _check(self.momentum >= 0, "train.momentum", "must be >= 0")
        _check(self.weight_decay >= 0, "train.weight_decay", "must be >= 0")
        _check(
            0 <= self.label_smoothing < 1, "train.label_smoothing", "must be in [0,1)"
        )
        return self


@dataclass(frozen=True)
class ExperimentConfig:
    method: str = "drnas"
    data: DataSpec = field(default_factory=DataSpec)
    model: ModelSpec = field(default_factory=ModelSpec)
    search: SearchHyperparams = field(default_factory=SearchHyperparams)
    train: TrainHyperparams = field(default_factory=TrainHyperparams)
    seeds: tuple[int, ...] = (0, 1, 2)
    out_dir: str = "runs/exp"
    pool_size: int = 25  # sample budget of random-search baselines

    def validate(self):
        """Type-check every field by the JSON rules, then check ranges."""
        _parse(self.to_dict(), ExperimentConfig, "config", seq=tuple)
        _check(
            self.method in METHODS,
            "method",
            f"must be one of {', '.join(METHODS)}",
        )
        self.data.validate()
        _validate_model(self.model)
        self.search.validate()
        self.train.validate()
        _check(len(self.seeds) >= 1, "seeds", "must list at least one seed")
        _check(min(self.seeds) >= 0, "seeds", "must be non-negative integers")
        _check(self.pool_size >= 1, "pool_size", "must be >= 1")
        _check(
            self.model.num_classes == self.data.classes,
            "model.num_classes",
            f"{self.model.num_classes} does not match data.classes {self.data.classes}",
        )
        for name in ("partial_k", "drnas_stage2_k"):
            k = getattr(self.search, name)
            _check(self.model.head_width % k == 0, f"search.{name}",
                   f"head_width {self.model.head_width} not divisible by K={k}")
        return self

    @classmethod
    def from_dict(cls, d):
        return _parse(d, cls, "config").validate()

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
        return dataclasses.asdict(self)

    def canonical_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n"

    def config_hash(self):
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()
