"""Evaluation metrics over member prediction matrices, plus dataset shift.

All metrics are pure functions of plain arrays: same inputs, bit-identical
outputs. Probabilities are floored at 1e-12 before logs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class PredictionMatrix:
    """Per-member class probabilities [M, N, C] with shared labels [N]."""

    probs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs)
        y = np.asarray(self.labels)
        if p.ndim != 3 or y.shape != (p.shape[1],):
            raise ValueError(
                f"prediction matrix needs [M,N,C] probs and [N] labels, "
                f"got {p.shape} and {y.shape}"
            )
        if y.size and (y.min() < 0 or y.max() >= p.shape[2]):
            raise IndexError(f"label out of range [0,{p.shape[2]})")

    @property
    def num_members(self):
        return self.probs.shape[0]


def ensemble_average(pm: PredictionMatrix) -> np.ndarray:
    if pm.num_members < 1:
        raise ValueError("ensemble_average: empty member list")
    return pm.probs.mean(axis=0)


def nll(probs, labels):
    """Mean -log p_y in nats."""
    probs = np.asarray(probs)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise IndexError(f"label out of range [0,{probs.shape[1]})")
    picked = probs[np.arange(len(labels)), labels]
    return float(np.mean(-np.log(np.maximum(picked, PROB_FLOOR))))


def ensemble_nll(probs, labels):
    """NLL of the member average of an [M, N, C] probability stack: the one
    score every validation choice (best member, forward selection, best
    sampled genotype) minimizes."""
    return nll(ensemble_average(PredictionMatrix(probs, labels)), labels)


def error(probs, labels):
    """Fraction misclassified; argmax ties resolve to the lowest class."""
    probs = np.asarray(probs)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise IndexError(f"label out of range [0,{probs.shape[1]})")
    return float(np.mean(probs.argmax(axis=1) != labels))


def ece(probs, labels, num_bins=10):
    """Expected calibration error with equal-width right-inclusive bins on (0,1]."""
    if num_bins < 1:
        raise ValueError(f"num_bins must be >= 1, got {num_bins}")
    probs = np.asarray(probs)
    labels = np.asarray(labels, dtype=np.int64)
    conf = probs.max(axis=1)
    pred = probs.argmax(axis=1)
    correct = pred == labels
    # bin b covers (b/B, (b+1)/B]; ceil maps right-inclusive edges
    idx = np.minimum(np.ceil(conf * num_bins).astype(np.int64) - 1, num_bins - 1)
    idx = np.maximum(idx, 0)
    n = len(labels)
    total = 0.0
    for b in range(num_bins):
        mask = idx == b
        nb = int(mask.sum())
        if nb == 0:
            continue
        acc = float(correct[mask].mean())
        avg_conf = float(conf[mask].mean())
        total += (nb / n) * abs(acc - avg_conf)
    return float(total)


def oracle_ensemble_nll(pm: PredictionMatrix):
    """Mean over examples of the best member's -log p_y (a diversity probe)."""
    if pm.num_members < 1:
        raise ValueError("oracle_ensemble_nll: empty member list")
    rows = np.arange(pm.probs.shape[1])
    picked = pm.probs[:, rows, pm.labels]  # [M, N]
    per_example = -np.log(np.maximum(picked, PROB_FLOOR))
    return float(per_example.min(axis=0).mean())


@dataclass(frozen=True)
class MetricReport:
    nll: float
    error: float
    ece: float
    oracle_nll: float
    member_nll: tuple

    def __post_init__(self):
        if not (0.0 <= self.error <= 1.0 and 0.0 <= self.ece <= 1.0):
            raise ValueError("error and ece must lie in [0,1]")
        if self.member_nll and self.oracle_nll > min(self.member_nll) + 1e-12:
            raise ValueError("oracle NLL cannot exceed the best member NLL")

    @classmethod
    def from_predictions(cls, pm: PredictionMatrix, num_bins=10):
        avg = ensemble_average(pm)
        return cls(
            nll=nll(avg, pm.labels),
            error=error(avg, pm.labels),
            ece=ece(avg, pm.labels, num_bins),
            oracle_nll=oracle_ensemble_nll(pm),
            member_nll=tuple(nll(p, pm.labels) for p in pm.probs),
        )


def apply_shift(images, severity, rng_seed):
    """Contrast compression plus Gaussian pixel noise, clipped to [0,1].

    Contrast scales around 0.5 by (1 - 0.06*severity) before noise of std
    0.05*severity is added, so the realized noise level stays at its nominal
    value. Severity 0 returns the input bits unchanged.
    """
    if not (isinstance(severity, (int, np.integer)) and 0 <= severity <= 5):
        raise ValueError(f"severity must be an integer in [0,5], got {severity!r}")
    images = np.asarray(images)
    if severity == 0:
        return images.copy()
    rng = np.random.default_rng(rng_seed)
    out = 0.5 + (images - 0.5) * (1.0 - 0.06 * severity)
    out = out + rng.normal(0.0, 0.05 * severity, images.shape)
    return np.clip(out, 0.0, 1.0)
