"""Ensemble selection and the non-one-shot baseline constructors.

A pool member is a trained model plus its validation predictions; forward
selection greedily grows the member set that minimizes ensemble validation
NLL. Baselines cover random samples, random search, pools with architectural
or hyperparameter variation, and their multi-headed counterparts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import metrics
from .config import TrainHyperparams
from .metrics import MetricReport, PredictionMatrix
from .search import Budget, select_min_nll, train_discrete
from .space import ModelSpec, sample_random_genotype
from .supernet import DiscreteNetwork


@dataclass
class PoolMember:
    genotype: object
    model: DiscreteNetwork
    val_probs: np.ndarray  # [heads, N, C]
    val_nll: float


@dataclass
class EnsemblePool:
    members: list
    val_labels: np.ndarray

    def __len__(self):
        return len(self.members)


@dataclass
class Ensemble:
    """Final ensemble: trained models whose heads are the members."""

    models: list
    genotypes: list
    method: str

    def predict_members(self, images, batch=256):
        return np.concatenate([m.predict(images, batch=batch) for m in self.models])

    def param_count(self):
        return sum(m.param_count() for m in self.models)

    @property
    def num_members(self):
        return sum(m.genotype.num_heads for m in self.models)


def forward_select(pool: EnsemblePool, num_members, with_replacement=False):
    """Greedy member indices minimizing ensemble validation NLL.

    Starts empty and repeatedly adds the member whose inclusion gives the
    lowest ensemble NLL; ties resolve to the lowest pool index.
    """
    if not with_replacement and num_members > len(pool):
        raise ValueError(
            f"pool of {len(pool)} cannot fill {num_members} slots without replacement"
        )
    chosen = []
    labels = pool.val_labels
    for _ in range(num_members):
        scores = []
        for i, cand in enumerate(pool.members):
            if not with_replacement and i in chosen:
                scores.append(np.inf)
                continue
            stack = [pool.members[j].val_probs for j in chosen] + [cand.val_probs]
            avg = metrics.ensemble_average(
                PredictionMatrix(np.concatenate(stack), labels)
            )
            scores.append(metrics.nll(avg, labels))
        chosen.append(select_min_nll(scores))
    return chosen


def _trained_member(genotype, bundle, hp, seed):
    model, budget = train_discrete(genotype, bundle, hp, seed)
    val_x, val_y = bundle.split("val")
    probs = model.predict(val_x)
    report = MetricReport.from_predictions(PredictionMatrix(probs, val_y))
    return PoolMember(genotype, model, probs, report.nll), budget


def build_baseline(kind, bundle, spec: ModelSpec, train_hp: TrainHyperparams,
                   pool_size, seed):
    """Construct one baseline ensemble; returns (Ensemble, Budget).

    deepens_sample: M seeds of one random single-head genotype.
    deepens_rs: M seeds of the best single-head genotype from a
        ``pool_size``-sample random search (by validation NLL).
    nes_rs: forward selection over a pool of ``pool_size`` random
        single-head models.
    hyperdeepens_rs: forward selection over label-smoothing/weight-decay
        variants of the deepens_rs genotype.
    mhe_sample: one random multi-head genotype, trained once.
    mhe_rs: best of ``pool_size`` random multi-head genotypes by
        validation NLL.

    Every pool member trains from seed ``[seed, tag, i]``, where the tag
    (1-8) names the pool; genotypes and hyperparameters come from one rng
    in a fixed order.
    """
    rng = np.random.default_rng([int(seed), 0xBA5E])
    budget = Budget()
    m = spec.num_heads
    single = dataclasses.replace(spec, num_heads=1)
    val_labels = bundle.split("val")[1]

    def sample(space, n):
        return [sample_random_genotype(space, rng) for _ in range(n)]

    def train_pool(tag, genotypes, hps=None):
        members = []
        for i, geno in enumerate(genotypes):
            hp = hps[i] if hps else train_hp
            member, b = _trained_member(geno, bundle, hp, [seed, tag, i])
            budget.merge(b)
            members.append(member)
        return members

    def best(members):
        return members[select_min_nll([mem.val_nll for mem in members])]

    def selected(members):
        picked = forward_select(EnsemblePool(members, val_labels), m)
        return [members[i] for i in picked]

    if kind == "deepens_sample":
        chosen = train_pool(1, sample(single, 1) * m)
    elif kind == "deepens_rs":
        geno = best(train_pool(2, sample(single, pool_size))).genotype
        chosen = train_pool(3, [geno] * m)
    elif kind == "nes_rs":
        chosen = selected(train_pool(4, sample(single, pool_size)))
    elif kind == "hyperdeepens_rs":
        geno = best(train_pool(5, sample(single, pool_size))).genotype
        hps = [
            dataclasses.replace(
                train_hp, weight_decay=float(10 ** rng.uniform(-5, -3)),
                label_smoothing=(0.0, 0.05, 0.1, 0.2)[i % 4],
            )
            for i in range(pool_size)
        ]
        chosen = selected(train_pool(6, [geno] * pool_size, hps))
    elif kind == "mhe_sample":
        chosen = train_pool(7, sample(spec, 1))
    elif kind == "mhe_rs":
        chosen = [best(train_pool(8, sample(spec, pool_size)))]
    else:
        raise ValueError(f"unknown baseline kind {kind!r}")
    return (
        Ensemble([c.model for c in chosen], [c.genotype for c in chosen], kind),
        budget,
    )
