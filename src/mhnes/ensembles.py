"""Ensemble selection and the non-one-shot baseline constructors.

An ensemble is its trained models: each model's heads are members, and its
genotype is ``model.genotype``. A pool member is a trained model too, and
every choice between pool members minimizes one score,
``metrics.ensemble_nll`` of their validation predictions: ``best`` keeps the
lowest-scoring member and ``forward_select`` greedily grows the member set.
Baselines cover random samples, random search, pools with architectural or
hyperparameter variation, and their multi-headed counterparts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import metrics
from .config import TrainHyperparams
from .search import Budget, select_min_nll, train_discrete
from .space import ModelSpec, sample_random_genotype


@dataclass
class Ensemble:
    """Final ensemble: trained models whose heads are the members."""

    models: list
    method: str

    def predict_members(self, images, batch=256):
        return np.concatenate([m.predict(images, batch=batch) for m in self.models])

    def param_count(self):
        return sum(m.param_count() for m in self.models)

    @property
    def genotypes(self):
        return [m.genotype for m in self.models]

    @property
    def num_members(self):
        return sum(m.genotype.spec.num_heads for m in self.models)


def forward_select(val_probs, labels, num_members):
    """Greedy indices into ``val_probs`` minimizing ensemble validation NLL.

    ``val_probs`` holds one ``[heads, N, C]`` probability array per pool
    member and ``labels`` the ``[N]`` validation labels. Selection starts
    empty and repeatedly adds, without replacement, the member whose
    inclusion gives the lowest ``metrics.ensemble_nll``; ties resolve to the
    lowest pool index.
    """
    if num_members > len(val_probs):
        raise ValueError(f"pool of {len(val_probs)} cannot fill {num_members} slots")
    chosen = []
    for _ in range(num_members):
        rest = [i for i in range(len(val_probs)) if i not in chosen]
        scores = [
            metrics.ensemble_nll(
                np.concatenate([val_probs[j] for j in chosen + [i]]), labels
            )
            for i in rest
        ]
        chosen.append(rest[select_min_nll(scores)])
    return chosen


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
    val_x, val_y = bundle.split("val")

    def sample(space, n):
        return [sample_random_genotype(space, rng) for _ in range(n)]

    def train_pool(tag, genotypes, hps=None):
        models = []
        for i, geno in enumerate(genotypes):
            hp = hps[i] if hps else train_hp
            model, b = train_discrete(geno, bundle, hp, [seed, tag, i])
            budget.merge(b)
            models.append(model)
        return models

    def best(models):
        scores = [metrics.ensemble_nll(model.predict(val_x), val_y) for model in models]
        return models[select_min_nll(scores)]

    def selected(models):
        picked = forward_select([model.predict(val_x) for model in models], val_y, m)
        return [models[i] for i in picked]

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
    return Ensemble(chosen, kind), budget
