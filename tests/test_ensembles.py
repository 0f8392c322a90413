"""Forward selection against exhaustive search; baseline constructors."""

import itertools

import numpy as np
import pytest

from mhnes import metrics
from mhnes.config import TrainHyperparams
from mhnes.data import gen_synthetic
from mhnes.ensembles import build_baseline, forward_select
from mhnes.metrics import PredictionMatrix
from mhnes.space import ModelSpec


def synthetic_pool(rng, pool, n, c):
    """Per-member [1, n, c] validation probabilities and their labels."""
    members = []
    labels = rng.integers(0, c, size=n)
    for i in range(pool):
        z = rng.normal(size=(n, c)) + 1.2 * np.eye(c)[labels] * rng.uniform(0, 2)
        e = np.exp(z - z.max(axis=1, keepdims=True))
        members.append((e / e.sum(axis=1, keepdims=True))[None])
    return members, labels


def ensemble_nll(pool, labels, idxs):
    stack = np.concatenate([pool[i] for i in idxs])
    return metrics.nll(
        metrics.ensemble_average(PredictionMatrix(stack, labels)), labels
    )


def exhaustive_best(pool, labels, m):
    best = None
    for combo in itertools.combinations(range(len(pool)), m):
        v = ensemble_nll(pool, labels, combo)
        if best is None or v < best:
            best = v
    return best


class TestForwardSelect:
    def test_dominating_member_selected_first(self):
        n, c = 20, 3
        labels = np.arange(n) % c
        perfect = np.eye(c)[labels][None] * 0.94 + 0.02
        pool = [np.full((1, n, c), 1.0 / c), perfect, np.full((1, n, c), 1.0 / c)]
        assert forward_select(pool, labels, 2)[0] == 1

    @pytest.mark.parametrize("seed", range(12))
    def test_greedy_within_5_percent_of_exhaustive(self, seed):
        rng = np.random.default_rng(seed)
        pool, labels = synthetic_pool(rng, pool=5, n=40, c=3)
        picked = forward_select(pool, labels, 2)
        assert ensemble_nll(pool, labels, picked) <= 1.05 * exhaustive_best(
            pool, labels, 2
        )

    def test_complementary_specialists_beat_generalist(self):
        # specialists are perfect on their half and uniform on the other
        n, c = 30, 2
        labels = np.array([0, 1] * (n // 2))
        eps = 1e-3
        a = np.full((n, c), 0.5)
        a[np.arange(n // 2), labels[: n // 2]] = 1 - eps
        a[np.arange(n // 2), 1 - labels[: n // 2]] = eps
        b = np.full((n, c), 0.5)
        b[np.arange(n // 2, n), labels[n // 2 :]] = 1 - eps
        b[np.arange(n // 2, n), 1 - labels[n // 2 :]] = eps
        mediocre = np.full((n, c), 0.5)
        mediocre[np.arange(n), labels] = 0.62
        mediocre[np.arange(n), 1 - labels] = 0.38
        pool = [p[None] for p in (mediocre, a, b)]
        picked = forward_select(pool, labels, 2)
        assert sorted(picked) == [1, 2]
        assert ensemble_nll(pool, labels, picked) == exhaustive_best(pool, labels, 2)

    def test_ties_resolve_to_lowest_index(self):
        labels = np.zeros(4, dtype=int)
        same = np.full((1, 4, 2), 0.5)
        pool = [same.copy() for _ in range(3)]
        assert forward_select(pool, labels, 2) == [0, 1]

    def test_pool_too_small_rejected(self):
        labels = np.zeros(2, dtype=int)
        pool = [np.full((1, 2, 2), 0.5)]
        with pytest.raises(ValueError, match="pool"):
            forward_select(pool, labels, 2)


@pytest.fixture(scope="module")
def tiny_task():
    bundle = gen_synthetic(
        classes=3, n_train=96, n_val=48, n_test=48, image_size=16, seed=2
    )
    spec = ModelSpec(
        num_heads=2, cells_per_head=1, nodes=2,
        ops=("skip_connect", "max_pool_3x3", "avg_pool_3x3"),
        backbone_width=8, head_width=8,
    )
    hp = TrainHyperparams(epochs=1, batch=48)
    return bundle, spec, hp


class TestBaselines:
    def test_unknown_kind(self, tiny_task):
        bundle, spec, hp = tiny_task
        with pytest.raises(ValueError, match="unknown baseline"):
            build_baseline("boosting", bundle, spec, hp, 2, 0)

    @pytest.mark.parametrize(
        "kind,n_models,n_train_runs",
        [
            ("deepens_sample", 2, 2),
            ("deepens_rs", 2, 5),  # 3-sample pool + M=2 member trainings
            ("nes_rs", 2, 3),
            ("mhe_sample", 1, 1),
            ("mhe_rs", 1, 3),
            ("hyperdeepens_rs", 2, 6),  # 3 base pool + 3 variants
        ],
    )
    def test_shape_and_budget(self, tiny_task, kind, n_models, n_train_runs):
        bundle, spec, hp = tiny_task
        ensemble, budget = build_baseline(kind, bundle, spec, hp, 3, seed=1)
        assert len(ensemble.models) == n_models
        assert ensemble.num_members == spec.num_heads
        train_steps_each = 2 * hp.epochs  # 96/48 batches
        assert budget.total_steps == n_train_runs * train_steps_each
        probs = ensemble.predict_members(bundle.split("test")[0])
        assert probs.shape == (spec.num_heads, 48, 3)
        np.testing.assert_allclose(probs.sum(axis=2), 1.0, atol=1e-8)

    def test_deepens_sample_members_share_genotype_not_weights(self, tiny_task):
        bundle, spec, hp = tiny_task
        ensemble, _ = build_baseline("deepens_sample", bundle, spec, hp, 2, seed=3)
        assert ensemble.genotypes[0] == ensemble.genotypes[1]
        a, b = ensemble.models
        assert not np.array_equal(
            a.parameters()[0].data, b.parameters()[0].data
        )

    def test_identical_member_copies_degenerate_to_single_model(self, tiny_task):
        bundle, spec, hp = tiny_task
        ensemble, _ = build_baseline("mhe_sample", bundle, spec, hp, 2, seed=4)
        x, y = bundle.split("test")
        probs = ensemble.predict_members(x)
        single = PredictionMatrix(probs[:1], y)
        doubled = PredictionMatrix(np.repeat(probs[:1], 3, axis=0), y)
        ra = metrics.MetricReport.from_predictions(single)
        rb = metrics.MetricReport.from_predictions(doubled)
        assert (ra.nll, ra.error, ra.ece) == (rb.nll, rb.error, rb.ece)

    def test_hyperdeepens_varies_hyperparameters(self, tiny_task):
        bundle, spec, hp = tiny_task
        ensemble, _ = build_baseline(
            "hyperdeepens_rs", bundle, spec, hp, 4, seed=5
        )
        assert len({g is None for g in ensemble.genotypes}) == 1
        assert ensemble.genotypes[0] == ensemble.genotypes[1]

    def test_deterministic(self, tiny_task):
        bundle, spec, hp = tiny_task
        e1, b1 = build_baseline("nes_rs", bundle, spec, hp, 3, seed=6)
        e2, b2 = build_baseline("nes_rs", bundle, spec, hp, 3, seed=6)
        assert e1.genotypes == e2.genotypes
        assert b1.total_steps == b2.total_steps
        x = bundle.split("val")[0]
        np.testing.assert_array_equal(e1.predict_members(x), e2.predict_members(x))
