"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete. Criterion 7 and 8 run real searches/trainings and
dominate the runtime (several minutes).
"""

import functools
import itertools
import time

import numpy as np
import pytest
from support import random_prob_rows, supernet_as_discrete_arrays

from mhnes import analysis, convops, losses, metrics, runner, search, tensor as T
from mhnes.config import ExperimentConfig, SearchHyperparams, TrainHyperparams
from mhnes.data import gen_synthetic
from mhnes.ensembles import forward_select
from mhnes.metrics import PredictionMatrix
from mhnes.space import ModelSpec, sample_random_genotype
from mhnes.supernet import DiscreteNetwork, MixedEdge, Supernet, one_hot_arch
from mhnes.tensor import Tensor, grad_check


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {number:2d} FAIL  {title}")
                raise
            print(
                f"\ncriterion {number:2d} PASS  {title} "
                f"({time.perf_counter() - t0:.1f}s)"
            )

        return wrapper

    return deco


# ---------------------------------------------------------------------------
# 1. gradient suite


@criterion(1, "finite-difference gradient suite, rel err < 1e-5, < 2 min")
def test_gradient_suite():
    t0 = time.perf_counter()
    tol = 1e-5
    rng_master = np.random.default_rng(20240)

    def check(name, make):
        for point in range(10):
            rng = np.random.default_rng([1000 + point, search.hash_tag(name)])
            f, tensors = make(rng)
            err = grad_check(f, tensors)
            assert err < tol, f"{name} point {point}: rel err {err:.2e}"

    def mask(rng, shape):
        # materialized once per point so the loss stays a pure function
        return Tensor(rng.normal(size=shape))

    def masked(op, w):
        return lambda *ts: (op(*ts) * w).sum()

    check("add", lambda rng: (
        masked(T.add, mask(rng, (3, 3))),
        [Tensor(rng.normal(size=(3, 3))), Tensor(rng.normal(size=(3, 3)))],
    ))
    check("sub_mul_scale", lambda rng: (
        lambda a, b: (T.mul(T.sub(a, b), T.scale(a, 0.7))).sum(),
        [Tensor(rng.normal(size=(4,))), Tensor(rng.normal(size=(4,)))],
    ))
    check("matmul", lambda rng: (
        masked(T.matmul, mask(rng, (3, 2))),
        [Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(4, 2)))],
    ))
    check("linear", lambda rng: (
        masked(T.linear, mask(rng, (3, 2))),
        [Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(4, 2))),
         Tensor(rng.normal(size=(2,)))],
    ))
    check("relu_exp_log_clip", lambda rng: (
        lambda x: T.log(T.clip_min(T.exp(T.relu(x)), 1e-9)).sum(),
        [Tensor(rng.normal(size=(8,)) + 1.0)],
    ))
    check("softmax", lambda rng: (
        masked(lambda x: T.softmax(x, axis=1), mask(rng, (3, 5))),
        [Tensor(rng.normal(size=(3, 5)))],
    ))
    check("log_softmax", lambda rng: (
        masked(lambda x: T.log_softmax(x, axis=1), mask(rng, (3, 5))),
        [Tensor(rng.normal(size=(3, 5)))],
    ))
    check("reductions_shapes", lambda rng: (
        lambda x: T.reshape(x.mean(axis=0), (4,)).sum() + x.sum(axis=1).mean(),
        [Tensor(rng.normal(size=(3, 4)))],
    ))
    check("concat_narrow", lambda rng: (
        masked(
            lambda a, b: T.narrow(T.concat([a, b], 1), 1, 1, 3),
            mask(rng, (2, 3)),
        ),
        [Tensor(rng.normal(size=(2, 2))), Tensor(rng.normal(size=(2, 3)))],
    ))
    check("pick", lambda rng: (
        lambda x: T.pick(x, np.array([0, 2, 1])).sum(),
        [Tensor(rng.normal(size=(3, 3)))],
    ))
    check("weighted_sum", lambda rng: (
        masked(lambda a, b, w: T.weighted_sum([a, b], w), mask(rng, (2, 3))),
        [Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(2, 3))),
         Tensor(rng.normal(size=2))],
    ))
    check("channel_shuffle_subsample", lambda rng: (
        masked(
            lambda x: T.channel_shuffle(x, 2), mask(rng, (1, 4, 4, 4))
        ),
        [Tensor(rng.normal(size=(1, 4, 4, 4)))],
    ))
    check("subsample2", lambda rng: (
        masked(T.subsample2, mask(rng, (1, 3, 3, 3))),
        [Tensor(rng.normal(size=(1, 3, 5, 5)))],
    ))
    check("conv2d", lambda rng: (
        masked(
            lambda x, w: convops.conv2d(x, w, stride=1, padding=1),
            mask(rng, (1, 3, 6, 6)),
        ),
        [Tensor(rng.normal(size=(1, 2, 6, 6))), Tensor(rng.normal(size=(3, 2, 3, 3)))],
    ))
    check("conv2d_grouped_dilated", lambda rng: (
        lambda x, w: convops.conv2d(x, w, stride=2, padding=2, dilation=2, groups=2).sum(),
        [Tensor(rng.normal(size=(1, 4, 6, 6))), Tensor(rng.normal(size=(4, 2, 3, 3)))],
    ))
    check("pool_avg", lambda rng: (
        masked(
            lambda x: convops.pool2d("avg", x, 3, 1, 1), mask(rng, (1, 2, 5, 5))
        ),
        [Tensor(rng.normal(size=(1, 2, 5, 5)))],
    ))
    check("pool_max", lambda rng: (
        masked(
            lambda x: convops.pool2d("max", x, 3, 2, 1), mask(rng, (1, 2, 3, 3))
        ),
        [Tensor(rng.normal(size=(1, 2, 5, 5)))],
    ))
    check("normalize", lambda rng: (
        masked(convops.normalize_no_affine, mask(rng, (2, 3, 4, 4))),
        [Tensor(rng.normal(size=(2, 3, 4, 4)))],
    ))

    def train_loss(rng):
        y = rng.integers(0, 4, size=5)

        def f(a, b):
            heads = [T.softmax(a, axis=1), T.softmax(b, axis=1)]
            return losses.ensemble_train_loss(
                heads, losses.ensemble_average(heads), y
            )

        return f, [Tensor(rng.normal(size=(5, 4))), Tensor(rng.normal(size=(5, 4)))]

    check("ensemble_train_loss", train_loss)

    def val_loss(rng):
        y = rng.integers(0, 4, size=5)

        def f(a, b):
            heads = [T.softmax(a, axis=1), T.softmax(b, axis=1)]
            return losses.arch_val_loss(
                heads, losses.ensemble_average(heads), y, jsd_weight=0.3
            )

        return f, [Tensor(rng.normal(size=(5, 4))), Tensor(rng.normal(size=(5, 4)))]

    check("arch_val_loss_with_diversity", val_loss)

    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"gradient suite took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 2. one-hot consistency


@criterion(2, "one-hot mixtures match selected ops / standalone network")
def test_one_hot_consistency():
    rng = np.random.default_rng(7)
    spec_ops = ModelSpec().ops
    x = Tensor(rng.normal(size=(2, 8, 6, 6)))
    for selected in range(len(spec_ops)):
        edge = MixedEdge(np.random.default_rng(3), spec_ops, 8, stride=1, k=1)
        alpha = np.full(len(spec_ops), -40.0)
        alpha[selected] = 40.0
        w = T.softmax(Tensor(alpha)).data
        mixed = edge(x, w_row=Tensor(w)).data
        direct = edge.ops[selected](Tensor(x.data.copy())).data
        assert np.abs(mixed - direct).max() < 1e-8

    spec = ModelSpec(
        num_classes=4, num_heads=2, cells_per_head=2, nodes=3,
        backbone_width=8, head_width=8,
    )
    rng = np.random.default_rng(21)
    geno = sample_random_genotype(spec, rng)
    arch = one_hot_arch(spec, geno, margin=40.0)
    sup = Supernet(np.random.default_rng(22), spec, arch, k=1)
    net = DiscreteNetwork(np.random.default_rng(23), geno, 4, track=False)
    net.load_state_arrays(supernet_as_discrete_arrays(sup, spec, geno))
    from mhnes.supernet import discretize

    assert discretize(arch) == geno
    batch = np.random.default_rng(24).normal(size=(5, 1, 16, 16))
    got = sup.predict(batch, genotype=geno, mode="discrete")
    want = np.stack([p.data for p in net(Tensor(batch))])
    assert np.abs(got - want).max() < 1e-10


# ---------------------------------------------------------------------------
# 3. ensemble-loss identity and diversity bounds


@criterion(3, "(M+1)*loss identity; JSD zero for identical heads, <= log M")
def test_eq1_identity_and_jsd():
    rng = np.random.default_rng(30)
    for m in (1, 2, 3, 5):
        p = Tensor(random_prob_rows(rng, 8, 4))
        y = rng.integers(0, 4, size=8)
        base = losses.cross_entropy(p, y).item()
        heads = [p] * m
        total = losses.ensemble_train_loss(
            heads, losses.ensemble_average(heads), y
        ).item()
        assert abs(total - (m + 1) * base) < 1e-10
        jsd = losses.jsd_diversity(heads).item()
        assert abs(jsd) < 1e-12
        assert jsd <= np.log(max(m, 2)) + 1e-9
    # bound on distinct heads across the operating regime of softmax outputs
    for m in (2, 3, 5):
        for trial in range(60):
            heads = [
                Tensor(random_prob_rows(rng, 6, 4)) for _ in range(m)
            ]
            assert losses.jsd_diversity(heads).item() <= np.log(m) + 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="the average-to-member KL direction behind the 0.143841 oracle "
    "value is unbounded: saturated opposing heads exceed log M (only the "
    "member-to-average direction carries the log M bound)",
)
def test_jsd_log_m_bound_universal_probe():
    a = Tensor(np.array([[1.0 - 1e-9, 1e-9]]))
    b = Tensor(np.array([[1e-9, 1.0 - 1e-9]]))
    assert losses.jsd_diversity([a, b]).item() <= np.log(2) + 1e-9


# ---------------------------------------------------------------------------
# 4. metric oracles


@criterion(4, "metrics match naive-loop oracles exactly; frozen JSD value")
def test_metric_oracles():
    from test_metrics import naive_ece, naive_error, naive_nll, naive_oracle

    rng = np.random.default_rng(40)
    for _ in range(20):
        c = int(rng.integers(2, 7))
        m = int(rng.integers(1, 5))
        probs = np.stack([random_prob_rows(rng, 200, c) for _ in range(m)])
        labels = rng.integers(0, c, size=200)
        pm = PredictionMatrix(probs, labels)
        avg = metrics.ensemble_average(pm)
        assert abs(metrics.nll(avg, labels) - naive_nll(avg, labels)) <= 1e-12
        assert metrics.error(avg, labels) == naive_error(avg, labels)
        assert abs(
            metrics.ece(avg, labels, 10) - naive_ece(avg, labels, 10)
        ) <= 1e-12
        assert abs(
            metrics.oracle_ensemble_nll(pm) - naive_oracle(pm)
        ) <= 1e-12
    frozen = losses.jsd_diversity(
        [Tensor(np.array([[0.75, 0.25]])), Tensor(np.array([[0.25, 0.75]]))]
    ).item()
    assert abs(frozen - 0.143841) < 1e-6


# ---------------------------------------------------------------------------
# 5. selection


@criterion(5, "greedy selection within 1.05x of exhaustive; specialists exact")
def test_forward_selection():
    def pool_nll(pool, labels, idxs):
        stack = np.concatenate([pool[i] for i in idxs])
        return metrics.nll(
            metrics.ensemble_average(PredictionMatrix(stack, labels)), labels
        )

    rng = np.random.default_rng(50)
    for instance in range(50):
        pool_size = int(rng.integers(3, 7))
        m = int(rng.integers(1, min(3, pool_size) + 1))
        c = int(rng.integers(2, 5))
        labels = rng.integers(0, c, size=30)
        members = []
        for _ in range(pool_size):
            skew = rng.uniform(0, 2.5)
            z = rng.normal(size=(30, c)) + skew * np.eye(c)[labels]
            e = np.exp(z - z.max(axis=1, keepdims=True))
            probs = (e / e.sum(axis=1, keepdims=True))[None]
            members.append(probs)
        picked = forward_select(members, labels, m)
        best = min(
            pool_nll(members, labels, combo)
            for combo in itertools.combinations(range(pool_size), m)
        )
        assert pool_nll(members, labels, picked) <= 1.05 * best, (
            f"instance {instance}"
        )

    # constructed specialist instances: greedy must be exactly optimal.
    # each specialist is perfect on its share and uniform elsewhere; the
    # generalist sits just above chance so a specialist wins round one
    for c, n in ((2, 30), (3, 36)):
        labels = np.arange(n) % c
        eps = 1e-3
        specialists = []
        share = n // c
        for k in range(c):
            p = np.full((n, c), 1.0 / c)
            sl = slice(k * share, (k + 1) * share)
            rows = np.arange(n)[sl]
            p[rows] = eps / (c - 1)
            p[rows, labels[sl]] = 1 - eps
            specialists.append(p)
        conf = 1.0 / c + 0.07
        generalist = np.full((n, c), (1 - conf) / (c - 1))
        generalist[np.arange(n), labels] = conf
        members = [p[None] for p in [generalist] + specialists]
        picked = forward_select(members, labels, c)
        best = min(
            pool_nll(members, labels, combo)
            for combo in itertools.combinations(range(len(members)), c)
        )
        assert pool_nll(members, labels, picked) == best
        assert sorted(picked) == list(range(1, c + 1))


# ---------------------------------------------------------------------------
# 6. eigen-analysis


@criterion(6, "power iteration matches dense eigensolver; exact quadratic hvp")
def test_eigen_analysis():
    for seed in range(20):
        rng = np.random.default_rng(600 + seed)
        b = rng.normal(size=(10, 10))
        a = (b + b.T) / 2
        evals = np.linalg.eigvalsh(a)
        want = evals[np.argmax(np.abs(evals))]
        est = analysis.dominant_eig(
            lambda v: a @ v, dim=10, max_iter=5000, seed=seed
        )
        assert abs(est.value - want) / abs(want) < 1e-6, f"matrix {seed}"
    rng = np.random.default_rng(61)
    for _ in range(10):
        b = rng.normal(size=(4, 4))
        a = b + b.T
        x, v = rng.normal(size=4), rng.normal(size=4)
        out = analysis.hvp_fd(lambda p: a @ p, x, v, eps=1e-5)
        assert np.abs(out - a @ v).max() < 1e-5


# ---------------------------------------------------------------------------
# 7. planted-optimum search


PLANTED_DATA = dict(
    classes=4, n_train=2000, n_val=500, n_test=500, image_size=16, seed=0
)
PLANTED_SPEC = ModelSpec(
    num_classes=4, num_heads=1, cells_per_head=1, nodes=4,
    ops=("skip_connect", "batch_mix_a"), backbone_width=8, head_width=8,
)
PLANTED_TRAIN = TrainHyperparams(epochs=5, batch=128)
RECOVERY_THRESHOLD = 12.0 / 14.0


def alpha_recovery(arch):
    """Fraction of the 14 DAG edges whose strongest op is the planted one."""
    fracs = []
    for h, a in enumerate(arch.alpha):
        tgt = arch.head_ops[h].index("skip_connect")
        fracs.append(float((a.data.argmax(axis=1) == tgt).mean()))
    return fracs


def genotype_recovery(geno):
    """Fraction of chosen-op slots holding the planted op, per head."""
    return [
        float(np.mean([op == "skip_connect" for ch in cell for op in ch.ops]))
        for cell in geno.heads
    ]


@criterion(7, "planted-op recovery >= 12/14 per head, majority of 3 seeds")
def test_planted_optimum_search():
    bundle = gen_synthetic(**PLANTED_DATA)
    setups = {
        "pcdarts": (
            search.pcdarts_search,
            SearchHyperparams(
                epochs=28, batch=64, warmstart_epochs=2, arch_lr=4e-3,
                partial_k=2, eval_samples=10,
            ),
            alpha_recovery,
        ),
        "drnas": (
            search.drnas_search,
            SearchHyperparams(
                epochs=28, batch=64, warmstart_epochs=2, arch_lr=2e-2,
                arch_weight_decay=0.0, drnas_stage_epochs=14,
                drnas_warmstart_epochs=1, partial_k=4, drnas_stage2_k=2,
                drnas_keep_ops=2, eval_samples=10,
            ),
            alpha_recovery,
        ),
        "randomnas": (
            search.randomnas_search,
            SearchHyperparams(
                epochs=12, batch=64, warmstart_epochs=2, partial_k=4,
                eval_samples=1200, eval_examples=256,
            ),
            genotype_recovery,
        ),
    }
    for method, (searcher, hp, recovery) in setups.items():
        hits = 0
        for seed in (0, 1, 2):
            t0 = time.perf_counter()
            result = searcher(bundle, PLANTED_SPEC, hp, seed)
            genotype, arch_or_scores = result[0], result[2]
            target = (
                arch_or_scores if recovery is alpha_recovery else genotype
            )
            fracs = recovery(target)
            search.train_discrete(genotype, bundle, PLANTED_TRAIN, seed)
            wall = time.perf_counter() - t0
            assert wall < 1800, f"{method} seed {seed}: {wall:.0f}s"
            ok = all(f >= RECOVERY_THRESHOLD for f in fracs)
            hits += ok
            print(f"  {method} seed {seed}: recovery={fracs} "
                  f"{'ok' if ok else 'miss'} ({wall:.0f}s)")
        assert hits >= 2, f"{method}: only {hits}/3 seeds recovered"


# ---------------------------------------------------------------------------
# 8. variance-collapse trend


@criterion(8, "random-sample NLL std shrinks from M=1 to M=3 (>= 2/3 groups)")
def test_variance_collapse_trend():
    bundle = gen_synthetic(
        classes=4, n_train=384, n_val=192, n_test=192, image_size=16, seed=11
    )
    spec = ModelSpec(
        num_classes=4, num_heads=1, cells_per_head=1, nodes=4,
        backbone_width=8, head_width=8,
    )
    hp = TrainHyperparams(epochs=3, batch=128, lr=0.1)
    study = analysis.regret_study(bundle, spec, (1, 3), 20, hp, seed_groups=(0, 1, 2))
    wins = 0
    for group in (0, 1, 2):
        s1, s3 = study.nll_std(1, group), study.nll_std(3, group)
        wins += s3 < s1
        print(f"  group {group}: std(M=1)={s1:.4f} std(M=3)={s3:.4f}")
    for row in study.rows:
        assert row["regret"] >= 0
    assert wins >= 2, f"variance collapsed in only {wins}/3 groups"


# ---------------------------------------------------------------------------
# 9. search-cost gap


@criterion(9, "step-count ratio NES-RS : one-shot >= 3 at default settings")
def test_cost_gap_exact():
    hp, tp = SearchHyperparams(), TrainHyperparams()
    nes = search.planned_budget("nes_rs", 2000, hp, tp, 25, 3).total_steps
    for method in ("pcdarts", "drnas", "randomnas"):
        one = search.planned_budget(method, 2000, hp, tp, 25, 3).total_steps
        assert nes >= 3 * one, f"{method}: {nes} vs 3*{one}"
        print(f"  nes_rs {nes} steps vs {method} {one} steps "
              f"(ratio {nes / one:.2f})")


# ---------------------------------------------------------------------------
# 10. end-to-end determinism


@criterion(10, "repeated run yields byte-identical CSV (wall clock excluded)")
def test_run_determinism(tmp_path):
    base = {
        "method": "randomnas",
        "data": {
            "classes": 3, "image_size": 16,
            "n_train": 96, "n_val": 48, "n_test": 48, "seed": 2,
        },
        "model": {
            "num_classes": 3, "num_heads": 2, "cells_per_head": 1, "nodes": 2,
            "ops": ["skip_connect", "max_pool_3x3", "avg_pool_3x3"],
            "backbone_width": 8, "head_width": 8,
        },
        "search": {
            "epochs": 2, "batch": 32, "warmstart_epochs": 1,
            "partial_k": 2, "eval_samples": 4,
        },
        "train": {"epochs": 2, "batch": 48},
        "seeds": [0, 1],
    }
    outs = []
    for tag in ("a", "b"):
        cfg = ExperimentConfig.from_dict(
            {**base, "out_dir": str(tmp_path / tag)}
        )
        outs.append(runner.run(cfg))

    def stripped(path):
        return [
            ",".join(line.split(",")[:-1])
            for line in (path / "metrics.csv").read_text().splitlines()
        ]

    assert stripped(outs[0]) == stripped(outs[1])
    for seed in (0, 1):
        a = (outs[0] / f"seed_{seed}" / "genotype.json").read_bytes()
        b = (outs[1] / f"seed_{seed}" / "genotype.json").read_bytes()
        assert a == b
