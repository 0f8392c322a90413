"""Search methods: bilevel mechanics, schedules, determinism, budgets."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from support import supernet_as_discrete_arrays

from mhnes import losses, metrics, search, tensor as T
from mhnes.config import SearchHyperparams, TrainHyperparams
from mhnes.data import gen_synthetic
from mhnes.optim import SGD
from mhnes.space import ModelSpec, sample_random_genotype
from mhnes.supernet import (
    ArchParams,
    Backbone,
    DiscreteNetwork,
    MixedEdge,
    Supernet,
    one_hot_arch,
)
from mhnes.tensor import Tape, Tensor, backward, grad_check


@pytest.fixture(scope="module")
def bundle():
    return gen_synthetic(
        classes=3, n_train=128, n_val=64, n_test=64, image_size=16, seed=5
    )


TINY = ModelSpec(
    num_heads=2,
    cells_per_head=1,
    nodes=2,
    ops=("skip_connect", "max_pool_3x3", "avg_pool_3x3"),
    backbone_width=8,
    head_width=8,
)

FAST_HP = SearchHyperparams(
    epochs=2,
    batch=32,
    warmstart_epochs=1,
    drnas_stage_epochs=2,
    drnas_warmstart_epochs=1,
    eval_samples=4,
    partial_k=2,
    drnas_stage2_k=1,
    drnas_keep_ops=2,
)


class TestWarmstart:
    def test_arch_params_bit_identical_during_warmstart(self, bundle):
        rng = search.rng_for(0, "warmtest")
        arch = ArchParams(TINY, "pcdarts", rng)
        net = Supernet(rng, TINY, arch, 3, k=2)
        before = arch.flat()
        split = search._split_search_data(bundle, FAST_HP, rng)
        search._run_bilevel_phase(net, arch, FAST_HP, 1, 1, split, rng)
        np.testing.assert_array_equal(arch.flat(), before)

    def test_arch_moves_after_warmstart(self, bundle):
        rng = search.rng_for(0, "warmtest2")
        arch = ArchParams(TINY, "pcdarts", rng)
        net = Supernet(rng, TINY, arch, 3, k=2)
        before = arch.flat()
        split = search._split_search_data(bundle, FAST_HP, rng)
        search._run_bilevel_phase(net, arch, FAST_HP, 1, 0, split, rng)
        assert not np.array_equal(arch.flat(), before)


class TestBilevelGradients:
    @staticmethod
    def _flags_in_loss(bundle, monkeypatch, loss_name):
        """Run one bilevel epoch; return its step count and, per call of
        ``losses.<loss_name>``, the ``requires_grad`` flags of the supernet
        weights and of the architecture tensors. Every flag is restored."""
        rng = search.rng_for(0, "freezetest")
        arch = ArchParams(TINY, "pcdarts", rng)
        net = Supernet(rng, TINY, arch, 3, k=2)
        weights, arch_tensors = net.parameters(), arch.tensors()
        seen = []
        loss = getattr(losses, loss_name)

        def recording(*args, **kwargs):
            seen.append(({t.requires_grad for t in weights},
                         {t.requires_grad for t in arch_tensors}))
            return loss(*args, **kwargs)

        monkeypatch.setattr(losses, loss_name, recording)
        split = search._split_search_data(bundle, FAST_HP, rng)
        steps = search._run_bilevel_phase(net, arch, FAST_HP, 1, 0, split, rng)
        assert steps >= 1
        assert all(t.requires_grad for t in weights + arch_tensors)
        return steps, seen

    def test_arch_step_freezes_the_weights(self, bundle, monkeypatch):
        steps, seen = self._flags_in_loss(bundle, monkeypatch, "arch_val_loss")
        assert seen == [({False}, {True})] * steps

    def test_weight_step_freezes_the_architecture(self, bundle, monkeypatch):
        steps, seen = self._flags_in_loss(bundle, monkeypatch, "ensemble_train_loss")
        # per step: arch_val_loss's own call in the arch step, then the weight step
        assert seen == [({False}, {True}), ({True}, {False})] * steps

    def test_arch_gradient_matches_finite_difference(self, bundle):
        spec = ModelSpec(
            num_heads=1, cells_per_head=1, nodes=1,
            ops=("skip_connect", "avg_pool_3x3", "max_pool_3x3"),
            backbone_width=4, head_width=4,
        )
        rng = np.random.default_rng(3)
        arch = ArchParams(spec, "pcdarts", rng, init_scale=0.3)
        net = Supernet(rng, spec, arch, 3, k=2)
        x, y = bundle.split("val")
        x, y = x[:6], y[:6]

        def f(alpha, beta):
            arch.alpha[0] = alpha
            arch.beta[0] = beta
            probs = net(Tensor(x), mode="continuous")
            return losses.arch_val_loss(
                probs, losses.ensemble_average(probs), y, 0.2
            )

        err = grad_check(f, [arch.alpha[0], arch.beta[0]], eps=1e-5)
        assert err < 1e-4

    def test_frozen_onehot_m1_matches_standalone_trainer(self, bundle):
        # nodes=1 keeps every DAG edge in the genotype, so the one-hot
        # supernet mixture and the standalone network compute the same graph
        spec = ModelSpec(
            num_heads=1, cells_per_head=2, nodes=1,
            ops=("skip_connect", "max_pool_3x3", "avg_pool_3x3"),
            backbone_width=8, head_width=8,
        )
        rng = np.random.default_rng(11)
        geno = sample_random_genotype(spec, rng)
        arch = one_hot_arch(geno, margin=40.0)
        sup = Supernet(np.random.default_rng(12), spec, arch, 3, k=1)
        net = DiscreteNetwork(np.random.default_rng(13), geno, 3)
        net.load_state_arrays(supernet_as_discrete_arrays(sup, net))

        x, y = bundle.split("train")
        batches = [slice(i * 16, (i + 1) * 16) for i in range(5)]
        opt_a = SGD(sup.parameters(), lr=0.05, momentum=0.9, weight_decay=3e-4)
        opt_b = SGD(net.parameters(), lr=0.05, momentum=0.9, weight_decay=3e-4)
        loss = losses.ensemble_train_loss
        for sl in batches:
            la = search._train_step(sup, opt_a, loss, x[sl], y[sl], mode="continuous")
            lb = search._train_step(net, opt_b, loss, x[sl], y[sl])
            assert abs(la - lb) < 1e-10


BLOW_UP_HP = dataclasses.replace(FAST_HP, arch_lr=1e300)

# name: (training examples, the run, where it must fail)
BLOW_UPS = {
    "pcdarts": (
        128,
        lambda b: search.pcdarts_search(b, TINY, BLOW_UP_HP, seed=0),
        r"phase 'search', epoch 1, step \d+",
    ),
    # stage 2's first architecture update overflows the concentrations
    "drnas": (
        64,
        lambda b: search.drnas_search(b, TINY, BLOW_UP_HP, seed=0),
        r"architecture parameters in phase 'search_stage2', epoch 1, step 1$",
    ),
    "train_discrete": (
        128,
        lambda b: search.train_discrete(
            sample_random_genotype(TINY, np.random.default_rng(2)), b,
            TrainHyperparams(epochs=2, batch=32, lr=1e300), seed=0,
        ),
        r"loss \S+ in phase 'train', epoch 0, step \d+",
    ),
}


@pytest.mark.parametrize("name", BLOW_UPS)
def test_blow_up_fails_at_its_step(name):
    n_train, run, where = BLOW_UPS[name]
    data = gen_synthetic(classes=3, n_train=n_train, n_val=64, n_test=64,
                         image_size=16, seed=5)
    with pytest.warns(RuntimeWarning) as caught, \
            pytest.raises(FloatingPointError, match=where):
        run(data)
    # overflows, and in Adam the inf / inf that follows one
    kinds = {str(w.message).split(" encountered")[0] for w in caught}
    assert "overflow" in kinds and kinds <= {"overflow", "invalid value"}


@pytest.mark.parametrize("searcher", [search.pcdarts_search, search.drnas_search,
                                      search.randomnas_search])
def test_empty_validation_half_rejected(searcher):
    data = gen_synthetic(classes=3, n_train=3, n_val=2, n_test=2, image_size=16)
    hp = dataclasses.replace(FAST_HP, val_fraction=0.1)
    where = r"n_train=3 at val_fraction=0.1 leaves 3 training and 0 validation"
    with pytest.raises(ValueError, match=where):
        searcher(data, TINY, hp, seed=0)


class TestPcdarts:
    def test_genotype_valid_and_deterministic(self, bundle):
        a, budget, _ = search.pcdarts_search(bundle, TINY, FAST_HP, seed=9)
        b, _, _ = search.pcdarts_search(bundle, TINY, FAST_HP, seed=9)
        assert a == b
        a.validate()
        assert budget.total_steps == FAST_HP.epochs * 2  # 64 train / 32 batch

    def test_different_seeds_can_differ(self, bundle):
        runs = {
            str(search.pcdarts_search(bundle, TINY, FAST_HP, seed=s)[0])
            for s in range(4)
        }
        assert len(runs) >= 2


class TestDrnas:
    def test_stage_two_prunes_to_keep_ops_subset(self, bundle):
        spec = ModelSpec(
            num_heads=2, cells_per_head=1, nodes=2,
            backbone_width=8, head_width=8,  # default 7-op set
        )
        hp = SearchHyperparams(
            epochs=2, batch=32, warmstart_epochs=1,
            drnas_stage_epochs=1, drnas_warmstart_epochs=0,
            partial_k=2, drnas_stage2_k=1, eval_samples=2,
        )
        geno, budget, arch = search.drnas_search(bundle, spec, hp, seed=1)
        for h in range(spec.num_heads):
            assert len(arch.head_ops[h]) == hp.drnas_keep_ops == 4
            assert set(arch.head_ops[h]) <= set(spec.ops)
        geno.validate()
        phases = {p["phase"]: p["steps"] for p in budget.phases}
        assert phases["search_stage1"] == phases["search_stage2"] == 2

    def test_epoch_hook_sees_search_wide_epochs(self, bundle):
        hp = dataclasses.replace(
            FAST_HP, drnas_stage_epochs=1, drnas_warmstart_epochs=0
        )
        seen = []
        search.drnas_search(
            bundle, TINY, hp, seed=2, epoch_hook=lambda epoch, *_: seen.append(epoch)
        )
        assert seen == [0, 1]

    def test_stage_one_supernet_freed_before_stage_two_is_built(
        self, bundle, monkeypatch
    ):
        # freed by reference counting alone, before stage 2's supernet exists
        built, alive = [], []

        def tracked(*args, **kwargs):
            alive.append([ref() is not None for ref in built])
            net = Supernet(*args, **kwargs)
            built.append(weakref.ref(net))
            return net

        monkeypatch.setattr(search, "Supernet", tracked)
        gc.collect()
        gc.disable()
        try:
            search.drnas_search(bundle, TINY, FAST_HP, seed=3)
        finally:
            gc.enable()
        assert alive == [[], [False]]

    def test_concentrations_stay_positive(self, bundle):
        _, _, arch = search.drnas_search(bundle, TINY, FAST_HP, seed=3)
        for a in arch.alpha:
            assert np.all(a.data >= ArchParams.CONC_FLOOR)

    def test_deterministic(self, bundle):
        a, _, _ = search.drnas_search(bundle, TINY, FAST_HP, seed=4)
        b, _, _ = search.drnas_search(bundle, TINY, FAST_HP, seed=4)
        assert a == b


class TestRandomNas:
    def test_eval_samples_one_returns_that_sample(self, bundle):
        hp = SearchHyperparams(
            epochs=1, batch=64, warmstart_epochs=0, eval_samples=1, partial_k=1
        )
        geno, _, scores = search.randomnas_search(bundle, TINY, hp, seed=2)
        assert len(scores) == 1
        geno.validate()

    def test_selection_is_row_minimum_ties_first(self):
        assert search.select_min_nll([3.0, 1.5, 1.5, 2.0]) == 1
        assert search.select_min_nll([0.5]) == 0
        assert search.select_min_nll([2.0, 2.0]) == 0

    @pytest.mark.parametrize(
        "scores", [[np.nan, 1.0], [2.0, np.nan, 1.0], [1.0, np.inf]],
        ids=["nan-first", "nan-middle", "inf-last"],
    )
    def test_selection_rejects_non_finite_scores(self, scores):
        with pytest.raises(FloatingPointError, match="non-finite score"):
            search.select_min_nll(scores)

    def test_deterministic(self, bundle):
        a, _, sa = search.randomnas_search(bundle, TINY, FAST_HP, seed=6)
        b, _, sb = search.randomnas_search(bundle, TINY, FAST_HP, seed=6)
        assert a == b and sa == sb

    def test_selected_no_worse_than_candidate_median(self, bundle):
        hp = SearchHyperparams(
            epochs=2, batch=32, warmstart_epochs=1, eval_samples=9, partial_k=1
        )
        wins = 0
        for seed in (0, 1, 2):
            _, _, scores = search.randomnas_search(bundle, TINY, hp, seed)
            wins += min(scores) <= np.median(scores)
        assert wins >= 2


class TestSharedScoring:
    """``genotype_val_nll`` scores a list of genotypes in one discrete pass."""

    SPEC = ModelSpec(
        num_heads=2, cells_per_head=2, nodes=3,
        backbone_width=8, head_width=8,
    )

    def _setup(self, n=10):
        rng = np.random.default_rng(40)
        net = Supernet(rng, self.SPEC, ArchParams(self.SPEC, "plain", rng), 3, k=1)
        genos = [sample_random_genotype(self.SPEC, rng) for _ in range(4)]
        x = rng.normal(size=(n, 1, 16, 16))
        y = rng.integers(0, 3, size=n)
        return net, genos, x, y

    @staticmethod
    def _alone(net, geno, x, y, batch):
        chunks = []
        for lo in range(0, len(x), batch):
            probs = net(Tensor(x[lo : lo + batch]), mode="sampled", genotype=geno)
            chunks.append(np.stack([p.data for p in probs]))
        return metrics.ensemble_nll(np.concatenate(chunks, axis=1), y)

    @pytest.mark.parametrize("batch", [10, 4], ids=["one-chunk", "ragged-chunks"])
    @pytest.mark.parametrize("pick", [[0, 1, 2, 3], [2, 0, 2], [3]],
                             ids=["distinct", "repeated", "single"])
    def test_equals_scoring_each_genotype_alone(self, batch, pick):
        net, genos, x, y = self._setup()
        gs = [genos[i] for i in pick]
        got = search.genotype_val_nll(net, gs, x, y, batch)
        assert got == [self._alone(net, g, x, y, batch) for g in gs]

    def test_backbone_and_first_cell_edges_run_once_per_chunk(self, monkeypatch):
        net, genos, x, y = self._setup(n=8)
        gs = genos + [genos[0]]  # G=5, one repeated
        backbone_calls = []
        edge_calls = []
        run_backbone, run_edge = Backbone.__call__, MixedEdge.__call__

        def count_backbone(self, x):
            backbone_calls.append(x.shape[0])
            return run_backbone(self, x)

        def count_edge(self, x, op):
            edge_calls.append((len(backbone_calls), id(self), op))
            return run_edge(self, x, op)

        monkeypatch.setattr(Backbone, "__call__", count_backbone)
        monkeypatch.setattr(MixedEdge, "__call__", count_edge)
        search.genotype_val_nll(net, gs, x, y, batch=4)
        assert backbone_calls == [4, 4]
        starts = [self.SPEC.node_edge_range(j)[0] for j in range(self.SPEC.nodes)]
        for h, head in enumerate(net.heads):
            # edges of the first cell that read its two input states
            edges = {id(head.cells[0].edges[s + src]): s + src
                     for s in starts for src in (0, 1)}
            pairs = {(starts[c.node] + src, op) for g in gs for c in g.heads[h]
                     for src, op in zip(c.inputs, c.ops) if src < 2}
            for chunk in (1, 2):
                from_inputs = [(edges[i], op) for c, i, op in edge_calls
                               if c == chunk and i in edges]
                assert len(from_inputs) <= len(pairs)
                assert set(from_inputs) == pairs


class TestTrainDiscrete:
    def test_loss_decreases_over_first_epochs(self, bundle, monkeypatch):
        geno = sample_random_genotype(TINY, np.random.default_rng(2))
        step_losses = []
        real_step = search._train_step

        def train_step(*args, **kwargs):
            step_losses.append(real_step(*args, **kwargs))
            return step_losses[-1]

        monkeypatch.setattr(search, "_train_step", train_step)
        hp = TrainHyperparams(epochs=5, batch=64, lr=0.05)
        search.train_discrete(geno, bundle, hp, seed=0)
        per_epoch = search.steps_per_epoch(len(bundle.split("train")[1]), hp.batch)
        assert len(step_losses) == 5 * per_epoch
        log = np.mean(np.reshape(step_losses, (5, per_epoch)), axis=1)
        assert all(a > b for a, b in zip(log, log[1:]))

    def test_same_seed_bit_identical_metrics(self, bundle):
        geno = sample_random_genotype(TINY, np.random.default_rng(3))
        hp = TrainHyperparams(epochs=2, batch=64)
        ma, _ = search.train_discrete(geno, bundle, hp, seed=7)
        mb, _ = search.train_discrete(geno, bundle, hp, seed=7)
        for split in ("val", "test"):
            x = bundle.split(split)[0]
            np.testing.assert_array_equal(ma.predict(x), mb.predict(x))

    def test_one_tape_alive_per_step(self, bundle, monkeypatch):
        # a finished step's tape must be garbage before the next step records,
        # freed by reference counting alone
        geno = sample_random_genotype(TINY, np.random.default_rng(2))
        real = losses.ensemble_train_loss
        live = []

        def counting(*args, **kwargs):
            live.append(sum(
                1 for o in gc.get_objects() if isinstance(o, Tape) and o.nodes
            ))
            return real(*args, **kwargs)

        monkeypatch.setattr(losses, "ensemble_train_loss", counting)
        hp = TrainHyperparams(epochs=1, batch=32)
        gc.collect()
        gc.disable()
        try:
            search.train_discrete(geno, bundle, hp, seed=0)
        finally:
            gc.enable()
        assert live == [1, 1, 1, 1]

    def test_no_node_outlives_training(self, bundle):
        geno = sample_random_genotype(TINY, np.random.default_rng(2))
        hp = TrainHyperparams(epochs=2, batch=32)
        gc.collect()
        gc.disable()
        try:
            # the trained model stays referenced: it must hold no node either
            model, _ = search.train_discrete(geno, bundle, hp, seed=0)
            nodes = sum(1 for o in gc.get_objects() if isinstance(o, T.Node))
        finally:
            gc.enable()
        assert nodes == 0

    def test_m1_gradient_parallel_to_plain_cross_entropy(self):
        rng = np.random.default_rng(4)
        logits = Tensor(rng.normal(size=(6, 3)))
        y = rng.integers(0, 3, size=6)

        def grads_of(fn):
            t = Tensor(logits.data.copy(), requires_grad=True)
            with Tape():
                backward(fn(T.softmax(t, axis=1)))
            return t.grad.reshape(-1)

        g2 = grads_of(
            lambda p: losses.ensemble_train_loss([p], losses.ensemble_average([p]), y)
        )
        g1 = grads_of(lambda p: losses.cross_entropy(p, y))
        cos = g1 @ g2 / (np.linalg.norm(g1) * np.linalg.norm(g2))
        assert abs(cos - 1.0) < 1e-10
        np.testing.assert_allclose(g2, 2 * g1, atol=1e-12)


class TestBudgets:
    @pytest.mark.parametrize("method", ["pcdarts", "drnas", "randomnas"])
    def test_executed_phases_match_plan(self, method):
        # 65 examples split 33/32: 3 and 2 batches of 16 per epoch; bilevel
        # steps pair the two halves' batches, RandomNAS walks the 33
        data = gen_synthetic(classes=3, n_train=65, n_val=8, n_test=8,
                             image_size=16, seed=5)
        hp = dataclasses.replace(FAST_HP, batch=16)
        _, executed, _ = getattr(search, f"{method}_search")(data, TINY, hp, seed=0)
        planned = search.planned_budget(method, 65, hp, TrainHyperparams(), 1, 1)
        got = [(p["phase"], p["steps"]) for p in executed.phases]
        assert got == [(p["phase"], p["steps"]) for p in planned.phases
                       if p["phase"] != "train"]
        assert got[0][1] == 2 * (3 if method == "randomnas" else 2)  # 2 epochs

    def test_planned_matches_defaults_arithmetic(self):
        hp, tp = SearchHyperparams(), TrainHyperparams()
        one_shot = search.planned_budget("drnas", 2000, hp, tp, 25, 3)
        # 1000/64 -> 16 steps/epoch, two 25-epoch stages, plus 2000/128*100
        assert one_shot.total_steps == 16 * 25 * 2 + 16 * 100
        nes = search.planned_budget("nes_rs", 2000, hp, tp, 25, 3)
        assert nes.total_steps == 25 * 16 * 100

    def test_cost_gap_ratio_at_defaults(self):
        hp, tp = SearchHyperparams(), TrainHyperparams()
        nes = search.planned_budget("nes_rs", 2000, hp, tp, 25, 3).total_steps
        for method in ("pcdarts", "drnas", "randomnas"):
            one = search.planned_budget(method, 2000, hp, tp, 25, 3).total_steps
            assert nes // one >= 3
            assert nes >= 3 * one

    def test_one_shot_bound_from_module_invariant(self):
        hp, tp = SearchHyperparams(), TrainHyperparams()
        spe = search.steps_per_epoch(2000, tp.batch)
        got = search.planned_budget("pcdarts", 2000, hp, tp, 25, 3).total_steps
        assert got <= (hp.epochs + tp.epochs) * spe
