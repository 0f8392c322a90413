"""Supernet: mixture semantics, discretization, equivalences, Dirichlet state."""

import numpy as np
import pytest
from support import (
    as_stacked,
    named_parameters,
    per_edge_mixture,
    per_edge_supernet,
    supernet_as_discrete_arrays,
)

from mhnes import convops, losses, nn, search, space, tensor as T
from mhnes.dirichlet import sample_simplex_rows
from mhnes.optim import SGD
from mhnes.space import (
    ModelSpec,
    MultiHeadGenotype,
    NodeChoice,
    sample_random_genotype,
)
from mhnes.supernet import (
    ArchParams,
    DiscreteNetwork,
    MixedCell,
    MixedEdge,
    Supernet,
    discretize,
    mix_edges,
    one_hot_arch,
)
from mhnes.tensor import Tape, Tensor, backward

SMALL = ModelSpec(
    num_heads=2, cells_per_head=1, head_width=8, backbone_width=8
)


def copy_matching_params(src_mod, dst_mod):
    dst_mod.load_state_arrays(src_mod.state_arrays())


def mixed(edge, x, w):
    """The output of ``edge`` mixed by weights ``w``: a stack of one edge,
    whose ops are their own stacks."""
    table = Tensor(np.reshape(w, (1, -1)))
    return edge.join(mix_edges(edge.ops, x, edge.c // edge.k, table, [0]), x)


class TestMixedEdge:
    def test_weighted_sum_matches_external_oracle(self):
        rng = np.random.default_rng(0)
        ops = ("skip_connect", "max_pool_3x3", "avg_pool_3x3")
        edge = MixedEdge(rng, ops, 4, stride=1, k=1)
        x = Tensor(rng.normal(size=(1, 4, 6, 6)))
        alpha = rng.normal(size=3)
        w = np.exp(alpha - alpha.max())
        w /= w.sum()
        got = mixed(edge, x, w).data
        want = sum(
            wi * edge.ops[i](Tensor(x.data.copy())).data for i, wi in enumerate(w)
        )
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_one_hot_margin_matches_selected_op(self):
        rng = np.random.default_rng(1)
        ops = ("sep_conv_3x3", "skip_connect", "avg_pool_3x3")
        edge = MixedEdge(rng, ops, 4, stride=1, k=1)
        x = Tensor(rng.normal(size=(2, 4, 5, 5)))
        alpha = np.full(3, -40.0)
        alpha[1] = 40.0
        w = T.softmax(Tensor(alpha)).data
        got = mixed(edge, x, w).data
        assert np.abs(got - x.data).max() < 1e-8

    def test_duplicate_skip_set_uniform_weights_is_identity(self):
        rng = np.random.default_rng(2)
        edge = MixedEdge(rng, ("skip_connect", "skip_connect"), 4, stride=1, k=1)
        x = Tensor(rng.normal(size=(1, 4, 4, 4)))
        got = mixed(edge, x, [0.5, 0.5]).data
        np.testing.assert_allclose(got, x.data, atol=1e-12)

    def test_partial_channels_bypass_and_shuffle(self):
        rng = np.random.default_rng(3)
        edge = MixedEdge(rng, ("skip_connect",), 8, stride=1, k=4)
        x = Tensor(rng.normal(size=(1, 8, 3, 3)))
        y = mixed(edge, x, [1.0]).data
        # with only skip in the mixture, output is a channel permutation of x
        assert sorted(y.reshape(-1)) == sorted(x.data.reshape(-1))

    def test_partial_bypass_channels_pass_unchanged(self):
        # zero mixture weight blanks the processed fraction; the surviving
        # nonzero channels are exactly the bypassed ones, values intact
        rng = np.random.default_rng(6)
        edge = MixedEdge(rng, ("skip_connect",), 8, stride=1, k=4)
        x = Tensor(rng.normal(size=(2, 8, 3, 3)) + 10.0)
        y = mixed(edge, x, [0.0]).data
        nonzero = y[:, np.abs(y).sum(axis=(0, 2, 3)) > 0]
        np.testing.assert_array_equal(
            np.sort(nonzero.reshape(-1)), np.sort(x.data[:, 2:].reshape(-1))
        )
        assert nonzero.shape[1] == 6  # 8 - 8/4 bypassed channels

    def test_indivisible_channels_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            MixedEdge(np.random.default_rng(0), ("skip_connect",), 6, 1, k=4)

    def test_weight_length_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        edge = MixedEdge(rng, ("skip_connect", "avg_pool_3x3"), 4, 1, k=1)
        with pytest.raises(T.ShapeError):
            mixed(edge, Tensor(np.zeros((1, 4, 4, 4))), [1.0, 0.0, 0.0])


class TestEdgeCombination:
    def test_uniform_and_one_hot_beta(self):
        rng = np.random.default_rng(4)
        outs = [Tensor(rng.normal(size=(2, 3))) for _ in range(2)]
        uniform = T.weighted_sum(outs, T.softmax(Tensor([0.0, 0.0]))).data
        np.testing.assert_allclose(uniform, (outs[0].data + outs[1].data) / 2, atol=1e-12)
        onehot = T.weighted_sum(outs, T.softmax(Tensor([40.0, -40.0]))).data
        np.testing.assert_allclose(onehot, outs[0].data, atol=1e-8)

    def test_random_beta_matches_external_sum(self):
        rng = np.random.default_rng(5)
        outs = [Tensor(rng.normal(size=(3, 4))) for _ in range(3)]
        beta = rng.normal(size=3)
        w = np.exp(beta - beta.max())
        w /= w.sum()
        got = T.weighted_sum(outs, T.softmax(Tensor(beta))).data
        want = sum(wi * o.data for wi, o in zip(w, outs))
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestSupernetForward:
    def _net(self, spec=SMALL, mode="plain", k=1, seed=0):
        rng = np.random.default_rng(seed)
        arch = ArchParams(spec, mode, rng)
        return Supernet(rng, spec, arch, 4, k=k), arch

    def test_rows_sum_to_one(self):
        net, _ = self._net()
        x = Tensor(np.random.default_rng(1).normal(size=(5, 1, 16, 16)))
        for probs in net(x):
            np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-10)
            assert probs.shape == (5, 4)

    def test_identical_inputs_identical_rows(self):
        net, _ = self._net()
        one = np.random.default_rng(2).normal(size=(1, 1, 16, 16))
        x = Tensor(np.repeat(one, 4, axis=0))
        for probs in net(x):
            for row in probs.data[1:]:
                np.testing.assert_allclose(row, probs.data[0], atol=1e-12)

    def test_partial_k1_equals_plain_bitwise(self):
        spec = SMALL
        rng_in = np.random.default_rng(3)
        net1, arch1 = self._net(seed=7)
        net2, arch2 = self._net(seed=8, k=1)
        copy_matching_params(net1, net2)
        for a, b in zip(arch1.tensors(), arch2.tensors()):
            b.data[...] = a.data
        x = np.random.default_rng(4).normal(size=(3, 1, 16, 16))
        outs1 = [p.data for p in net1(Tensor(x))]
        outs2 = [p.data for p in net2(Tensor(x))]
        np.testing.assert_array_equal(outs1, outs2)

    def test_discrete_mode_matches_standalone_network(self):
        spec = ModelSpec(
            num_heads=1, cells_per_head=2, head_width=8, backbone_width=8
        )
        rng = np.random.default_rng(11)
        geno = sample_random_genotype(spec, rng)
        arch = ArchParams(spec, "plain", rng)
        sup = Supernet(np.random.default_rng(12), spec, arch, 4, k=1)
        net = DiscreteNetwork(np.random.default_rng(13), geno, 4)
        net.load_state_arrays(supernet_as_discrete_arrays(sup, net))
        x = np.random.default_rng(14).normal(size=(4, 1, 16, 16))
        got = sup.predict(x, [geno])[0]
        want = np.stack([p.data for p in net(Tensor(x))])
        assert np.abs(got - want).max() < 1e-10

    def test_predict_depends_on_chunk_size(self):
        # supernet norms use batch statistics: a chunk is normalized on its own
        net, _ = self._net()
        gs = [sample_random_genotype(SMALL, np.random.default_rng(15))]
        x = np.random.default_rng(15).normal(size=(8, 1, 16, 16))
        whole = net.predict(x, gs, batch=len(x))
        chunked = net.predict(x, gs, batch=3)
        assert np.abs(whole - chunked).max() > 1e-6
        np.testing.assert_array_equal(
            chunked[:, :, :3], net.predict(x[:3], gs, batch=3)
        )
        np.testing.assert_array_equal(whole, net.predict(x, gs))

    def test_discrete_param_count_below_supernet(self):
        for seed in range(3):
            spec = SMALL
            rng = np.random.default_rng(seed)
            arch = ArchParams(spec, "plain", rng)
            sup = Supernet(rng, spec, arch, 4, k=1)
            geno = sample_random_genotype(spec, rng)
            net = DiscreteNetwork(rng, geno, 4)
            assert net.param_count() < sup.param_count()

    def test_sampled_mode_requires_genotype(self):
        net, _ = self._net()
        with pytest.raises(ValueError, match="genotype"):
            net(Tensor(np.zeros((1, 1, 16, 16))), mode="sampled")


PLANTED_OPS = ("skip_connect", "batch_mix_a")
STACK_SPEC = ModelSpec(
    num_heads=2, cells_per_head=2, head_width=8, backbone_width=8
)


class TestStackedMixture:
    """The stacked mixture of ``MixedCell`` against the per-edge reference
    loop, ``support.per_edge_mixture``, on a network whose edges own their
    weights (``support.per_edge_supernet``), on one continuous forward and
    backward: head probabilities, every weight gradient (the reference's
    per-edge gradients concatenated into the stacked layout) and every
    architecture gradient. The stacked weights must equal the reference's
    per-edge draws."""

    def _run(self, spec, mode, k, head_ops=None, reference=False, monkeypatch=None):
        arch = ArchParams(spec, mode, np.random.default_rng(30), head_ops=head_ops)
        rng = np.random.default_rng(31)
        for t in arch.tensors():  # away from the uniform start
            t.data[...] = np.abs(t.data + rng.normal(0.0, 0.5, t.shape)) + 0.1
        if not reference:
            net = Supernet(np.random.default_rng(32), spec, arch, 3, k=k)
        else:
            net = per_edge_supernet(32, spec, arch, 3, k)
            run_cell = MixedCell.__call__

            def per_edge(self, x, table=None, betas=None, cell_genotype=None,
                         shared=None):
                if table is None:
                    return run_cell(self, x, table, betas, cell_genotype, shared)
                return per_edge_mixture(self, x, table, betas)

            monkeypatch.setattr(MixedCell, "__call__", per_edge)
        data = np.random.default_rng(33)
        x = data.normal(size=(6, 1, 16, 16))
        y = data.integers(0, 3, size=6)
        with T.Tape():
            probs = net(Tensor(x), rng=np.random.default_rng(34))
            loss = losses.ensemble_train_loss(probs, losses.ensemble_average(probs), y)
            backward(loss)
        grads = {name: p.grad for name, p in named_parameters(net).items()}
        weights = net.state_arrays()
        if reference:
            grads, weights = as_stacked(spec, grads), as_stacked(spec, weights)
        grads.update((f"arch.{i}", t.grad) for i, t in enumerate(arch.tensors()))
        assert all(g is not None for g in grads.values())
        return [p.data for p in probs], weights, grads

    @pytest.mark.parametrize("spec, mode, k, head_ops", [
        (STACK_SPEC, "drnas", 4, None),
        (STACK_SPEC, "drnas", 2, None),
        (STACK_SPEC, "pcdarts", 2, None),
        (ModelSpec(num_heads=2, cells_per_head=1, head_width=8, backbone_width=8),
         "plain", 2, None),
        (STACK_SPEC, "drnas", 2, [STACK_SPEC.ops[:3], STACK_SPEC.ops[2:6]]),
        (ModelSpec(num_heads=2, cells_per_head=2, ops=PLANTED_OPS,
                   head_width=8, backbone_width=8), "pcdarts", 2, None),
    ], ids=["drnas-k4", "drnas-k2", "pcdarts-k2-betas", "reduction-cell-only",
            "pruned-head-ops", "planted-ops"])
    def test_equals_per_edge_loop_bitwise(self, monkeypatch, spec, mode, k, head_ops):
        probs, weights, grads = self._run(spec, mode, k, head_ops)
        ref_probs, ref_weights, ref_grads = self._run(
            spec, mode, k, head_ops, True, monkeypatch
        )
        assert weights.keys() == ref_weights.keys()
        for name, a in weights.items():
            assert a.tobytes() == ref_weights[name].tobytes(), name
        for a, b in zip(probs, ref_probs):
            np.testing.assert_array_equal(a, b)
        assert grads.keys() == ref_grads.keys()
        for name, a in grads.items():
            np.testing.assert_array_equal(a, ref_grads[name], err_msg=name)

    def test_one_conv_call_per_layer_per_read_state(self, monkeypatch):
        spec = ModelSpec()
        calls = []
        run_conv = convops.conv2d

        def count(*args, **kwargs):
            calls.append(args[1].shape)
            return run_conv(*args, **kwargs)

        monkeypatch.setattr(convops, "conv2d", count)
        arch = ArchParams(spec, "drnas", np.random.default_rng(0))
        net = Supernet(np.random.default_rng(1), spec, arch, 3)
        net(Tensor(np.random.default_rng(2).normal(size=(2, 1, 16, 16))))
        # per cell: 2 preprocessing convs, then the 12 conv layers of the ops
        # (two sep_convs of 4, two dil_convs of 2) once for each of the 5
        # states that edges read; the backbone adds a stem and two stride-2
        # blocks of 3 convs. One call per edge would make 9 * 170 + 7 = 1537.
        assert (spec.num_heads, spec.cells_per_head, spec.nodes) == (3, 3, 4)
        assert len(calls) == 9 * (2 + 5 * 12) + 7 == 565

    def test_weights_are_stored_stacked(self, monkeypatch):
        spec = ModelSpec()
        joins = []
        run_concat = T.concat

        def count(tensors, axis):
            joins.append(len(tensors))
            return run_concat(tensors, axis)

        monkeypatch.setattr(T, "concat", count)
        arch = ArchParams(spec, "drnas", np.random.default_rng(0))
        net = Supernet(np.random.default_rng(1), spec, arch, 3, k=4)
        # per cell: 2 preprocessing convs and the 12 conv layers of the ops
        # for each of the 5 read states; the backbone adds 7 convs and each
        # head a classifier of 2 arrays. One array per edge and layer made
        # 9 * (2 + 14 * 12) + 7 + 6 = 1543.
        assert len(net.parameters()) == 9 * (2 + 5 * 12) + 7 + 6 == 571
        net(Tensor(np.random.default_rng(2).normal(size=(2, 1, 16, 16))))
        # no weight concatenation and no partial-channel concat: only each
        # cell's output joins its node states
        assert joins == [spec.nodes] * 9

    def test_sampled_training_steps_only_the_blocks_read(self):
        # The per-edge supernet trains on its own arrays, which SGD skips for
        # the edges a genotype did not read; the stacked one must match it.
        arch = ArchParams(STACK_SPEC, "plain", np.random.default_rng(30))
        nets = [Supernet(np.random.default_rng(32), STACK_SPEC, arch, 3, k=1),
                per_edge_supernet(32, STACK_SPEC, arch, 3, 1)]
        params = [nets[0].sampled_parameters(), nets[1].parameters()]
        assert len(params[0]) == len(params[1])
        opts = [SGD(p, lr=0.1, momentum=0.9, weight_decay=3e-4) for p in params]
        data = np.random.default_rng(33)
        for _ in range(3):
            geno = sample_random_genotype(STACK_SPEC, data)
            x, y = data.normal(size=(4, 1, 16, 16)), data.integers(0, 3, size=4)
            for net, opt in zip(nets, opts):
                search._train_step(net, opt, losses.ensemble_train_loss, x, y,
                                   mode="sampled", genotype=geno)
        got, want = nets[0].state_arrays(), as_stacked(STACK_SPEC, nets[1].state_arrays())
        assert got.keys() == want.keys()
        for name, a in got.items():
            assert a.tobytes() == want[name].tobytes(), name

    def test_stacked_ops_run_the_classes_own_forwards(self, monkeypatch):
        # Counted as the benchmark tracer counts layers: by wrapping
        # ``forward`` and its ``__call__`` alias on each class.
        spec = ModelSpec()
        counts = {}

        def counting(name, fn):
            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(convops, "conv2d", counting("conv2d", convops.conv2d))
        for cls in (nn.Conv2d, space.Identity, space.SubsampleSkip, space.SepConv,
                    space.DilConv, space.PoolOp, space.BatchMix):
            counted = counting(cls.__name__, cls.forward)
            monkeypatch.setattr(cls, "forward", counted)
            monkeypatch.setattr(cls, "__call__", counted)
        arch = ArchParams(spec, "drnas", np.random.default_rng(0))
        net = Supernet(np.random.default_rng(1), spec, arch, 3)
        net(Tensor(np.random.default_rng(2).normal(size=(2, 1, 16, 16))))
        # each op class runs once per read state of each cell and candidate
        # op of the class; a first cell's two inputs feed stride-2 edges,
        # whose skip_connect is a SubsampleSkip
        reads = spec.num_heads * spec.cells_per_head * (spec.nodes + 1)
        strided = spec.num_heads * 2
        assert counts == {
            "conv2d": 565, "Conv2d": 565,
            "SepConv": 2 * reads, "DilConv": 2 * reads, "PoolOp": 2 * reads,
            "Identity": reads - strided, "SubsampleSkip": strided,
        }

    def test_k1_equals_per_edge_loop_to_the_last_bits(self, monkeypatch):
        # At K = 1 the ops read the state itself. Stacked, an edge's op
        # gradients sum first and that sum is added into the state; per edge,
        # each op's part was added into the state in turn. Outputs stay equal.
        # The last-bit differences are relative to the summands, so an entry
        # formed by cancellation can differ by more than 1e-12 of itself; the
        # absolute part scales 1e-12 by the array's largest entry.
        probs, _, grads = self._run(STACK_SPEC, "drnas", 1)
        ref_probs, _, ref_grads = self._run(STACK_SPEC, "drnas", 1, None, True, monkeypatch)
        for a, b in zip(probs, ref_probs):
            np.testing.assert_array_equal(a, b)
        assert grads.keys() == ref_grads.keys()
        assert any(not np.array_equal(a, ref_grads[n]) for n, a in grads.items())
        for name, a in grads.items():
            b = ref_grads[name]
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())


# state_arrays() keys of the default DiscreteNetwork of ``test_norm_policy``,
# in the order that sets the bytes of weights.npz (recorded before norm
# tracking moved into DiscreteNetwork)
TRACKED_KEYS = [
    "backbone.stem.weight",
    "backbone.stem_norm.running_mean",
    "backbone.stem_norm.running_var",
    "backbone.blocks.0.conv1.weight",
    "backbone.blocks.0.n1.running_mean",
    "backbone.blocks.0.n1.running_var",
    "backbone.blocks.0.conv2.weight",
    "backbone.blocks.0.n2.running_mean",
    "backbone.blocks.0.n2.running_var",
    "backbone.blocks.0.shortcut.weight",
    "backbone.blocks.1.conv1.weight",
    "backbone.blocks.1.n1.running_mean",
    "backbone.blocks.1.n1.running_var",
    "backbone.blocks.1.conv2.weight",
    "backbone.blocks.1.n2.running_mean",
    "backbone.blocks.1.n2.running_var",
    "backbone.blocks.1.shortcut.weight",
    "heads.0.cells.0.pre.0.conv.weight",
    "heads.0.cells.0.pre.0.norm.running_mean",
    "heads.0.cells.0.pre.0.norm.running_var",
    "heads.0.cells.0.pre.1.conv.weight",
    "heads.0.cells.0.pre.1.norm.running_mean",
    "heads.0.cells.0.pre.1.norm.running_var",
    "heads.0.cells.0.edges.0.ops.0.dw1.weight",
    "heads.0.cells.0.edges.0.ops.0.pw1.weight",
    "heads.0.cells.0.edges.0.ops.0.n1.running_mean",
    "heads.0.cells.0.edges.0.ops.0.n1.running_var",
    "heads.0.cells.0.edges.0.ops.0.dw2.weight",
    "heads.0.cells.0.edges.0.ops.0.pw2.weight",
    "heads.0.cells.0.edges.0.ops.0.n2.running_mean",
    "heads.0.cells.0.edges.0.ops.0.n2.running_var",
    "heads.0.cells.0.edges.1.ops.0.dw.weight",
    "heads.0.cells.0.edges.1.ops.0.pw.weight",
    "heads.0.cells.0.edges.1.ops.0.n.running_mean",
    "heads.0.cells.0.edges.1.ops.0.n.running_var",
    "heads.0.classifier.weight",
    "heads.0.classifier.bias",
]


def test_norm_policy():
    """Supernet norms use batch statistics; a DiscreteNetwork's norms track
    running statistics."""
    sup = Supernet(np.random.default_rng(0), SMALL,
                   ArchParams(SMALL, "plain", np.random.default_rng(0)), 4)
    norms = [m for _, m in sup.modules() if isinstance(m, nn.Norm)]
    assert norms and not any(m.track for m in norms)
    spec = ModelSpec(num_heads=1, cells_per_head=1, nodes=1,
                     ops=("skip_connect", "sep_conv_3x3", "dil_conv_3x3"),
                     backbone_width=4, head_width=4)
    geno = MultiHeadGenotype(
        spec, ((NodeChoice(0, (0, 1), ("sep_conv_3x3", "dil_conv_3x3")),),)
    ).validate()
    net = DiscreteNetwork(np.random.default_rng(0), geno, 2)
    assert list(net.state_arrays()) == TRACKED_KEYS
    norm_prefixes = [p for p, m in net.modules() if isinstance(m, nn.Norm)]
    assert len(norm_prefixes) == 10
    for p in norm_prefixes:
        assert {p + "running_mean", p + "running_var"} <= set(TRACKED_KEYS)


class TestDiscretize:
    def test_one_hot_roundtrip_is_identity(self):
        for seed in range(5):
            geno = sample_random_genotype(SMALL, np.random.default_rng(seed))
            arch = one_hot_arch(geno)
            assert discretize(arch) == geno

    def test_hand_ranked_edge_strengths(self):
        # node 1 has 3 candidate edges; plant max-op weights 0.5/0.3/0.2 on
        # them (7-op rows: one raised logit, six at zero), keep the strongest two
        spec = ModelSpec(num_heads=1, nodes=2)
        arch = ArchParams(spec, "plain", np.random.default_rng(0), init_scale=0.0)
        start, stop = spec.node_edge_range(1)

        def logits_for(p):
            # softmax max entry p with six zero logits: a = log(6p/(1-p))
            row = np.zeros(7)
            row[0] = np.log(6 * p / (1 - p))
            return row

        for e, p in zip(range(start, stop), (0.5, 0.3, 0.2)):
            arch.alpha[0].data[e] = logits_for(p)
        got = discretize(arch).heads[0][1]
        assert got.inputs == (0, 1)  # strongest two of the three candidates
        assert got.ops == ("skip_connect", "skip_connect")

    @pytest.mark.parametrize("mode", ["pcdarts", "drnas"])
    def test_nonfinite_params_raise(self, mode):
        arch = ArchParams(SMALL, mode, np.random.default_rng(0))
        arch.alpha[-1].data[3, 2] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite"):
            discretize(arch)

    def test_all_ties_pick_lowest_indices(self):
        spec = ModelSpec(num_heads=1)
        arch = ArchParams(spec, "plain", np.random.default_rng(0), init_scale=0.0)
        g1 = discretize(arch)
        g2 = discretize(arch)
        assert g1 == g2
        for choice in g1.heads[0]:
            assert choice.inputs == (0, 1)
            assert choice.ops == (spec.ops[0], spec.ops[0])

    def test_pcdarts_beta_scales_edge_ranking(self):
        spec = ModelSpec(num_heads=1, nodes=2, ops=("skip_connect", "avg_pool_3x3"))
        arch = ArchParams(spec, "pcdarts", np.random.default_rng(0), init_scale=0.0)
        start, stop = spec.node_edge_range(1)
        # alpha ties everywhere; beta promotes the last two edges
        arch.beta[0].data[start:stop] = [0.0, 5.0, 5.0]
        got = discretize(arch).heads[0][1]
        assert got.inputs == (1, 2)

    def test_drnas_uses_expected_weights(self):
        spec = ModelSpec(num_heads=1, nodes=2, ops=("skip_connect", "avg_pool_3x3"))
        arch = ArchParams(spec, "drnas", np.random.default_rng(0))
        start, stop = spec.node_edge_range(1)
        arch.alpha[0].data[...] = 1.0
        arch.alpha[0].data[start + 1] = [9.0, 1.0]  # strong skip on middle edge
        arch.alpha[0].data[start + 2] = [1.0, 6.0]  # strong pool on last edge
        got = discretize(arch).heads[0][1]
        assert got.inputs == (1, 2)
        assert got.ops == ("skip_connect", "avg_pool_3x3")


class TestArchParams:
    def test_shapes_and_modes(self):
        rng = np.random.default_rng(0)
        for mode in ("plain", "pcdarts", "drnas"):
            arch = ArchParams(SMALL, mode, rng)
            assert len(arch.alpha) == SMALL.num_heads
            assert arch.alpha[0].shape == (14, 7)
            assert (len(arch.beta) == SMALL.num_heads) == (mode == "pcdarts")

    def test_drnas_clamp_floor(self):
        arch = ArchParams(SMALL, "drnas", np.random.default_rng(0))
        arch.alpha[0].data[0, 0] = -5.0
        arch.clamp()
        assert arch.alpha[0].data[0, 0] == ArchParams.CONC_FLOOR

    def test_snapshot_restore_and_flat_roundtrip(self):
        rng = np.random.default_rng(1)
        arch = ArchParams(SMALL, "pcdarts", rng)
        flat = arch.flat()
        for t in arch.tensors():
            t.data += 1.0
        arch.set_flat(flat)
        np.testing.assert_array_equal(arch.flat(), flat)
        vec = np.arange(flat.size, dtype=float)
        arch.set_flat(vec)
        np.testing.assert_array_equal(arch.flat(), vec)


class TestDirichletSampling:
    def test_simplex_validity(self):
        rng = np.random.default_rng(0)
        conc = Tensor(rng.uniform(0.2, 5.0, size=(14, 7)))
        for _ in range(50):
            w = sample_simplex_rows(conc, rng).data
            np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-10)
            assert (w >= 0).all()

    def test_empirical_mean_matches_dirichlet_mean(self):
        rng = np.random.default_rng(7)
        conc = Tensor(np.array([[8.0, 1, 1, 1, 1, 1, 1]]))
        total = np.zeros(7)
        n = 10_000
        for _ in range(n):
            total += sample_simplex_rows(conc, rng).data[0]
        assert abs(total[0] / n - 8.0 / 14.0) < 0.02

    def test_pathwise_gradient_mean_matches_analytic(self):
        # E[dw_0/dc] equals the gradient of the Dirichlet mean c_0/sum(c)
        rng = np.random.default_rng(123)
        c = np.array([[2.0, 0.7, 1.5]])
        s = c.sum()
        analytic = (np.array([1.0, 0.0, 0.0]) * s - c[0, 0]) / s**2
        acc = np.zeros(3)
        n = 8000
        for _ in range(n):
            t = Tensor(c.copy(), requires_grad=True)
            with Tape():
                w = sample_simplex_rows(t, rng)
                backward(T.reshape(T.narrow(w, 1, 0, 1), ()))
            acc += t.grad[0]
        np.testing.assert_allclose(acc / n, analytic, atol=0.012)

    def test_nonpositive_concentration_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            sample_simplex_rows(Tensor([[1.0, 0.0]]), np.random.default_rng(0))
