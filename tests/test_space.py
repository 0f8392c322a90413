"""Search space: genotypes, sampling, distances, candidate op behavior."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhnes import tensor as T
from mhnes.space import (
    DEFAULT_OPS,
    ModelSpec,
    MultiHeadGenotype,
    NodeChoice,
    build_op,
    genotype_edge_vector,
    genotype_from_spec,
    hamming,
    sample_random_genotype,
)
from mhnes.tensor import Tape, Tensor, backward

SPEC = ModelSpec(num_heads=2, cells_per_head=2, head_width=8, backbone_width=8)


class TestModelSpec:
    def test_default_op_set_has_seven_members(self):
        assert len(DEFAULT_OPS) == 7

    @pytest.mark.parametrize("nodes,expected", [(1, 2), (2, 5), (3, 9), (4, 14)])
    def test_edge_count(self, nodes, expected):
        spec = ModelSpec(nodes=nodes)
        assert len(spec.edges()) == expected == spec.num_edges

    def test_edges_are_dag_ordered(self):
        for i, j in SPEC.edges():
            assert i < j + 2  # source strictly earlier than the node

    def test_node_edge_ranges_partition_edge_list(self):
        spans = [SPEC.node_edge_range(j) for j in range(SPEC.nodes)]
        flat = [e for s, t in spans for e in range(s, t)]
        assert flat == list(range(SPEC.num_edges))


class TestGenotype:
    def test_roundtrip_identity(self, tmp_path):
        g = sample_random_genotype(SPEC, np.random.default_rng(1))
        p = tmp_path / "geno.json"
        g.save(p)
        assert MultiHeadGenotype.from_dict(json.loads(p.read_text())) == g

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_identity_property(self, seed):
        g = sample_random_genotype(SPEC, np.random.default_rng(seed))
        assert MultiHeadGenotype.from_dict(json.loads(json.dumps(g.to_dict()))) == g

    def test_file_schema_fields(self, tmp_path):
        g = sample_random_genotype(SPEC, np.random.default_rng(0))
        p = tmp_path / "geno.json"
        g.save(p)
        d = json.loads(p.read_text())
        assert set(d) == {"spec", "heads", "backbone"}
        assert {"M", "L", "nodes", "ops", "head_width"} <= set(d["spec"])
        assert set(d["backbone"]) == {"layers", "width"}
        entry = d["heads"][0][0]
        assert set(entry) == {"node", "inputs", "ops"}

    def test_invalid_inputs_rejected(self):
        bad = (NodeChoice(0, (0, 0), ("skip_connect", "skip_connect")),) + tuple(
            NodeChoice(j, (0, 1), ("skip_connect", "skip_connect"))
            for j in range(1, 4)
        )
        with pytest.raises(ValueError, match="distinct"):
            genotype_from_spec(ModelSpec(num_heads=1), [bad])

    def test_unknown_op_rejected(self):
        cell = tuple(
            NodeChoice(j, (0, 1), ("skip_connect", "warp_drive")) for j in range(4)
        )
        with pytest.raises(ValueError, match="unknown op"):
            genotype_from_spec(ModelSpec(num_heads=1), [cell])


class TestRandomSampling:
    def test_same_seed_identical(self):
        a = sample_random_genotype(SPEC, np.random.default_rng(99))
        b = sample_random_genotype(SPEC, np.random.default_rng(99))
        assert a == b

    def test_all_draws_valid(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            sample_random_genotype(SPEC, rng).validate()

    def test_heads_draw_independently_tiny_space(self):
        # nodes=1, 2 ops: 1 input pair x 2^2 op choices = 4 cell configs,
        # so P(two heads identical) = 1/4
        tiny = ModelSpec(num_heads=2, nodes=1, ops=("skip_connect", "avg_pool_3x3"))
        rng = np.random.default_rng(5)
        hits = sum(
            g.heads[0] == g.heads[1]
            for g in (sample_random_genotype(tiny, rng) for _ in range(10_000))
        )
        assert abs(hits / 10_000 - 0.25) < 0.02

    def test_full_space_collisions_are_absent(self):
        # ~1e9 configs per head: 10k draws should never collide across heads
        rng = np.random.default_rng(3)
        hits = sum(
            g.heads[0] == g.heads[1]
            for g in (sample_random_genotype(SPEC, rng) for _ in range(10_000))
        )
        assert hits == 0


class TestHamming:
    def test_identical_is_zero_and_symmetric(self):
        g = sample_random_genotype(SPEC, np.random.default_rng(2))
        assert hamming(g, g) == 0

    def test_single_op_difference_is_one(self):
        g = sample_random_genotype(SPEC, np.random.default_rng(4))
        cell = list(g.heads[0])
        choice = cell[0]
        new_op = next(o for o in SPEC.ops if o != choice.ops[0])
        cell[0] = NodeChoice(choice.node, choice.inputs, (new_op, choice.ops[1]))
        g2 = genotype_from_spec(SPEC, [tuple(cell)] + list(g.heads[1:]))
        assert hamming(g, g2) == 1

    @given(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_scan_and_symmetry(self, s1, s2):
        a = sample_random_genotype(SPEC, np.random.default_rng(s1))
        b = sample_random_genotype(SPEC, np.random.default_rng(s2))
        va, vb = genotype_edge_vector(a), genotype_edge_vector(b)
        naive = 0
        for x, y in zip(va, vb):
            if x != y:
                naive += 1
        assert hamming(a, b) == naive == hamming(b, a)

    def test_vector_length(self):
        g = sample_random_genotype(SPEC, np.random.default_rng(0))
        assert len(genotype_edge_vector(g)) == SPEC.num_heads * SPEC.nodes * 2

    def test_spec_mismatch_rejected(self):
        a = sample_random_genotype(SPEC, np.random.default_rng(0))
        other = ModelSpec(num_heads=3)
        b = sample_random_genotype(other, np.random.default_rng(0))
        with pytest.raises(ValueError, match="spec"):
            hamming(a, b)


class TestCandidateOps:
    @pytest.mark.parametrize("name", DEFAULT_OPS)
    @pytest.mark.parametrize("stride", [1, 2])
    def test_shapes(self, name, stride):
        rng = np.random.default_rng(0)
        op = build_op(name, rng, 8, stride)
        x = Tensor(rng.normal(size=(2, 8, 4, 4)))
        y = op(x)
        want = 4 if stride == 1 else 2
        assert y.shape == (2, 8, want, want)

    def test_skip_is_identity_at_stride_one(self):
        x = Tensor(np.random.default_rng(1).normal(size=(1, 4, 6, 6)))
        y = build_op("skip_connect", None, 4, 1)(x)
        np.testing.assert_array_equal(y.data, x.data)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_batch_mix_rolls_half_the_batch(self, stride):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(5, 3, 6, 6)), requires_grad=True)
        w = rng.normal(size=(5, 3, 6 // stride, 6 // stride))
        with Tape():
            y = build_op("batch_mix_a", None, 3, stride)(x)
            backward(T.mul(y, Tensor(w)).sum())
        kept = np.s_[:, :, ::stride, ::stride]
        np.testing.assert_array_equal(y.data, np.roll(x.data[kept], 2, axis=0))
        want = np.zeros_like(x.data)
        want[kept] = np.roll(w, -2, axis=0)
        np.testing.assert_array_equal(x.grad, want)

    def test_batch_mix_passes_a_single_example_through(self):
        x = Tensor(np.random.default_rng(3).normal(size=(1, 2, 4, 4)))
        y = build_op("batch_mix_a", None, 2, 1)(x)
        np.testing.assert_array_equal(y.data, x.data)

    def test_unknown_op_name(self):
        with pytest.raises(ValueError, match="unknown operation"):
            build_op("conv_11x11", None, 4, 1)
