"""Tensor engine: forward values, gradients vs finite differences, tape rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhnes import tensor as T
from mhnes.tensor import ShapeError, Tape, Tensor, backward, grad_check


def rng_points(seed, n=10):
    return np.random.default_rng(seed).spawn(n)


class TestElementwise:
    def test_add_values(self):
        out = T.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_mul_by_zero_scalar(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape():
            out = T.scale(x, 0.0)
            backward(out.sum())
        np.testing.assert_array_equal(out.data, np.zeros((2, 3)))
        np.testing.assert_array_equal(x.grad, np.zeros((2, 3)))

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2,\).*\(3,\)"):
            T.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("seed", range(10))
    def test_add_gradient_matches_finite_difference(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(3, 3)))
        b = Tensor(rng.normal(size=(3, 3)))
        c = Tensor(rng.normal(size=(3, 3)))
        err = grad_check(lambda a, b: T.mul(T.add(a, b), c).sum(), [a, b])
        assert err < 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_mul_sub_scale_gradients(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(4,)))
        b = Tensor(rng.normal(size=(4,)))
        err = grad_check(
            lambda a, b: T.add(T.mul(a, b), T.scale(T.sub(a, b), 0.7)).sum(),
            [a, b],
        )
        assert err < 1e-6


class TestMatmul:
    def test_identity(self):
        x = np.random.default_rng(0).normal(size=(3, 3))
        out = T.linear(Tensor(x), Tensor(np.eye(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, x)

    def test_small_product(self):
        out = T.linear(
            Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]), Tensor([0.5])
        )
        np.testing.assert_array_equal(out.data, [[3.5], [7.5]])

    def test_inner_extent_mismatch(self):
        with pytest.raises(ShapeError):
            T.linear(Tensor(np.ones((4, 5))), Tensor(np.ones((4, 3))),
                     Tensor(np.zeros(3)))

    def test_linear_bias_gradient(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(6, 4)))
        w = Tensor(rng.normal(size=(4, 3)))
        b = Tensor(rng.normal(size=(3,)))
        err = grad_check(lambda x, w, b: T.linear(x, w, b).sum(), [x, w, b])
        assert err < 1e-6


class TestSoftmax:
    def test_uniform(self):
        out = T.softmax(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 7))
        a = T.softmax(Tensor(x), axis=1).data
        b = T.softmax(Tensor(x + 100.0), axis=1).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_rows_sum_to_one_entries_in_unit_interval(self, seed):
        x = np.random.default_rng(seed).normal(scale=5.0, size=(4, 6))
        y = T.softmax(Tensor(x), axis=1).data
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(y > 0) and np.all(y <= 1)

    def test_empty_axis_rejected(self):
        with pytest.raises(ShapeError):
            T.softmax(Tensor(np.ones((3, 0))), axis=1)

    def test_softmax_gradient(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(2, 4)))
        w = rng.normal(size=(2, 4))
        err = grad_check(lambda x: T.mul(T.softmax(x, axis=1), Tensor(w)).sum(), [x])
        assert err < 1e-6


class TestReductionsAndShapes:
    def test_sum_grad_all_ones(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        with Tape():
            backward(x.sum())
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_x_squared_at_three(self):
        x = Tensor(3.0, requires_grad=True)
        with Tape():
            backward(T.mul(x, x))
        assert x.grad == pytest.approx(6.0)

    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_mean_gradient(self, axis):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(3, 4)))
        err = grad_check(lambda x: x.mean(axis=axis).sum(), [x])
        assert err < 1e-7

    def test_concat_narrow_roundtrip_gradients(self):
        rng = np.random.default_rng(5)
        a = Tensor(rng.normal(size=(2, 3)))
        b = Tensor(rng.normal(size=(2, 2)))
        w = rng.normal(size=(2, 5))

        def f(a, b):
            cat = T.concat([a, b], axis=1)
            left = T.narrow(cat, 1, 0, 3)
            return T.add(T.mul(cat, Tensor(w)).sum(), left.sum())

        assert grad_check(f, [a, b]) < 1e-6

    def test_pick_and_reshape(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(4, 3)))
        labels = np.array([0, 2, 1, 1])

        def f(x):
            return T.add(T.pick(x, labels).sum(), T.reshape(x, (12,)).mean())

        assert grad_check(f, [x]) < 1e-7
        with pytest.raises(IndexError):
            T.pick(x, np.array([0, 1, 2, 3]))

    def test_weighted_sum_matches_manual(self):
        rng = np.random.default_rng(2)
        ts = [Tensor(rng.normal(size=(3, 3))) for _ in range(3)]
        w = Tensor(rng.normal(size=3))
        out = T.weighted_sum(ts, w)
        manual = sum(wi * t.data for wi, t in zip(w.data, ts))
        np.testing.assert_allclose(out.data, manual, atol=1e-15)
        g = rng.normal(size=(3, 3))
        err = grad_check(
            lambda a, b, c, w: T.mul(T.weighted_sum([a, b, c], w), Tensor(g)).sum(),
            ts + [w],
        )
        assert err < 1e-6

    @pytest.mark.parametrize("groups", [4, 1])
    def test_channel_shuffle_is_permutation_and_inverts(self, groups):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 8, 3, 3)))
        y = T.channel_shuffle(x, groups)
        assert sorted(y.data.reshape(-1)) == sorted(x.data.reshape(-1))
        assert np.array_equal(y.data, x.data) == (groups == 1)
        assert grad_check(
            lambda x: T.mul(
                T.channel_shuffle(x, groups), Tensor(np.ones((2, 8, 3, 3)))
            ).mean(),
            [x],
        ) < 1e-7

    @pytest.mark.parametrize("groups, stride, start", [
        (2, 1, 2), (2, 2, 0), (4, 1, 0), (4, 2, 4),
    ])
    def test_partial_join_equals_narrow_concat_shuffle_bitwise(
            self, groups, stride, start):
        rng = np.random.default_rng(12)
        h = 5 if stride == 2 else 3
        x = Tensor(rng.normal(size=(2, 8, h, h)), requires_grad=True)
        y = Tensor(rng.normal(size=(2, 8 // groups + start + 2, 3, 3)),
                   requires_grad=True)
        g = rng.normal(size=(2, 8, 3, 3))

        def chained(y, x):
            c1 = 8 // groups
            bypass = T.narrow(x, 1, c1, 8 - c1)
            if stride == 2:
                bypass = T.subsample2(bypass)
            return T.channel_shuffle(T.concat([T.narrow(y, 1, start, c1), bypass], 1),
                                     groups)

        results = []
        for join in (lambda y, x: T.partial_join(y, start, x, groups, stride), chained):
            x.grad = y.grad = None
            with Tape():
                out = join(y, x)
                backward(T.mul(out, Tensor(g)).sum())
            results.append((out.data, y.grad, x.grad))
        for got, want in zip(*results):
            assert got.tobytes() == want.tobytes()

    def test_partial_join_rejects_a_block_outside_y(self):
        x = Tensor(np.zeros((1, 4, 3, 3)))
        with pytest.raises(ShapeError, match="partial_join"):
            T.partial_join(Tensor(np.zeros((1, 4, 3, 3))), 3, x, 2, 1)
        with pytest.raises(ShapeError, match="partial_join"):
            T.partial_join(Tensor(np.zeros((1, 2, 3, 3))), 0, x, 2, 2)

    def test_subsample2(self):
        x = Tensor(np.arange(32.0).reshape(1, 2, 4, 4))
        y = T.subsample2(x)
        assert y.shape == (1, 2, 2, 2)
        np.testing.assert_array_equal(y.data[0, 0], [[0, 2], [8, 10]])
        assert grad_check(lambda x: T.subsample2(x).sum(), [x]) < 1e-9

    def test_relu_log_clip(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(10,)) + 2.0)

        def f(x):
            return T.log(T.clip_min(T.relu(x), 1e-6)).sum()

        assert grad_check(f, [x]) < 1e-6


class TestBackwardSemantics:
    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            backward(T.scale(x, 2.0))

    def test_reuse_accumulates_both_paths(self):
        # y = x*x + 3x at x=2 -> dy/dx = 2x + 3 = 7
        x = Tensor(2.0, requires_grad=True)
        with Tape():
            backward(T.add(T.mul(x, x), T.scale(x, 3.0)))
        assert x.grad == pytest.approx(7.0)

    def test_repeated_backward_accumulates(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape():
            loss = x.sum()
            backward(loss)
            backward(loss)
        np.testing.assert_array_equal(x.grad, 2 * np.ones(3))

    def test_shared_subexpression_vs_finite_difference(self):
        rng = np.random.default_rng(17)
        x = Tensor(rng.normal(size=(3, 3)))

        def f(x):
            y = T.linear(x, x, Tensor(np.zeros(3)))  # x used twice
            return T.mul(y, y).sum()

        assert grad_check(f, [x]) < 1e-5

    def test_tape_topological_order_and_single_visit(self):
        x = Tensor(np.ones(2), requires_grad=True)
        visits = []
        with Tape() as tp:
            a = T.scale(x, 2.0)
            b = T.add(a, x)
            loss = b.sum()
            nodes = list(tp.nodes)
            for pos, node in enumerate(nodes):
                for inp in node.inputs:
                    if inp._node is not None:
                        assert nodes.index(inp._node) < pos
            assert len(set(map(id, nodes))) == len(nodes)
            for n in nodes:
                n.fn = (lambda f, n: lambda g: (visits.append(n), f(g))[1])(n.fn, n)
            backward(loss)
        assert len(visits) == len(nodes) == len({id(n) for n in visits})
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_nothing_recorded_outside_a_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = T.scale(x, 2.0)
        assert y._node is None and not y.requires_grad
        with pytest.raises(ValueError, match="recorded"):
            backward(y.sum())
        assert x.grad is None

    def test_second_open_tape_raises(self):
        with Tape():
            with pytest.raises(RuntimeError, match="already open"):
                with Tape():
                    pass
        with Tape():  # closing the outer tape frees the thread for a new one
            pass

    def test_backward_after_close_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tp:
            loss = T.scale(x, 2.0).sum()
        assert loss._node is None and tp.nodes == []
        with pytest.raises(ValueError, match="recorded"):
            backward(loss)
        assert x.grad is None

    def test_frozen_records_nothing_of_its_tensors_and_restores_flags(self):
        w = Tensor(np.ones(3), requires_grad=True)
        c = Tensor(np.ones(3))
        a = Tensor(np.full(3, 2.0), requires_grad=True)
        with pytest.raises(KeyError):
            with T.frozen([w, c]), Tape() as tp:
                backward(T.mul(T.scale(w, 2.0), a).sum())
                assert len(tp.nodes) == 2  # mul and sum, not the scale of w
                raise KeyError
        np.testing.assert_array_equal(a.grad, 2 * np.ones(3))
        assert w.grad is None
        assert w.requires_grad and not c.requires_grad


def _frozen_input_cases():
    """(op, inputs) of every engine op with more than one input."""
    rng = np.random.default_rng(9)

    def arr(*shape):
        return rng.normal(size=shape)

    return [
        pytest.param(T.add, [arr(2, 3), arr(2, 3)], id="add"),
        pytest.param(T.sub, [arr(2, 3), arr(2, 3)], id="sub"),
        pytest.param(T.mul, [arr(2, 3), arr(2, 3)], id="mul"),
        pytest.param(T.linear, [arr(2, 3), arr(3, 4), arr(4)], id="linear"),
        pytest.param(lambda a, b, c: T.concat([a, b, c], axis=1),
                     [arr(2, 1), arr(2, 3), arr(2, 2)], id="concat"),
        pytest.param(lambda a, b, w: T.weighted_sum([a, b], w),
                     [arr(2, 3), arr(2, 3), arr(2)], id="weighted_sum"),
        pytest.param(lambda a, b, t: T.edge_mix([a, b], t, [2, 0]),
                     [arr(2, 4, 1, 1), arr(2, 4, 1, 1), arr(3, 2)], id="edge_mix"),
        pytest.param(lambda y, x: T.partial_join(y, 2, x, 2, 2),
                     [arr(2, 6, 2, 2), arr(2, 4, 3, 3)], id="partial_join"),
    ]


class TestSkippedGradients:
    @pytest.mark.parametrize("op,arrays", _frozen_input_cases())
    def test_frozen_input_gets_none_and_the_rest_are_unchanged(self, op, arrays):
        for frozen in range(len(arrays)):
            ts = [Tensor(a, requires_grad=True) for a in arrays]
            with Tape():
                out = op(*ts)
                g = np.random.default_rng(1).normal(size=out.shape)
                want = out._node.fn(g)
                ts[frozen].requires_grad = False
                got = out._node.fn(g)
            assert got[frozen] is None
            for i in set(range(len(arrays))) - {frozen}:
                np.testing.assert_array_equal(got[i], want[i])

    def test_none_for_an_input_that_requires_a_gradient_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape():
            loss = T._record(x.data * 2.0, [x], lambda g: (None,), "lazy").sum()
            with pytest.raises(RuntimeError, match="lazy: the vjp built no gradient"):
                backward(loss)


class TestGradCheckHarness:
    def test_quadratic_near_exact(self):
        x = Tensor(np.random.default_rng(0).normal(size=(5,)))
        err = grad_check(lambda x: T.scale(T.mul(x, x).sum(), 0.5), [x])
        assert err < 1e-9

    def test_softmax_cross_entropy_composite(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(4, 5)))
        labels = np.array([0, 3, 2, 1])

        def f(x):
            logp = T.log(T.softmax(x, axis=1))
            return T.scale(T.pick(logp, labels).sum(), -0.25)

        assert grad_check(f, [x]) < 1e-6

    def test_corrupted_gradient_is_detected(self):
        # an op whose backward is deliberately wrong must trip the checker
        def bad_square(x):
            return T._record(x.data**2, [x], lambda g: (g * x.data,), "bad")

        x = Tensor(np.random.default_rng(2).normal(size=(4,)) + 3.0)
        assert grad_check(lambda x: bad_square(x).sum(), [x]) > 1e-2
