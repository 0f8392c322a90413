"""Convolution, pooling, and normalization: shapes, values, gradients."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from support import conv_digest, im2col_conv2d, nchw_pool2d

from mhnes import convops, tensor as T
from mhnes.convops import conv2d, conv_out_extent, normalize_no_affine, pool2d
from mhnes.space import ModelSpec
from mhnes.supernet import Backbone
from mhnes.tensor import ShapeError, Tensor, grad_check


def naive_conv2d(x, w, stride, padding, dilation, groups):
    """Loop reference used as the independent forward oracle."""
    n, c, h, wd = x.shape
    co, cg, kh, kw = w.shape
    oh = conv_out_extent(h, kh, stride, padding, dilation)
    ow = conv_out_extent(wd, kw, stride, padding, dilation)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, co, oh, ow))
    cpg = c // groups
    opg = co // groups
    for b in range(n):
        for o in range(co):
            g = o // opg
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ci in range(cg):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += (
                                    xp[
                                        b,
                                        g * cpg + ci,
                                        i * stride + ki * dilation,
                                        j * stride + kj * dilation,
                                    ]
                                    * w[o, ci, ki, kj]
                                )
                    out[b, o, i, j] = acc
    return out


class TestConv2d:
    def test_one_by_one_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 5, 5))
        w = np.eye(3).reshape(3, 3, 1, 1)
        out = conv2d(Tensor(x), Tensor(w))
        np.testing.assert_allclose(out.data, x, atol=1e-15)

    def test_output_extent_formula(self):
        x = Tensor(np.zeros((1, 1, 8, 8)))
        w = Tensor(np.zeros((1, 1, 3, 3)))
        out = conv2d(x, w, stride=2, padding=1)
        assert out.shape == (1, 1, 4, 4)

    @pytest.mark.parametrize(
        "stride,padding,dilation,groups",
        [(1, 0, 1, 1), (1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 2, 1), (1, 1, 1, 2), (2, 1, 1, 4)],
    )
    def test_matches_naive_loop(self, stride, padding, dilation, groups):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(2, 4, 7, 7))
        w = rng.normal(size=(4, 4 // groups, 3, 3))
        got = conv2d(Tensor(x), Tensor(w), stride, padding, dilation, groups).data
        want = naive_conv2d(x, w, stride, padding, dilation, groups)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_gradients_vs_finite_difference(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(1, 2, 6, 6)))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)))
        err = grad_check(
            lambda x, w: conv2d(x, w, stride=1, padding=1).sum(), [x, w]
        )
        assert err < 1e-5

    @pytest.mark.parametrize(
        "stride,padding,dilation,groups",
        [(2, 1, 1, 1), (1, 2, 2, 1), (1, 1, 1, 2)],
    )
    def test_gradients_strided_dilated_grouped(self, stride, padding, dilation, groups):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(2, 4, 5, 5)))
        w = Tensor(rng.normal(size=(4, 4 // groups, 3, 3)))
        mask = rng.normal(
            size=conv2d(x, w, stride, padding, dilation, groups).shape
        )
        err = grad_check(
            lambda x, w: T.mul(
                conv2d(x, w, stride, padding, dilation, groups), Tensor(mask)
            ).sum(),
            [x, w],
        )
        assert err < 1e-5

    def test_bad_groups_rejected(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 1, 3, 3))), groups=2)

    def test_nonpositive_output_rejected(self):
        with pytest.raises(ShapeError, match="non-positive"):
            conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError, match="odd"):
            conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 2, 2))))

    @given(
        h=st.integers(4, 12),
        k=st.sampled_from([1, 3, 5]),
        s=st.integers(1, 3),
        p=st.integers(0, 2),
        d=st.integers(1, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_shape_formula_sweep(self, h, k, s, p, d):
        oh = conv_out_extent(h, k, s, p, d)
        x = Tensor(np.zeros((1, 1, h, h)))
        w = Tensor(np.zeros((1, 1, k, k)))
        if oh <= 0:
            with pytest.raises(ShapeError):
                conv2d(x, w, s, p, d)
        else:
            assert conv2d(x, w, s, p, d).shape == (1, 1, oh, oh)


# (n, c, h, c_out, groups, k, stride, padding, dilation) of the convs the
# search and pool workloads run
WORKLOAD_CONVS = {
    "sep3x3-2x2": (32, 16, 2, 16, 16, 3, 1, 1, 1),
    "sep5x5-2x2": (32, 16, 2, 16, 16, 5, 1, 2, 1),
    "dil3x3-2x2": (32, 16, 2, 16, 16, 3, 1, 2, 2),
    "dil5x5-2x2-one-offset": (32, 16, 2, 16, 16, 5, 1, 4, 2),
    "sep3x3-stride2": (32, 16, 4, 16, 16, 3, 2, 1, 1),
    "sep5x5-stride2": (32, 16, 4, 16, 16, 5, 2, 2, 1),
    "dil5x5-stride2": (32, 16, 4, 16, 16, 5, 2, 4, 2),
    "pointwise-stride2": (8, 16, 16, 16, 1, 1, 2, 0, 1),
    "backbone-stem-16x16": (8, 1, 16, 16, 1, 3, 1, 1, 1),
    "backbone-16x16-stride2": (8, 16, 16, 16, 1, 3, 2, 1, 1),
    "backbone-8x8": (8, 16, 8, 16, 1, 3, 1, 1, 1),
    "pointwise-64to16": (32, 64, 2, 16, 1, 1, 1, 0, 1),
    "pointwise-4x4": (32, 16, 4, 16, 1, 1, 1, 0, 1),
    "partial4-sep3x3": (16, 4, 2, 4, 4, 3, 1, 1, 1),
    "partial4-dil3x3-stride2": (16, 4, 4, 4, 4, 3, 2, 2, 2),
    "partial4-pointwise": (16, 4, 2, 4, 1, 1, 1, 0, 1),
}


class TestConv2dBitExact:
    @staticmethod
    def check(shape, co, groups, k, stride, padding, dilation, rng):
        """Output, input gradient and weight gradient against the im2col
        reference, each element within 2*n*u*sum|terms|: both sides sum the
        same n terms, in orders of their own, so each is within n*u*sum|terms|
        of the exact sum."""
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        w = Tensor(rng.normal(size=(co, shape[1] // groups, k, k)),
                   requires_grad=True)
        with T.Tape():
            out = conv2d(x, w, stride, padding, dilation, groups)
            g = rng.normal(size=out.shape)
            T.backward(T.mul(out, Tensor(g)).sum())
        conv = (stride, padding, dilation, groups)
        want = im2col_conv2d(x.data, w.data, g, *conv)
        terms = im2col_conv2d(abs(x.data), abs(w.data), abs(g), *conv)
        # reduction lengths: input taps per output, output taps per input
        # pixel, output pixels per weight
        lengths = (shape[1] // groups * k * k, co // groups * k * k, g.size // co)
        u = np.finfo(np.float64).eps / 2
        for got, ref, total, n in zip((out.data, x.grad, w.grad), want, terms,
                                      lengths):
            assert np.all(abs(got - ref) <= 2 * n * u * total)

    @pytest.mark.parametrize(
        "n,c,h,co,groups,k,stride,padding,dilation",
        WORKLOAD_CONVS.values(),
        ids=WORKLOAD_CONVS.keys(),
    )
    def test_matches_full_im2col(self, n, c, h, co, groups, k, stride, padding,
                                 dilation):
        self.check((n, c, h, h), co, groups, k, stride, padding, dilation,
                   np.random.default_rng(11))

    def test_output_reading_only_padding_is_zero(self):
        x = Tensor(np.ones((2, 3, 1, 1)), requires_grad=True)
        w = Tensor(np.ones((3, 3, 1, 1)), requires_grad=True)
        with T.Tape():
            out = conv2d(x, w, stride=3, padding=1)
            T.backward(out.sum())
        assert out.shape == (2, 3, 1, 1)
        for a in (out.data, x.grad, w.grad):
            np.testing.assert_array_equal(a, 0.0)

    @given(
        n=st.sampled_from([1, 3, 8]),
        c=st.integers(1, 4),
        depthwise=st.booleans(),
        mult=st.integers(1, 2),
        h=st.integers(1, 7),
        wd=st.integers(1, 7),
        k=st.sampled_from([1, 3, 5]),
        s=st.integers(1, 2),
        p=st.integers(0, 4),
        d=st.integers(1, 2),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_sweep_matches_full_im2col(self, n, c, depthwise, mult, h, wd, k, s,
                                       p, d, seed):
        oh = conv_out_extent(h, k, s, p, d)
        ow = conv_out_extent(wd, k, s, p, d)
        assume(oh > 0 and ow > 0)
        self.check((n, c, h, wd), c * mult, c if depthwise else 1, k, s, p, d,
                   np.random.default_rng(seed))

    def test_bits_do_not_depend_on_blas_threads(self):
        # BLAS may split a product across threads; each output must still be
        # summed in one order. A batch-256 dense conv is large enough for
        # OpenBLAS to use every thread it has.
        cases = [*WORKLOAD_CONVS.values(), (256, 16, 8, 16, 1, 3, 1, 1, 1)]
        code = ("import json, sys, support; "
                "print(support.conv_digest(json.loads(sys.argv[1])))")
        path = os.pathsep.join([str(Path(__file__).parent),
                                str(Path(convops.__file__).parents[1])])
        digests = [
            subprocess.run(
                [sys.executable, "-c", code, json.dumps(cases)],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path),
                capture_output=True, text=True, check=True, timeout=120,
            ).stdout
            for threads in ("1", "2")
        ]
        assert digests[0] == digests[1]
        assert digests[0].strip() == conv_digest(cases)

    @given(
        k=st.sampled_from([1, 3, 5, 7]),
        extent=st.integers(1, 12),
        s=st.integers(1, 3),
        p=st.integers(0, 6),
        d=st.integers(1, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_offsets_match_brute_force_overlap(self, k, extent, s, p, d):
        out = conv_out_extent(extent, k, s, p, d)
        assume(out > 0)
        span = range((out - 1) * s + 1)
        overlap = [
            ki for ki in range(k)
            if any(0 <= ki * d - p + t < extent for t in span)
        ]
        assert list(convops._offsets(k, extent, out, s, p, d)) == overlap
        with_tap = {
            ki for ki in range(k)
            if any(0 <= ki * d - p + i * s < extent for i in range(out))
        }
        assert with_tap <= set(overlap)


def closure_arrays(fn):
    """Every array a vjp closure holds, nested closures included."""
    found, todo = [], [fn]
    while todo:
        for cell in todo.pop().__closure__ or ():
            v = cell.cell_contents
            if isinstance(v, np.ndarray):
                found.append(v)
            elif callable(v) and getattr(v, "__closure__", None):
                todo.append(v)
    return found


def spy_matmul(monkeypatch):
    """Record the contracted length of every np.matmul call from here on: the
    output channels per group for a conv's input-gradient product, the N*OH*OW
    output pixels for its weight-gradient product."""
    calls, real = [], np.matmul

    def matmul(a, b, *args, **kwargs):
        calls.append(np.shape(a)[-1])
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", matmul)
    return calls


def unreachable(*_args):
    raise AssertionError("called")


class TestRecordedConvKeepsOnlyWhatItsBackwardReads:
    @pytest.mark.parametrize(
        "n,c,h,co,groups,k,stride,padding,dilation",
        WORKLOAD_CONVS.values(),
        ids=WORKLOAD_CONVS.keys(),
    )
    def test_closure_holds_no_column_sized_array(self, n, c, h, co, groups, k,
                                                 stride, padding, dilation):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(n, c, h, h)), requires_grad=True)
        w = Tensor(rng.normal(size=(co, c // groups, k, k)), requires_grad=True)
        with T.Tape():
            out = conv2d(x, w, stride, padding, dilation, groups)
            held = closure_arrays(out._node.fn)
        oh, ow, _, _, slices = convops._plan(h, h, k, k, stride, padding, dilation)
        col_bytes = c * len(slices) * oh * ow * n * 8
        assert max((a.nbytes for a in held), default=0) < col_bytes

    @pytest.mark.parametrize("shape", ["sep3x3-2x2", "backbone-8x8", "pointwise-4x4"])
    def test_frozen_weight_builds_no_weight_gradient(self, shape, monkeypatch):
        n, c, h, co, groups, k, stride, padding, dilation = WORKLOAD_CONVS[shape]
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(n, c, h, h)), requires_grad=True)
        w = Tensor(rng.normal(size=(co, c // groups, k, k)), requires_grad=True)
        with T.Tape():
            out = conv2d(x, w, stride, padding, dilation, groups)
            g = rng.normal(size=out.shape)
            want, _ = out._node.fn(g)
            w.requires_grad = False
            calls = spy_matmul(monkeypatch)
            monkeypatch.setattr(convops, "_im2col", unreachable)
            dx, dw = out._node.fn(g)
        assert dw is None and calls == [co // groups]
        np.testing.assert_array_equal(dx, want)

    @pytest.mark.parametrize("shape", ["backbone-stem-16x16", "pointwise-4x4"])
    def test_input_without_gradient_builds_no_input_gradient(self, shape,
                                                             monkeypatch):
        n, c, h, co, groups, k, stride, padding, dilation = WORKLOAD_CONVS[shape]
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(n, c, h, h)), requires_grad=True)
        w = Tensor(rng.normal(size=(co, c // groups, k, k)), requires_grad=True)
        with T.Tape():
            out = conv2d(x, w, stride, padding, dilation, groups)
            g = rng.normal(size=out.shape)
            _, want = out._node.fn(g)
            x.requires_grad = False
            calls = spy_matmul(monkeypatch)
            monkeypatch.setattr(convops, "_col2im", unreachable)
            dx, dw = out._node.fn(g)
        assert dx is None and calls == [g.size // co]
        np.testing.assert_array_equal(dw, want)

    def test_backbone_stem_builds_no_image_gradient(self, monkeypatch):
        rng = np.random.default_rng(7)
        backbone = Backbone(rng, ModelSpec(backbone_width=8))
        images = Tensor(rng.normal(size=(4, 1, 16, 16)))
        with T.Tape() as tape:
            feats = backbone(images)
            stem = next(nd for nd in tape.nodes if nd.inputs[0] is images)
            convs = [nd for nd in tape.nodes if nd.name == "conv2d"]
            calls = spy_matmul(monkeypatch)
            T.backward(feats.sum())
        # every conv builds its weight gradient, all but the stem their dx;
        # the backbone's convs are dense, 8 channels out
        pixels = sorted(nd.out.data.size // 8 for nd in convs)
        assert stem.name == "conv2d" and len(convs) > 1 and min(pixels) > 8
        assert sorted(c for c in calls if c != 8) == pixels
        assert calls.count(8) == len(convs) - 1
        assert backbone.stem.weight.grad is not None and images.grad is None


class TestPool2d:
    def test_constant_input_preserved(self):
        x = Tensor(np.full((1, 2, 4, 4), 3.5))
        for kind in ("max", "avg"):
            out = pool2d(kind, x, window=3, stride=1, padding=1)
            if kind == "max":
                np.testing.assert_allclose(out.data, 3.5)
            else:
                # border windows include zero padding in the average
                assert out.data[0, 0, 1, 1] == pytest.approx(3.5)

    def test_avg_window2(self):
        x = Tensor(np.array([[1.0, 3.0], [5.0, 7.0]]).reshape(1, 1, 2, 2))
        out = pool2d("avg", x, window=2, stride=2, padding=0)
        assert out.data.reshape(()) == pytest.approx(4.0)

    def test_avg_gradient(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 3, 5, 5)))
        mask = rng.normal(size=(2, 3, 5, 5))
        err = grad_check(
            lambda x: T.mul(pool2d("avg", x, 3, 1, 1), Tensor(mask)).sum(), [x]
        )
        assert err < 1e-5

    def test_max_gradient_at_non_tied_points(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(1, 2, 5, 5)))  # continuous draws: no ties
        mask = rng.normal(size=(1, 2, 5, 5))
        err = grad_check(
            lambda x: T.mul(pool2d("max", x, 3, 1, 1), Tensor(mask)).sum(), [x]
        )
        assert err < 1e-5

    def test_max_tie_routes_to_first_index(self):
        x = Tensor(np.zeros((1, 1, 2, 2)), requires_grad=True)
        with T.Tape():
            out = pool2d("max", x, window=2, stride=1, padding=0)
            T.backward(out.sum())
        np.testing.assert_array_equal(x.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])

    @pytest.mark.parametrize("kind", ["max", "avg"])
    def test_closure_holds_no_column_sized_array(self, kind):
        n, c, h, stride = 32, 16, 4, 1
        x = Tensor(np.random.default_rng(6).normal(size=(n, c, h, h)),
                   requires_grad=True)
        with T.Tape():
            out = pool2d(kind, x, 3, stride, 1)
            held = closure_arrays(out._node.fn)
        col_bytes = c * 9 * out.shape[2] * out.shape[3] * n * 8
        assert max((a.nbytes for a in held), default=0) < col_bytes
        if kind == "avg":
            assert held == []

    def test_signed_zero_tie_takes_the_first_zero_recorded_or_not(self):
        # -0.0 == +0.0: the first maximal entry in window order decides the
        # sign, and the unrecorded forward, which computes no argmax, agrees
        rng = np.random.default_rng(8)
        x = rng.choice([-0.0, 0.0, -1.0], size=(3, 2, 5, 5))
        g = np.ones((3, 2, 5, 5))
        want, _ = nchw_pool2d("max", x, g, 3, 1, 1)
        plain = pool2d("max", Tensor(x), 3, 1, 1).data
        xt = Tensor(x, requires_grad=True)
        with T.Tape():
            recorded = pool2d("max", xt, 3, 1, 1).data
        assert np.any(np.signbit(want) & (want == 0))
        assert np.any(~np.signbit(want) & (want == 0))
        for got in (plain, recorded):
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
            np.testing.assert_array_equal(got, want)

    def test_nonpositive_output_rejected(self):
        with pytest.raises(ShapeError):
            pool2d("max", Tensor(np.zeros((1, 1, 2, 2))), window=3, stride=4, padding=0)


# (n, c, h, stride) of the 3x3, padding-1 pools the search and pool
# workloads run
WORKLOAD_POOLS = {
    "partial4-2x2": (16, 4, 2, 1),
    "partial8-2x2": (16, 8, 2, 1),
    "full-2x2": (32, 16, 2, 1),
    "full-2x2-batch64": (64, 16, 2, 1),
    "partial4-stride2": (16, 4, 4, 2),
    "full-stride2": (32, 16, 4, 2),
}


class TestPool2dBitExact:
    @staticmethod
    def check(kind, x, window, stride, padding, rng):
        oh = conv_out_extent(x.shape[2], window, stride, padding, 1)
        ow = conv_out_extent(x.shape[3], window, stride, padding, 1)
        g = rng.normal(size=(*x.shape[:2], oh, ow))
        xt = Tensor(x, requires_grad=True)
        with T.Tape():
            out = pool2d(kind, xt, window, stride, padding)
            T.backward(T.mul(out, Tensor(g)).sum())
        want = nchw_pool2d(kind, x, g, window, stride, padding)
        for got, ref in zip((out.data, xt.grad), want):
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
    @pytest.mark.parametrize("kind", ["max", "avg"])
    @pytest.mark.parametrize(
        "n,c,h,stride", WORKLOAD_POOLS.values(), ids=WORKLOAD_POOLS.keys()
    )
    def test_workload_shapes_match_nchw_pool(self, kind, n, c, h, stride, tied):
        rng = np.random.default_rng(17)
        if tied:  # few distinct values: max routes to the first maximal offset
            x = rng.integers(-1, 2, size=(n, c, h, h)).astype(float)
        else:
            x = rng.normal(size=(n, c, h, h))
        self.check(kind, x, 3, stride, 1, rng)

    @given(
        kind=st.sampled_from(["max", "avg"]),
        n=st.sampled_from([1, 3, 8]),
        h=st.integers(1, 7),
        wd=st.integers(1, 7),
        window=st.sampled_from([1, 3, 5]),
        s=st.integers(1, 3),
        p=st.integers(0, 2),
        tied=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_sweep_matches_nchw_pool(self, kind, n, h, wd, window, s, p, tied,
                                     seed):
        p %= window // 2 + 1
        oh = conv_out_extent(h, window, s, p, 1)
        ow = conv_out_extent(wd, window, s, p, 1)
        assume(oh > 0 and ow > 0 and oh * ow > 1)
        rng = np.random.default_rng(seed)
        if tied:
            x = rng.integers(-1, 2, size=(n, 2, h, wd)).astype(float)
        else:
            x = rng.normal(size=(n, 2, h, wd))
        self.check(kind, x, window, s, p, rng)


class TestNormalize:
    def test_constant_channel_gives_zeros(self):
        x = Tensor(np.full((2, 3, 4, 4), 7.0))
        out = normalize_no_affine(x)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_standardizes_per_channel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(loc=3.0, scale=2.0, size=(8, 4, 6, 6)))
        y = normalize_no_affine(x).data
        assert np.all(np.abs(y.mean(axis=(0, 2, 3))) < 1e-10)
        np.testing.assert_allclose(y.var(axis=(0, 2, 3)), 1.0, atol=1e-4)

    def test_gradient_vs_finite_difference(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(3, 2, 4, 4)))
        mask = rng.normal(size=(3, 2, 4, 4))
        err = grad_check(
            lambda x: T.mul(normalize_no_affine(x), Tensor(mask)).sum(), [x]
        )
        assert err < 1e-5

    @pytest.mark.parametrize("shape", [(32, 16, 2, 2), (8, 16, 16, 16), (3, 2, 4, 4)])
    def test_matches_two_pass_variance_bitwise(self, shape):
        x = np.random.default_rng(4).normal(loc=1.5, size=shape)
        axes = (0, 2, 3)
        mu = x.mean(axis=axes, keepdims=True)
        var = x.var(axis=axes, keepdims=True)
        want = (x - mu) * (1.0 / np.sqrt(var + 1e-5))
        np.testing.assert_array_equal(normalize_no_affine(Tensor(x)).data, want)
        mean, var = convops.batch_channel_stats(x)
        np.testing.assert_array_equal(mean, x.mean(axis=axes))
        np.testing.assert_array_equal(var, x.var(axis=axes))

    def test_eval_standardize_uses_given_stats(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 3, 2, 2))
        mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        y = convops.channel_standardize(Tensor(x), mean, var, eps=0.0).data
        np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)
