"""Spatial operations: convolution, pooling, and batch normalization.

All take and return [N,C,H,W] float64 tensors. Convolution and pooling
extract windows by explicit strided slices, one per kernel offset, which
keeps both directions vectorized without np.add.at.

Both ops share one kernel plan and one window gather. The plan, memoised
per shape signature, holds the output extent and, along each spatial axis,
the kernel offsets whose window overlaps the unpadded input, which is
always a contiguous range (``_offsets``). Any other offset reads only
padding: in a conv its terms are exact zeros and its weight gradient is 0,
and in a max pool it reads -inf, which never wins. The input is padded into
batch-last [C, H, W, N] (one transpose in), and the kept offsets are
gathered into columns [C, K', OH, OW, N], so every window copy moves runs
of N images rather than a row of OH or OW pixels. The result and the input
gradient are transposed back to [N,C,H,W] once each. A conv with one kept
offset, stride 1 and an output the size of its input (every 1x1 conv, and a
'same' conv whose other offsets all fall in padding) takes the [C, N, H, W]
input as its columns, with no window copy.

A conv's three contractions are ``np.matmul`` products batched over the
groups, so BLAS chooses the summation order: results are reproducible on
one machine and numpy/BLAS build, and agree with any other order of the
same sums to within rounding. OpenBLAS splits a product across threads by
output blocks, so the thread count changes no bit, except in a product
that is one dot of over 10000 terms, which it splits: the weight gradient
of a conv with one input tap and one output channel per group, over more
than 10000 output pixels in the batch.

A recorded conv keeps no columns: the forward frees them, and the
backward, after it has built the input gradient and freed the column
gradient, gathers them again with the forward's own routine, only when the
weight needs a gradient. So at most one column-sized temporary is alive at
a time. A recorded pool keeps only what its backward reads: the first
maximal offset of each window, or nothing but the column shape.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .tensor import ShapeError, _record, _recording, as_tensor


def conv_out_extent(extent, kernel, stride, padding, dilation):
    """floor((H + 2p - d*(k-1) - 1)/s) + 1"""
    return (extent + 2 * padding - dilation * (kernel - 1) - 1) // stride + 1


def _offsets(k, extent, out, stride, padding, dilation):
    """Kernel offsets along one axis whose window overlaps the unpadded input.

    An offset's window spans from its first tap to its last, ``out`` taps
    ``stride`` apart, on an input of length ``extent`` padded by
    ``padding``. The windows shift monotonically with the offset, so the
    overlapping offsets form a range, possibly empty. Every offset with a
    tap inside the input is in it.
    """
    lo = max(0, -(((out - 1) * stride - padding) // dilation))
    hi = min(k - 1, (extent - 1 + padding) // dilation)
    return range(lo, max(lo, hi + 1))


@lru_cache(maxsize=1024)
def _plan(h, w, kh, kw, stride, padding, dilation):
    """(oh, ow, ki, kj, slices) for an h x w input and a kh x kw kernel.

    ``ki`` and ``kj`` are the kept kernel offsets along each axis and
    ``slices`` the (row slice, column slice) of the padded input for each
    kept offset, row-major. With a non-positive output extent only ``oh``
    and ``ow`` are set.
    """
    oh = conv_out_extent(h, kh, stride, padding, dilation)
    ow = conv_out_extent(w, kw, stride, padding, dilation)
    if oh <= 0 or ow <= 0:
        return oh, ow, None, None, None
    ki = _offsets(kh, h, oh, stride, padding, dilation)
    kj = _offsets(kw, w, ow, stride, padding, dilation)
    slices = tuple(
        (
            slice(i * dilation, i * dilation + (oh - 1) * stride + 1, stride),
            slice(j * dilation, j * dilation + (ow - 1) * stride + 1, stride),
        )
        for i in ki
        for j in kj
    )
    return oh, ow, ki, kj, slices


def _pad(x, padding, fill=0.0):
    """[N,C,H,W] as a contiguous batch-last [C, H+2p, W+2p, N], the border
    filled with ``fill``."""
    n, c, h, w = x.shape
    if not padding:
        return np.ascontiguousarray(x.transpose(1, 2, 3, 0))
    xp = np.full((c, h + 2 * padding, w + 2 * padding, n), fill)
    xp[:, padding : padding + h, padding : padding + w] = x.transpose(1, 2, 3, 0)
    return xp


def _im2col(xp, slices, oh, ow):
    """Windows of the batch-last ``xp``, one per slice pair, as columns
    [C, K', OH, OW, N]."""
    c, _, _, n = xp.shape
    cols = np.empty((c, len(slices), oh, ow, n))
    for i, (si, sj) in enumerate(slices):
        cols[:, i] = xp[:, si, sj]
    return cols


def _col2im(dcols, x_shape, padding, slices):
    """Gradient of the [N,C,H,W] input from column gradients
    [C, K', OH, OW, N]."""
    n, c, h, w = x_shape
    dxp = np.zeros((c, h + 2 * padding, w + 2 * padding, n))
    for i, (si, sj) in enumerate(slices):
        dxp[:, si, sj] += dcols[:, i]
    return np.ascontiguousarray(
        dxp[:, padding : padding + h, padding : padding + w].transpose(3, 0, 1, 2)
    )


def conv2d(x, w, stride=1, padding=0, dilation=1, groups=1):
    """Grouped, dilated 2-D convolution; weight shape [Cout, Cin/groups, kh, kw].

    The output and the input gradient are contiguous [N,C,H,W] arrays. See
    the module docstring for the column layout and the summation order.
    """
    x, w = as_tensor(x), as_tensor(w)
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d: need 4-D input/weight, got {x.shape}, {w.shape}")
    n, c, h, wd = x.data.shape
    co, cg, kh, kw = w.data.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"conv2d: kernel extents must be odd, got {kh}x{kw}")
    if c % groups or co % groups or cg != c // groups:
        raise ShapeError(
            f"conv2d: {c} in / {co} out channels not divisible into {groups} groups"
            f" with per-group input {cg}"
        )
    oh, ow, ki, kj, slices = _plan(h, wd, kh, kw, stride, padding, dilation)
    if oh <= 0 or ow <= 0:
        raise ShapeError(
            f"conv2d: non-positive output extent {oh}x{ow} for input {h}x{wd}, "
            f"kernel {kh}x{kw}, stride {stride}, padding {padding}, dilation {dilation}"
        )
    kept = np.s_[:, :, ki.start : ki.stop, kj.start : kj.stop]
    # ``to_q`` takes [N,C,H,W] to the column order of the pixels, q, and
    # ``to_nchw`` takes [C, *q] back
    if len(slices) == 1 and stride == 1 and (oh, ow) == (h, wd):
        direct, to_q, to_nchw = True, (1, 0, 2, 3), (1, 0, 2, 3)
    else:
        direct, to_q, to_nchw = False, (1, 2, 3, 0), (3, 0, 1, 2)

    def columns():
        """Columns [C, K', *q] of the input, or [C, *q] when direct."""
        if direct:
            return np.ascontiguousarray(x.data.transpose(to_q))
        return _im2col(_pad(x.data, padding), slices, oh, ow)

    # group the channel axis: columns [G, cg*K', q], weights [G, cog, cg*K']
    cols = columns()
    cols_shape, q = cols.shape, n * oh * ow
    cog, kk = co // groups, cg * len(slices)
    wg = w.data[kept].reshape(groups, cog, kk)
    out = np.matmul(wg, cols.reshape(groups, kk, q))
    del cols
    out = np.ascontiguousarray(out.reshape((co,) + cols_shape[-3:]).transpose(to_nchw))

    def fn(g):
        dx = dw = None
        gq = np.ascontiguousarray(g.transpose(to_q)).reshape(groups, cog, q)
        if x.requires_grad:
            dcols = np.matmul(wg.transpose(0, 2, 1), gq).reshape(cols_shape)
            if direct:
                dx = np.ascontiguousarray(dcols.transpose(to_nchw))
            else:
                dx = _col2im(dcols, x.data.shape, padding, slices)
            del dcols
        if w.requires_grad:
            cols = columns().reshape(groups, kk, q)
            dw = np.zeros(w.data.shape)
            dw[kept] = np.matmul(gq, cols.transpose(0, 2, 1)).reshape(
                co, cg, len(ki), len(kj)
            )
        return dx, dw

    return _record(out, [x, w], fn, "conv2d")


def pool2d(kind, x, window=3, stride=1, padding=1):
    """Max or average pooling; same output-extent formula as conv2d.

    Average pooling divides by the full window area (padding included); max
    pooling ignores padded positions and routes the gradient to the first
    maximal index in row-major window order. Both match a pool over every
    window offset in [N, C, K, OH, OW] bit for bit whenever the output has
    more than one pixel; with one pixel that pool summed each window as one
    contiguous vectorized sum, so an average there may differ in the last
    bit. A max pool that is not recorded computes no argmax.
    """
    if kind not in ("max", "avg"):
        raise ValueError(f"pool2d: unknown kind {kind!r}")
    x = as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"pool2d: need 4-D input, got {x.shape}")
    if padding > window // 2:
        raise ShapeError(f"pool2d: padding {padding} > window//2 ({window // 2})")
    n, c, h, wd = x.data.shape
    oh, ow, _, _, slices = _plan(h, wd, window, window, stride, padding, 1)
    if oh <= 0 or ow <= 0:
        raise ShapeError(
            f"pool2d: non-positive output extent {oh}x{ow} for input {h}x{wd}, "
            f"window {window}, stride {stride}, padding {padding}"
        )
    fill = -np.inf if kind == "max" else 0.0
    cols = _im2col(_pad(x.data, padding, fill), slices, oh, ow)
    cols_shape, area, arg = cols.shape, float(window * window), None
    if kind == "avg":
        out = cols.sum(axis=1) / area
    else:
        out = _first_max(cols)
        if _recording([x]):  # the first maximal offset, for the backward
            arg = cols.argmax(axis=1)[:, None]
    del cols

    def fn(g):
        g = g.transpose(1, 2, 3, 0)
        if kind == "avg":
            dcols = np.broadcast_to(g[:, None] / area, cols_shape)
        else:
            dcols = np.zeros(cols_shape)
            np.put_along_axis(dcols, arg, g[:, None], axis=1)
        return (_col2im(dcols, x.data.shape, padding, slices),)

    return _record(np.ascontiguousarray(out.transpose(3, 0, 1, 2)), [x], fn, "pool2d")


def _first_max(cols):
    """Maximum over axis 1, the value of the first maximal entry on ties.

    Only -0.0 and +0.0 tie with different bits; ``np.max`` may return
    either, so a zero maximum is read from its window's first zero.
    """
    top = cols.max(axis=1)
    tie = top == 0
    if tie.any():
        win = np.moveaxis(cols, 1, -1)[tie]  # [windows, K]
        top[tie] = win[np.arange(len(win)), (win == 0).argmax(axis=1)]
    return top


def normalize_no_affine(x, eps=1e-5):
    """Per-channel standardization over batch and spatial dims, no affine."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"normalize: need 4-D input, got {x.shape}")
    axes = (0, 2, 3)
    d = x.data - x.data.mean(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(np.mean(d * d, axis=axes, keepdims=True) + eps)
    y = d * inv

    def fn(g):
        gm = g.mean(axis=axes, keepdims=True)
        gym = (g * y).mean(axis=axes, keepdims=True)
        return ((g - gm - y * gym) * inv,)

    return _record(y, [x], fn, "normalize")


def batch_channel_stats(x_data):
    """Plain per-channel mean and variance over batch and spatial dims."""
    axes = (0, 2, 3)
    mu = x_data.mean(axis=axes, keepdims=True)
    d = x_data - mu
    return mu.reshape(-1), np.mean(d * d, axis=axes)


def channel_standardize(x, mean, var, eps=1e-5):
    """Standardize with fixed per-channel statistics (eval-mode normalization)."""
    x = as_tensor(x)
    inv = (1.0 / np.sqrt(var + eps)).reshape(1, -1, 1, 1)
    mu = np.asarray(mean).reshape(1, -1, 1, 1)
    return _record((x.data - mu) * inv, [x], lambda g: (g * inv,), "standardize")
