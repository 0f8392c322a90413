"""Spatial operations: convolution, pooling, and batch normalization.

All operate on [N,C,H,W] float64 tensors. Convolution and pooling extract
windows by explicit strided slices, one per kernel offset, which keeps both
directions vectorized without np.add.at.

Convolution works channel-major. Along each spatial axis ``_offsets`` keeps
the kernel offsets whose window overlaps the unpadded input, which is
always a contiguous range. Any other offset reads only padding, so its
terms are exact zeros and its weight gradient is 0. The kept offsets are
gathered into columns [C, K', N, OH, OW], so the einsums run their inner
loop over q = N*OH*OW rather than over one image's pixels. A conv with one
kept offset, stride 1 and an output the size of its input (every 1x1 conv,
and a 'same' conv whose other offsets all fall in padding) takes the
transposed input as its columns, with no window copy.

Summation order: the output and the input gradient accumulate over (input
channel, kernel row, kernel column) in that order, and the weight gradient
sums each image's output pixels, then adds the images one by one. That is
the order of a plain im2col-plus-einsum conv over [N, C*kh*kw, OH*OW]
columns, and dropping exact-zero terms changes no sum, so every result is
bit-identical to that reference whenever the output has more than one
pixel. With a one-pixel output the reference reduced each sum as one
contiguous vectorized dot, so results there may differ in the last bit.

Pooling keeps the [N,C,K,OH,OW] layout and visits every window offset.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, _record, as_tensor


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


def _window_slices(ki, kj, oh, ow, stride, dilation):
    """(row slice, column slice) of the padded input for each kernel offset
    in ``ki`` x ``kj``, row-major."""
    return [
        (
            slice(i * dilation, i * dilation + (oh - 1) * stride + 1, stride),
            slice(j * dilation, j * dilation + (ow - 1) * stride + 1, stride),
        )
        for i in ki
        for j in kj
    ]


def _pad(x, padding, fill=0.0):
    """Spatially pad a 4-D array by ``padding`` on each side."""
    if not padding:
        return x
    a, b, h, w = x.shape
    xp = np.full((a, b, h + 2 * padding, w + 2 * padding), fill)
    xp[:, :, padding : padding + h, padding : padding + w] = x
    return xp


def _im2col(xp, slices, oh, ow, axis):
    """Windows of the padded 4-D ``xp``, one per slice pair, stacked along
    ``axis`` of a new contiguous array."""
    shape = [*xp.shape[:2], oh, ow]
    shape.insert(axis, len(slices))
    cols = np.empty(shape)
    lead = (slice(None),) * axis
    for i, (si, sj) in enumerate(slices):
        cols[lead + (i,)] = xp[:, :, si, sj]
    return cols


def _col2im(dcols, axis, x_shape, padding, slices):
    """Gradient of the unpadded 4-D input from column gradients whose kernel
    offsets run along ``axis``."""
    a, b, h, w = x_shape
    dxp = np.zeros((a, b, h + 2 * padding, w + 2 * padding))
    lead = (slice(None),) * axis
    for i, (si, sj) in enumerate(slices):
        dxp[:, :, si, sj] += dcols[lead + (i,)]
    return dxp[:, :, padding : padding + h, padding : padding + w]


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
    oh = conv_out_extent(h, kh, stride, padding, dilation)
    ow = conv_out_extent(wd, kw, stride, padding, dilation)
    if oh <= 0 or ow <= 0:
        raise ShapeError(
            f"conv2d: non-positive output extent {oh}x{ow} for input {h}x{wd}, "
            f"kernel {kh}x{kw}, stride {stride}, padding {padding}, dilation {dilation}"
        )
    ki = _offsets(kh, h, oh, stride, padding, dilation)
    kj = _offsets(kw, wd, ow, stride, padding, dilation)
    kept = np.s_[:, :, ki.start : ki.stop, kj.start : kj.stop]
    xt = x.data.transpose(1, 0, 2, 3)
    if len(ki) == len(kj) == 1 and stride == 1 and (oh, ow) == (h, wd):
        slices = None
        cols = np.ascontiguousarray(xt)
    else:
        slices = _window_slices(ki, kj, oh, ow, stride, dilation)
        cols = _im2col(_pad(xt, padding), slices, oh, ow, axis=1)
    # group the channel axis: columns [G, cg*K', q], weights [G, cog, cg*K']
    cog, kk, p = co // groups, cg * len(ki) * len(kj), oh * ow
    colsg = cols.reshape(groups, kk, n * p)
    wg = w.data[kept].reshape(groups, cog, kk)
    out = np.einsum("gok,gkq->goq", wg, colsg).reshape(co, n, oh, ow)

    def fn(g):
        gg = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(groups, cog, n * p)
        # per-image partial sums, then the images added in order
        part = np.einsum(
            "gonp,gknp->gokn",
            gg.reshape(groups, cog, n, p),
            colsg.reshape(groups, kk, n, p),
        )
        dw = np.zeros(w.data.shape)
        dw[kept] = np.cumsum(part, axis=-1)[..., -1].reshape(
            co, cg, len(ki), len(kj)
        )
        dcols = np.einsum("gok,goq->gkq", wg, gg)
        if slices is None:
            dxt = dcols.reshape(c, n, h, wd)
        else:
            dcols = dcols.reshape(c, len(slices), n, oh, ow)
            dxt = _col2im(dcols, 1, xt.shape, padding, slices)
        return np.ascontiguousarray(dxt.transpose(1, 0, 2, 3)), dw

    return _record(
        np.ascontiguousarray(out.transpose(1, 0, 2, 3)), [x, w], fn, "conv2d"
    )


def pool2d(kind, x, window=3, stride=1, padding=1):
    """Max or average pooling; same output-extent formula as conv2d.

    Average pooling divides by the full window area (padding included); max
    pooling ignores padded positions and routes the gradient to the first
    maximal index in row-major window order.
    """
    if kind not in ("max", "avg"):
        raise ValueError(f"pool2d: unknown kind {kind!r}")
    x = as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"pool2d: need 4-D input, got {x.shape}")
    if padding > window // 2:
        raise ShapeError(f"pool2d: padding {padding} > window//2 ({window // 2})")
    n, c, h, wd = x.data.shape
    oh = conv_out_extent(h, window, stride, padding, 1)
    ow = conv_out_extent(wd, window, stride, padding, 1)
    if oh <= 0 or ow <= 0:
        raise ShapeError(
            f"pool2d: non-positive output extent {oh}x{ow} for input {h}x{wd}, "
            f"window {window}, stride {stride}, padding {padding}"
        )
    fill = -np.inf if kind == "max" else 0.0
    slices = _window_slices(range(window), range(window), oh, ow, stride, 1)
    flat = _im2col(_pad(x.data, padding, fill), slices, oh, ow, axis=2)

    if kind == "avg":
        area = float(window * window)
        out = flat.sum(axis=2) / area

        def dflat(g):
            return np.broadcast_to(g[:, :, None] / area, flat.shape)

    else:
        arg = flat.argmax(axis=2)  # first index on ties
        out = np.take_along_axis(flat, arg[:, :, None], axis=2)[:, :, 0]

        def dflat(g):
            d = np.zeros_like(flat)
            np.put_along_axis(d, arg[:, :, None], g[:, :, None], axis=2)
            return d

    def fn(g):
        dx = _col2im(dflat(g), 2, x.data.shape, padding, slices)
        return (np.ascontiguousarray(dx),)

    return _record(out, [x], fn, "pool2d")


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
