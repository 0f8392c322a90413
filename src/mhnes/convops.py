"""Spatial operations: convolution, pooling, and batch normalization.

All operate on [N,C,H,W] float64 tensors. Convolution and pooling are
implemented by explicit window extraction (one strided slice per kernel
position), which keeps both directions vectorized without np.add.at.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, _record, as_tensor


def conv_out_extent(extent, kernel, stride, padding, dilation):
    """floor((H + 2p - d*(k-1) - 1)/s) + 1"""
    return (extent + 2 * padding - dilation * (kernel - 1) - 1) // stride + 1


def _window_slices(kh, kw, oh, ow, stride, dilation):
    for ki in range(kh):
        for kj in range(kw):
            yield (
                ki,
                kj,
                slice(ki * dilation, ki * dilation + (oh - 1) * stride + 1, stride),
                slice(kj * dilation, kj * dilation + (ow - 1) * stride + 1, stride),
            )


def _im2col(xp, kh, kw, oh, ow, stride, dilation):
    n, c = xp.shape[:2]
    cols = np.empty((n, c, kh, kw, oh, ow))
    for ki, kj, si, sj in _window_slices(kh, kw, oh, ow, stride, dilation):
        cols[:, :, ki, kj] = xp[:, :, si, sj]
    return cols


def _pad(x, padding, fill=0.0):
    """Spatially pad an [N,C,H,W] array by ``padding`` on each side."""
    if not padding:
        return x
    p = (padding, padding)
    return np.pad(x, ((0, 0), (0, 0), p, p), constant_values=fill)


def _col2im(dcols, x_shape, padding, kh, kw, oh, ow, stride, dilation):
    """Gradient of the unpadded [N,C,H,W] input from column gradients."""
    n, c, h, w = x_shape
    dxp = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    for ki, kj, si, sj in _window_slices(kh, kw, oh, ow, stride, dilation):
        dxp[:, :, si, sj] += dcols[:, :, ki, kj]
    if not padding:
        return dxp
    return dxp[:, :, padding : padding + h, padding : padding + w].copy()


def conv2d(x, w, stride=1, padding=0, dilation=1, groups=1):
    """Grouped, dilated 2-D convolution; weight shape [Cout, Cin/groups, kh, kw]."""
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
    cols = _im2col(_pad(x.data, padding), kh, kw, oh, ow, stride, dilation)
    # group the channel axis: cols [N,G,cg*kh*kw,P], weights [G,cog,cg*kh*kw]
    cog = co // groups
    colsg = cols.reshape(n, groups, cg * kh * kw, oh * ow)
    wg = w.data.reshape(groups, cog, cg * kh * kw)
    out = np.einsum("gok,ngkp->ngop", wg, colsg).reshape(n, co, oh, ow)

    def fn(g):
        gg = g.reshape(n, groups, cog, oh * ow)
        dw = np.einsum("ngop,ngkp->gok", gg, colsg).reshape(co, cg, kh, kw)
        dcols = np.einsum("gok,ngop->ngkp", wg, gg).reshape(
            n, c, kh, kw, oh, ow
        )
        dx = _col2im(dcols, x.data.shape, padding, kh, kw, oh, ow, stride, dilation)
        return dx, dw

    return _record(out, [x, w], fn, "conv2d")


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
    cols = _im2col(_pad(x.data, padding, fill), window, window, oh, ow, stride, 1)
    flat = cols.reshape(n, c, window * window, oh, ow)

    if kind == "avg":
        area = float(window * window)
        out = flat.sum(axis=2) / area

        def fn(g):
            dcols = np.broadcast_to(
                g[:, :, None] / area, flat.shape
            ).reshape(cols.shape)
            return (_col2im(dcols, x.data.shape, padding, window, window,
                            oh, ow, stride, 1),)

    else:
        arg = flat.argmax(axis=2)  # first index on ties
        out = np.take_along_axis(flat, arg[:, :, None], axis=2)[:, :, 0]

        def fn(g):
            dflat = np.zeros_like(flat)
            np.put_along_axis(dflat, arg[:, :, None], g[:, :, None], axis=2)
            return (_col2im(dflat.reshape(cols.shape), x.data.shape, padding,
                            window, window, oh, ow, stride, 1),)

    return _record(out, [x], fn, "pool2d")


def normalize_no_affine(x, eps=1e-5):
    """Per-channel standardization over batch and spatial dims, no affine."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"normalize: need 4-D input, got {x.shape}")
    axes = (0, 2, 3)
    mu = x.data.mean(axis=axes, keepdims=True)
    var = x.data.var(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (x.data - mu) * inv

    def fn(g):
        gm = g.mean(axis=axes, keepdims=True)
        gym = (g * y).mean(axis=axes, keepdims=True)
        return ((g - gm - y * gym) * inv,)

    return _record(y, [x], fn, "normalize")


def batch_channel_stats(x_data):
    """Plain per-channel mean and variance over batch and spatial dims."""
    return x_data.mean(axis=(0, 2, 3)), x_data.var(axis=(0, 2, 3))


def channel_standardize(x, mean, var, eps=1e-5):
    """Standardize with fixed per-channel statistics (eval-mode normalization)."""
    x = as_tensor(x)
    inv = (1.0 / np.sqrt(var + eps)).reshape(1, -1, 1, 1)
    mu = np.asarray(mean).reshape(1, -1, 1, 1)
    return _record((x.data - mu) * inv, [x], lambda g: (g * inv,), "standardize")
