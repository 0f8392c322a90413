"""Differentiable sampling of operation-weight simplices from Dirichlet laws.

Each row of a positive concentration table is sampled as normalized Gamma
variates. Gammas are drawn with the shape-boosted Marsaglia-Tsang squeeze
(shape+1 plus a uniform power boost), so the samples follow the exact
Dirichlet distribution; gradients flow pathwise through the accepted
transform, which needs only elementary derivatives. The small score-term
correction of the rejection step is ignored.
"""

from __future__ import annotations

import numpy as np

from .tensor import _record, as_tensor


def _gamma_mt(shape_params, rng):
    """Boosted Marsaglia-Tsang Gamma draws; returns sample and saved noise."""
    a = shape_params
    d = a + 1.0 - 1.0 / 3.0
    c = 1.0 / (3.0 * np.sqrt(d))
    x = rng.standard_normal(a.shape)
    v = (1.0 + c * x) ** 3
    u = 1.0 - rng.random(a.shape)  # in (0, 1]
    ok = (v > 0) & (
        np.log(u) < 0.5 * x**2 + d - d * v + d * np.log(np.where(v > 0, v, 1.0))
    )
    while not ok.all():
        m = ~ok
        xm = rng.standard_normal(int(m.sum()))
        vm = (1.0 + c[m] * xm) ** 3
        um = 1.0 - rng.random(int(m.sum()))
        okm = (vm > 0) & (
            np.log(um)
            < 0.5 * xm**2 + d[m] - d[m] * vm + d[m] * np.log(np.where(vm > 0, vm, 1.0))
        )
        for arr, new in ((x, xm), (v, vm)):
            cur = arr[m]
            cur[okm] = new[okm]
            arr[m] = cur
        acc = ok[m]
        acc[okm] = True
        ok[m] = acc
    boost = 1.0 - rng.random(a.shape)  # in (0, 1]
    g = d * v * boost ** (1.0 / a)
    return g, (d, c, x, v, boost)


def sample_simplex_rows(conc, rng):
    """Sample one simplex per row of a positive concentration table.

    The output rows sum to one; gradients w.r.t. the concentrations are the
    pathwise derivatives of the Gamma transform at the accepted noise.
    Normalization happens in log space (softmax of log-Gamma draws), so tiny
    concentrations cannot underflow the boost factor u^(1/a) to zero.
    """
    conc = as_tensor(conc)
    a = conc.data
    if np.any(a <= 0) or not np.all(np.isfinite(a)):
        raise ValueError("concentrations must be finite and strictly positive")
    _, (d, c, x, v, boost) = _gamma_mt(a, rng)
    log_g = np.log(d * v) + np.log(boost) / a
    z = log_g - log_g.max(axis=-1, keepdims=True)
    e = np.exp(z)
    w = e / e.sum(axis=-1, keepdims=True)

    def fn(gout):
        # softmax backward, then d(log g)/da along the accepted path
        dlog = w * (gout - (gout * w).sum(axis=-1, keepdims=True))
        dc_da = -1.0 / (6.0 * d**1.5)
        dv_da = 3.0 * (1.0 + c * x) ** 2 * x * dc_da
        dlog_da = (v + d * dv_da) / (d * v) - np.log(boost) / a**2
        return (dlog * dlog_da,)

    return _record(w, [conc], fn, "dirichlet_sample")


def row_normalize(x):
    """Differentiable per-row normalization x / sum(x) of a 2-D tensor."""
    x = as_tensor(x)
    s = x.data.sum(axis=-1, keepdims=True)
    y = x.data / s

    def fn(g):
        return ((g - (g * y).sum(axis=-1, keepdims=True)) / s,)

    return _record(y, [x], fn, "row_normalize")
