"""Shared helpers for the test suite."""

import hashlib
import re

import numpy as np

from mhnes import nn, tensor as T
from mhnes.convops import conv2d
from mhnes.supernet import Backbone, Supernet, _HeadStack


# supernet key of one stack: (prefix, head, read state, op index, rest)
_STACK_KEY = re.compile(r"(heads\.(\d+)\.cells\.\d+\.)stacks\.(\d+)\.(\d+)(\..*)")
# per-edge key of one edge op: (prefix, edge, op index, rest)
_EDGE_OP_KEY = re.compile(r"(heads\.\d+\.cells\.\d+\.)edges\.(\d+)\.ops\.(\d+)(\..*)")


def supernet_as_discrete_arrays(sup, net):
    """The state arrays of DiscreteNetwork ``net`` with every parameter
    taken from the matching supernet parameter.

    Both networks are built from the same head module, so every key lines
    up except edge ops. The supernet stores op ``o`` of the edges that read
    state ``i`` as ``stacks.i.o``, one block per edge in
    ``spec.state_readers(i)`` order; the chosen op of edge ``e`` is
    ``edges.e.ops.0`` in the discrete network, and ops that were not chosen
    are dropped (k=1 supernet). The supernet tracks no running statistics,
    so ``net`` keeps its own; in training mode its norms use batch
    statistics, as the supernet's do.
    """
    geno = net.genotype
    spec = geno.spec
    chosen = set()
    for h, cell in enumerate(geno.heads):
        for choice in cell:
            start, _ = spec.node_edge_range(choice.node)
            for src, op_name in zip(choice.inputs, choice.ops):
                chosen.add((h, start + src, spec.ops.index(op_name)))
    arrays = dict(net.state_arrays())
    for key, value in sup.state_arrays().items():
        m = _STACK_KEY.fullmatch(key)
        if m is None:
            arrays[key] = value
            continue
        rows = spec.state_readers(int(m[3]))
        for e, block in zip(rows, np.split(value, len(rows))):
            if (int(m[2]), e, int(m[4])) in chosen:
                arrays[f"{m[1]}edges.{e}.ops.0{m[5]}"] = block
    return arrays


def named_parameters(net):
    """Name -> parameter tensor, named as ``state_arrays`` names them."""
    return {prefix + name: p for prefix, m in net.modules()
            for name, p in m._params.items()}


def as_stacked(spec, arrays):
    """``arrays``, named in a per-edge supernet layout
    (``per_edge_supernet``), renamed and concatenated into ``Supernet``'s
    stacked layout: ``stacks.i.o`` joins op ``o`` of the edges
    ``spec.state_readers(i)``, in that order."""
    out, blocks = {}, {}
    for key, value in arrays.items():
        m = _EDGE_OP_KEY.fullmatch(key)
        if m is None:
            out[key] = value
            continue
        edge = int(m[2])
        i = next(i for i in range(spec.nodes + 1) if edge in spec.state_readers(i))
        block = spec.state_readers(i).index(edge)
        blocks.setdefault(f"{m[1]}stacks.{i}.{m[3]}{m[4]}", {})[block] = value
    for key, parts in blocks.items():
        out[key] = np.concatenate([parts[b] for b in range(len(parts))])
    return out


def per_edge_supernet(seed, spec, arch, num_classes, k):
    """``Supernet(default_rng(seed), spec, arch, num_classes, k)`` with each
    edge owning its weights, as a ``DiscreteNetwork``'s edges do.

    The weights are drawn here in their construction order (backbone, then
    per head and cell the two preprocessing convs, each edge's ops and, per
    head, the classifier), so ``as_stacked`` of its state arrays must equal
    the supernet's bit for bit.
    """
    net = Supernet(np.random.default_rng(seed), spec, arch, num_classes, k)
    rng = np.random.default_rng(seed)
    Backbone(rng, spec)  # the supernet's backbone draws
    net.heads = nn.ModuleList([
        _HeadStack(rng, spec, [ops] * spec.num_edges, num_classes, k)
        for ops in arch.head_ops
    ])
    return net


def random_prob_rows(rng, n, c, scale=1.0):
    z = rng.normal(scale=scale, size=(n, c))
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def im2col_conv2d(x, w, g, stride=1, padding=0, dilation=1, groups=1):
    """Reference conv: full im2col over every kernel offset, then einsum.

    Returns (out, dx, dw) for input ``x``, weight ``w`` and output gradient
    ``g``; ``mhnes.convops.conv2d`` sums the same terms in another order and
    must match it to within rounding.
    """
    n, c, h, wd = x.shape
    co, cg, kh, kw = w.shape
    oh = (h + 2 * padding - dilation * (kh - 1) - 1) // stride + 1
    ow = (wd + 2 * padding - dilation * (kw - 1) - 1) // stride + 1
    pads = ((0, 0), (0, 0), (padding, padding), (padding, padding))

    def windows():
        for ki in range(kh):
            for kj in range(kw):
                yield (
                    ki,
                    kj,
                    slice(ki * dilation, ki * dilation + (oh - 1) * stride + 1, stride),
                    slice(kj * dilation, kj * dilation + (ow - 1) * stride + 1, stride),
                )

    xp = np.pad(x, pads)
    cols = np.empty((n, c, kh, kw, oh, ow))
    for ki, kj, si, sj in windows():
        cols[:, :, ki, kj] = xp[:, :, si, sj]
    cog = co // groups
    colsg = cols.reshape(n, groups, cg * kh * kw, oh * ow)
    wg = w.reshape(groups, cog, cg * kh * kw)
    out = np.einsum("gok,ngkp->ngop", wg, colsg).reshape(n, co, oh, ow)

    gg = g.reshape(n, groups, cog, oh * ow)
    dw = np.einsum("ngop,ngkp->gok", gg, colsg).reshape(co, cg, kh, kw)
    dcols = np.einsum("gok,ngop->ngkp", wg, gg).reshape(n, c, kh, kw, oh, ow)
    dxp = np.zeros(xp.shape)
    for ki, kj, si, sj in windows():
        dxp[:, :, si, sj] += dcols[:, :, ki, kj]
    dx = dxp[:, :, padding : padding + h, padding : padding + wd].copy()
    return out, dx, dw


def nchw_pool2d(kind, x, g, window=3, stride=1, padding=1):
    """Reference pool: every window offset gathered into [N, C, K, OH, OW].

    Returns (out, dx) for input ``x`` and output gradient ``g``. Max pooling
    reads padding as -inf and routes each gradient to the first maximal
    offset in row-major window order; average pooling divides by the full
    window area. ``mhnes.convops.pool2d`` must match it bit for bit whenever
    the output has more than one pixel.
    """
    n, c, h, wd = x.shape
    oh = (h + 2 * padding - window) // stride + 1
    ow = (wd + 2 * padding - window) // stride + 1
    fill = -np.inf if kind == "max" else 0.0
    xp = np.full((n, c, h + 2 * padding, wd + 2 * padding), fill)
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    slices = [
        (
            slice(ki, ki + (oh - 1) * stride + 1, stride),
            slice(kj, kj + (ow - 1) * stride + 1, stride),
        )
        for ki in range(window)
        for kj in range(window)
    ]
    cols = np.empty((n, c, len(slices), oh, ow))
    for i, (si, sj) in enumerate(slices):
        cols[:, :, i] = xp[:, :, si, sj]
    if kind == "avg":
        area = float(window * window)
        out = cols.sum(axis=2) / area
        dcols = np.broadcast_to(g[:, :, None] / area, cols.shape)
    else:
        arg = cols.argmax(axis=2)[:, :, None]
        out = np.take_along_axis(cols, arg, axis=2)[:, :, 0]
        dcols = np.zeros_like(cols)
        np.put_along_axis(dcols, arg, g[:, :, None], axis=2)
    dxp = np.zeros(xp.shape)
    for i, (si, sj) in enumerate(slices):
        dxp[:, :, si, sj] += dcols[:, :, i]
    return out, dxp[:, :, padding : padding + h, padding : padding + wd].copy()


def per_edge_mixture(cell, x, table, betas=None):
    """Reference mixture forward of a supernet ``MixedCell``: each edge by
    itself, its ops called on its own input and mixed by ``weighted_sum``,
    nodes in order.

    ``MixedCell`` stacks the edges that read one state instead; its outputs
    and, at partial-channel factor K > 1, its gradients must equal these
    bit for bit. ``cell`` comes from ``per_edge_supernet``, whose edges own
    their weights.
    """
    spec = cell.spec
    states = [cell.pre[0](x), cell.pre[1](x)]
    n_ops = table.shape[1]
    for j in range(spec.nodes):
        start, stop = spec.node_edge_range(j)
        outs = []
        for e in range(start, stop):
            edge, xe = cell.edges[e], states[e - start]
            row = T.reshape(T.narrow(table, 0, e, 1), (n_ops,))
            if edge.k == 1:
                outs.append(T.weighted_sum([o(xe) for o in edge.ops], row))
                continue
            c1 = edge.c // edge.k
            x1 = T.narrow(xe, 1, 0, c1)
            x2 = T.narrow(xe, 1, c1, edge.c - c1)
            y1 = T.weighted_sum([o(x1) for o in edge.ops], row)
            y2 = T.subsample2(x2) if edge.stride == 2 else x2
            outs.append(T.channel_shuffle(T.concat([y1, y2], axis=1), edge.k))
        if betas is not None:
            bw = T.softmax(T.narrow(betas, 0, start, stop - start), axis=0)
            states.append(T.weighted_sum(outs, bw))
        else:
            acc = outs[0]
            for o in outs[1:]:
                acc = T.add(acc, o)
            states.append(acc)
    return T.concat(states[2:], axis=1)


def conv_digest(cases, seed=0):
    """sha256 over the output, input gradient and weight gradient of one
    recorded ``conv2d`` forward and backward per case, a case being
    (n, c, h, c_out, groups, k, stride, padding, dilation)."""
    rng = np.random.default_rng(seed)
    digest = hashlib.sha256()
    for n, c, h, co, groups, k, stride, padding, dilation in cases:
        x = T.Tensor(rng.normal(size=(n, c, h, h)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(co, c // groups, k, k)), requires_grad=True)
        with T.Tape():
            out = conv2d(x, w, stride, padding, dilation, groups)
            T.backward(T.mul(out, T.Tensor(rng.normal(size=out.shape))).sum())
        for a in (out.data, x.grad, w.grad):
            digest.update(a.tobytes())
    return digest.hexdigest()
