"""Multi-headed supernetwork, its discrete counterpart, and discretization.

The supernet is a shared convolutional backbone feeding M heads. Each head
stacks L cells whose edges hold every candidate operation, combined by
softmax-mixed weights (one architecture configuration per head, shared by
all its cells; the first cell reduces spatial extent). Partial-channel mode
routes only 1/K of the channels through the operation mixture, the rest
bypassing, followed by a channel shuffle. Edge weights (PC-DARTS mode)
combine a node's incoming edges by a second softmax.

A discrete forward scores a list of genotypes in one pass. The backbone and
each head's first-cell input states do not depend on the genotype, nor do the
first cell's edges that read those states (stride-2 reductions on the largest
head maps). So they are computed once per batch and shared by every genotype;
the rest of each head runs per genotype. Supernet norms use the statistics of
the batch alone, so each genotype's output equals that of its own forward.
"""

from __future__ import annotations

import numpy as np

from . import nn, tensor as T
from .dirichlet import row_normalize, sample_simplex_rows
from .space import ModelSpec, MultiHeadGenotype, NodeChoice, build_op, genotype_from_spec
from .tensor import Tensor

ARCH_MODES = ("plain", "pcdarts", "drnas")


class ArchParams:
    """Continuous architecture state: one table per head.

    plain / pcdarts: ``alpha[h]`` holds operation-mixing logits per edge
    (pcdarts adds a per-edge scalar ``beta[h]``). drnas: ``alpha[h]`` holds
    strictly positive Dirichlet concentrations (floored at 1e-3).

    ``head_ops`` lists the candidate operation names active for each head,
    allowing per-head pruning between search stages.
    """

    CONC_FLOOR = 1e-3

    def __init__(self, spec: ModelSpec, mode, rng, head_ops=None, init_scale=1e-3):
        if mode not in ARCH_MODES:
            raise ValueError(f"unknown arch mode {mode!r}")
        self.spec = spec
        self.mode = mode
        self.head_ops = [
            tuple(ops) for ops in (head_ops or [spec.ops] * spec.num_heads)
        ]
        e = spec.num_edges
        self.alpha = []
        self.beta = []
        for ops in self.head_ops:
            if mode == "drnas":
                self.alpha.append(Tensor(np.ones((e, len(ops))), requires_grad=True))
            else:
                self.alpha.append(
                    Tensor(
                        rng.normal(0.0, init_scale, (e, len(ops))),
                        requires_grad=True,
                    )
                )
            if mode == "pcdarts":
                self.beta.append(
                    Tensor(rng.normal(0.0, init_scale, e), requires_grad=True)
                )
        if np.any([len(set(ops)) != len(ops) for ops in self.head_ops]):
            raise ValueError("duplicate operation names within a head")

    def tensors(self):
        return list(self.alpha) + list(self.beta)

    def clamp(self):
        if self.mode == "drnas":
            for t in self.alpha:
                np.maximum(t.data, self.CONC_FLOOR, out=t.data)

    def mixture_tables(self, rng=None):
        """Per-head [E, n_ops] mixing-weight tensors for a continuous forward.

        drnas: sampled from the concentration-parameterized distribution when
        an rng is given (pathwise differentiable), otherwise the expectation.
        """
        out = []
        for t in self.alpha:
            if self.mode == "drnas":
                out.append(
                    sample_simplex_rows(t, rng) if rng is not None else row_normalize(t)
                )
            else:
                out.append(T.softmax(t, axis=1))
        return out

    def flat(self):
        return np.concatenate([t.data.reshape(-1) for t in self.tensors()])

    def set_flat(self, vec):
        pos = 0
        for t in self.tensors():
            n = t.data.size
            t.data[...] = vec[pos : pos + n].reshape(t.data.shape)
            pos += n


# ---------------------------------------------------------------------------
# network modules


class MixedEdge(nn.Module):
    """Candidate operations on one edge, mixed by given weights or picked by name."""

    def __init__(self, rng, ops, c, stride, k=1):
        super().__init__()
        if c % k:
            raise ValueError(f"channels {c} not divisible by partial factor K={k}")
        self.k = k
        self.c = c
        self.stride = stride
        self.names = tuple(ops)
        self.ops = nn.ModuleList(
            [build_op(name, rng, c // k, stride) for name in ops]
        )

    def _through_ops(self, x, w_row=None, op=None):
        if op is not None:
            return self.ops[self.names.index(op)](x)
        return T.weighted_sum([o(x) for o in self.ops], w_row)

    def forward(self, x, w_row=None, op=None):
        if self.k == 1:
            return self._through_ops(x, w_row, op)
        c1 = self.c // self.k
        x1 = T.narrow(x, 1, 0, c1)
        x2 = T.narrow(x, 1, c1, self.c - c1)
        y1 = self._through_ops(x1, w_row, op)
        y2 = T.subsample2(x2) if self.stride == 2 else x2
        return T.channel_shuffle(T.concat([y1, y2], axis=1), self.k)

    __call__ = forward


class MixedCell(nn.Module):
    """Cell DAG whose edge ``e`` holds the candidate operations ``edge_ops[e]``.

    A supernet cell puts the head's whole operation list on every edge; a
    discrete cell puts the one chosen operation on each chosen edge and none
    on the others.
    """

    def __init__(self, rng, spec: ModelSpec, edge_ops, c_in, reduction, k=1):
        super().__init__()
        self.spec = spec
        c = spec.head_width
        self.pre = nn.ModuleList([nn.ReluConvNorm(rng, c_in, c) for _ in range(2)])
        self.edges = nn.ModuleList()
        for (i, _j), ops in zip(spec.edges(), edge_ops):
            stride = 2 if (reduction and i < 2) else 1
            self.edges.append(MixedEdge(rng, ops, c, stride, k))

    def forward(self, x, table=None, betas=None, cell_genotype=None, shared=None):
        """Mixture forward when ``table`` is given, masked single-op forward
        when ``cell_genotype`` is given (only chosen edges are evaluated).

        ``shared`` is a dict that a caller keeps across masked forwards of
        the same ``x``. It holds the cell's two input states and each
        ``(edge, op)`` output read from them, so each is computed once. They
        depend only on ``x`` and the weights, not on the genotype, so reusing
        them gives the same numbers as computing them again.
        """
        shared = {} if shared is None else shared
        if "inputs" not in shared:
            shared["inputs"] = [self.pre[0](x), self.pre[1](x)]
        states = list(shared["inputs"])
        if cell_genotype is not None:
            for choice in cell_genotype:
                start, _ = self.spec.node_edge_range(choice.node)
                acc = None
                for src, op_name in zip(choice.inputs, choice.ops):
                    key = (start + src, op_name)
                    out = shared.get(key) if src < 2 else None
                    if out is None:
                        out = self.edges[start + src](states[src], op=op_name)
                        if src < 2:
                            shared[key] = out
                    acc = out if acc is None else T.add(acc, out)
                states.append(acc)
        else:
            n_ops = table.shape[1]
            for j in range(self.spec.nodes):
                start, stop = self.spec.node_edge_range(j)
                outs = []
                for e in range(start, stop):
                    row = T.reshape(T.narrow(table, 0, e, 1), (n_ops,))
                    outs.append(self.edges[e](states[e - start], w_row=row))
                if betas is not None:
                    bw = T.softmax(T.narrow(betas, 0, start, stop - start), axis=0)
                    states.append(T.weighted_sum(outs, bw))
                else:
                    acc = outs[0]
                    for o in outs[1:]:
                        acc = T.add(acc, o)
                    states.append(acc)
        return T.concat(states[2:], axis=1)

    __call__ = forward


# The benchmark's tracer (perfbench/child.py) wraps ``supernet.DiscreteCell``.
DiscreteCell = MixedCell


class ResidualBlock(nn.Module):
    def __init__(self, rng, c, stride):
        super().__init__()
        self.conv1 = nn.Conv2d(rng, c, c, 3, stride, 1)
        self.n1 = nn.Norm(c)
        self.conv2 = nn.Conv2d(rng, c, c, 3, 1, 1)
        self.n2 = nn.Norm(c)
        self.shortcut = nn.Conv2d(rng, c, c, 1, stride, 0) if stride != 1 else None

    def forward(self, x):
        y = self.n2(self.conv2(T.relu(self.n1(self.conv1(x)))))
        s = self.shortcut(x) if self.shortcut is not None else x
        return T.relu(T.add(y, s))

    __call__ = forward


class Backbone(nn.Module):
    """Stem conv plus two stride-2 residual stages of fixed width.

    The stem reads one input channel: the dataset format stores
    single-channel images.
    """

    def __init__(self, rng, spec: ModelSpec):
        super().__init__()
        w = spec.backbone_width
        self.stem = nn.Conv2d(rng, 1, w, 3, 1, 1)
        self.stem_norm = nn.Norm(w)
        blocks = []
        for _stage in range(2):
            blocks.append(ResidualBlock(rng, w, 2))
            for _ in range(spec.backbone_layers - 1):
                blocks.append(ResidualBlock(rng, w, 1))
        self.blocks = nn.ModuleList(blocks)

    def forward(self, x):
        x = T.relu(self.stem_norm(self.stem(x)))
        for b in self.blocks:
            x = b(x)
        return x

    __call__ = forward


class _HeadStack(nn.Module):
    def __init__(self, rng, spec, edge_ops, k):
        super().__init__()
        c_in = spec.backbone_width
        cells = []
        for ci in range(spec.cells_per_head):
            cells.append(MixedCell(rng, spec, edge_ops, c_in, ci == 0, k))
            c_in = spec.nodes * spec.head_width
        self.cells = nn.ModuleList(cells)
        self.classifier = nn.Linear(rng, c_in, spec.num_classes)

    def forward(self, x, table=None, betas=None, cell_genotype=None, shared=None):
        """Class probabilities; ``shared`` goes to the first cell only, since
        the inputs of later cells depend on the genotype."""
        for i, cell in enumerate(self.cells):
            x = cell(x, table, betas, cell_genotype, shared if i == 0 else None)
        pooled = x.mean(axis=(2, 3))
        return T.softmax(self.classifier(pooled), axis=1)

    __call__ = forward


class Supernet(nn.Module):
    """Backbone + M mixed-operation heads driven by an ArchParams reference."""

    def __init__(self, rng, spec: ModelSpec, arch: ArchParams, k=1):
        super().__init__()
        self.arch = arch
        self.backbone = Backbone(rng, spec)
        self.heads = nn.ModuleList(
            [
                _HeadStack(rng, spec, [arch.head_ops[h]] * spec.num_edges, k)
                for h in range(spec.num_heads)
            ]
        )

    def forward(self, x, mode="continuous", genotype=None, rng=None):
        """Per-head class-probability matrices for a batch.

        continuous: operation mixtures from ArchParams (drnas: sampled with
        ``rng`` when given). sampled: exactly one operation per chosen edge
        of ``genotype`` is active. discrete: ``genotype`` is a list of G
        genotypes, scored in one pass; returns one per-head list for each.

        The discrete pass runs the backbone once, then each head once per
        genotype, with the head's first-cell input states and the ``(edge,
        op)`` outputs read from them computed once and released after that
        head. None of these depend on the genotype, and norms use the
        statistics of ``x`` alone, so every genotype's output is the same as
        from a forward of its own. A sampled forward is the one-genotype case.
        """
        x = T.as_tensor(x)
        feats = self.backbone(x)
        out = []
        if mode == "continuous":
            tables = self.arch.mixture_tables(rng)
            for h, head in enumerate(self.heads):
                betas = self.arch.beta[h] if self.arch.mode == "pcdarts" else None
                out.append(head(feats, table=tables[h], betas=betas))
        elif mode in ("sampled", "discrete"):
            if genotype is None:
                raise ValueError(f"{mode} forward needs a genotype")
            genotypes = [genotype] if mode == "sampled" else genotype
            out = [[] for _ in genotypes]
            for h, head in enumerate(self.heads):
                shared = {}
                for probs, g in zip(out, genotypes):
                    probs.append(head(feats, cell_genotype=g.heads[h], shared=shared))
            if mode == "sampled":
                out = out[0]
        else:
            raise ValueError(f"unknown forward mode {mode!r}")
        return out

    __call__ = forward

    def predict(self, images, genotype=None, mode="continuous", batch=256):
        """Stacked per-head probabilities [M, N, C] without recording; in
        discrete mode ``genotype`` is a list of G genotypes and the result
        is [G, M, N, C].

        Supernet norms always use batch statistics, so each example's output
        depends on the other examples of its ``batch``-sized chunk: results
        change with the chunk size.
        """
        return _predict_chunks(
            lambda x: self.forward(x, mode=mode, genotype=genotype), images, batch
        )


def _predict_chunks(forward, images, batch):
    """Probabilities of ``forward`` over ``batch``-sized chunks of
    ``images``, without recording: its (nested) lists of [n, C] tensors
    stacked into one array, with the chunks joined on the example axis."""
    chunks = []
    for lo in range(0, len(images), batch):
        chunks.append(_stack(forward(Tensor(images[lo : lo + batch]))))
    return np.concatenate(chunks, axis=-2)


def _stack(probs):
    if isinstance(probs, Tensor):
        return probs.data
    return np.stack([_stack(p) for p in probs])


def _chosen_edge_ops(spec: ModelSpec, cell_genotype):
    """Per-edge operation tuples: the chosen op on chosen edges, none elsewhere."""
    edge_ops = [()] * spec.num_edges
    for choice in cell_genotype:
        start, _ = spec.node_edge_range(choice.node)
        for src, op_name in zip(choice.inputs, choice.ops):
            edge_ops[start + src] = (op_name,)
    return edge_ops


class DiscreteNetwork(nn.Module):
    """Standalone multi-headed network built from a genotype.

    The supernet's backbone and head modules, with one operation on each
    chosen edge. ``forward`` and ``predict`` stay defined on this class,
    where the benchmark's tracer looks them up. Its norms track running
    statistics for eval mode unless ``track`` is False (batch statistics, as
    in the supernet). Training initializes fresh parameters; none are
    inherited from a supernetwork.
    """

    def __init__(self, rng, genotype: MultiHeadGenotype, num_classes, track=True):
        super().__init__()
        genotype.validate()
        self.genotype = genotype
        spec = ModelSpec(
            num_classes=num_classes,
            num_heads=genotype.num_heads,
            cells_per_head=genotype.cells_per_head,
            nodes=genotype.nodes,
            ops=genotype.ops,
            backbone_layers=genotype.backbone_layers,
            backbone_width=genotype.backbone_width,
            head_width=genotype.head_width,
        )
        self.backbone = Backbone(rng, spec)
        self.heads = nn.ModuleList(
            [
                _HeadStack(rng, spec, _chosen_edge_ops(spec, cell_genotype), 1)
                for cell_genotype in genotype.heads
            ]
        )
        for _, m in self.modules():
            if isinstance(m, nn.Norm):
                m.track = track

    def forward(self, x):
        feats = self.backbone(T.as_tensor(x))
        return [
            head(feats, cell_genotype=cell_genotype)
            for head, cell_genotype in zip(self.heads, self.genotype.heads)
        ]

    __call__ = forward

    def predict(self, images, batch=256):
        was_training = self.training
        self.eval()
        out = _predict_chunks(self.forward, images, batch)
        self.train(was_training)
        return out


# ---------------------------------------------------------------------------
# discretization


def discretize(arch: ArchParams) -> MultiHeadGenotype:
    """Strongest-operation genotype from continuous architecture state.

    Edges are ranked per node by their best operation weight, read from the
    rng-free ``mixture_tables()`` of the continuous forward (softmax; drnas:
    the expected Dirichlet weight) and, in PC-DARTS mode, scaled by the
    node's softmaxed edge weights as in ``MixedCell``. The top two edges are
    kept with their argmax operations. Ties resolve to the lower edge index
    and lower op index.
    Non-finite architecture parameters raise ``FloatingPointError``.
    """
    if not np.all(np.isfinite(arch.flat())):
        raise FloatingPointError("discretize: non-finite architecture parameters")
    spec = arch.spec
    heads = []
    for h, table in enumerate(t.data for t in arch.mixture_tables()):
        ops = arch.head_ops[h]
        strength = table.max(axis=1)
        best_op = table.argmax(axis=1)  # first max = lowest op index
        cell = []
        for j in range(spec.nodes):
            start, stop = spec.node_edge_range(j)
            edge_strength = strength[start:stop]
            if arch.mode == "pcdarts":
                beta = T.narrow(arch.beta[h], 0, start, stop - start)
                edge_strength = edge_strength * T.softmax(beta, axis=0).data
            order = sorted(range(stop - start), key=lambda e: (-edge_strength[e], e))
            kept = sorted(order[:2])
            cell.append(
                NodeChoice(
                    j,
                    tuple(kept),
                    tuple(ops[best_op[start + e]] for e in kept),
                )
            )
        heads.append(tuple(cell))
    return genotype_from_spec(spec, heads)


def one_hot_arch(spec: ModelSpec, genotype: MultiHeadGenotype, margin=40.0) -> ArchParams:
    """Embed a genotype as near-one-hot logits (chosen edges dominate)."""
    arch = ArchParams(spec, "plain", np.random.default_rng(0), init_scale=0.0)
    for h, cell in enumerate(genotype.heads):
        for choice in cell:
            start, _ = spec.node_edge_range(choice.node)
            for src, op_name in zip(choice.inputs, choice.ops):
                row = arch.alpha[h].data[start + src]
                row[:] = -margin
                row[spec.ops.index(op_name)] = margin
    return arch
