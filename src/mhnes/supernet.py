"""Multi-headed supernetwork, its discrete counterpart, and discretization.

The supernet is a shared convolutional backbone feeding M heads. Each head
stacks L cells whose edges hold every candidate operation, combined by
softmax-mixed weights (one architecture configuration per head, shared by
all its cells; the first cell reduces spatial extent). Partial-channel mode
routes only 1/K of the channels through the operation mixture, the rest
bypassing, followed by a channel shuffle. Edge weights (PC-DARTS mode)
combine a node's incoming edges by a second softmax.
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

    def __init__(self, rng, ops, c, stride, k=1, track=False):
        super().__init__()
        if c % k:
            raise ValueError(f"channels {c} not divisible by partial factor K={k}")
        self.k = k
        self.c = c
        self.stride = stride
        self.names = tuple(ops)
        self.ops = nn.ModuleList(
            [build_op(name, rng, c // k, stride, track) for name in ops]
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

    def __init__(self, rng, spec: ModelSpec, edge_ops, c_in, c, reduction, k=1,
                 track=False):
        super().__init__()
        self.spec = spec
        self.reduction = reduction
        self.pre = nn.ModuleList(
            [nn.ReluConvNorm(rng, c_in, c, 1, track=track) for _ in range(2)]
        )
        self.edges = nn.ModuleList()
        for (i, _j), ops in zip(spec.edges(), edge_ops):
            stride = 2 if (reduction and i < 2) else 1
            self.edges.append(MixedEdge(rng, ops, c, stride, k, track))

    def forward(self, x, table=None, betas=None, cell_genotype=None):
        """Mixture forward when ``table`` is given, masked single-op forward
        when ``cell_genotype`` is given (only chosen edges are evaluated)."""
        states = [self.pre[0](x), self.pre[1](x)]
        if cell_genotype is not None:
            for choice in cell_genotype:
                start, _ = self.spec.node_edge_range(choice.node)
                acc = None
                for src, op_name in zip(choice.inputs, choice.ops):
                    out = self.edges[start + src](states[src], op=op_name)
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
    def __init__(self, rng, c_in, c_out, stride, track=False):
        super().__init__()
        self.conv1 = nn.Conv2d(rng, c_in, c_out, 3, stride, 1)
        self.n1 = nn.Norm(c_out, track=track)
        self.conv2 = nn.Conv2d(rng, c_out, c_out, 3, 1, 1)
        self.n2 = nn.Norm(c_out, track=track)
        self.shortcut = (
            nn.Conv2d(rng, c_in, c_out, 1, stride, 0)
            if (stride != 1 or c_in != c_out)
            else None
        )

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

    def __init__(self, rng, spec: ModelSpec, track=False):
        super().__init__()
        w = spec.backbone_width
        self.stem = nn.Conv2d(rng, 1, w, 3, 1, 1)
        self.stem_norm = nn.Norm(w, track=track)
        blocks = []
        for _stage in range(2):
            blocks.append(ResidualBlock(rng, w, w, 2, track))
            for _ in range(spec.backbone_layers - 1):
                blocks.append(ResidualBlock(rng, w, w, 1, track))
        self.blocks = nn.ModuleList(blocks)

    def forward(self, x):
        x = T.relu(self.stem_norm(self.stem(x)))
        for b in self.blocks:
            x = b(x)
        return x

    __call__ = forward


class _HeadStack(nn.Module):
    def __init__(self, rng, spec, edge_ops, c_in, k, track):
        super().__init__()
        c = spec.head_width
        cells = []
        for ci in range(spec.cells_per_head):
            cells.append(MixedCell(rng, spec, edge_ops, c_in, c, ci == 0, k, track))
            c_in = spec.nodes * c
        self.cells = nn.ModuleList(cells)
        self.classifier = nn.Linear(rng, spec.nodes * c, spec.num_classes)

    def forward(self, x, table=None, betas=None, cell_genotype=None):
        for cell in self.cells:
            x = cell(x, table, betas, cell_genotype)
        pooled = x.mean(axis=(2, 3))
        return T.softmax(self.classifier(pooled), axis=1)

    __call__ = forward


class Supernet(nn.Module):
    """Backbone + M mixed-operation heads driven by an ArchParams reference."""

    def __init__(self, rng, spec: ModelSpec, arch: ArchParams, k=1):
        super().__init__()
        self.spec = spec
        self.arch = arch
        self.k = k
        self.backbone = Backbone(rng, spec)
        self.heads = nn.ModuleList(
            [
                _HeadStack(
                    rng, spec, [arch.head_ops[h]] * spec.num_edges,
                    spec.backbone_width, k, False,
                )
                for h in range(spec.num_heads)
            ]
        )

    def forward(self, x, mode="continuous", genotype=None, rng=None):
        """Per-head class-probability matrices for a batch.

        continuous: operation mixtures from ArchParams (drnas: sampled with
        ``rng`` when given). sampled/discrete: exactly one operation per
        chosen edge of ``genotype`` is active.
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
            for h, head in enumerate(self.heads):
                out.append(head(feats, cell_genotype=genotype.heads[h]))
        else:
            raise ValueError(f"unknown forward mode {mode!r}")
        return out

    __call__ = forward

    def predict(self, images, genotype=None, mode="continuous", batch=256):
        """Stacked per-head probabilities [M, N, C] without recording.

        Supernet norms always use batch statistics, so each example's output
        depends on the other examples of its ``batch``-sized chunk: results
        change with the chunk size.
        """
        return _predict_chunks(
            lambda x: self.forward(x, mode=mode, genotype=genotype), images, batch
        )


def _predict_chunks(forward, images, batch):
    """Stacked per-head probabilities [M, N, C] of ``forward`` over
    ``batch``-sized chunks of ``images``, without recording."""
    chunks = []
    for lo in range(0, len(images), batch):
        probs = forward(Tensor(images[lo : lo + batch]))
        chunks.append(np.stack([p.data for p in probs]))
    return np.concatenate(chunks, axis=1)


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
    where the benchmark's tracer looks them up. Normalization tracks
    running statistics (used in eval mode); training always initializes
    fresh parameters — no weights are inherited from a supernetwork.
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
        self.spec = spec
        self.backbone = Backbone(rng, spec, track=track)
        self.heads = nn.ModuleList(
            [
                _HeadStack(
                    rng, spec, _chosen_edge_ops(spec, cell_genotype),
                    spec.backbone_width, 1, track,
                )
                for cell_genotype in genotype.heads
            ]
        )

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
