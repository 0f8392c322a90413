"""Cell-based head search space: candidate operations, genotypes, distances.

A cell is a DAG over two input nodes (both fed by the previous block) and
``nodes`` intermediate nodes; every intermediate node consumes all earlier
nodes through candidate operations. Discrete architectures keep exactly two
(input, operation) pairs per intermediate node. One configuration is shared
by all cells of a head, reduction and normal alike.

``OP_BUILDERS`` names the candidate operations: the seven DARTS-style ops of
``DEFAULT_OPS`` plus ``batch_mix_a``, a label-destroying op for search tasks
with a planted best operation. Each op class writes its layer sequence once,
as its ``forward``. That forward runs one op, or, on a ``stack`` of E ops of
the class, all E in one call on E copies of their input stacked along
channels. A stack's conv layers hold the E ops' weights as one array, and
each of the E ops reads its block of it.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import convops, nn, tensor as T

DEFAULT_OPS = (
    "skip_connect",
    "sep_conv_3x3",
    "sep_conv_5x5",
    "dil_conv_3x3",
    "dil_conv_5x5",
    "max_pool_3x3",
    "avg_pool_3x3",
)


@dataclass(frozen=True)
class ModelSpec:
    """Shape of the multi-headed model and its head search space."""

    num_heads: int = 3
    cells_per_head: int = 3
    nodes: int = 4
    ops: tuple[str, ...] = DEFAULT_OPS
    backbone_layers: int = 1
    backbone_width: int = 16
    head_width: int = 16

    def edges(self):
        """All (source, node) pairs; sources 0,1 are cell inputs."""
        out = []
        for j in range(self.nodes):
            for i in range(j + 2):
                out.append((i, j))
        return out

    @property
    def num_edges(self):
        return self.nodes * (self.nodes + 3) // 2  # sum of (j+2)

    def node_edge_range(self, j):
        """Index range of node j's incoming edges within the flat edge list."""
        start = j * (j + 3) // 2
        return start, start + j + 2

    def state_readers(self, i):
        """Flat indices of the edges that read cell state ``i`` (0 and 1 are
        the inputs, ``i + 2`` is node i's output): those into nodes
        ``nodes - 1`` down to ``max(i - 1, 0)``, in that order."""
        return [
            self.node_edge_range(j)[0] + i
            for j in range(self.nodes - 1, max(i - 1, 0) - 1, -1)
        ]


@dataclass(frozen=True)
class NodeChoice:
    node: int
    inputs: tuple  # two distinct earlier sources, ascending
    ops: tuple  # op names aligned with inputs


@dataclass(frozen=True)
class MultiHeadGenotype:
    """Discrete architecture of all heads plus the model shape it targets.

    ``heads`` holds one tuple of ``NodeChoice`` per head.
    """

    spec: ModelSpec
    heads: tuple

    def validate(self):
        spec = self.spec
        if len(self.heads) != spec.num_heads:
            raise ValueError(f"genotype: {len(self.heads)} heads != M={spec.num_heads}")
        for h, cell in enumerate(self.heads):
            if len(cell) != spec.nodes:
                raise ValueError(f"genotype head {h}: {len(cell)} nodes != {spec.nodes}")
            for choice in cell:
                i1, i2 = choice.inputs
                if not (0 <= i1 < i2 < choice.node + 2):
                    raise ValueError(
                        f"genotype head {h} node {choice.node}: inputs {choice.inputs} "
                        "must be distinct, ascending, and earlier than the node"
                    )
                for op in choice.ops:
                    if op not in spec.ops:
                        raise ValueError(
                            f"genotype head {h} node {choice.node}: unknown op {op!r}"
                        )
        return self

    def to_dict(self):
        spec = self.spec
        return {
            "spec": {
                "M": spec.num_heads,
                "L": spec.cells_per_head,
                "nodes": spec.nodes,
                "ops": list(spec.ops),
                "head_width": spec.head_width,
            },
            "heads": [
                [
                    {
                        "node": c.node,
                        "inputs": list(c.inputs),
                        "ops": list(c.ops),
                    }
                    for c in cell
                ]
                for cell in self.heads
            ],
            "backbone": {
                "layers": spec.backbone_layers,
                "width": spec.backbone_width,
            },
        }

    @classmethod
    def from_dict(cls, d):
        spec = d["spec"]
        heads = tuple(
            tuple(
                NodeChoice(c["node"], tuple(c["inputs"]), tuple(c["ops"]))
                for c in cell
            )
            for cell in d["heads"]
        )
        return cls(
            ModelSpec(
                num_heads=spec["M"],
                cells_per_head=spec["L"],
                nodes=spec["nodes"],
                ops=tuple(spec["ops"]),
                backbone_layers=d["backbone"]["layers"],
                backbone_width=d["backbone"]["width"],
                head_width=spec["head_width"],
            ),
            heads,
        ).validate()

    def save(self, path):
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n"
        )


def sample_random_genotype(spec: ModelSpec, rng) -> MultiHeadGenotype:
    """Uniform draw: per node two distinct earlier inputs, one op per edge."""
    heads = []
    for _ in range(spec.num_heads):
        cell = []
        for j in range(spec.nodes):
            inputs = sorted(rng.choice(j + 2, size=2, replace=False).tolist())
            ops = tuple(spec.ops[rng.integers(len(spec.ops))] for _ in inputs)
            cell.append(NodeChoice(j, tuple(inputs), ops))
        heads.append(tuple(cell))
    return MultiHeadGenotype(spec, tuple(heads)).validate()


def genotype_edge_vector(g: MultiHeadGenotype):
    """One (input, op) slot per (head, node, input-slot), in fixed order."""
    vec = []
    for cell in g.heads:
        for choice in cell:
            for i, op in zip(choice.inputs, choice.ops):
                vec.append((i, op))
    return vec


def hamming(a: MultiHeadGenotype, b: MultiHeadGenotype) -> int:
    shape_a, shape_b = ((g.spec.num_heads, g.spec.nodes, g.spec.ops) for g in (a, b))
    if shape_a != shape_b:
        raise ValueError(f"hamming: genotype specs differ: {shape_a} vs {shape_b}")
    va, vb = genotype_edge_vector(a), genotype_edge_vector(b)
    return sum(1 for x, y in zip(va, vb) if x != y)


# ---------------------------------------------------------------------------
# candidate operations


def stack(ops):
    """One op of ``ops[0]``'s class that runs the E ``ops`` at once, on an
    input that holds E copies of their input along channels: op e runs on
    copy e.

    Its conv layers are the E ops' layers stacked (``nn.Conv2d.stack``), after
    which each op reads its block of their weights. Any other attribute is the
    first op's; all E share it. That covers a pool's kind or stride and a
    norm: a supernet norm is untracked and normalizes each channel by itself.
    ReLUs, pools, skips and the batch roll work per channel, so the class's
    own ``forward`` runs the stack as it runs one op.
    """
    first = ops[0]
    out = copy.copy(first)
    object.__setattr__(out, "_params", {})
    object.__setattr__(out, "_children", {})
    for name, child in first._children.items():
        if isinstance(child, nn.Conv2d):
            child = nn.Conv2d.stack([op._children[name] for op in ops])
        setattr(out, name, child)
    return out


class Identity(nn.Module):
    def forward(self, x):
        return x

    __call__ = forward


class SubsampleSkip(nn.Module):
    """Stride-2 realization of skip_connect: spatial subsampling."""

    def forward(self, x):
        return T.subsample2(x)

    __call__ = forward


class SepConv(nn.Module):
    """Two stacked depthwise-separable relu-conv-norm blocks."""

    def __init__(self, rng, c, kernel, stride):
        super().__init__()
        pad = kernel // 2
        self.dw1 = nn.Conv2d(rng, c, c, kernel, stride, pad, groups=c)
        self.pw1 = nn.Conv2d(rng, c, c, 1)
        self.n1 = nn.Norm(c)
        self.dw2 = nn.Conv2d(rng, c, c, kernel, 1, pad, groups=c)
        self.pw2 = nn.Conv2d(rng, c, c, 1)
        self.n2 = nn.Norm(c)

    def forward(self, x):
        x = self.n1(self.pw1(self.dw1(T.relu(x))))
        return self.n2(self.pw2(self.dw2(T.relu(x))))

    __call__ = forward


class DilConv(nn.Module):
    """Dilated depthwise conv followed by a pointwise conv."""

    def __init__(self, rng, c, kernel, stride):
        super().__init__()
        pad = (kernel // 2) * 2
        self.dw = nn.Conv2d(rng, c, c, kernel, stride, pad, dilation=2, groups=c)
        self.pw = nn.Conv2d(rng, c, c, 1)
        self.n = nn.Norm(c)

    def forward(self, x):
        return self.n(self.pw(self.dw(T.relu(x))))

    __call__ = forward


class PoolOp(nn.Module):
    def __init__(self, kind, stride):
        super().__init__()
        self.kind = kind
        self.stride = stride

    def forward(self, x):
        return convops.pool2d(self.kind, x, window=3, stride=self.stride, padding=1)

    __call__ = forward


class BatchMix(nn.Module):
    """Rolls the batch axis by half the batch: every example receives another
    example's features, so the edge destroys label alignment. Used to plant
    a search task whose best operation is known (skip_connect). At stride 2
    it subsamples spatially first, like skip_connect.
    """

    def __init__(self, stride):
        super().__init__()
        self.stride = stride

    def forward(self, x):
        if self.stride == 2:
            x = T.subsample2(x)
        n = x.data.shape[0]
        shift = max(1, n // 2) if n > 1 else 0
        return T._record(
            np.roll(x.data, shift, axis=0),
            [x],
            lambda g: (np.roll(g, -shift, axis=0),),
            "batch_mix",
        )

    __call__ = forward


OP_BUILDERS = {
    "skip_connect": lambda rng, c, stride: (
        Identity() if stride == 1 else SubsampleSkip()
    ),
    "sep_conv_3x3": lambda rng, c, stride: SepConv(rng, c, 3, stride),
    "sep_conv_5x5": lambda rng, c, stride: SepConv(rng, c, 5, stride),
    "dil_conv_3x3": lambda rng, c, stride: DilConv(rng, c, 3, stride),
    "dil_conv_5x5": lambda rng, c, stride: DilConv(rng, c, 5, stride),
    "max_pool_3x3": lambda rng, c, stride: PoolOp("max", stride),
    "avg_pool_3x3": lambda rng, c, stride: PoolOp("avg", stride),
    "batch_mix_a": lambda rng, c, stride: BatchMix(stride),
}


def build_op(name, rng, c, stride):
    if name not in OP_BUILDERS:
        raise ValueError(f"unknown operation {name!r}")
    return OP_BUILDERS[name](rng, c, stride)
