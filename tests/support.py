"""Shared helpers for the test suite."""

import re

import numpy as np


# supernet key of one edge op: (prefix, head, edge, op index, rest)
_EDGE_OP_KEY = re.compile(r"(heads\.(\d+)\.cells\.\d+\.edges\.(\d+)\.ops\.)(\d+)(\..*)")


def supernet_as_discrete_arrays(sup, spec, geno):
    """Map supernet parameters onto the matching DiscreteNetwork state dict.

    Both networks are built from the same head module, so every key lines
    up except edge ops: the chosen op ``o`` of edge ``e`` is
    ``edges.e.ops.o`` in the supernet and ``edges.e.ops.0`` in the discrete
    network, and ops that were not chosen are dropped (k=1 supernet,
    track=False discrete norms).
    """
    chosen = set()
    for h, cell in enumerate(geno.heads):
        for choice in cell:
            start, _ = spec.node_edge_range(choice.node)
            for src, op_name in zip(choice.inputs, choice.ops):
                chosen.add((h, start + src, spec.ops.index(op_name)))
    arrays = {}
    for key, value in sup.state_arrays().items():
        m = _EDGE_OP_KEY.fullmatch(key)
        if m is None:
            arrays[key] = value
        elif (int(m[2]), int(m[3]), int(m[4])) in chosen:
            arrays[m[1] + "0" + m[5]] = value
    return arrays


def random_prob_rows(rng, n, c, scale=1.0):
    z = rng.normal(scale=scale, size=(n, c))
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)
