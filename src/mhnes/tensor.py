"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Everything is float64 and define-by-run. An operation is recorded only while
a ``Tape`` is open on the thread and one of its inputs requires a gradient;
outside a tape every operation returns a plain tensor. ``backward`` walks the
open tape in reverse from the loss node. Gradients of ``requires_grad``
leaves accumulate across backward calls; intermediate gradients are not kept.

The graph lives as long as its tape is open: closing the tape detaches every
recorded output from its node, so a finished step's outputs, closures and
buffers are freed by reference counting, and ``backward`` on a loss whose
tape has closed raises ``ValueError``.

The engine is single-thread-confined by design (at most one open tape per
thread); independent models on different threads share nothing.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np


class ShapeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# tape machinery


class Node:
    """One executed operation: inputs, output, and a vjp callback.

    ``fn(g)`` receives the gradient w.r.t. the output and returns one entry
    per input: a freshly allocated gradient array, or ``None`` for an input
    whose ``requires_grad`` is false when ``backward`` runs. ``backward``
    discards the gradient of such an input, so the vjp reads that flag and
    builds nothing for it; ``None`` for an input that requires a gradient is
    an error. A vjp may read its inputs' ``data`` instead of keeping copies:
    nothing mutates a recorded tensor's data between the forward and the
    backward of its tape.
    """

    __slots__ = ("inputs", "fn", "out", "name")

    def __init__(self, inputs, fn, out, name):
        self.inputs = inputs
        self.fn = fn
        self.out = out
        self.name = name


class Tape:
    """The recording scope: an ordered record of executed operations.

    Insertion order is topological by construction: an operation can only be
    recorded after the operations producing its inputs. One tape at a time
    may be open on a thread; closing it detaches every recorded output from
    its node and drops the node list, so the graph is freed by reference
    counting when the step's tensors go out of scope.
    """

    def __init__(self):
        self.nodes = []

    def record(self, node):
        self.nodes.append(node)

    def __enter__(self):
        if _STATE.tape is not None:
            raise RuntimeError("a tape is already open on this thread")
        _STATE.tape = self
        return self

    def __exit__(self, *exc):
        _STATE.tape = None
        for node in self.nodes:
            node.out._node = None
        self.nodes = []
        return False


class _ThreadState(threading.local):
    tape = None


_STATE = _ThreadState()


# ---------------------------------------------------------------------------
# tensor


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def sum(self, axis=None):
        return reduce_sum(self, axis)

    def mean(self, axis=None):
        return reduce_mean(self, axis)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _recording(inputs):
    """Whether an op on ``inputs`` is recorded: a tape is open and one of
    them requires a gradient."""
    return _STATE.tape is not None and any(t.requires_grad for t in inputs)


def _record(data, inputs, fn, name):
    rg = _recording(inputs)
    out = Tensor(data, requires_grad=rg)
    if rg:
        node = Node(tuple(inputs), fn, out, name)
        _STATE.tape.record(node)
        out._node = node
    return out


def backward(loss):
    """Populate gradients of every reachable ``requires_grad`` leaf.

    Walks the open tape in reverse; each node is visited at most once. A
    tensor without a node is a leaf. Leaf gradients accumulate across calls
    (callers reset with ``grad=None``). Each vjp builds gradients only for
    the inputs that require one (see ``Node``).
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss._node is None:
        raise ValueError(
            "backward needs a loss recorded on the open tape (was its tape "
            "closed, or did it depend on no requires_grad tensor?)"
        )
    flow = {loss._node: np.ones_like(loss.data)}
    for node in reversed(_STATE.tape.nodes):
        g = flow.pop(node, None)
        if g is None:
            continue
        grads = node.fn(g)
        for t, gt in zip(node.inputs, grads):
            if not t.requires_grad:
                continue
            if gt is None:
                raise RuntimeError(
                    f"{node.name}: the vjp built no gradient for an input that "
                    "requires one"
                )
            if gt.shape != t.data.shape:
                raise ShapeError(
                    f"{node.name}: gradient shape {gt.shape} != input shape {t.data.shape}"
                )
            src = t._node
            if src is None:
                t.grad = gt if t.grad is None else t.grad + gt
            else:
                flow[src] = gt if src not in flow else flow[src] + gt


@contextlib.contextmanager
def frozen(tensors):
    """Clear ``requires_grad`` of ``tensors`` inside the block, so nothing
    that reads only them is recorded and ``backward`` builds no gradient for
    them; each flag is restored on exit."""
    tensors = list(tensors)
    flags = [t.requires_grad for t in tensors]
    for t in tensors:
        t.requires_grad = False
    try:
        yield
    finally:
        for t, flag in zip(tensors, flags):
            t.requires_grad = flag


# ---------------------------------------------------------------------------
# elementwise and linear algebra


def _binary_shapes(a, b, op):
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")
    return a, b


def add(a, b):
    a, b = _binary_shapes(a, b, "add")

    def fn(g):
        return (
            g.copy() if a.requires_grad else None,
            g.copy() if b.requires_grad else None,
        )

    return _record(a.data + b.data, [a, b], fn, "add")


def sub(a, b):
    a, b = _binary_shapes(a, b, "sub")

    def fn(g):
        return (
            g.copy() if a.requires_grad else None,
            -g if b.requires_grad else None,
        )

    return _record(a.data - b.data, [a, b], fn, "sub")


def mul(a, b):
    a, b = _binary_shapes(a, b, "mul")

    def fn(g):
        return (
            g * b.data if a.requires_grad else None,
            g * a.data if b.requires_grad else None,
        )

    return _record(a.data * b.data, [a, b], fn, "mul")


def scale(a, s):
    a = as_tensor(a)
    s = float(s)
    return _record(a.data * s, [a], lambda g: (g * s,), "scale")


def linear(x, w, b):
    """x @ w + b with b a length-(out) vector added to every row."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear: incompatible shapes {x.shape} and {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"linear: bias shape {b.shape} != ({w.shape[1]},)")

    def fn(g):
        return (
            g @ w.data.T if x.requires_grad else None,
            x.data.T @ g if w.requires_grad else None,
            g.sum(axis=0) if b.requires_grad else None,
        )

    return _record(x.data @ w.data + b.data, [x, w, b], fn, "linear")


def relu(x):
    x = as_tensor(x)
    mask = x.data > 0
    return _record(np.where(mask, x.data, 0.0), [x], lambda g: (g * mask,), "relu")


def log(x):
    x = as_tensor(x)
    return _record(np.log(x.data), [x], lambda g: (g / x.data,), "log")


def clip_min(x, lo):
    """max(x, lo); gradient is zero where the floor is active."""
    x = as_tensor(x)
    mask = x.data >= lo
    return _record(
        np.maximum(x.data, lo), [x], lambda g: (g * mask,), "clip_min"
    )


# ---------------------------------------------------------------------------
# reductions and shape ops


def reduce_sum(x, axis=None):
    x = as_tensor(x)
    y = x.data.sum(axis=axis)

    def fn(g):
        if axis is None:
            return (np.broadcast_to(g, x.data.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), x.data.shape).copy(),)

    return _record(y, [x], fn, "sum")


def reduce_mean(x, axis=None):
    x = as_tensor(x)
    y = x.data.mean(axis=axis)
    n = x.data.size if axis is None else np.prod(
        [x.data.shape[a] for a in np.atleast_1d(axis)]
    )

    def fn(g):
        if axis is None:
            return (np.broadcast_to(g / n, x.data.shape).copy(),)
        return (
            np.broadcast_to(np.expand_dims(g / n, axis), x.data.shape).copy(),
        )

    return _record(y, [x], fn, "mean")


def reshape(x, shape):
    x = as_tensor(x)
    old = x.data.shape
    return _record(
        x.data.reshape(shape), [x], lambda g: (g.reshape(old),), "reshape"
    )


def concat(tensors, axis):
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat: empty tensor list")
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes).tolist()
    lead = (slice(None),) * (axis % tensors[0].ndim)

    def fn(g):
        return tuple(
            g[lead + (slice(lo, hi),)].copy() if t.requires_grad else None
            for t, lo, hi in zip(tensors, offsets, offsets[1:])
        )

    return _record(
        np.concatenate([t.data for t in tensors], axis=axis), tensors, fn, "concat"
    )


def narrow(x, axis, start, length):
    """Contiguous slice [start, start+length) along one axis."""
    x = as_tensor(x)
    if start < 0 or start + length > x.data.shape[axis]:
        raise ShapeError(
            f"narrow: [{start},{start + length}) out of bounds for axis {axis} "
            f"of shape {x.shape}"
        )
    idx = tuple(
        slice(start, start + length) if a == axis else slice(None)
        for a in range(x.ndim)
    )

    def fn(g):
        full = np.zeros_like(x.data)
        full[idx] = g
        return (full,)

    return _record(x.data[idx].copy(), [x], fn, "narrow")


def pick(x, rows_idx):
    """out[n] = x[n, idx[n]] for a 2-D tensor and integer index vector."""
    x = as_tensor(x)
    idx = np.asarray(rows_idx, dtype=np.int64)
    if x.ndim != 2 or idx.shape != (x.shape[0],):
        raise ShapeError(f"pick: need [N,C] tensor and [N] index, got {x.shape}")
    if idx.min() < 0 or idx.max() >= x.shape[1]:
        raise IndexError(
            f"pick: index out of range [0,{x.shape[1]}): min={idx.min()} max={idx.max()}"
        )
    rows = np.arange(x.shape[0])

    def fn(g):
        full = np.zeros_like(x.data)
        full[rows, idx] = g
        return (full,)

    return _record(x.data[rows, idx].copy(), [x], fn, "pick")


def weighted_sum(tensors, w):
    """sum_i w[i] * tensors[i] for same-shape tensors and a 1-D weight tensor."""
    tensors = [as_tensor(t) for t in tensors]
    w = as_tensor(w)
    if w.ndim != 1 or len(tensors) != w.shape[0]:
        raise ShapeError(
            f"weighted_sum: {len(tensors)} tensors vs weight shape {w.shape}"
        )
    base = tensors[0].data.shape
    for t in tensors[1:]:
        if t.data.shape != base:
            raise ShapeError(
                f"weighted_sum: shape mismatch {t.data.shape} vs {base}"
            )
    out = np.zeros(base)
    for wi, t in zip(w.data, tensors):
        out += wi * t.data

    def fn(g):
        gw = None
        if w.requires_grad:
            gw = np.array([float(np.sum(g * t.data)) for t in tensors])
        return tuple(
            g * wi if t.requires_grad else None for wi, t in zip(w.data, tensors)
        ) + (gw,)

    return _record(out, list(tensors) + [w], fn, "weighted_sum")


def channel_repeat(x, width, copies):
    """The first ``width`` channels of an [N,C,H,W] tensor, ``copies`` times
    along the channel axis.

    ``x`` is an input once per copy, so ``backward`` adds each copy's
    gradient (zero outside the first ``width`` channels) into x's in turn,
    copy 0 first, as it would for ``copies`` separate narrows of x.
    """
    x = as_tensor(x)
    if x.ndim != 4 or not 0 < width <= x.shape[1] or copies < 1:
        raise ShapeError(
            f"channel_repeat: {copies} copies of {width} channels of shape {x.shape}"
        )

    def fn(g):
        grads = []
        for e in range(copies):
            full = np.zeros_like(x.data)
            full[:, :width] = g[:, e * width : (e + 1) * width]
            grads.append(full)
        return tuple(grads)

    out = np.concatenate([x.data[:, :width]] * copies, axis=1)
    return _record(out, [x] * copies, fn, "channel_repeat")


def edge_mix(outs, table, rows):
    """Per-edge weighted sums of stacked op outputs.

    ``outs`` holds one [N, E*c, H, W] output per op, whose channel block e
    belongs to the edge of ``table`` row ``rows[e]``. Block e of the result
    is sum_o table[rows[e], o] * outs[o] block e, in op order. Each edge's
    numbers, and its row's gradient (each product summed over the edge's
    block alone, contiguously), are those of ``weighted_sum`` over that
    edge's blocks; the other rows of ``table`` get a zero gradient.
    """
    outs = [as_tensor(t) for t in outs]
    table = as_tensor(table)
    rows = list(rows)
    e = len(rows)
    shape = outs[0].data.shape
    if table.ndim != 2 or table.shape[1] != len(outs):
        raise ShapeError(f"edge_mix: {len(outs)} op outputs vs table shape {table.shape}")
    if len(shape) != 4 or e == 0 or shape[1] % e or len(set(rows)) != e:
        raise ShapeError(f"edge_mix: rows {rows} do not split shape {shape}")
    for t in outs[1:]:
        if t.data.shape != shape:
            raise ShapeError(f"edge_mix: shape mismatch {t.data.shape} vs {shape}")
    blocks = (shape[0], e, shape[1] // e) + shape[2:]
    # [1, E, 1, 1, 1] weight of each op, broadcast over its edge's block
    w = [table.data[rows, o].reshape(1, e, 1, 1, 1) for o in range(len(outs))]
    out = np.zeros(blocks)
    for wo, t in zip(w, outs):
        out += wo * t.data.reshape(blocks)

    def fn(g):
        g = g.reshape(blocks)
        gt = None
        if table.requires_grad:
            gt = np.zeros(table.data.shape)
            for o, t in enumerate(outs):
                prod = np.ascontiguousarray((g * t.data.reshape(blocks)).swapaxes(0, 1))
                gt[rows, o] = prod.reshape(e, -1).sum(axis=1)
        return tuple(
            (g * wo).reshape(shape) if t.requires_grad else None
            for wo, t in zip(w, outs)
        ) + (gt,)

    return _record(out.reshape(shape), list(outs) + [table], fn, "edge_mix")


def softmax(x, axis=-1):
    x = as_tensor(x)
    if x.data.shape[axis] == 0:
        raise ShapeError(f"softmax: empty axis {axis} in shape {x.shape}")
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)

    def fn(g):
        return (y * (g - (g * y).sum(axis=axis, keepdims=True)),)

    return _record(y, [x], fn, "softmax")


def channel_shuffle(x, groups):
    """Interleave channel groups of an [N,C,H,W] tensor (C divisible by groups)."""
    x = as_tensor(x)
    n, c, h, w = x.data.shape
    if c % groups:
        raise ShapeError(f"channel_shuffle: {c} channels not divisible by {groups}")

    def fwd(a):
        return (
            a.reshape(n, groups, c // groups, h, w)
            .swapaxes(1, 2)
            .reshape(n, c, h, w)
        )

    def inv(a):
        return (
            a.reshape(n, c // groups, groups, h, w)
            .swapaxes(1, 2)
            .reshape(n, c, h, w)
        )

    return _record(fwd(x.data).copy(), [x], lambda g: (inv(g).copy(),), "shuffle")


def partial_join(y, start, x, groups, stride):
    """A partial-channel edge's output in one op: ``channel_shuffle`` in
    ``groups`` groups of the op path, channels [start, start + C/groups) of
    ``y``, followed by the bypass, channels [C/groups, C) of the [N,C,H,W]
    edge input ``x``, subsampled as by ``subsample2`` at ``stride`` 2.

    The numbers, and the gradients (copies into zeros), are those of
    ``channel_shuffle(concat([narrow(y), bypass]), groups)``.
    """
    y, x = as_tensor(y), as_tensor(x)
    if x.ndim != 4 or groups < 2 or x.shape[1] % groups:
        raise ShapeError(f"partial_join: input of shape {x.shape} in {groups} groups")
    n, c = x.shape[:2]
    c1 = c // groups
    sub = (slice(None), slice(c1, None))
    if stride == 2:
        sub += (slice(None, None, 2), slice(None, None, 2))
    bypass = x.data[sub]
    oh, ow = bypass.shape[2:]
    if (y.ndim != 4 or y.shape[0] != n or y.shape[2:] != (oh, ow)
            or not 0 <= start <= y.shape[1] - c1):
        raise ShapeError(
            f"partial_join: channels [{start},{start + c1}) of shape {y.shape} "
            f"do not fit a bypass of shape {bypass.shape}"
        )
    # output channel q * groups + g: op-path channel q when g = 0, else
    # bypass channel (g - 1) * c1 + q
    out = np.empty((n, c1, groups, oh, ow))
    out[:, :, 0] = y.data[:, start : start + c1]
    out[:, :, 1:] = bypass.reshape(n, groups - 1, c1, oh, ow).swapaxes(1, 2)

    def fn(g):
        g = g.reshape(n, c1, groups, oh, ow)
        gy = gx = None
        if y.requires_grad:
            gy = np.zeros_like(y.data)
            gy[:, start : start + c1] = g[:, :, 0]
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            gx[sub] = g[:, :, 1:].swapaxes(1, 2).reshape(n, c - c1, oh, ow)
        return gy, gx

    return _record(out.reshape(n, c, oh, ow), [y, x], fn, "partial_join")


def subsample2(x):
    """Spatial stride-2 subsample of an [N,C,H,W] tensor (parameter-free)."""
    x = as_tensor(x)

    def fn(g):
        full = np.zeros_like(x.data)
        full[:, :, ::2, ::2] = g
        return (full,)

    return _record(x.data[:, :, ::2, ::2].copy(), [x], fn, "subsample2")


# ---------------------------------------------------------------------------
# gradient verification


def grad_check(f, tensors, eps=1e-5):
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps the given tensors to a scalar Tensor and must be pure. The
    error at each coordinate is |analytic - numeric| / max(1, |analytic|).
    """
    tensors = list(tensors)
    for t in tensors:
        t.requires_grad = True
        t.grad = None
    with Tape():
        loss = f(*tensors)
        backward(loss)
    analytic = [
        t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
        for t in tensors
    ]

    def value():
        return float(f(*tensors).data)

    worst = 0.0
    for t, ga in zip(tensors, analytic):
        flat = t.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = value()
            flat[i] = orig - eps
            fm = value()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * eps)
            err = abs(gflat[i] - numeric) / max(1.0, abs(gflat[i]))
            worst = max(worst, err)
    return worst
