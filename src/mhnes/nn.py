"""Small layer/module layer over the tensor engine.

Modules auto-register parameters and children through attribute assignment.
One walk over a module tree, ``Module.modules``, collects parameters and
state arrays and sets the train/eval flag (only a Norm that tracks running
statistics behaves differently between the two).
"""

from __future__ import annotations

import numpy as np

from . import convops, tensor as T
from .tensor import Tensor


def he_init(rng, shape, fan_in):
    return Tensor(rng.normal(0.0, np.sqrt(2.0 / fan_in), shape), requires_grad=True)


class Module:
    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Tensor) and value.requires_grad:
            self._params[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def modules(self, prefix=""):
        """Pre-order ``(name prefix, module)`` pairs, in registration order."""
        yield prefix, self
        for name, child in self._children.items():
            yield from child.modules(prefix + name + ".")

    def _own_arrays(self):
        """Name -> array of this module's own state; here, its parameters."""
        return {name: p.data for name, p in self._params.items()}

    def parameters(self):
        return [p for _, m in self.modules() for p in m._params.values()]

    def train(self, mode=True):
        for _, m in self.modules():
            object.__setattr__(m, "training", mode)
        return self

    def eval(self):
        return self.train(False)

    def param_count(self):
        return sum(p.size for p in self.parameters())

    def state_arrays(self):
        """Flat name -> array mapping of every module's own arrays."""
        return {
            prefix + name: a
            for prefix, m in self.modules()
            for name, a in m._own_arrays().items()
        }

    def load_state_arrays(self, arrays):
        """Copy ``arrays`` in place into every array ``state_arrays`` names."""
        for name, a in self.state_arrays().items():
            a[...] = arrays[name]


class ModuleList(Module):
    def __init__(self, mods=()):
        super().__init__()
        self.mods = []
        for m in mods:
            self.append(m)

    def append(self, m):
        self._children[str(len(self.mods))] = m
        self.mods.append(m)

    def __iter__(self):
        return iter(self.mods)

    def __len__(self):
        return len(self.mods)

    def __getitem__(self, i):
        return self.mods[i]


class Conv2d(Module):
    def __init__(self, rng, c_in, c_out, kernel, stride=1, padding=0, dilation=1, groups=1):
        super().__init__()
        fan_in = (c_in // groups) * kernel * kernel
        self.weight = he_init(rng, (c_out, c_in // groups, kernel, kernel), fan_in)
        self.stride, self.padding, self.dilation, self.groups = (
            stride,
            padding,
            dilation,
            groups,
        )

    def forward(self, x):
        return convops.conv2d(
            x, self.weight, self.stride, self.padding, self.dilation, self.groups
        )

    __call__ = forward


class Norm(Module):
    """Per-channel normalization without affine parameters.

    A new norm uses batch statistics in every mode, as supernet norms do
    during search. ``DiscreteNetwork`` sets ``track`` on its norms: batch
    statistics in training, with running statistics updated at momentum
    ``MOMENTUM``, and running statistics in eval.
    """

    EPS = 1e-5
    MOMENTUM = 0.9

    def __init__(self, channels):
        super().__init__()
        self.track = False
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def _own_arrays(self):
        if not self.track:
            return {}
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def forward(self, x):
        if self.track and not self.training:
            return convops.channel_standardize(
                x, self.running_mean, self.running_var, self.EPS
            )
        if self.track:
            mu, var = convops.batch_channel_stats(x.data)
            m = self.MOMENTUM
            self.running_mean = m * self.running_mean + (1 - m) * mu
            self.running_var = m * self.running_var + (1 - m) * var
        return convops.normalize_no_affine(x, self.EPS)

    __call__ = forward


class Linear(Module):
    def __init__(self, rng, d_in, d_out):
        super().__init__()
        self.weight = he_init(rng, (d_in, d_out), d_in)
        self.bias = Tensor(np.zeros(d_out), requires_grad=True)

    def forward(self, x):
        return T.linear(x, self.weight, self.bias)

    __call__ = forward


class ReluConvNorm(Module):
    """relu -> 1x1 conv -> norm, the preprocessing block of a cell."""

    def __init__(self, rng, c_in, c_out):
        super().__init__()
        self.conv = Conv2d(rng, c_in, c_out, 1)
        self.norm = Norm(c_out)

    def forward(self, x):
        return self.norm(self.conv(T.relu(x)))

    __call__ = forward
