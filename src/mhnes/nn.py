"""Small layer/module layer over the tensor engine.

Modules auto-register parameters and children through attribute assignment,
collect parameters recursively, and carry a train/eval flag (only the Norm
layer behaves differently between the two).
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

    def parameters(self):
        out = list(self._params.values())
        for child in self._children.values():
            out.extend(child.parameters())
        return out

    def train(self, mode=True):
        object.__setattr__(self, "training", mode)
        for child in self._children.values():
            child.train(mode)
        return self

    def eval(self):
        return self.train(False)

    def param_count(self):
        return sum(p.size for p in self.parameters())

    def state_arrays(self, prefix=""):
        """Flat name -> array mapping of parameters and norm statistics."""
        out = {}
        for name, p in self._params.items():
            out[prefix + name] = p.data
        for name, child in self._children.items():
            out.update(child.state_arrays(prefix + name + "."))
        if isinstance(self, Norm) and self.track:
            out[prefix + "running_mean"] = self.running_mean
            out[prefix + "running_var"] = self.running_var
        return out

    def load_state_arrays(self, arrays, prefix=""):
        for name, p in self._params.items():
            p.data[...] = arrays[prefix + name]
        for name, child in self._children.items():
            child.load_state_arrays(arrays, prefix + name + ".")
        if isinstance(self, Norm) and self.track:
            self.running_mean[...] = arrays[prefix + "running_mean"]
            self.running_var[...] = arrays[prefix + "running_var"]


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

    During search (track=False) batch statistics are used in every mode.
    The discrete-network trainer sets track=True: batch statistics in
    training with running statistics updated at momentum 0.9, running
    statistics in eval.
    """

    def __init__(self, channels, eps=1e-5, track=False, momentum=0.9):
        super().__init__()
        self.eps = eps
        self.track = track
        self.momentum = momentum
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def forward(self, x):
        if self.track and not self.training:
            return convops.channel_standardize(
                x, self.running_mean, self.running_var, self.eps
            )
        if self.track:
            mu, var = convops.batch_channel_stats(x.data)
            m = self.momentum
            self.running_mean = m * self.running_mean + (1 - m) * mu
            self.running_var = m * self.running_var + (1 - m) * var
        return convops.normalize_no_affine(x, self.eps)

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
    """relu -> conv -> norm, the preprocessing/pointwise block used in cells."""

    def __init__(self, rng, c_in, c_out, kernel=1, stride=1, padding=0, track=False):
        super().__init__()
        self.conv = Conv2d(rng, c_in, c_out, kernel, stride, padding)
        self.norm = Norm(c_out, track=track)

    def forward(self, x):
        return self.norm(self.conv(T.relu(x)))

    __call__ = forward
