"""Optimizers and the cosine learning-rate schedule.

Weight decay is additive (g <- g + wd*w) in both optimizers.
"""

from __future__ import annotations

import numpy as np


def cosine_lr(t, total, base_lr):
    """base_lr * 0.5 * (1 + cos(pi * t / total)), decaying to 0 at t == total."""
    if total <= 0:
        raise ValueError(f"cosine_lr: total steps must be positive, got {total}")
    if not 0 <= t <= total:
        raise ValueError(f"cosine_lr: step {t} outside [0, {total}]")
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * t / total))


class SGD:
    """SGD with classical momentum: v <- mu*v + g; w <- w - lr*v."""

    def __init__(self, params, lr, momentum=0.9, weight_decay=0.0):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self, lr=None):
        lr = self.lr if lr is None else lr
        for p, v in zip(self.params, self.velocity):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            v *= self.momentum
            v += g
            p.data -= lr * v


class Adam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self, lr=None):
        lr = self.lr if lr is None else lr
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)
