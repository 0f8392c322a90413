"""Differentiable ensemble objectives on head probability outputs.

The training loss sums per-head cross-entropies plus the cross-entropy of
the averaged prediction; the architecture objective subtracts a weighted
diversity term (mean KL from the average to each head). All probabilities
are floored at 1e-12 before logs so saturated heads stay finite.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .metrics import PROB_FLOOR
from .tensor import Tensor


def ensemble_average(head_probs):
    """Rowwise mean of the member probability matrices."""
    if len(head_probs) == 0:
        raise ValueError("ensemble_average: empty member list")
    m = len(head_probs)
    return T.weighted_sum(head_probs, Tensor(np.full(m, 1.0 / m)))


def cross_entropy(probs, labels, label_smoothing=0.0):
    """Batch-mean -log p_y on probability rows (optionally label-smoothed)."""
    labels = np.asarray(labels, dtype=np.int64)
    n, c = probs.shape
    if labels.min() < 0 or labels.max() >= c:
        raise IndexError(
            f"label out of range [0,{c}): min={labels.min()} max={labels.max()}"
        )
    logp = T.log(T.clip_min(probs, PROB_FLOOR))
    hit = T.pick(logp, labels).mean()
    if label_smoothing == 0.0:
        return T.scale(hit, -1.0)
    spread = logp.mean()  # mean over N and C of log p
    return T.add(
        T.scale(hit, -(1.0 - label_smoothing)), T.scale(spread, -label_smoothing)
    )


def ensemble_train_loss(head_probs, ensemble_probs, labels, label_smoothing=0.0):
    """Sum of per-head cross-entropies plus the ensemble cross-entropy."""
    loss = cross_entropy(ensemble_probs, labels, label_smoothing)
    for p in head_probs:
        loss = T.add(loss, cross_entropy(p, labels, label_smoothing))
    return loss


def jsd_diversity(head_probs):
    """Mean over the batch of (1/M) sum_i KL(average || head_i); zero for M=1."""
    m = len(head_probs)
    if m == 1:
        return T.scale(head_probs[0].sum(), 0.0)
    avg = ensemble_average(head_probs)
    log_avg = T.log(T.clip_min(avg, PROB_FLOOR))
    n = head_probs[0].shape[0]
    total = None
    for p in head_probs:
        kl = T.mul(avg, T.sub(log_avg, T.log(T.clip_min(p, PROB_FLOOR)))).sum()
        total = kl if total is None else T.add(total, kl)
    return T.scale(total, 1.0 / (m * n))


def arch_val_loss(head_probs, ensemble_probs, labels, jsd_weight):
    """Training-form loss minus ``jsd_weight`` times the diversity term.

    Used only for architecture-parameter updates, evaluated on the
    validation batch.
    """
    if jsd_weight < 0:
        raise ValueError(f"jsd weight must be >= 0, got {jsd_weight}")
    loss = ensemble_train_loss(head_probs, ensemble_probs, labels)
    if jsd_weight == 0.0:
        return loss
    return T.sub(loss, T.scale(jsd_diversity(head_probs), jsd_weight))
