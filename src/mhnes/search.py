"""One-shot search methods, the bilevel loop, and discrete-network training.

All methods are pure functions of (data, spec, hyperparams, seed): rngs are
derived from the seed plus a fixed tag, so repeated runs are bit-identical.
Budgets count optimization iterations; one bilevel iteration (an architecture
update plus a weight update) is one step. A searcher's optional
``epoch_hook(epoch, net, arch, (val_x, val_y))`` runs after every search
epoch and receives the searcher's own validation split; ``epoch`` counts
across the whole search, so DrNAS's stage 2 continues after stage 1's last
epoch. A non-finite step loss raises ``FloatingPointError`` naming the
budget phase, the epoch within that phase and the step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import losses, metrics
from .config import SearchHyperparams, TrainHyperparams
from .optim import SGD, Adam, cosine_lr
from .space import ModelSpec, MultiHeadGenotype, sample_random_genotype
from .supernet import ArchParams, DiscreteNetwork, Supernet, discretize
from .tensor import Tape, Tensor, backward


@dataclass
class Budget:
    """Mini-batch step accounting, per phase."""

    phases: list = field(default_factory=list)

    def add(self, phase, steps, **extra):
        self.phases.append({"phase": phase, "steps": int(steps), **extra})

    @property
    def total_steps(self):
        return sum(p["steps"] for p in self.phases)

    def to_dict(self):
        return {"total_steps": self.total_steps, "phases": self.phases}

    def merge(self, other):
        self.phases.extend(other.phases)
        return self


def steps_per_epoch(n, batch):
    return -(-n // batch)


def search_split_sizes(n_train, val_fraction):
    n_val = int(n_train * val_fraction)
    return n_train - n_val, n_val


def _epoch_batches(n, batch, rng):
    order = rng.permutation(n)
    return [order[i : i + batch] for i in range(0, n, batch)]


def hash_tag(tag):
    # stable small integer per tag string (process-independent)
    return sum((i + 1) * b for i, b in enumerate(tag.encode())) % (2**31)


def rng_for(seed, tag):
    """Generator derived from a seed (int or sequence of ints) plus a tag."""
    base = [int(s) for s in (seed if isinstance(seed, (list, tuple)) else [seed])]
    return np.random.default_rng(base + [hash_tag(tag)])


def loss_backward(net, loss_fn, x, y, **forward_kwargs):
    """Forward ``x`` on a fresh tape, then backpropagate
    ``loss_fn(head_probs, ensemble_average(head_probs), y)``.

    Gradients accumulate into the leaves; returns the loss tensor.
    """
    with Tape():
        probs = net(Tensor(x), **forward_kwargs)
        loss = loss_fn(probs, losses.ensemble_average(probs), y)
        backward(loss)
    return loss


def _train_step(net, opt, loss_fn, x, y, lr=None, **forward_kwargs):
    """One optimizer step on the ensemble loss; returns the loss as a float,
    so the step's tape is released when it returns."""
    opt.zero_grad()
    loss = loss_backward(net, loss_fn, x, y, **forward_kwargs)
    opt.step(lr)
    return loss.item()


def _check_finite(phase, epoch, step, *step_losses):
    """Fail at the step whose loss is non-finite (``None`` marks a skipped
    loss). Only the scalar losses are checked: a non-finite update shows up
    as a non-finite loss at the next step."""
    bad = [v for v in step_losses if v is not None and not np.isfinite(v)]
    if bad:
        raise FloatingPointError(
            f"non-finite loss {bad[0]} in phase {phase!r}, epoch {epoch}, "
            f"step {step}"
        )


def bilevel_search_step(net, arch, w_opt, a_opt, train_batch, val_batch, hp, lr,
                        warm, sample_rng=None):
    """One alternation: architecture Adam step (skipped during warmstart),
    then a weight SGD step. Returns the two loss values."""
    a_loss = None
    if not warm:
        a_loss = _train_step(
            net, a_opt,
            lambda p, avg, y: losses.arch_val_loss(p, avg, y, hp.jsd_weight),
            *val_batch, mode="continuous", rng=sample_rng,
        )
        arch.clamp()
    w_loss = _train_step(
        net, w_opt, losses.ensemble_train_loss, *train_batch, lr,
        mode="continuous", rng=sample_rng,
    )
    return a_loss, w_loss


def _run_bilevel_phase(net, arch, hp, epochs, warmstart, data_split, rng,
                       sample_rng=None, epoch_hook=None, phase="search",
                       first_epoch=0):
    """Run ``epochs`` bilevel epochs; ``epoch_hook`` sees the search-wide
    epoch index ``first_epoch + epoch``, the non-finite check the phase's own."""
    (tr_x, tr_y), (va_x, va_y) = data_split
    w_opt = SGD(
        net.parameters(),
        lr=hp.weight_lr,
        momentum=hp.weight_momentum,
        weight_decay=hp.weight_decay,
    )
    a_opt = Adam(
        arch.tensors(),
        lr=hp.arch_lr,
        beta1=hp.arch_beta1,
        beta2=hp.arch_beta2,
        weight_decay=hp.arch_weight_decay,
    )
    steps = 0
    for epoch in range(epochs):
        lr = cosine_lr(epoch, epochs, hp.weight_lr)
        tb = _epoch_batches(len(tr_y), hp.batch, rng)
        vb = _epoch_batches(len(va_y), hp.batch, rng)
        for t_idx, v_idx in zip(tb, vb):
            step_losses = bilevel_search_step(
                net,
                arch,
                w_opt,
                a_opt,
                (tr_x[t_idx], tr_y[t_idx]),
                (va_x[v_idx], va_y[v_idx]),
                hp,
                lr,
                warm=(epoch < warmstart),
                sample_rng=sample_rng,
            )
            _check_finite(phase, epoch, steps, *step_losses)
            steps += 1
        if epoch_hook is not None:
            epoch_hook(first_epoch + epoch, net, arch, (va_x, va_y))
    return steps


def _split_search_data(bundle, hp: SearchHyperparams, rng):
    x, y = bundle.split("train")
    n_tr, _ = search_split_sizes(len(y), hp.val_fraction)
    order = rng.permutation(len(y))
    tr, va = order[:n_tr], order[n_tr:]
    return (x[tr], y[tr]), (x[va], y[va])


def pcdarts_search(bundle, spec: ModelSpec, hp: SearchHyperparams, seed,
                   epoch_hook=None):
    """Partial-channel bilevel search with edge weights."""
    rng = rng_for(seed, "pcdarts")
    split = _split_search_data(bundle, hp, rng)
    arch = ArchParams(spec, "pcdarts", rng)
    net = Supernet(rng, spec, arch, k=hp.partial_k)
    budget = Budget()
    steps = _run_bilevel_phase(
        net, arch, hp, hp.epochs, hp.warmstart_epochs, split, rng,
        epoch_hook=epoch_hook,
    )
    budget.add("search", steps)
    return discretize(arch), budget, arch


def _prune_head_ops(arch: ArchParams, keep):
    """Per head, keep the ops with highest mean concentration (ties: lower
    index); returns (new head_ops, surviving column indices per head)."""
    new_ops, new_cols = [], []
    for h, ops in enumerate(arch.head_ops):
        mean_conc = arch.alpha[h].data.mean(axis=0)
        order = sorted(range(len(ops)), key=lambda o: (-mean_conc[o], o))
        cols = sorted(order[:keep])
        new_cols.append(cols)
        new_ops.append(tuple(ops[o] for o in cols))
    return new_ops, new_cols


def drnas_search(bundle, spec: ModelSpec, hp: SearchHyperparams, seed,
                 epoch_hook=None):
    """Two-stage distribution search: sample mixture weights from learned
    Dirichlet concentrations; stage 2 prunes to the strongest ops per head
    and widens the channel fraction."""
    rng = rng_for(seed, "drnas")
    sample_rng = rng_for(seed, "drnas-sample")
    split = _split_search_data(bundle, hp, rng)
    budget = Budget()

    arch = ArchParams(spec, "drnas", rng)
    net = Supernet(rng, spec, arch, k=hp.partial_k)
    steps = _run_bilevel_phase(
        net, arch, hp, hp.drnas_stage_epochs, hp.drnas_warmstart_epochs, split,
        rng, sample_rng=sample_rng, epoch_hook=epoch_hook, phase="search_stage1",
    )
    budget.add("search_stage1", steps, k=hp.partial_k)

    head_ops, cols = _prune_head_ops(arch, hp.drnas_keep_ops)
    arch2 = ArchParams(spec, "drnas", rng, head_ops=head_ops)
    for h in range(spec.num_heads):
        arch2.alpha[h].data[...] = arch.alpha[h].data[:, cols[h]]
    net2 = Supernet(rng, spec, arch2, k=hp.drnas_stage2_k)
    steps = _run_bilevel_phase(
        net2, arch2, hp, hp.drnas_stage_epochs, hp.drnas_warmstart_epochs, split,
        rng, sample_rng=sample_rng, epoch_hook=epoch_hook, phase="search_stage2",
        first_epoch=hp.drnas_stage_epochs,
    )
    budget.add("search_stage2", steps, k=hp.drnas_stage2_k)
    return discretize(arch2), budget, arch2


def genotype_val_nll(net, genotype, val_x, val_y, batch=256):
    """Ensemble validation NLL of ``genotype`` on the shared supernet weights."""
    probs = net.predict(val_x, genotype=genotype, mode="discrete", batch=batch)
    return metrics.ensemble_nll(probs, val_y)


def select_min_nll(scores):
    """Index of the lowest score; ties resolve to the first. A non-finite
    score raises ``FloatingPointError`` instead of being skipped or chosen."""
    scores = np.asarray(scores, dtype=float)
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise FloatingPointError(
            f"select_min_nll: non-finite score {scores[bad[0]]} at index {bad[0]}"
        )
    return int(np.argmin(scores))


def randomnas_search(bundle, spec: ModelSpec, hp: SearchHyperparams, seed,
                     epoch_hook=None):
    """Shared-weight training on randomly sampled genotypes, then selection
    of the best of ``hp.eval_samples`` random genotypes by validation NLL."""
    rng = rng_for(seed, "randomnas")
    (tr_x, tr_y), (va_x, va_y) = _split_search_data(bundle, hp, rng)
    arch = ArchParams(spec, "plain", rng)
    net = Supernet(rng, spec, arch, k=1)
    w_opt = SGD(
        net.parameters(),
        lr=hp.weight_lr,
        momentum=hp.weight_momentum,
        weight_decay=hp.weight_decay,
    )
    budget = Budget()
    steps = 0
    for epoch in range(hp.epochs):
        lr = cosine_lr(epoch, hp.epochs, hp.weight_lr)
        for idx in _epoch_batches(len(tr_y), hp.batch, rng):
            geno = sample_random_genotype(spec, rng)
            loss = _train_step(
                net, w_opt, losses.ensemble_train_loss, tr_x[idx], tr_y[idx], lr,
                mode="sampled", genotype=geno,
            )
            _check_finite("search", epoch, steps, loss)
            steps += 1
        if epoch_hook is not None:
            epoch_hook(epoch, net, arch, (va_x, va_y))
    budget.add("search", steps)

    if hp.eval_examples:
        va_x, va_y = va_x[: hp.eval_examples], va_y[: hp.eval_examples]
    candidates = [sample_random_genotype(spec, rng) for _ in range(hp.eval_samples)]
    scores = [genotype_val_nll(net, g, va_x, va_y) for g in candidates]
    budget.add("selection_evals", 0, evaluations=len(candidates))
    return candidates[select_min_nll(scores)], budget, scores


def train_discrete(genotype: MultiHeadGenotype, bundle, hp: TrainHyperparams,
                   seed, loss_log=None):
    """Train a discrete network from fresh He-initialized parameters.

    Returns ``(model, budget)`` and predicts nothing: callers predict the
    splits they need. ``loss_log``, when given, collects the mean training
    loss of each epoch.
    """
    rng = rng_for(seed, "train")
    net = DiscreteNetwork(rng, genotype, num_classes=bundle.classes)
    opt = SGD(
        net.parameters(), lr=hp.lr, momentum=hp.momentum, weight_decay=hp.weight_decay
    )
    tr_x, tr_y = bundle.split("train")

    def train_loss(probs, avg, y):
        return losses.ensemble_train_loss(
            probs, avg, y, label_smoothing=hp.label_smoothing
        )

    steps = 0
    for epoch in range(hp.epochs):
        lr = cosine_lr(epoch, hp.epochs, hp.lr)
        epoch_losses = []
        for idx in _epoch_batches(len(tr_y), hp.batch, rng):
            loss = _train_step(net, opt, train_loss, tr_x[idx], tr_y[idx], lr)
            _check_finite("train", epoch, steps, loss)
            epoch_losses.append(loss)
            steps += 1
        if loss_log is not None:
            loss_log.append(float(np.mean(epoch_losses)))
    budget = Budget()
    budget.add("train", steps)
    return net, budget


# ---------------------------------------------------------------------------
# planned budgets (pure arithmetic; cross-checked against executed counts)


def planned_budget(method, n_train, search_hp: SearchHyperparams,
                   train_hp: TrainHyperparams, pool_size, num_members):
    b = Budget()
    n_tr, n_va = search_split_sizes(n_train, search_hp.val_fraction)
    spe_search = min(
        steps_per_epoch(n_tr, search_hp.batch), steps_per_epoch(n_va, search_hp.batch)
    )
    spe_train = steps_per_epoch(n_train, train_hp.batch)
    train_steps = spe_train * train_hp.epochs
    if method == "pcdarts":
        b.add("search", spe_search * search_hp.epochs)
        b.add("train", train_steps)
    elif method == "drnas":
        b.add("search_stage1", spe_search * search_hp.drnas_stage_epochs)
        b.add("search_stage2", spe_search * search_hp.drnas_stage_epochs)
        b.add("train", train_steps)
    elif method == "randomnas":
        b.add("search", steps_per_epoch(n_tr, search_hp.batch) * search_hp.epochs)
        b.add("selection_evals", 0, evaluations=search_hp.eval_samples)
        b.add("train", train_steps)
    elif method == "mhe_sample":
        b.add("train", train_steps)
    elif method == "mhe_rs":
        b.add("pool_train", pool_size * train_steps, models=pool_size)
    elif method == "deepens_sample":
        b.add("member_train", num_members * train_steps, models=num_members)
    elif method == "deepens_rs":
        b.add("pool_train", pool_size * train_steps, models=pool_size)
        b.add("member_train", num_members * train_steps, models=num_members)
    elif method == "nes_rs":
        b.add("pool_train", pool_size * train_steps, models=pool_size)
    elif method == "hyperdeepens_rs":
        b.add("base_pool_train", pool_size * train_steps, models=pool_size)
        b.add("variant_train", pool_size * train_steps, models=pool_size)
    else:
        raise ValueError(f"unknown method {method!r}")
    return b
