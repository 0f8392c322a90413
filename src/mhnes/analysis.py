"""Search diagnostics: sharpness tracking, sample-variance study, distances.

The dominant eigenvalue of the validation-loss Hessian w.r.t. the
architecture parameters is estimated by power iteration over
finite-difference Hessian-vector products (first-order gradients only).
The regret study trains randomly sampled genotypes per ensemble size and
reports the spread of their validation NLL.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import losses, metrics
from .search import loss_backward, rng_for, train_discrete
from .space import ModelSpec, hamming, sample_random_genotype


def hvp_fd(grad_fn, point, v, eps=None):
    """Symmetric-difference Hessian-vector product.

    (grad(x + eps*u) - grad(x - eps*u)) / (2 eps) * ||v||  with u = v/||v||.
    ``grad_fn`` maps a flat parameter vector to the loss gradient.
    """
    point = np.asarray(point, dtype=float)
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("hvp_fd: direction vector must be non-zero")
    if eps is None:
        eps = 1e-3 * (1.0 + np.linalg.norm(point))
    u = v / norm
    gp = grad_fn(point + eps * u)
    gm = grad_fn(point - eps * u)
    return (gp - gm) / (2.0 * eps) * norm


@dataclass(frozen=True)
class EigEstimate:
    value: float
    residual: float
    iterations: int
    converged: bool


def dominant_eig(hvp, dim, tol=1e-6, max_iter=200, seed=0):
    """Largest-magnitude eigenvalue by power iteration with a Rayleigh
    quotient (preserves the sign); non-convergence is flagged, not raised."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    value, residual = 0.0, np.inf
    for it in range(1, max_iter + 1):
        hv = hvp(v)
        value = float(v @ hv)
        residual = float(np.linalg.norm(hv - value * v))
        norm = np.linalg.norm(hv)
        if residual < tol:
            return EigEstimate(value, residual, it, True)
        if norm == 0:
            return EigEstimate(0.0, 0.0, it, True)
        v = hv / norm
    return EigEstimate(value, residual, max_iter, False)


def arch_loss_grad_fn(net, arch, val_x, val_y, jsd_weight):
    """Gradient of the architecture objective w.r.t. flattened ArchParams.

    Uses deterministic mixture weights (expected weights in drnas mode) so
    the probed surface is noise-free. The supernet weights are frozen while
    it runs, so only the architecture gradient is computed. The caller must
    restore the original parameters afterwards.
    """

    def grad(vec):
        arch.set_flat(vec)
        for t in arch.tensors():
            t.grad = None
        weights = net.parameters()
        for w in weights:
            w.requires_grad = False
        try:
            loss_backward(
                net, lambda p, avg, y: losses.arch_val_loss(p, avg, y, jsd_weight),
                val_x, val_y, mode="continuous",
            )
        finally:
            for w in weights:
                w.requires_grad = True
        return np.concatenate(
            [
                (t.grad if t.grad is not None else np.zeros_like(t.data)).reshape(-1)
                for t in arch.tensors()
            ]
        )

    return grad


@dataclass
class EigTrace:
    entries: list = field(default_factory=list)  # (epoch, value, residual, iters)

    def append(self, epoch, est: EigEstimate):
        self.entries.append((epoch, est.value, est.residual, est.iterations))

    def to_csv(self):
        lines = ["epoch,eig,residual,iters"]
        for epoch, value, residual, iters in self.entries:
            lines.append(f"{epoch},{value:.10g},{residual:.10g},{iters}")
        return "\n".join(lines) + "\n"


def make_eig_hook(jsd_weight, tol=1e-6, max_iter=50, probe_seed=0,
                  probe_examples=256):
    """Per-epoch search hook estimating the dominant Hessian eigenvalue.

    The probe set is the first ``probe_examples`` of the validation split
    the searcher passes to its hook. Architecture parameters are restored
    bit-exactly from their flat copy, so an instrumented search follows the
    identical trajectory.
    """
    trace = EigTrace()

    def hook(epoch, net, arch, val):
        val_x, val_y = val[0][:probe_examples], val[1][:probe_examples]
        point = arch.flat()
        grad = arch_loss_grad_fn(net, arch, val_x, val_y, jsd_weight)
        est = dominant_eig(
            lambda v: hvp_fd(grad, point, v),
            dim=point.size,
            tol=tol,
            max_iter=max_iter,
            seed=probe_seed,
        )
        arch.set_flat(point)
        trace.append(epoch, est)

    return hook, trace


# ---------------------------------------------------------------------------
# random-sample variance / regret study


@dataclass
class RegretStudy:
    rows: list = field(default_factory=list)
    # each row: dict(M, sample, group, val_nll, regret)

    def subset(self, m, group):
        return [r for r in self.rows if r["M"] == m and r["group"] == group]

    def nll_std(self, m, group):
        return float(np.std([r["val_nll"] for r in self.subset(m, group)]))

    def nll_mean(self, m, group):
        return float(np.mean([r["val_nll"] for r in self.subset(m, group)]))

    def to_csv(self):
        lines = ["M,sample_id,seed,val_nll,regret"]
        for r in self.rows:
            lines.append(
                f"{r['M']},{r['sample']},{r['group']},"
                f"{r['val_nll']:.10g},{r['regret']:.10g}"
            )
        return "\n".join(lines) + "\n"


def regret_study(bundle, base_spec: ModelSpec, m_list, samples_per_m,
                 train_hp, seed_groups=(0, 1, 2)):
    """Sample, train, and score genotypes per ensemble size and seed group.

    Regret is each sample's validation NLL above the group minimum, so the
    per-group minimum regret is exactly zero.
    """
    if samples_per_m < 2:
        raise ValueError("need at least 2 samples per ensemble size")
    study = RegretStudy()
    val_x, val_y = bundle.split("val")
    for group in seed_groups:
        for m in m_list:
            spec = dataclasses.replace(base_spec, num_heads=m)
            nlls = []
            for i in range(samples_per_m):
                rng = rng_for([group, m, i], "regret-sample")
                geno = sample_random_genotype(spec, rng)
                model, _ = train_discrete(geno, bundle, train_hp, seed=[group, m, i])
                nlls.append(metrics.ensemble_nll(model.predict(val_x), val_y))
            best = min(nlls)
            for i, v in enumerate(nlls):
                study.rows.append(
                    {
                        "M": m,
                        "sample": i,
                        "group": group,
                        "val_nll": v,
                        "regret": v - best,
                    }
                )
    return study


def hamming_matrix(genotypes):
    """Pairwise edit distances between genotype edge vectors."""
    n = len(genotypes)
    out = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            d = hamming(genotypes[i], genotypes[j])
            out[i, j] = out[j, i] = d
    return out


def hamming_csv(matrix):
    lines = [",".join(str(int(v)) for v in row) for row in matrix]
    return "\n".join(lines) + "\n"
