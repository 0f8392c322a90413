"""Planted-optimum search experiment.

Constructs a task where skip_connect strictly dominates a label-destroying
noise op, runs all three one-shot searchers over several seeds, and prints
per-seed recovery of the planted op (fraction of edges preferring it).
"""

import argparse
import time

import numpy as np

from mhnes import search
from mhnes.config import SearchHyperparams
from mhnes.data import gen_synthetic
from mhnes.space import ModelSpec


def alpha_recovery(arch):
    return [
        float((a.data.argmax(axis=1) == arch.head_ops[h].index("skip_connect")).mean())
        for h, a in enumerate(arch.alpha)
    ]


def genotype_recovery(geno):
    return [
        float(np.mean([op == "skip_connect" for ch in cell for op in ch.ops]))
        for cell in geno.heads
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("--heads", type=int, default=1)
    args = ap.parse_args()

    bundle = gen_synthetic(
        classes=4, n_train=2000, n_val=500, n_test=500, image_size=16, seed=0
    )
    spec = ModelSpec(
        num_heads=args.heads, cells_per_head=1, nodes=4,
        ops=("skip_connect", "batch_mix_a"), backbone_width=8, head_width=8,
    )
    setups = {
        "pcdarts": (
            search.pcdarts_search,
            SearchHyperparams(epochs=28, batch=64, warmstart_epochs=2,
                              arch_lr=4e-3, partial_k=2, eval_samples=10),
        ),
        "drnas": (
            search.drnas_search,
            SearchHyperparams(epochs=28, batch=64, warmstart_epochs=2,
                              arch_lr=2e-2, arch_weight_decay=0.0,
                              drnas_stage_epochs=14, drnas_warmstart_epochs=1,
                              partial_k=4, drnas_stage2_k=2, drnas_keep_ops=2,
                              eval_samples=10),
        ),
        "randomnas": (
            search.randomnas_search,
            SearchHyperparams(epochs=12, batch=64, warmstart_epochs=2,
                              partial_k=4, eval_samples=1200, eval_examples=256),
        ),
    }
    for method, (searcher, hp) in setups.items():
        for seed in range(args.seeds):
            t0 = time.time()
            geno, budget, extra = searcher(bundle, spec, hp, seed)
            fracs = (
                genotype_recovery(geno)
                if method == "randomnas"
                else alpha_recovery(extra)
            )
            print(
                f"{method:10s} seed {seed}: recovery={[round(f, 3) for f in fracs]} "
                f"steps={budget.total_steps} ({time.time() - t0:.0f}s)"
            )


if __name__ == "__main__":
    main()
