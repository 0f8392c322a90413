"""Compare search methods and baselines on one synthetic task.

Runs each requested method end to end (search where applicable, final
training, severity sweep) and merges the per-method CSVs into one table.
Desk-scale defaults keep a full comparison within tens of minutes; raise
the budgets for slower, stronger runs.
"""

import argparse
from pathlib import Path

from mhnes import cli, runner
from mhnes.config import ExperimentConfig


def config_for(method, out_root, args):
    return ExperimentConfig.from_dict(
        {
            "method": method,
            "data": {
                "classes": 4, "image_size": 16, "seed": 0,
                "n_train": args.n_train, "n_val": 400, "n_test": 400,
            },
            "model": {
                "num_heads": args.heads, "cells_per_head": 2, "nodes": 4,
                "backbone_width": 8, "head_width": 8,
            },
            "search": {
                "epochs": args.search_epochs, "batch": 64,
                "warmstart_epochs": max(1, args.search_epochs // 8),
                "drnas_stage_epochs": max(2, args.search_epochs // 2),
                "drnas_warmstart_epochs": 1,
                "partial_k": 4, "drnas_stage2_k": 2,
                "eval_samples": 50,
            },
            "train": {"epochs": args.train_epochs, "batch": 128},
            "seeds": list(range(args.seeds)),
            "out_dir": str(Path(out_root) / method),
            "pool_size": args.pool_size,
        }
    )


def parser():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--methods",
        default="mhe_sample,mhe_rs,randomnas,pcdarts,drnas",
        help="comma-separated subset of the supported methods",
    )
    ap.add_argument("--heads", type=int, default=3)
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("--n-train", type=int, default=1024)
    ap.add_argument("--search-epochs", type=int, default=12)
    ap.add_argument("--train-epochs", type=int, default=12)
    ap.add_argument("--pool-size", type=int, default=8)
    ap.add_argument("--out", default="runs/comparison")
    return ap


def main():
    args = parser().parse_args()

    csvs = []
    for method in args.methods.split(","):
        cfg = config_for(method.strip(), args.out, args)
        print(f"running {cfg.method} ...")
        out = runner.run(cfg)
        csvs.append(str(out / "metrics.csv"))
    print("\nclean-test comparison (severity 0):")
    cli.main(["report", "--csv", *csvs,
              "--out", str(Path(args.out) / "comparison.csv")])


if __name__ == "__main__":
    main()
