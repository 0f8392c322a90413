"""Random-sample variance and regret across ensemble sizes.

Samples genotypes per ensemble size, trains each briefly, and reports the
spread of validation NLL; larger ensembles should show a tighter spread.
"""

import argparse
from pathlib import Path

from mhnes.analysis import regret_study
from mhnes.config import TrainHyperparams
from mhnes.data import gen_synthetic
from mhnes.space import ModelSpec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m-list", default="1,3")
    ap.add_argument("--samples", type=int, default=20)
    ap.add_argument("--groups", type=int, default=3)
    ap.add_argument("--epochs", type=int, default=3)
    ap.add_argument("--out", default="runs/regret")
    args = ap.parse_args()

    bundle = gen_synthetic(
        classes=4, n_train=384, n_val=192, n_test=192, image_size=16, seed=11
    )
    spec = ModelSpec(
        num_heads=1, cells_per_head=1, nodes=4, backbone_width=8, head_width=8,
    )
    m_list = [int(m) for m in args.m_list.split(",")]
    study = regret_study(
        bundle, spec, m_list, args.samples,
        TrainHyperparams(epochs=args.epochs, batch=128),
        seed_groups=tuple(range(args.groups)),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "regret.csv").write_text(study.to_csv())
    for group in range(args.groups):
        cells = "  ".join(
            f"M={m}: mean={study.nll_mean(m, group):.4f} "
            f"std={study.nll_std(m, group):.4f}"
            for m in m_list
        )
        print(f"group {group}: {cells}")
    print(f"rows written to {out / 'regret.csv'}")


if __name__ == "__main__":
    main()
