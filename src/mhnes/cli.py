"""Command-line interface.

Exit codes: 0 success, 1 usage/input error, 2 runtime failure (for
``search``/``baseline``, any failed seed; the other seeds are still written).

``search`` and ``baseline`` execute the configured method end to end for
every seed (search where applicable, final training, severity sweep).
``train``/``eval`` operate on a stored genotype (and weights) piecewise and
write the same metrics CSV, evaluated the same way.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
import zipfile
from pathlib import Path

import numpy as np

from . import analysis, data as datamod, runner, search as searchmod
from .config import ConfigError, DataSpec, ExperimentConfig, ONE_SHOT_METHODS
from .data import DataFormatError
from .ensembles import Ensemble
from .space import MultiHeadGenotype, sample_random_genotype
from .supernet import DiscreteNetwork


class UsageError(Exception):
    pass


# ``dataset gen`` flag -> the DataSpec field it sets (and takes its default from)
_GEN_FLAGS = {
    "--classes": "classes", "--train": "n_train", "--val": "n_val",
    "--test": "n_test", "--size": "image_size", "--noise": "noise_std",
    "--seed": "seed",
}


def _build_parser():
    p = argparse.ArgumentParser(prog="mhnes", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    ds = sub.add_parser("dataset", help="generate or inspect dataset files")
    ds_sub = ds.add_subparsers(dest="dataset_command", required=True)
    gen = ds_sub.add_parser("gen", help="generate a synthetic dataset")
    gen.set_defaults(func=_cmd_dataset_gen)
    for flag, name in _GEN_FLAGS.items():
        default = getattr(DataSpec, name)
        gen.add_argument(flag, dest=name, type=type(default), default=default)
    gen.add_argument("--out", required=True)
    ins = ds_sub.add_parser("inspect", help="print dataset summary")
    ins.set_defaults(func=_cmd_dataset_inspect)
    ins.add_argument("path")

    for name in ("search", "baseline"):
        sp = sub.add_parser(name, help=f"run a {name} method end to end")
        sp.set_defaults(func=_cmd_run_method)
        sp.add_argument("--config", required=True)
        sp.add_argument("--seed", type=int, action="append", default=None,
                        help="override config seeds (repeatable)")
        sp.add_argument("--out", default=None, help="override output directory")

    tr = sub.add_parser("train", help="train a stored genotype")
    tr.set_defaults(func=_cmd_train)
    tr.add_argument("--config", required=True)
    tr.add_argument("--genotype", required=True)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--out", required=True)

    ev = sub.add_parser("eval", help="evaluate stored weights at all severities")
    ev.set_defaults(func=_cmd_eval)
    ev.add_argument("--config", required=True)
    ev.add_argument("--genotype", required=True)
    ev.add_argument("--weights", required=True)
    ev.add_argument("--out", required=True)

    an = sub.add_parser("analyze", help="search diagnostics")
    an_sub = an.add_subparsers(dest="analyze_command", required=True)
    hes = an_sub.add_parser("hessian", help="eigenvalue trace during search")
    hes.set_defaults(func=_cmd_analyze_hessian)
    hes.add_argument("--config", required=True)
    hes.add_argument("--seed", type=int, default=0)
    hes.add_argument("--out", required=True)
    reg = an_sub.add_parser("regret", help="random-sample variance study")
    reg.set_defaults(func=_cmd_analyze_regret)
    reg.add_argument("--config", required=True)
    reg.add_argument("--m-list", default="1,3")
    reg.add_argument("--samples", type=int, default=20)
    reg.add_argument("--groups", type=int, default=3)
    reg.add_argument("--out", required=True)
    ham = an_sub.add_parser("hamming", help="pairwise genotype distances")
    ham.set_defaults(func=_cmd_analyze_hamming)
    ham.add_argument("--genotypes", nargs="*", default=[])
    ham.add_argument("--config", default=None)
    ham.add_argument("--sample", type=int, default=0,
                     help="additionally sample this many random genotypes")
    ham.add_argument("--seed", type=int, default=0)
    ham.add_argument("--out", required=True)

    rep = sub.add_parser("report", help="merge metrics CSVs into a comparison table")
    rep.set_defaults(func=_cmd_report)
    rep.add_argument("--csv", nargs="+", required=True)
    rep.add_argument("--split", default="test")
    rep.add_argument("--severity", type=int, default=0)
    rep.add_argument("--out", default=None)
    return p


def _load_config(path, seeds=None, out=None):
    cfg = ExperimentConfig.load(path)
    updates = {}
    if seeds:
        updates["seeds"] = tuple(seeds)
    if out:
        updates["out_dir"] = out
    if updates:
        cfg = dataclasses.replace(cfg, **updates).validate()
    return cfg


def _load_genotype(path):
    """One multi-head genotype; a pool baseline's member list is an input error."""
    d = json.loads(Path(path).read_text())
    if "members" in d:
        raise UsageError(f"{path}: a member list of {len(d['members'])} genotypes, "
                         "not one multi-head genotype")
    return MultiHeadGenotype.from_dict(d)


def _cmd_dataset_gen(args):
    spec = DataSpec(**{name: getattr(args, name) for name in _GEN_FLAGS.values()})
    bundle = runner.load_bundle(spec.validate())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    datamod.save_bundle(bundle, out / "dataset.bin")
    print(f"wrote {out / 'dataset.bin'}")
    _print_bundle_summary(bundle)
    return 0


def _bundle_path(path):
    p = Path(path)
    return p / "dataset.bin" if p.is_dir() else p


def _print_bundle_summary(bundle):
    print(f"classes: {bundle.classes}")
    print(f"image:   {bundle.image_size}x{bundle.image_size}")
    for split in ("train", "val", "test"):
        x, y = bundle.split(split)
        hist = np.bincount(y, minlength=bundle.classes).tolist()
        print(f"{split}: n={len(y)} class_counts={hist}")


def _cmd_dataset_inspect(args):
    _print_bundle_summary(datamod.load_raw(_bundle_path(args.path)))
    return 0


def _cmd_run_method(args):
    cfg = _load_config(args.config, seeds=args.seed, out=args.out)
    if (args.command == "search") != (cfg.method in ONE_SHOT_METHODS):
        other = "baseline" if args.command == "search" else "search"
        raise UsageError(
            f"method {cfg.method!r} is not a {args.command} method "
            f"(use the {other} command)"
        )
    out = runner.run(cfg)
    print(f"artifacts in {out}")
    failed = False
    for seed in cfg.seeds:
        manifest = json.loads((out / f"seed_{seed}" / "manifest.json").read_text())
        if "error" in manifest:
            print(f"seed {seed} failed: {manifest['error']}", file=sys.stderr)
            failed = True
    return 2 if failed else 0


def _write_metrics(out, ensemble, bundle, cfg, seed, steps, wall_sec):
    rows = runner.metric_rows(ensemble, bundle, cfg.data.seed, seed, steps, wall_sec)
    (out / "metrics.csv").write_text(runner.metrics_csv(rows))


def _cmd_train(args):
    cfg = _load_config(args.config, seeds=[args.seed])  # checks --seed too
    genotype = _load_genotype(args.genotype)
    bundle = runner.load_bundle(cfg.data)
    t0 = time.perf_counter()
    model, budget = searchmod.train_discrete(genotype, bundle, cfg.train, args.seed)
    wall = time.perf_counter() - t0
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    np.savez(out / "weights.npz", **model.state_arrays())
    ensemble = Ensemble([model], "train")
    _write_metrics(out, ensemble, bundle, cfg, args.seed, budget.total_steps, wall)
    (out / "budget.json").write_text(
        json.dumps(budget.to_dict(), indent=1, sort_keys=True) + "\n"
    )
    print(f"trained model written to {out}")
    return 0


def _cmd_eval(args):
    cfg = _load_config(args.config)
    genotype = _load_genotype(args.genotype)
    bundle = runner.load_bundle(cfg.data)
    rng = np.random.default_rng(0)
    model = DiscreteNetwork(rng, genotype, num_classes=bundle.classes)
    try:
        archive = np.load(args.weights)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError("one array, not an .npz archive")
        with archive:
            model.load_state_arrays(dict(archive))
    except (ValueError, EOFError, zipfile.BadZipFile) as e:
        raise UsageError(f"--weights {args.weights}: {e}") from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_metrics(out, Ensemble([model], "eval"), bundle, cfg, 0, 0, 0.0)
    print((out / "metrics.csv").read_text(), end="")
    return 0


def _cmd_analyze_hessian(args):
    cfg = _load_config(args.config, seeds=[args.seed])
    if cfg.method not in ("pcdarts", "drnas"):
        raise UsageError("hessian tracing needs method pcdarts or drnas")
    bundle = runner.load_bundle(cfg.data)
    hook, trace = analysis.make_eig_hook(cfg.search.jsd_weight)
    searcher = runner.SEARCHERS[cfg.method]
    genotype, _, _ = searcher(bundle, cfg.model, cfg.search, args.seed, epoch_hook=hook)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "eig_trace.csv").write_text(trace.to_csv())
    genotype.save(out / "genotype.json")
    print(f"eigenvalue trace written to {out / 'eig_trace.csv'}")
    return 0


def _cmd_analyze_regret(args):
    try:
        m_list = [int(m) for m in args.m_list.split(",") if m]
    except ValueError:
        m_list = []
    if not m_list or min(m_list) < 1:
        raise UsageError(
            f"--m-list: expected ensemble sizes >= 1, got {args.m_list!r}"
        )
    if args.samples < 2:
        raise UsageError(f"--samples: must be >= 2, got {args.samples}")
    if args.groups < 1:
        raise UsageError(f"--groups: must be >= 1, got {args.groups}")
    cfg = _load_config(args.config)
    bundle = runner.load_bundle(cfg.data)
    study = analysis.regret_study(
        bundle, cfg.model, m_list, args.samples, cfg.train,
        seed_groups=tuple(range(args.groups)),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "regret.csv").write_text(study.to_csv())
    for group in range(args.groups):
        summary = "  ".join(
            f"M={m}: mean={study.nll_mean(m, group):.4f} std={study.nll_std(m, group):.4f}"
            for m in m_list
        )
        print(f"group {group}: {summary}")
    print(f"regret study written to {out / 'regret.csv'}")
    return 0


def _cmd_analyze_hamming(args):
    if args.sample < 0:
        raise UsageError(f"--sample: must be >= 0, got {args.sample}")
    genotypes = [_load_genotype(p) for p in args.genotypes]
    if args.sample:
        if not args.config:
            raise UsageError("--sample needs --config for the search space")
        cfg = _load_config(args.config, seeds=[args.seed])
        rng = np.random.default_rng(args.seed)
        genotypes += [
            sample_random_genotype(cfg.model, rng) for _ in range(args.sample)
        ]
    if len(genotypes) < 2:
        raise UsageError("need at least two genotypes (via --genotypes/--sample)")
    matrix = analysis.hamming_matrix(genotypes)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "hamming.csv").write_text(analysis.hamming_csv(matrix))
    print(f"{len(genotypes)}x{len(genotypes)} distance matrix written to "
          f"{out / 'hamming.csv'}")
    return 0


def _cmd_report(args):
    rows = []
    header = runner.CSV_HEADER.split(",")
    for path in args.csv:
        text = Path(path).read_text().strip().splitlines()
        if not text or text[0] != runner.CSV_HEADER:
            raise UsageError(f"{path}: not a metrics CSV (empty, or its header is "
                             f"not {runner.CSV_HEADER!r})")
        for line in text[1:]:
            rows.append(dict(zip(header, line.split(","))))
    picked = [
        r
        for r in rows
        if r["split"] == args.split
        and int(r["severity"]) == args.severity
        and r["seed"] not in ("mean", "std")
    ]
    if not picked:
        raise UsageError("no matching per-seed rows in the given CSVs")
    lines = ["method,M,nll_mean,nll_std,error_mean,error_std,ece_mean,ece_std,"
             "params_mean,steps_mean"]
    keys = sorted({(r["method"], r["M"]) for r in picked})
    for method, m in keys:
        grp = [r for r in picked if r["method"] == method and r["M"] == m]
        cols = {
            k: np.array([float(r[k]) for r in grp])
            for k in ("nll", "error", "ece", "params", "steps")
        }
        lines.append(
            f"{method},{m},"
            f"{cols['nll'].mean():.6f},{cols['nll'].std():.6f},"
            f"{cols['error'].mean():.6f},{cols['error'].std():.6f},"
            f"{cols['ece'].mean():.6f},{cols['ece'].std():.6f},"
            f"{cols['params'].mean():.1f},{cols['steps'].mean():.1f}"
        )
    table = "\n".join(lines) + "\n"
    print(table, end="")
    if args.out:
        Path(args.out).write_text(table)
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits with 2 on usage errors; the contract is 1
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except (UsageError, ConfigError, DataFormatError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - runtime failure boundary
        print(f"runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
