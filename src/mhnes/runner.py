"""End-to-end experiment orchestration and artifact layout.

One run executes its method for every seed: search (if applicable), final
training, and evaluation at shift severities 0..5, writing per-seed
genotype/budget/manifest files and a shared metrics CSV whose last rows
aggregate mean and std across seeds. Every artifact byte except wall-clock
fields is a pure function of the config.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import numpy as np

from . import __version__, data as datamod, search as searchmod
from .config import ONE_SHOT_METHODS, ConfigError, ExperimentConfig
from .ensembles import Ensemble, build_baseline
from .metrics import MetricReport, PredictionMatrix, apply_shift
from .search import planned_budget

CSV_HEADER = "method,seed,M,split,severity,nll,error,ece,oracle_nll,params,steps,wall_sec"

SEARCHERS = {
    "pcdarts": searchmod.pcdarts_search,
    "drnas": searchmod.drnas_search,
    "randomnas": searchmod.randomnas_search,
}


def load_bundle(data_spec):
    if data_spec.path:
        return datamod.load_raw(data_spec.path)
    return datamod.gen_synthetic(
        classes=data_spec.classes,
        n_train=data_spec.n_train,
        n_val=data_spec.n_val,
        n_test=data_spec.n_test,
        image_size=data_spec.image_size,
        noise_std=data_spec.noise_std,
        seed=data_spec.seed,
    )


def shift_seed_for(data_seed, severity):
    return int(data_seed) * 31 + severity


def evaluate_ensemble(ensemble: Ensemble, bundle, data_seed):
    """(split, severity, MetricReport) rows: train/val clean, test at 0..5."""
    rows = []
    for split in ("train", "val"):
        x, y = bundle.split(split)
        rows.append(
            (split, 0, MetricReport.from_predictions(
                PredictionMatrix(ensemble.predict_members(x), y)
            ))
        )
    test_x, test_y = bundle.split("test")
    for severity in range(6):
        shifted = apply_shift(test_x, severity, shift_seed_for(data_seed, severity))
        rows.append(
            (
                "test",
                severity,
                MetricReport.from_predictions(
                    PredictionMatrix(ensemble.predict_members(shifted), test_y)
                ),
            )
        )
    return rows


def _save_genotypes(ensemble: Ensemble, path: Path):
    if len(ensemble.genotypes) == 1:
        ensemble.genotypes[0].save(path)
    else:
        path.write_text(json.dumps(
            {"members": [g.to_dict() for g in ensemble.genotypes]},
            indent=1, sort_keys=True,
        ) + "\n")


def run_seed(config: ExperimentConfig, bundle, seed, seed_dir: Path):
    """One method end-to-end for one seed; returns (rows, wall seconds)."""
    t0 = time.perf_counter()
    method = config.method
    if method in ONE_SHOT_METHODS:
        genotype, budget, _ = SEARCHERS[method](
            bundle, config.model, config.search, seed
        )
        model, train_budget = searchmod.train_discrete(
            genotype, bundle, config.train, seed
        )
        budget.merge(train_budget)
        ensemble = Ensemble([model], method)
    else:
        ensemble, budget = build_baseline(
            method, bundle, config.model, config.train, config.pool_size, seed
        )
    _save_genotypes(ensemble, seed_dir / "genotype.json")

    planned = planned_budget(
        method,
        len(bundle.split("train")[1]),
        config.search,
        config.train,
        config.pool_size,
        config.model.num_heads,
    )
    if planned.total_steps != budget.total_steps:
        raise RuntimeError(
            f"budget accounting mismatch: planned {planned.total_steps} steps, "
            f"executed {budget.total_steps}"
        )
    (seed_dir / "budget.json").write_text(json.dumps(
        {
            "method": method,
            "seed": seed,
            "planned": planned.to_dict(),
            "executed": budget.to_dict(),
        },
        indent=1,
        sort_keys=True,
    ) + "\n")

    wall = time.perf_counter() - t0
    steps = budget.total_steps
    return metric_rows(ensemble, bundle, config.data.seed, seed, steps, wall), wall


def metric_rows(ensemble: Ensemble, bundle, data_seed, seed, steps, wall_sec):
    """One metrics-CSV row (a dict keyed by ``CSV_HEADER``) per evaluated
    split and severity of ``ensemble``."""
    params = ensemble.param_count()
    return [
        {
            "method": ensemble.method,
            "seed": seed,
            "M": ensemble.num_members,
            "split": split,
            "severity": severity,
            "nll": report.nll,
            "error": report.error,
            "ece": report.ece,
            "oracle_nll": report.oracle_nll,
            "params": params,
            "steps": steps,
            "wall_sec": wall_sec,
        }
        for split, severity, report in evaluate_ensemble(ensemble, bundle, data_seed)
    ]


def _fmt_count(v):
    return str(int(v)) if float(v).is_integer() else f"{v:.6f}"


def _format_row(r):
    return (
        f"{r['method']},{r['seed']},{r['M']},{r['split']},{r['severity']},"
        f"{r['nll']:.6f},{r['error']:.6f},{r['ece']:.6f},{r['oracle_nll']:.6f},"
        f"{_fmt_count(r['params'])},{_fmt_count(r['steps'])},{r['wall_sec']:.3f}"
    )


def _aggregate_rows(rows, method):
    """Mean and std across seeds per (split, severity), appended last."""
    out = []
    keys = sorted({(r["split"], r["severity"]) for r in rows}, key=str)
    for split, severity in keys:
        group = [r for r in rows if r["split"] == split and r["severity"] == severity]
        for stat, fn in (("mean", np.mean), ("std", np.std)):
            out.append(
                {
                    "method": method,
                    "seed": stat,
                    "M": group[0]["M"],
                    "split": split,
                    "severity": severity,
                    **{
                        k: float(fn([g[k] for g in group]))
                        for k in ("nll", "error", "ece", "oracle_nll",
                                  "params", "steps", "wall_sec")
                    },
                }
            )
    return out


def metrics_csv(rows):
    """The metrics-CSV text: ``CSV_HEADER``, then one line per row."""
    return "\n".join([CSV_HEADER] + [_format_row(r) for r in rows]) + "\n"


def run(config: ExperimentConfig):
    """Execute the configured method for every seed; returns the output dir.

    A failing seed is recorded in its manifest and aborts only that seed.
    """
    config.validate()
    if config.model.num_classes != config.data.classes:
        raise ConfigError(
            f"model.num_classes: {config.model.num_classes} does not match "
            f"data.classes {config.data.classes}"
        )
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(config.canonical_json())
    bundle = load_bundle(config.data)
    if bundle.classes != config.model.num_classes:
        raise ConfigError(
            f"model.num_classes: dataset provides {bundle.classes} classes, "
            f"model expects {config.model.num_classes}"
        )

    all_rows = []
    for seed in config.seeds:
        seed_dir = out / f"seed_{seed}"
        seed_dir.mkdir(parents=True, exist_ok=True)
        manifest = {
            "config_hash": config.config_hash(),
            "method": config.method,
            "seed": seed,
            "versions": {
                "mhnes": __version__,
                "numpy": np.__version__,
                "python": platform.python_version(),
            },
            "dataset": bundle.provenance,
        }
        try:
            rows, wall = run_seed(config, bundle, seed, seed_dir)
            all_rows.extend(rows)
            manifest["wall_sec"] = round(wall, 3)
        except Exception as exc:  # noqa: BLE001 - recorded, seed aborted
            manifest["error"] = f"{type(exc).__name__}: {exc}"
        (seed_dir / "manifest.json").write_text(
            json.dumps(manifest, indent=1, sort_keys=True) + "\n"
        )

    if all_rows:
        all_rows += _aggregate_rows(all_rows, config.method)
    (out / "metrics.csv").write_text(metrics_csv(all_rows))
    return out
