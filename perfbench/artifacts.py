"""Checks and digests of one run's output directory.

The byte-compared artifacts are ``metrics.csv`` without its ``wall_sec``
column, and each seed's ``genotype.json`` and ``budget.json``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

SPLIT_ROWS = {("train", "0"), ("val", "0")} | {("test", str(s)) for s in range(6)}
UNIT_INTERVAL = ("error", "ece")
NON_NEGATIVE = ("nll", "oracle_nll", "params", "steps", "wall_sec")


def _csv_without_wall(text):
    rows = list(csv.reader(io.StringIO(text)))
    drop = rows[0].index("wall_sec") if "wall_sec" in rows[0] else None
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    for r in rows:
        w.writerow([v for i, v in enumerate(r) if i != drop])
    return out.getvalue()


def digest(out_dir, seeds):
    """sha256 over the deterministic artifacts of a run directory."""
    out_dir = Path(out_dir)
    h = hashlib.sha256()
    h.update(_csv_without_wall((out_dir / "metrics.csv").read_text()).encode())
    for seed in seeds:
        for name in ("genotype.json", "budget.json"):
            h.update(f"\0seed_{seed}/{name}\0".encode())
            h.update((out_dir / f"seed_{seed}" / name).read_bytes())
    return h.hexdigest()


def problems(out_dir, seeds):
    """Human-readable reasons the run's outputs are wrong; empty when fine."""
    out_dir = Path(out_dir)
    found = []
    for seed in seeds:
        sd = out_dir / f"seed_{seed}"
        try:
            manifest = json.loads((sd / "manifest.json").read_text())
            budget = json.loads((sd / "budget.json").read_text())
            json.loads((sd / "genotype.json").read_text())
        except (OSError, ValueError) as e:
            found.append(f"seed {seed}: unreadable artifact ({e})")
            continue
        if "error" in manifest:
            found.append(f"seed {seed} failed: {manifest['error']}")
        planned = budget["planned"]["total_steps"]
        executed = budget["executed"]["total_steps"]
        if planned != executed:
            found.append(f"seed {seed}: executed {executed} steps, planned {planned}")
    try:
        rows = list(csv.DictReader(io.StringIO((out_dir / "metrics.csv").read_text())))
    except OSError as e:
        return found + [f"metrics.csv unreadable ({e})"]
    for seed in seeds:
        got = {(r["split"], r["severity"]) for r in rows if r["seed"] == str(seed)}
        if got != SPLIT_ROWS:
            found.append(f"metrics.csv: seed {seed} rows {sorted(got)}")
    for i, r in enumerate(rows, start=2):
        v = {col: _number(r[col]) for col in UNIT_INTERVAL + NON_NEGATIVE if col in r}
        for col, x in v.items():
            hi = 1.0 if col in UNIT_INTERVAL else math.inf
            if not (math.isfinite(x) and 0.0 <= x <= hi):
                found.append(f"metrics.csv line {i}: {col}={r[col]!r} out of range")
        if r["seed"] not in ("mean", "std") and v.get("oracle_nll", 0) > v["nll"] + 1e-9:
            found.append(f"metrics.csv line {i}: oracle_nll above ensemble nll")
    return found


def _number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan
