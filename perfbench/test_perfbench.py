"""Tests of the benchmark itself: tracer counts, artifact identity, coverage.

Run from the checkout root (takes about a minute):

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import artifacts  # noqa: E402
import child  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
DATA_SEED = 3


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per workload: two traced runs and one untraced run of the same seed."""
    out = {}
    for w in WORKLOADS:
        base = tmp_path_factory.mktemp(w)
        seeds = child.workload_dict(w)["seeds"]
        results = []
        for i, trace in enumerate((True, True, False)):
            d = base / str(i)
            r = child.run_workload(w, DATA_SEED, d, trace)
            r["problems"] = artifacts.problems(d, seeds)
            r["digest"] = artifacts.digest(d, seeds)
            r["dir"] = d
            results.append(r)
        out[w] = results
    return out


def _counts(layers):
    return {k: v for k, v in layers.items() if not child.is_time(k)}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_between_traced_runs(runs, workload):
    a, b, _ = runs[workload]
    assert _counts(a["layers"]) == _counts(b["layers"])
    assert a["layers"]["tensor.tape_nodes"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_artifacts_identical_to_untraced(runs, workload):
    results = runs[workload]
    assert [r["problems"] for r in results] == [[], [], []]
    assert len({r["digest"] for r in results}) == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_phases_do_not_overlap_and_cover_the_run(runs, workload):
    r = runs[workload][2]
    phases = r["search_s"] + r["train_s"] + r["eval_s"]
    assert min(r["search_s"], r["train_s"], r["eval_s"]) > 0
    assert 0.8 * r["run_s"] < phases <= r["run_s"]


def test_every_wrapped_function_is_called_and_every_metric_reported(runs):
    traced = [results[0] for results in runs.values()]
    wrapped = {name for w in WORKLOADS
               for name, *_ in child.layer_targets(child.workload_dict(w)["method"])}
    for name in wrapped:
        keys = [f"{name}.{k}.calls" for k in child.SPLIT_BY_KIND.get(name, ())]
        keys = keys or [f"{name}.calls"]
        assert any(r["layers"][k] > 0 for r in traced for k in keys), name
    for spec in BENCH["per_layer"]:
        if spec["name"] != "trace_overhead_s":  # computed by run.py
            assert all(spec["name"] in r["layers"] for r in traced), spec["name"]
        if spec["name"].endswith(".calls"):
            assert any(r["layers"][spec["name"]] > 0 for r in traced), spec["name"]


def test_tracer_wraps_caller_bindings_and_restores_them():
    from mhnes import ensembles, metrics, runner, search, supernet, tensor

    def bindings():
        return {
            "search.train_discrete": search.train_discrete,
            "ensembles.train_discrete": ensembles.train_discrete,
            "search.backward": search.backward,
            "tensor.backward": tensor.backward,
            "runner.apply_shift": runner.apply_shift,
            "runner.build_baseline": runner.build_baseline,
            "SEARCHERS.drnas": runner.SEARCHERS["drnas"],
            "Supernet.forward": supernet.Supernet.__dict__["forward"],
            "Supernet.__call__": supernet.Supernet.__dict__["__call__"],
            "MixedEdge.__call__": supernet.MixedEdge.__dict__["__call__"],
            "from_predictions": metrics.MetricReport.__dict__["from_predictions"],
            "Tape.record": tensor.Tape.__dict__["record"],
        }

    before = bindings()
    with Tracer(child.layer_targets("drnas"), count_tape=True):
        during = bindings()
        assert supernet.Supernet.__call__ is supernet.Supernet.forward
    assert all(during[k] is not before[k] for k in before)
    assert bindings() == before


def test_check_flags_broken_outputs(runs, tmp_path):
    src = runs[WORKLOADS[0]][2]["dir"]
    seed = child.workload_dict(WORKLOADS[0])["seeds"][0]

    def broken(edit):
        d = tmp_path / f"case{len(list(tmp_path.iterdir()))}"
        shutil.copytree(src, d)
        edit(d)
        return artifacts.problems(d, [seed])

    def nan_nll(d):
        lines = (d / "metrics.csv").read_text().splitlines()
        cols = lines[1].split(",")
        cols[lines[0].split(",").index("nll")] = "nan"
        lines[1] = ",".join(cols)
        (d / "metrics.csv").write_text("\n".join(lines) + "\n")

    def short_budget(d):
        p = d / f"seed_{seed}" / "budget.json"
        b = json.loads(p.read_text())
        b["executed"]["total_steps"] -= 1
        p.write_text(json.dumps(b))

    def failed_seed(d):
        p = d / f"seed_{seed}" / "manifest.json"
        p.write_text(json.dumps({**json.loads(p.read_text()), "error": "boom"}))

    for edit in (nan_nll, short_budget, failed_seed):
        assert broken(edit), edit.__name__


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
