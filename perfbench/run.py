"""End-to-end and per-layer benchmark of mhnes.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload search-drnas --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Each repetition is a fresh interpreter (``child.py``) that imports mhnes from
``src``, sets up and calls ``runner.run`` once on the workload's config
(``workloads/<name>.json``) with ``--seed`` as the data seed. The run seeds
stay those of the workload file, so the work done does not depend on the
seed. Repetitions run one at a time until about ``--seconds`` have passed;
every metric is the median over repetitions.
Every repetition's outputs are checked (see ``artifacts.py``) and must be
byte-identical across repetitions; a repetition whose seed raised or whose
outputs fail the check counts as failed.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported.
With ``--trace 1`` untraced and traced repetitions alternate, and the
per-layer metrics come from the traced ones; ``trace_overhead_s`` is the
difference of their median run times. The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
TIME_LIMIT_S = 170  # a run must end within 180 s
THREADS = "1"  # BLAS/OpenMP threads per process, at or below nproc
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(HERE))
import artifacts  # noqa: E402
from child import is_time, workload_dict  # noqa: E402


def environment():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "threads": THREADS,
    }


def child_env():
    env = dict(os.environ)
    env.update({v: THREADS for v in THREAD_VARS})
    return env


def run_rep(workload, seed, trace, index, deadline, spans_path=None):
    """One fresh-process repetition; returns its result or raises RuntimeError."""
    work = WORK / f"rep-{os.getpid()}-{index}"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(work / "out"), "--trace", str(int(trace))]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    try:
        work.mkdir(parents=True)
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, env=child_env(),
                timeout=max(1.0, deadline - t0),
            )
        except subprocess.TimeoutExpired:
            raise RuntimeError("repetition timed out")
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            raise RuntimeError(f"exit {proc.returncode}: {tail[0]}")
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise RuntimeError("no result line")
        result["setup_s"] = result.pop("ready") - t0
        run_seeds = workload_dict(workload)["seeds"]
        found = artifacts.problems(work / "out", run_seeds)
        if found:
            raise RuntimeError("; ".join(found))
        result["digest"] = artifacts.digest(work / "out", run_seeds)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(workload, seed, seconds, trace, deadline):
    """Repeat the workload for ``seconds``; returns the summary dictionary."""
    modes = (False, True) if trace else (False,)
    reps = {m: [] for m in modes}
    attempted, errors, rounds = 0, [], []
    start = time.monotonic()
    spans_path = WORK / f"spans-{workload}.jsonl"
    # Start another round only if it should end within half a round of
    # ``seconds``, so a run lasts about ``seconds`` however long a round is.
    while not rounds or (
        time.monotonic() - start + statistics.median(rounds) / 2 < seconds
        and time.monotonic() < deadline - 2 * max(rounds)
    ):
        t = time.monotonic()
        for traced in modes:
            attempted += 1
            try:
                reps[traced].append(run_rep(
                    workload, seed, traced, attempted, deadline,
                    spans_path if traced else None,
                ))
            except RuntimeError as e:
                errors.append(str(e))
        rounds.append(time.monotonic() - t)
    ok = [r for rs in reps.values() for r in rs]
    digests = sorted({r["digest"] for r in ok})
    reasons = list(errors)
    if len(digests) > 1:
        reasons.append(f"artifacts differ across repetitions: {digests}")
    summary = {
        "workload": workload, "seed": seed, "attempted": attempted,
        "failed": len(errors), "reasons": reasons,
        "digest": digests[0] if len(digests) == 1 else None,
    }
    if reps[False]:
        untraced = reps[False]
        summary["e2e"] = {
            k: statistics.median(r[k] for r in untraced)
            for k in ("setup_s", "run_s", "search_s", "train_s", "eval_s",
                      "peak_rss_mb")
        }
        summary["versions"] = untraced[0]["versions"]
    if trace and reps[True]:
        traced = reps[True]
        counts = [{k: v for k, v in r["layers"].items() if not is_time(k)}
                  for r in traced]
        if any(c != counts[0] for c in counts[1:]):
            reasons.append("per-layer counts differ across traced repetitions")
        layers = {
            k: statistics.median(r["layers"][k] for r in traced)
            for k in traced[0]["layers"] if is_time(k)
        }
        layers.update(counts[0])
        if reps[False]:
            layers["trace_overhead_s"] = (
                statistics.median(r["run_s"] for r in traced)
                - statistics.median(r["run_s"] for r in reps[False])
            )
        summary["layers"] = layers
    ref = _reference().get("digests", {}).get(workload, {}).get(str(seed))
    summary["artifacts_match_ref"] = (
        None if ref is None or summary["digest"] is None else ref == summary["digest"]
    )
    return summary


def _reference():
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def record_reference(summary):
    ref = _reference()
    ref.setdefault("digests", {}).setdefault(summary["workload"], {})[
        str(summary["seed"])] = summary["digest"]
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def report(summary, specs):
    """Print a workload's metrics by name with units; return them as JSON."""
    w = summary["workload"]
    values = {**summary.get("e2e", {}), **summary.get("layers", {})}
    metrics = {}
    for spec in specs:
        if spec["name"] not in values:
            raise KeyError(f"{w}: no value for metric {spec['name']}")
        v = values[spec["name"]]
        metrics[spec["name"]] = {"value": v, "unit": spec["unit"]}
        print(f"{w:18s} {spec['name']:52s} {v:>16.6g} {spec['unit']}")
    if "e2e" in summary:
        print(f"{w:18s} phases (median s): " + ", ".join(
            f"{k} {summary['e2e'][k]:.4g}" for k in ("search_s", "train_s", "eval_s")))
    verdict = "pass" if not summary["reasons"] else "FAIL"
    print(f"{w:18s} seeds attempted {summary['attempted']}, failed "
          f"{summary['failed']}; output check: {verdict}; "
          f"artifacts_match_ref: {json.dumps(summary['artifacts_match_ref'])}")
    for reason in summary["reasons"]:
        print(f"{w:18s}   {reason}")
    return metrics


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description="mhnes end-to-end/per-layer benchmark")
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-ref", action="store_true",
                   help="store this run's artifact digest as the reference")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "mhnes" / "__init__.py").is_file():
        print(f"error: no mhnes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    workloads = names if args.workload == "all" else [args.workload]
    start = time.monotonic()
    WORK.mkdir(exist_ok=True)
    compileall.compile_dir(ROOT / "src" / "mhnes", quiet=1)  # warm bytecode cache
    env = environment()
    summaries = []
    for i, w in enumerate(workloads):
        deadline = start + TIME_LIMIT_S * (i + 1)
        summaries.append(measure(w, args.seed, args.seconds, bool(args.trace), deadline))
    for s in summaries:
        if args.record_ref and s["digest"] and not s["reasons"]:
            record_reference(s)
    print("environment: " + json.dumps({**env, **summaries[0].get("versions", {})}))
    metrics = {}
    for s in summaries:
        if ("layers" if args.trace else "e2e") not in s:
            print(f"error: no repetition of {s['workload']} succeeded: "
                  f"{s['reasons'][:1]}", file=sys.stderr)
            return 1
        m = report(s, specs)
        metrics.update(m if len(summaries) == 1
                       else {f"{s['workload']}.{k}": v for k, v in m.items()})
    print(json.dumps({
        "correct": all(not s["reasons"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
