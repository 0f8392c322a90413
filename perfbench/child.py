"""One benchmark repetition: a fresh interpreter runs one workload once.

Usage: python3 perfbench/child.py --workload NAME --seed N --out DIR --trace 0|1

It imports mhnes from the checkout's ``src``, loads the workload config,
generates the dataset once (this is set-up), then calls ``runner.run`` with
its outputs under DIR. The last stdout line is a JSON object with the
monotonic clock reading at "ready", the run time, the phase times, the peak
resident memory and, with ``--trace 1``, the per-layer aggregates.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = HERE / "workloads"


def workload_dict(workload):
    """The workload's config as a plain dict, without its ``why`` comment."""
    raw = json.loads((WORKLOADS / f"{workload}.json").read_text())
    raw.pop("why")
    return raw


def load_config(workload, seed, out_dir):
    """The workload's ExperimentConfig with the data seed and output dir filled in.

    The run seeds stay those of the workload file: they pick the sampled
    architectures, so fixing them keeps the amount of work the same across
    data seeds.
    """
    from mhnes.config import ExperimentConfig

    raw = workload_dict(workload)
    raw["data"] = {**raw.get("data", {}), "seed": seed}
    raw["out_dir"] = str(out_dir)
    return ExperimentConfig.from_dict(raw)


def useful_predictions(cfg):
    """Examples the written metrics and the ensemble selection must predict.

    Each final model is evaluated on train, val and six shifted test sets;
    forward selection additionally needs every pool member's val outputs.
    """
    from mhnes.config import ONE_SHOT_METHODS

    per_model = cfg.data.n_train + cfg.data.n_val + 6 * cfg.data.n_test
    if cfg.method in ONE_SHOT_METHODS:
        need = per_model
    elif cfg.method == "nes_rs":
        need = cfg.model.num_heads * per_model + cfg.pool_size * cfg.data.n_val
    else:
        raise ValueError(f"no prediction model for method {cfg.method!r}")
    return need * len(cfg.seeds)


# ---------------------------------------------------------------------------
# what gets wrapped


def _shape(x):
    return getattr(x, "data", x).shape


def _conv_attrs(args, kwargs):
    from mhnes.convops import conv_out_extent

    names = ("x", "w", "stride", "padding", "dilation", "groups")
    a = {"stride": 1, "padding": 0, "dilation": 1, "groups": 1,
         **dict(zip(names, args)), **kwargs}
    n, c, h, wd = _shape(a["x"])
    co, cg, kh, kw = _shape(a["w"])
    oh = conv_out_extent(h, kh, a["stride"], a["padding"], a["dilation"])
    ow = conv_out_extent(wd, kw, a["stride"], a["padding"], a["dilation"])
    if kh == kw == 1:
        kind = "pointwise"
    elif a["groups"] > 1 and cg == 1:
        kind = "depthwise"
    else:
        kind = "dense"
    return {
        "kind": kind,
        "macs": n * co * oh * ow * cg * kh * kw,
        "col_bytes": n * c * kh * kw * oh * ow * 8,  # float64 im2col buffer
    }


def _forward_mode(args, kwargs):
    return {"kind": kwargs.get("mode", args[2] if len(args) > 2 else "continuous")}


def _examples(args, kwargs):
    return {"examples": len(args[1])}


def phase_targets(method):
    """The few functions whose time splits a run into search, train, eval.

    The method's searcher is wrapped under the span name ``search.searcher``.
    """
    from mhnes import ensembles, runner, search

    targets = [("search.train_discrete", search, "train_discrete", None)]
    searcher = runner.SEARCHERS.get(method)
    if searcher is not None:
        targets.append(("search.searcher", search, searcher.__name__, None))
    return targets + [
        ("ensembles.build_baseline", ensembles, "build_baseline", None),
        ("runner.evaluate_ensemble", runner, "evaluate_ensemble", None),
    ]


def layer_targets(method):
    """Phase targets plus one entry point per layer."""
    from mhnes import (convops, data, dirichlet, ensembles, losses, metrics, nn,
                       optim, search, space, supernet, tensor)

    t = phase_targets(method)
    t += [
        ("tensor.backward", tensor, "backward", None),
        ("convops.conv2d", convops, "conv2d", _conv_attrs),
        ("convops.pool2d", convops, "pool2d", None),
        ("convops.normalize_no_affine", convops, "normalize_no_affine", None),
    ]
    t += [("nn.modules", cls, "forward", None)
          for cls in (nn.Conv2d, nn.Norm, nn.Linear, nn.ReluConvNorm)]
    t += [("space.ops", cls, "forward", None)
          for cls in (space.Identity, space.SubsampleSkip, space.SepConv,
                      space.DilConv, space.PoolOp)]
    t += [
        ("supernet.MixedEdge.forward", supernet.MixedEdge, "forward", None),
        ("supernet.cells.forward", supernet.MixedCell, "forward", None),
        ("supernet.cells.forward", supernet.DiscreteCell, "forward", None),
        ("supernet.Backbone.forward", supernet.Backbone, "forward", None),
        ("supernet.Supernet.forward", supernet.Supernet, "forward", _forward_mode),
        ("supernet.Supernet.predict", supernet.Supernet, "predict", _examples),
        ("supernet.DiscreteNetwork.forward", supernet.DiscreteNetwork, "forward",
         None),
        ("supernet.DiscreteNetwork.predict", supernet.DiscreteNetwork, "predict",
         _examples),
        ("search.bilevel_search_step", search, "bilevel_search_step", None),
        ("search.genotype_val_nll", search, "genotype_val_nll", None),
        ("dirichlet.sample_simplex_rows", dirichlet, "sample_simplex_rows", None),
        ("losses.arch_val_loss", losses, "arch_val_loss", None),
        ("losses.ensemble_train_loss", losses, "ensemble_train_loss", None),
        ("optim.SGD.step", optim.SGD, "step", None),
        ("optim.Adam.step", optim.Adam, "step", None),
        ("ensembles.forward_select", ensembles, "forward_select", None),
        ("metrics.MetricReport.from_predictions", metrics.MetricReport,
         "from_predictions", None),
        ("metrics.apply_shift", metrics, "apply_shift", None),
        ("data.gen_synthetic", data, "gen_synthetic", None),
    ]
    return t


# Span names whose attributes split them into separately reported groups.
SPLIT_BY_KIND = {
    "convops.conv2d": ("pointwise", "depthwise", "dense"),
    "supernet.Supernet.forward": ("continuous", "sampled", "discrete"),
}
# Span attributes summed into counters of the span's group.
ATTR_STATS = {
    "convops.conv2d": ("macs", "col_bytes"),
    "supernet.Supernet.predict": ("examples",),
    "supernet.DiscreteNetwork.predict": ("examples",),
}


# ---------------------------------------------------------------------------
# aggregation


def is_time(metric):
    """True for a per-layer time (``.s``, ``.fwd_s``, ``.self_s``), not a count."""
    last = metric.rsplit(".", 1)[-1]
    return last == "s" or last.endswith("_s")


def _key(span):
    if span.name in SPLIT_BY_KIND:
        return f"{span.name}.{span.attrs['kind']}"
    return span.name


def phase_times(spans):
    """search_s, train_s and eval_s; they do not overlap.

    For pool baselines the search phase is ``build_baseline`` minus the
    member trainings nested inside it.
    """
    out = {"search_s": 0.0, "train_s": 0.0, "eval_s": 0.0}
    for s in spans:
        if s.name in ("search.searcher", "ensembles.build_baseline"):
            out["search_s"] += s.dur
        elif s.name == "search.train_discrete":
            out["train_s"] += s.dur
            if any(a.name == "ensembles.build_baseline" for a in _ancestors(s, spans)):
                out["search_s"] -= s.dur
        elif s.name == "runner.evaluate_ensemble":
            out["eval_s"] += s.dur
    return out


def _ancestors(span, spans):
    while span.parent is not None:
        span = spans[span.parent]
        yield span


def layer_stats(tracer, targets):
    """Flat ``<group>.<stat>`` aggregates; every target group is present.

    ``s`` is inclusive time counted once per outermost span of its group,
    ``self_s`` excludes the time of child spans. Kernel groups in convops
    report their time as ``fwd_s``: their backward work runs inside
    ``tensor.backward``.
    """
    groups = {}
    for name, *_ in targets:
        for kind in SPLIT_BY_KIND.get(name, (None,)):
            key = name if kind is None else f"{name}.{kind}"
            groups[key] = {"calls": 0, "s": 0.0, "self_s": 0.0,
                           **dict.fromkeys(ATTR_STATS.get(name, ()), 0)}
    spans = tracer.spans
    for s in spans:
        key = _key(s)
        g = groups[key]
        g["calls"] += 1
        g["self_s"] += s.self_s
        if not any(_key(a) == key for a in _ancestors(s, spans)):
            g["s"] += s.dur
        for attr in ATTR_STATS.get(s.name, ()):
            g[attr] += s.attrs[attr]
    flat = {}
    for key, g in groups.items():
        for stat, v in g.items():
            if stat == "s" and key.startswith("convops."):
                stat = "fwd_s"
            flat[f"{key}.{stat}"] = v
    flat["tensor.tape_nodes"] = tracer.tape_nodes
    flat["tensor.tape_bytes"] = tracer.tape_bytes
    flat["tensor.tape_peak_bytes"] = tracer.tape_peak_bytes
    return flat


# ---------------------------------------------------------------------------


def run_workload(workload, seed, out_dir, trace, spans_path=None):
    """Set up and run one workload; returns the result dictionary.

    Expects mhnes to be importable. With ``trace`` the tracer is installed
    before set-up, so the data generation done there is traced as well.
    """
    from mhnes import runner

    method = workload_dict(workload)["method"]
    targets = layer_targets(method) if trace else phase_targets(method)
    tracer = Tracer(targets, count_tape=trace)
    with tracer:
        cfg = load_config(workload, seed, out_dir)
        runner.load_bundle(cfg.data)
        ready = time.monotonic()
        t0 = time.perf_counter()
        runner.run(cfg)
        run_s = time.perf_counter() - t0
    result = {"ready": ready, "run_s": run_s, **phase_times(tracer.spans)}
    if trace:
        layers = layer_stats(tracer, targets)
        predicted = layers["supernet.DiscreteNetwork.predict.examples"]
        layers["supernet.DiscreteNetwork.predict.useful_ratio"] = (
            useful_predictions(cfg) / predicted if predicted else 0.0
        )
        result["layers"] = layers
        if spans_path is not None:
            tracer.write_spans(spans_path)
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None, help="write traced spans here (JSONL)")
    args = p.parse_args(argv)
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.out, bool(args.trace),
                          args.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    import numpy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    result["versions"] = {"numpy": numpy.__version__,
                          "blas": f"{blas['name']} {blas['version']}"}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
