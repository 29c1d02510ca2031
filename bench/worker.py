"""Benchmark worker: set up one workload, then time passes over it.

Started by ``run.py`` with a pinned environment; not meant to be run by
hand.  Set-up time runs from the parent's spawn timestamp (``--spawned-at``,
a ``time.monotonic`` reading, which is system-wide on Linux) until imports,
inputs, references and one warm-up cell are done.  With ``--probe`` the
worker stops there.  Otherwise it runs passes until ``--seconds`` would be
exceeded: every pass untraced with ``--trace 0``; untraced and traced passes
alternating with ``--trace 1``.  The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Counts reported as they are; each repeats exactly between passes.
COUNTS = ("transform.x_density.calls", "transform.x_nodes", "core.q_nodes",
          "entropy.density_cdf.calls", "entropy.bin_density.calls",
          "entropy.bins", "entropy.differential.calls",
          "measurement.j_evals", "measurement.smear_nodes")


def _quartiles(values: list) -> dict:
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def _machine() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


def run_pass(workload, render, tracer=None) -> dict:
    """Every op of the workload, then the merged report; failures recorded."""
    outputs = {}
    c0 = time.process_time()
    t0 = time.perf_counter()
    for op in workload.ops:
        if tracer is not None:
            tracer.begin_op(op.name)
        try:
            outputs[op.name] = op.call()
        except Exception as exc:  # a failed op is recorded; the pass goes on
            outputs[op.name] = exc
    report = render(workload, outputs)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return {"outputs": outputs, "report": report, "wall": wall, "cpu": cpu}


def _layer_metrics(tracer, wall: float, records: int) -> tuple[dict, dict]:
    from tracer import LAYERS

    self_times = tracer.self_times()
    out = {f"{group}.self_s": self_times.get(group, 0.0) for group in LAYERS}
    counts = {name: tracer.counts.get(name, 0) for name in COUNTS}
    calls = counts["entropy.bin_density.calls"]
    repeats = tracer.counts.get("entropy.bin_density.repeats", 0)
    counts["entropy.bin_density.repeat_frac"] = repeats / calls if calls else 0.0
    counts["relations.records"] = records
    out["trace_coverage_frac"] = sum(self_times.values()) / wall
    return out, counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--ops", type=int, default=0,
                    help="run only the first N ops of each pass (smoke test)")
    ap.add_argument("--probe", action="store_true",
                    help="stop after set-up and report its time")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import gupcert

    if not Path(gupcert.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"gupcert imported from {gupcert.__file__}, not from the "
              "checkout", file=sys.stderr)
        return 2
    import workloads as wl

    workload = wl.build(args.workload, args.seed)
    if args.ops:
        workload.ops = workload.ops[:args.ops]
    ref_path = BENCH / "reference" / f"{args.workload}.json"
    reference = None
    if ref_path.is_file():
        with open(ref_path, encoding="utf-8") as fh:
            reference = json.load(fh)
    wl.warm_up()
    gc.collect()
    setup_s = time.monotonic() - args.spawned_at
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from tracer import Tracer

    tracer = Tracer()
    kinds = itertools.cycle(("untraced", "traced") if args.trace else
                            ("untraced",))
    walls = {"untraced": [], "traced": []}
    cpus, layer_samples, count_samples = [], [], []
    attempted = failed = 0
    failures, mismatches, report_sha = {}, {}, set()
    last = None
    t_start = time.perf_counter()
    while True:
        kind = next(kinds)
        gc.collect()
        if kind == "traced":
            tracer.reset()
            tracer.install()
        try:
            result = run_pass(workload, wl.render,
                              tracer if kind == "traced" else None)
        finally:
            tracer.uninstall()
        walls[kind].append(result["wall"])
        outputs = result["outputs"]
        serialized = wl.serialize(workload, outputs)
        bad = wl.check(workload, serialized, reference) if reference else \
            {name: "no stored reference" for name in outputs}
        for name, out in outputs.items():
            attempted += 1
            if isinstance(out, Exception):
                failed += 1
                failures[name] = {"op": name, "error": type(out).__name__,
                                  "message": str(out)}
            elif name in bad:
                failed += 1
                mismatches[name] = bad[name]
        report_sha.add(hashlib.sha256(result["report"].encode()).hexdigest())
        if kind == "traced":
            records = sum(len(o) for o in outputs.values()
                          if isinstance(o, list))
            layers, counts = _layer_metrics(tracer, result["wall"], records)
            layer_samples.append(layers)
            count_samples.append(counts)
            spans = tracer.span_records()
        else:
            cpus.append(result["cpu"])
        last = serialized

        elapsed = time.perf_counter() - t_start
        enough = walls["untraced"] and (walls["traced"] or not args.trace)
        upcoming = walls["traced" if kind == "untraced" and args.trace
                         else "untraced"] or walls[kind]
        if enough and elapsed + statistics.median(upcoming) > args.seconds:
            break

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    with open(OUT / f"{stem}.outputs.json", "w", encoding="utf-8") as fh:
        json.dump(last, fh, indent=1)
    result = {
        "setup_s": setup_s,
        "pass_s": _quartiles(walls["untraced"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted, "failed": failed,
        "failures": list(failures.values()), "mismatches": mismatches,
        "report_sha256": sorted(report_sha),
        "machine": _machine(),
    }
    if args.trace:
        with open(OUT / f"{stem}.trace.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": spans}, fh)
        traced = statistics.median(walls["traced"])
        untraced = statistics.median(walls["untraced"])
        layers = {k: statistics.median(s[k] for s in layer_samples)
                  for k in layer_samples[0]}
        layers.update(count_samples[0])
        layers["cpu_s"] = statistics.median(cpus)
        layers["trace_overhead_frac"] = traced / untraced - 1.0
        result["per_layer"] = layers
        result["traced_pass_s"] = _quartiles(walls["traced"])
        result["counts_repeat"] = all(c == count_samples[0]
                                      for c in count_samples)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
