"""gupcert benchmark: one workload per invocation, run from the repo root.

    python3 bench/run.py --workload verify_light --seed 0 --seconds 25 --trace 0

Each workload runs in its own worker process (``worker.py``) with
``OPENBLAS_NUM_THREADS=1``, ``OMP_NUM_THREADS=1`` and ``THREADS`` unset,
sending one op at a time from one thread (a closed loop with one client).
With ``--trace 0`` the run reports the end-to-end metrics: set-up time
(median over fresh processes), median pass time, peak RSS and the share of
ops that succeeded with correct outputs.  With ``--trace 1`` it reports the
per-layer metrics from passes traced by ``tracer.py``, alternated with
untraced passes for the tracing overhead.  The last stdout line is the
result object; the line before it holds machine info, quartiles, sample
counts and every failed op.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 2          # extra fresh processes timed for set-up only
TIME_LIMIT_S = 170.0

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB",
              "ok_frac": "1"}
PER_LAYER = {
    "transform.x_density.self_s": "s", "transform.x_density.calls": "count",
    "transform.x_nodes": "count", "transform.density_q_to_k.self_s": "s",
    "core.catalog_state.self_s": "s", "core.q_nodes": "count",
    "entropy.density_cdf.self_s": "s", "entropy.density_cdf.calls": "count",
    "entropy.bin_density.self_s": "s", "entropy.bin_density.calls": "count",
    "entropy.bins": "count", "entropy.bin_density.repeat_frac": "1",
    "entropy.discrete.self_s": "s", "entropy.differential.self_s": "s",
    "entropy.differential.calls": "count",
    "measurement.j_profile.self_s": "s", "measurement.j_evals": "count",
    "measurement.smear.self_s": "s", "measurement.smear_nodes": "count",
    "measurement.s_f.self_s": "s", "relations.check.self_s": "s",
    "relations.records": "count", "suite.self_s": "s",
    "suite.render.self_s": "s", "cpu_s": "s", "trace_overhead_frac": "1",
    "trace_coverage_frac": "1",
}


class WorkerError(RuntimeError):
    pass


def pinned_env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env.pop("THREADS", None)
    return env


def spawn(worker_args: list, env: dict, deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *worker_args,
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker exceeded the time limit")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=0,
                    help="run only the first N ops of each pass (smoke test)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gupcert" / "__init__.py").is_file():
        print(f"no gupcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    env = pinned_env()
    load_start = os.getloadavg()[0]
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--ops", str(args.ops)]
    try:
        setups = [] if args.trace else [
            spawn(common + ["--probe"], env, deadline)["setup_s"]
            for _ in range(SETUP_PROBES)]
        res = spawn(common, env, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])
    load_end = os.getloadavg()[0]

    attempted, failed = res["attempted"], res["failed"]
    correct = not res["mismatches"] and len(res["report_sha256"]) == 1
    if args.trace:
        correct = correct and res["counts_repeat"]
        values = res["per_layer"]
        units = PER_LAYER
    else:
        values = {"setup_s": statistics.median(setups),
                  "pass_s": res["pass_s"]["median"],
                  "peak_rss_mb": res["peak_rss_mb"],
                  "ok_frac": (attempted - failed) / attempted}
        units = END_TO_END
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": dict(res["machine"], nproc=os.cpu_count(),
                        OPENBLAS_NUM_THREADS=env["OPENBLAS_NUM_THREADS"],
                        OMP_NUM_THREADS=env["OMP_NUM_THREADS"],
                        THREADS=env.get("THREADS"),
                        loadavg_1m_start=load_start, loadavg_1m_end=load_end),
        "setup_s_samples": setups, "pass_s": res["pass_s"],
        "traced_pass_s": res.get("traced_pass_s"),
        "fail_frac": failed / attempted, "failures": res["failures"],
        "mismatches": res["mismatches"],
        "report_sha256": res["report_sha256"],
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
