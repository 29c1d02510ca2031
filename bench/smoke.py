"""Smoke test of the benchmark itself; run from the repo root:

    python3 bench/smoke.py

For every workload it runs one op for one pass, untraced and traced, and
checks that every metric named in BENCHMARK.json is printed with its unit,
that the outputs pass the check, and that traced and untraced passes render
byte-identical reports.  It also checks that the benchmark refuses to run
in a copy holding only BENCHMARK.json and the benchmark's own files.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace),
           "--ops", "1"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"smoke test failed: {what}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        shas = {}
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            check(proc.returncode == 0,
                  f"{workload} trace={trace} exited {proc.returncode}: "
                  f"{proc.stderr[-500:]}")
            lines = proc.stdout.strip().splitlines()
            result, detail = json.loads(lines[-1]), json.loads(lines[-2])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload}: result keys {sorted(result)}")
            check(result["correct"], f"{workload} trace={trace}: output check "
                  f"failed: {detail['mismatches']}")
            for metric in spec[group]:
                got = result["metrics"].get(metric["name"])
                check(got is not None and got["unit"] == metric["unit"],
                      f"{workload}: metric {metric['name']} printed as {got}")
            check(len(detail["report_sha256"]) == 1,
                  f"{workload} trace={trace}: passes rendered different reports")
            shas[trace] = detail["report_sha256"][0]
        check(shas[0] == shas[1],
              f"{workload}: traced and untraced reports differ")
        print(f"{workload}: ok", flush=True)

    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(
        "out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "the benchmark ran without the program's sources")
    print("bare copy: refused as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
