"""Print the sha256 of every report the library renders, one per line.

    PYTHONPATH=src python tests/report_digests.py

covers the default `verify` JSON and CSV, the beta, sigma and alpha sweeps
at the default config, the stdout of each demo and each report that
`tests/test_golden.py` renders.  Two trees print the same lines exactly
when those bytes agree, so a change meant to keep every report byte is
checked by running this at the parent and at the change, once under
OpenBLAS's default threads and once with OPENBLAS_NUM_THREADS=1, and
comparing the outputs.  pytest does not collect this file.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from gupcert import suite
from test_golden import _reports

ROOT = Path(__file__).resolve().parent.parent


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests() -> list[tuple[str, str]]:
    """(name, sha256) of each report, in a fixed order."""
    config = suite.load_config()
    records, _ = suite.run_verify(config)
    rows = [("verify.json", _sha(suite.render_json(records, config))),
            ("verify.csv", _sha(suite.render_csv(records)))]
    for param in ("beta", "sigma", "alpha"):
        rows.append((f"sweep_{param}.json", _sha(suite.render_json(
            suite.run_sweep(config, param), config))))
    for script in sorted((ROOT / "demos").glob("*.py")):
        proc = subprocess.run([sys.executable, str(script)], cwd=ROOT,
                              env=os.environ.copy(), capture_output=True,
                              text=True, check=True, timeout=300)
        rows.append((f"demos/{script.name}", _sha(proc.stdout)))
    rows.extend((f"golden/{key}", _sha(text))
                for key, text in sorted(_reports().items()))
    return rows


if __name__ == "__main__":
    for name, digest in digests():
        print(f"{digest}  {name}")
