import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    # run from the repository root so a relative PYTHONPATH resolves as it
    # does for the test process itself
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT,
                          env=os.environ.copy(), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
