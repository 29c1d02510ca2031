import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


# the warning filters of the test run (pyproject.toml), so that a warning
# in a demo fails it as it would fail a test
WARNINGS_AS_ERRORS = ["-W", "error::RuntimeWarning",
                      "-W", "error::DeprecationWarning",
                      "-W", "error::PendingDeprecationWarning"]


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    # run from the repository root so a relative PYTHONPATH resolves as it
    # does for the test process itself
    proc = subprocess.run([sys.executable, *WARNINGS_AS_ERRORS, str(script)],
                          cwd=ROOT, env=os.environ.copy(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_uses_public_names(script):
    # a demo shows the library as a user sees it: no underscore name is
    # imported from gupcert or read off a gupcert module
    tree = ast.parse(script.read_text(), filename=str(script))
    bound, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names
                         if a.name.split(".")[0] == "gupcert")
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "gupcert":
            private += [a.name for a in node.names if _private(a.name)]
            private += [m for m in node.module.split(".") if _private(m)]
            bound.update(a.asname or a.name for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                private.append(node.attr)
    assert not private, f"{script.name} uses {private}"
