"""The traced benchmark wraps library functions by name; they must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_layers_name_existing_functions():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{name}"
               for module, names in tracer.LAYERS.values()
               for name in names
               if not callable(getattr(importlib.import_module(
                   "gupcert." + module), name, None))]
    assert missing == []
