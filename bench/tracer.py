"""Span tracer for the traced benchmark run.

The tracer wraps public gupcert functions from the outside: each wrapped
call records a span (name, start, end, parent span, op id) in memory, and a
few wrappers also count the work the call did (nodes, bins, J evaluations).
A function is patched in its defining module and under every other name the
package binds it to (``suite`` and ``relations`` import most of them with
``from ... import``), so calls made through any of those names are seen.
``uninstall`` restores the original functions, so untraced passes run the
library exactly as shipped.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

# Layer groups, named after the modules that define the wrapped functions.
# Each entry maps a group to (module name, function names).
LAYERS = {
    "core.catalog_state": ("core", ("catalog_state",)),
    "transform.density_q_to_k": ("transform", ("density_q_to_k",)),
    "transform.x_density": ("transform", ("x_density",)),
    "entropy.density_cdf": ("entropy", ("density_cdf",)),
    "entropy.bin_density": ("entropy", ("bin_density",)),
    "entropy.differential": ("entropy", ("diff_shannon", "diff_renyi",
                                         "alpha_norm")),
    "entropy.discrete": ("entropy", ("discrete_norm", "discrete_renyi",
                                     "discrete_tsallis")),
    "measurement.smear": ("measurement", ("smear",)),
    "measurement.s_f": ("measurement", ("s_f",)),
    "measurement.j_profile": ("measurement", ("j_profile",)),
    "relations.check": ("relations", (
        "check_bbm_corrected", "check_beckner", "check_binned_shannon",
        "check_binning_lemma", "check_jensen", "check_norm_ordering",
        "check_renyi_binned", "check_renyi_smeared", "check_smeared_shannon",
        "check_tsallis_binned", "conjugate_order", "correction_term",
        "kappa", "robertson_margin")),
    "suite": ("suite", ("run_verify", "run_sweep")),
    "suite.render": ("suite", ("render_json", "write_report")),
}

# Modules scanned for other bindings of a wrapped function.
_BINDING_MODULES = ("gupcert", "gupcert.core", "gupcert.transform",
                    "gupcert.entropy", "gupcert.measurement",
                    "gupcert.relations", "gupcert.suite")


class Tracer:
    """Records spans and work counts while installed."""

    def __init__(self):
        self.spans: list[list] = []   # [name, group, start, end, parent, op]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = None
        self._binned: dict = {}       # (id(density), id(edges)) -> refs
        self._patches: list[tuple] = []

    # -- pass and op bookkeeping -------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._binned = {}

    def begin_op(self, op_id: str) -> None:
        self._op = op_id
        self._binned = {}

    # -- counting hooks ----------------------------------------------------

    def _count(self, name: str, args, kwargs, result) -> None:
        c = self.counts
        if name == "catalog_state":
            c["core.q_nodes"] += len(result.grid)
        elif name == "x_density":
            c["transform.x_nodes"] += len(result.grid)
        elif name == "smear":
            c["measurement.smear_nodes"] += len(result.grid)
        elif name == "j_profile":
            zeta_grid = args[2] if len(args) > 2 else kwargs["zeta_grid"]
            c["measurement.j_evals"] += len(zeta_grid)
        elif name == "bin_density":
            density = args[0] if args else kwargs["density"]
            edges = args[1] if len(args) > 1 else kwargs["edges"]
            c["entropy.bins"] += len(edges) - 1
            # holding the pair keeps both ids unique for the rest of the op
            key = (id(density), id(edges))
            if key in self._binned:
                c["entropy.bin_density.repeats"] += 1
            else:
                self._binned[key] = (density, edges)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, group: str, fn):
        name = fn.__name__
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            span = [name, group, time.perf_counter(), None, parent, tracer._op]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
            tracer.counts[group + ".calls"] += 1
            tracer._count(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import importlib

        if self._patches:
            return
        modules = [importlib.import_module(m) for m in _BINDING_MODULES]
        for group, (module, names) in LAYERS.items():
            home = importlib.import_module("gupcert." + module)
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(group, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per layer group: span time minus its children's time."""
        child = [0.0] * len(self.spans)
        for name, group, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, group, start, end, parent, op) in enumerate(self.spans):
            out[group] = out.get(group, 0.0) + (end - start) - child[i]
        return out

    def span_records(self) -> list[dict]:
        return [{"name": n, "layer": g, "start": s, "end": e, "parent": p,
                 "op": o} for n, g, s, e, p, o in self.spans]
