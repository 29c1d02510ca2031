"""Certification suite: cross-product runs, sweeps, and deterministic reports.

The runner walks states x parameters, evaluates every applicable relation
check, and assembles one flat record per check.  `_record` tags each report
with the state and parameters the cell passed in and the bin widths it
names, and renders the tags as the row's input digest.  Records are sorted
by that digest so the report is byte-identical across runs and independent
of the order the cells run in; floats serialize with 17 significant digits.

Verify and the sweeps take one path through a cell: `_bundle` builds the
bundle of a state spec at one beta and `_smeared` gives S_f and the smeared
pair at one sigma; `entropy.bin_pair` bins each pair on the cell's own
generator and keeps only the power sums of the orders the cell's binned
rows read.  Every check runs for every order pair; the densities and
binned sums keep their Shannon entropies, so the degenerate pair (1, 1),
whose Beckner and smeared Renyi rows are the Shannon ones, takes none
twice.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import relations as rel
from .core import (BOX_STATES, CATALOG_NAMES, _finite, _seed, catalog_state,
                   check_catalog_args, make_params)
from .entropy import bin_pair, diff_shannon
from .errors import (ConfigError, GupcertError, InvalidParameterError,
                     ResolutionError)
from .measurement import gaussian_acceptance, s_f, smear
from .transform import bundle

_SHOW_MAX_ROWS = 2000  # show-state thins each density table to about this
# a row's tags, the inputs its digest renders, and the sides of its report
_TAGS = ("beta", "sigma", "alpha", "gamma", "delta_k", "delta_x")
_SIDES = ("lhs", "rhs", "margin", "est_error")
RECORD_FIELDS = ("relation_id", "state", *_TAGS, *_SIDES, "verdict")

_DEFAULT_STATES = (
    {"name": "raised_cosine_q", "shape_args": [], "seed": None},
    {"name": "truncated_gaussian_q", "shape_args": [0.25], "seed": None},
    {"name": "random_fourier_q", "shape_args": [6], "seed": 11},
    {"name": "uniform_q", "shape_args": [], "seed": None},
)
_STATE_KEYS = ("name", "shape_args", "seed")
_BINS = {"delta_min": 0.05, "delta_max": 2.0, "seed": 5}  # keys and defaults


@dataclass
class RunConfig:
    beta_grid: list = field(default_factory=lambda: [1e-3, 1.0])
    sigma_grid: list = field(default_factory=lambda: [1.0])
    alpha_grid: list = field(default_factory=lambda: [1.5, 2.0])
    states: list = field(default_factory=lambda: [dict(s) for s in _DEFAULT_STATES])
    bins: dict = field(default_factory=lambda: dict(_BINS))
    output_path: str = "gupcert-report.json"
    format: str = "json"

    def validate(self) -> "RunConfig":
        """Check the shape of every value; builds no state.

        Rows are keyed by state name and grid values, so neither may repeat.
        A state's shape_args must be exactly those it uses, and a
        random_fourier_q state needs a seed.
        """
        for name, grid in (("beta_grid", self.beta_grid),
                           ("sigma_grid", self.sigma_grid),
                           ("alpha_grid", self.alpha_grid)):
            if not (isinstance(grid, (list, tuple)) and grid
                    and all(map(_finite, grid))):
                raise ConfigError(f"{name} must be a nonempty list of finite "
                                  "numbers")
            if len(set(grid)) < len(grid):
                raise ConfigError(f"{name} repeats a value")
        if any(b < 0 for b in self.beta_grid):
            raise ConfigError("beta values must be nonnegative")
        if any(s <= 0 for s in self.sigma_grid):
            raise ConfigError("sigma values must be positive")
        if any(a < 1 for a in self.alpha_grid):
            raise ConfigError("alpha values must be >= 1")
        if not (isinstance(self.states, (list, tuple)) and self.states):
            raise ConfigError("need at least one state")
        for spec in self.states:
            if not (isinstance(spec, dict)
                    and spec.get("name") in CATALOG_NAMES
                    and set(spec) <= set(_STATE_KEYS)):
                raise ConfigError(f"state {spec!r} must name one of "
                                  f"{', '.join(CATALOG_NAMES)} and have no "
                                  f"keys but {', '.join(_STATE_KEYS)}")
            args = spec.get("shape_args") or []
            if not isinstance(args, (list, tuple)):
                raise ConfigError(f"state {spec!r} needs a list of numbers "
                                  "as shape_args")
            try:
                check_catalog_args(spec["name"], args, spec.get("seed"))
            except InvalidParameterError as exc:
                raise ConfigError(f"state {spec!r}: {exc}") from exc
        names = [spec["name"] for spec in self.states]
        if len(set(names)) < len(names):
            raise ConfigError("state names must not repeat")
        if not (isinstance(self.bins, dict) and set(self.bins) <= set(_BINS)):
            raise ConfigError(f"bins keys must be among {', '.join(_BINS)}")
        dmin, dmax, seed = self.binning
        if not (_finite(dmin) and _finite(dmax) and 0 < dmin <= dmax
                and _seed(seed)):
            raise ConfigError("bins need 0 < delta_min <= delta_max and an "
                              "integer seed >= 0")
        if self.format not in ("json", "csv"):
            raise ConfigError(f"unknown format {self.format!r}")
        if not isinstance(self.output_path, str):
            raise ConfigError("output_path must be a string")
        return self

    @property
    def binning(self) -> tuple:
        """(delta_min, delta_max, seed) of the random bin edges."""
        bins = {**_BINS, **self.bins}
        return bins["delta_min"], bins["delta_max"], bins["seed"]


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> RunConfig:
    cfg = RunConfig()
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        known = {f.name for f in fields(RunConfig)}  # not its methods
        for key, value in raw.items():
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
            setattr(cfg, key, value)
    for key, value in (overrides or {}).items():
        if value is not None:
            setattr(cfg, key, value)
    return cfg.validate()


# ---------------------------------------------------------------------------
# record assembly
# ---------------------------------------------------------------------------

def _tag(x) -> str:
    return "-" if x is None else format(float(x), ".17g")


def _record(report: rel.RelationReport, state: str, beta: float, sigma=None,
            pair=None) -> dict:
    """One report row; its digest renders the tags the row stores."""
    rid = report.relation_id
    alpha, gamma = (None, None) if pair is None else (pair.alpha, pair.gamma)
    tags = dict(zip(_TAGS, (beta, sigma, alpha, gamma, report.delta_k,
                            report.delta_x)))
    # The norm-ordering digest has always keyed sigma as "-": the bench
    # references and published reports sort and match that row by it.
    keys = dict(tags, sigma=None) if rid == "discrete_norm_ordering" else tags
    digest = ";".join([f"relation={rid}", f"state={state}",
                       *(f"{k}={_tag(v)}" for k, v in keys.items())])
    return {"relation_id": rid, "state": state, **tags,
            **{k: getattr(report, k) for k in _SIDES},
            "verdict": report.verdict, "tolerance": report.tolerance,
            "reason": report.reason, "digest": digest}


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _bundle(spec: dict, beta: float):
    """The bundle of the spec's state at beta; None for a box state at 0.

    Any other state that cannot be built is a configuration error; a
    ResolutionError while bundling names the cell.
    """
    params = make_params(beta)
    if spec["name"] in BOX_STATES and not params.deformed:
        return None
    try:
        state = catalog_state(spec["name"], params,
                              shape_args=spec.get("shape_args") or (),
                              seed=spec.get("seed"))
    except GupcertError as exc:
        raise ConfigError(f"state {spec['name']!r} unusable at beta={beta}: "
                          f"{exc}") from exc
    with _naming_cell(spec["name"], beta):
        return bundle(state)


def _smeared(rep, sigma: float):
    """S_f of the Gaussian acceptance of width sigma and the bundle's
    (wavenumber, position) pair smeared by it."""
    f = gaussian_acceptance(sigma)
    return s_f(f, rep.source.params), (smear(rep.u_k, f), smear(rep.w_x, f))


def _verify_cell(spec: dict, beta: float, config: RunConfig) -> list[dict]:
    """All checks for one (state, beta) cell.

    A ResolutionError names the cell, and the sigma under which it arose.
    """
    label = spec["name"]
    rep = _bundle(spec, beta)
    if rep is None:
        return []
    cell_tag = zlib.crc32(f"{label}:{beta:.17g}".encode()) % 100_000
    dmin, dmax, seed = config.binning
    rng = np.random.default_rng(int(seed) + cell_tag)
    dmin, dmax = float(dmin), float(dmax)
    out: list[dict] = []
    pairs = [rel.conjugate_order(a) for a in config.alpha_grid]
    # the binned rows of a sigma read the orders of every pair (1 at the
    # degenerate pair); those of the unsmeared pair only order 1
    orders = [order for pair in pairs for order in (pair.alpha, pair.gamma)]

    rows = rel.check_bbm_corrected(rep)
    # the unsmeared pair takes rng's first edges
    binned = bin_pair(rng, rep.u_k, rep.w_x, dmin, dmax, (1.0,))
    if binned is not None:
        p_k, p_x = binned
        rows += [rel.check_binning_lemma(rep.u_k, p_k),
                 rel.check_binning_lemma(rep.w_x, p_x),
                 rel.check_binned_shannon(p_k, p_x, rep)]
    rows += [rel.check_jensen(rep), rel.robertson_margin(rep)]
    out.extend(_record(rpt, label, beta) for rpt in rows)

    for pair in pairs:
        out.extend(_record(rpt, label, beta, pair=pair)
                   for rpt in rel.check_beckner(pair, rep))

    for sigma in config.sigma_grid:
        with _naming_cell(label, beta, sigma):
            sf_val, smeared = _smeared(rep, sigma)
            out.extend(_record(rpt, label, beta, sigma=sigma) for rpt in
                       rel.check_smeared_shannon(rep, smeared, sf_val))
            binned = bin_pair(rng, *smeared, dmin, dmax, orders)
            for pair in pairs:
                renyi = rel.check_renyi_smeared(pair, rep, smeared, sf_val)
                if binned is not None:
                    renyi = renyi + rel.check_renyi_binned(pair, *binned, sf_val)
                out.extend(_record(rpt, label, beta, sigma=sigma, pair=pair)
                           for rpt in renyi)
        # the smeared pair goes before the next sigma builds its own
        del smeared
    return out


@contextmanager
def _naming_cell(label: str, beta: float, sigma=None):
    """Re-raise a ResolutionError with the cell appended to its message."""
    try:
        yield
    except ResolutionError as exc:
        cell = f"state={label}, beta={_tag(beta)}"
        if sigma is not None:
            cell += f", sigma={_tag(sigma)}"
        raise ResolutionError(f"{exc} ({cell})") from exc


def _sf_records(config: RunConfig) -> list[dict]:
    out = []
    for beta in config.beta_grid:
        params = make_params(beta)
        for sigma in config.sigma_grid:
            val = s_f(gaussian_acceptance(sigma), params)
            for rpt in rel.check_sf_bounds(val, sigma, beta):
                out.append(_record(rpt, "-", beta, sigma=sigma))
    return out


def run_verify(config: RunConfig) -> tuple[list[dict], int]:
    records = [r for spec in config.states for beta in config.beta_grid
               for r in _verify_cell(spec, beta, config)]
    records.extend(_sf_records(config))
    records.sort(key=lambda r: r["digest"])
    failed = any(r["verdict"] == "fail" for r in records)
    return records, (1 if failed else 0)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def run_sweep(config: RunConfig, param: str) -> list[dict]:
    if param not in ("beta", "sigma", "alpha"):
        raise ConfigError(f"unknown sweep parameter {param!r}")
    records: list[dict] = []
    spec = config.states[0]
    label = spec["name"]
    if param != "beta":  # sigma and alpha sweeps share one state
        beta = config.beta_grid[0]
        rep = _bundle(spec, beta)
        if rep is None:
            raise ConfigError(f"sweep state {label!r} is undefined at "
                              f"beta={beta}")
    if param == "beta":
        for beta in config.beta_grid:
            rep = _bundle(spec, beta)
            if rep is None:
                continue
            records.append(_record(rel.check_correction_term(rep), label,
                                   beta))
            records.extend(_record(r, label, beta)
                           for r in rel.check_bbm_corrected(rep))
        records.extend(_sf_records(config))
    elif param == "sigma":
        for sigma in config.sigma_grid:
            with _naming_cell(label, beta, sigma):
                sf_val, smeared = _smeared(rep, sigma)
                records.extend(_record(r, label, beta, sigma=sigma) for r in
                               rel.check_smeared_shannon(rep, smeared, sf_val))
        records.extend(_sf_records(config))
    else:
        for a in config.alpha_grid:
            pair = rel.conjugate_order(a)
            records.append(_record(rel.check_kappa(pair), "-", beta,
                                   pair=pair))
            records.extend(_record(r, label, beta, pair=pair)
                           for r in rel.check_beckner(pair, rep))
    records.sort(key=lambda r: r["digest"])
    return records


# ---------------------------------------------------------------------------
# state inspection
# ---------------------------------------------------------------------------

def show_state(name: str, beta: float, shape_args=(), seed=None) -> dict:
    """One state's densities, thinned, with their masses and entropies.

    Built as a verify cell is: an unbuildable state, a box state at beta = 0
    included, is a ConfigError.  q0 is the string "inf" at beta = 0.
    """
    rep = _bundle({"name": name, "shape_args": shape_args, "seed": seed}, beta)
    if rep is None:
        raise ConfigError(f"state {name!r} is undefined at beta={beta}")
    q0 = rep.source.params.q0
    densities = {"v_q": rep.v_q, "w_x": rep.w_x, "u_k": rep.u_k}

    def table(density):
        stride = max(1, len(density.grid) // _SHOW_MAX_ROWS)
        return [[float(x), float(p)] for x, p in
                zip(density.grid.nodes[::stride], density.values[::stride])]

    return {
        "state": name, "beta": beta, "q0": q0 if math.isfinite(q0) else "inf",
        "normalization": {key: d.grid.integrate(d.values) + d.tail_mass_bound
                          for key, d in densities.items()},
        "entropies": {
            "H_Q": diff_shannon(rep.v_q).value,
            "H_X": diff_shannon(rep.w_x).value,
            "H_K": diff_shannon(rep.u_k).value,
            "correction": rel.correction_term(rep),
        },
        "tables": {"q": table(rep.v_q), "x": table(rep.w_x), "k": table(rep.u_k)},
    }


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _fmt_float(x) -> str:
    if x is None:
        return "null"
    xf = float(x)
    if math.isnan(xf):
        return "null"
    if math.isinf(xf):
        return '"inf"' if xf > 0 else '"-inf"'
    return format(xf, ".17g")


def render_json(records: list[dict], config: Optional[RunConfig] = None) -> str:
    """The report as JSON text: every record with its margin, est_error and
    tolerance, and a not-applicable record also with the reason."""
    lines = ["{"]
    if config is not None:
        lines.append(f'  "format": "{config.format}",')
    lines.append('  "records": [')
    body = []
    for r in records:
        parts = [f'"relation_id": "{r["relation_id"]}"',
                 f'"state": "{r["state"]}"']
        for key in (*_TAGS, *_SIDES, "tolerance"):
            parts.append(f'"{key}": {_fmt_float(r[key])}')
        parts.append(f'"verdict": "{r["verdict"]}"')
        if r.get("reason"):
            parts.append(f'"reason": {json.dumps(r["reason"])}')
        parts.append(f'"digest": "{r["digest"]}"')
        body.append("    {" + ", ".join(parts) + "}")
    lines.append(",\n".join(body))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_csv(records: list[dict]) -> str:
    def cell(x):
        if x is None:
            return ""
        if isinstance(x, str):
            return x
        xf = float(x)
        return "" if math.isnan(xf) else format(xf, ".17g")

    lines = [",".join(RECORD_FIELDS)]
    for r in records:
        lines.append(",".join(cell(r[k]) for k in RECORD_FIELDS))
    return "\n".join(lines) + "\n"


def write_report(records: list[dict], config: RunConfig) -> None:
    """Write the report in the config's format to its output_path."""
    write_text(config.output_path, render_json(records, config)
               if config.format == "json" else render_csv(records))


def check_writable(path: str) -> None:
    """Raise GupcertError now if a report could not be written to path."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        reason = "Is a directory"
    elif not os.path.isdir(folder):
        reason = "No such file or directory"
    elif not os.access(folder, os.W_OK) or (os.path.exists(path)
                                             and not os.access(path, os.W_OK)):
        reason = "Permission denied"
    else:
        return
    raise GupcertError(f"cannot write {path}: {reason}")


def write_text(path: str, text: str) -> None:
    """Write a report file; an unwritable path raises GupcertError."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise GupcertError(f"cannot write {path}: {exc.strerror or exc}") from exc
