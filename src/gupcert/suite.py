"""Certification suite: cross-product runs, sweeps, and deterministic reports.

The runner walks states x parameters, evaluates every applicable relation
check, and assembles one flat record per check.  Checks return unlabeled
reports; `_record` tags each with the state and parameters the cell passed
in and renders those tags as the row's input digest.  Records are sorted by
that digest so the report is byte-identical across runs and independent of
the order the cells run in; floats serialize with 17 significant digits.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import relations as rel
from .core import (BOX_STATES, CATALOG_NAMES, DensityFn, catalog_state,
                   check_shape_args, make_params)
from .entropy import DensityCdf, as_cdf, bin_density
from .errors import (ConfigError, GupcertError, InvalidParameterError,
                     ResolutionError)
from .measurement import gaussian_acceptance, s_f, smear
from .transform import bundle

_COVERAGE_FRAC = 3e-7  # mass per side left outside a binning window
_SHOW_MAX_ROWS = 2000  # show-state thins each density table to about this
RECORD_FIELDS = ("relation_id", "state", "beta", "sigma", "alpha", "gamma",
                 "delta_k", "delta_x", "lhs", "rhs", "margin", "est_error",
                 "verdict")

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
        A state's shape_args must be exactly those it uses.
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
            args, seed = spec.get("shape_args") or [], spec.get("seed")
            if not (isinstance(args, (list, tuple)) and all(map(_finite, args))
                    and (seed is None or isinstance(seed, numbers.Integral)
                         and seed >= 0)):
                raise ConfigError(f"state {spec!r} needs a list of numbers "
                                  "as shape_args and an integer seed >= 0")
            try:
                check_shape_args(spec["name"], args)
            except InvalidParameterError as exc:
                raise ConfigError(f"state {spec!r}: {exc}") from exc
        names = [spec["name"] for spec in self.states]
        if len(set(names)) < len(names):
            raise ConfigError("state names must not repeat")
        if not (isinstance(self.bins, dict) and set(self.bins) <= set(_BINS)):
            raise ConfigError(f"bins keys must be among {', '.join(_BINS)}")
        dmin, dmax, seed = self.binning
        if not (_finite(dmin) and _finite(dmax) and 0 < dmin <= dmax
                and isinstance(seed, numbers.Integral) and seed >= 0):
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


def _finite(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


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
            alpha=None, gamma=None, delta_k=None, delta_x=None) -> dict:
    """One report row; its digest renders the tags the row stores."""
    rid = report.relation_id
    # The norm-ordering digest has always keyed sigma as "-": the bench
    # references and published reports sort and match that row by it.
    key_sigma = None if rid == "discrete_norm_ordering" else sigma
    digest = (f"relation={rid};state={state};beta={_tag(beta)};"
              f"sigma={_tag(key_sigma)};alpha={_tag(alpha)};gamma={_tag(gamma)};"
              f"delta_k={_tag(delta_k)};delta_x={_tag(delta_x)}")
    return {"relation_id": rid, "state": state, "beta": beta,
            "sigma": sigma, "alpha": alpha, "gamma": gamma,
            "delta_k": delta_k, "delta_x": delta_x, "lhs": report.lhs,
            "rhs": report.rhs, "margin": report.margin,
            "est_error": report.est_error, "verdict": report.verdict,
            "tolerance": report.tolerance, "reason": report.reason,
            "digest": digest}


def _random_edges(rng: np.random.Generator, lo: float, hi: float,
                  dmin: float, dmax: float) -> np.ndarray:
    span = hi - lo
    n_est = int(span / ((dmin + dmax) / 2.0) * 1.3) + 16
    widths = rng.uniform(dmin, dmax, size=n_est)
    edges = lo + np.concatenate([[0.0], np.cumsum(widths)])
    last = int(np.searchsorted(edges, hi))
    return edges[:last + 1]


def _coverage_window(density: DensityFn | DensityCdf) -> tuple[float, float]:
    """Window with less than _COVERAGE_FRAC of the mass beyond each end.

    Uses the tail-model quantile when the model still holds that much mass
    at the window edge; otherwise the quantile comes from the CDF that the
    binning itself then reads, so the coverage precondition of bin_density
    is met by construction.
    """
    cdf = as_cdf(density)
    density = cdf.density
    frac = _COVERAGE_FRAC
    x = density.grid.nodes
    at_nodes = cdf(x)
    m_left, m_right = density.tail_masses
    if m_left > frac:
        lo = -density.tail_left.quantile_beyond(frac)
    else:
        lo = float(x[max(0, np.searchsorted(at_nodes, frac, side="right") - 1)])
    if m_right > frac:
        hi = density.tail_right.quantile_beyond(frac)
    else:
        hi = float(x[min(x.size - 1,
                         np.searchsorted(at_nodes, 1.0 - frac, side="left"))])
    return lo, hi


def _bin_pair(rng: np.random.Generator, a, b, dmin: float, dmax: float):
    """Both densities binned on random edges over their coverage windows.

    Each density's CDF spline is built once, for its window and its bins,
    and dropped on return.  None, with the generator untouched, when the
    two windows together would take tens of millions of bins at these
    widths (very heavy tails).
    """
    cdf_a, cdf_b = DensityCdf(a), DensityCdf(b)
    alo, ahi = _coverage_window(cdf_a)
    blo, bhi = _coverage_window(cdf_b)
    if not ((ahi - alo) + (bhi - blo) < 4e6 * (dmin + dmax) / 2.0):
        return None
    return (bin_density(cdf_a, _random_edges(rng, alo, ahi, dmin, dmax)),
            bin_density(cdf_b, _random_edges(rng, blo, bhi, dmin, dmax)))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _build_state(spec: dict, beta: float):
    """The spec's catalog state, or None for a box state at beta = 0.

    Any other state that cannot be built is a configuration error.
    """
    params = make_params(beta)
    if spec["name"] in BOX_STATES and not params.deformed:
        return None
    try:
        return catalog_state(spec["name"], params,
                             shape_args=spec.get("shape_args") or (),
                             seed=spec.get("seed"))
    except GupcertError as exc:
        raise ConfigError(f"state {spec['name']!r} unusable at beta={beta}: "
                          f"{exc}") from exc


def _verify_cell(spec: dict, beta: float, config: RunConfig) -> list[dict]:
    """All checks for one (state, beta) cell.

    A ResolutionError names the cell, and the sigma under which it arose.
    """
    label = spec["name"]
    state = _build_state(spec, beta)
    if state is None:
        return []
    cell_tag = zlib.crc32(f"{label}:{beta:.17g}".encode()) % 100_000
    dmin, dmax, seed = config.binning
    rng = np.random.default_rng(int(seed) + cell_tag)
    dmin, dmax = float(dmin), float(dmax)
    out: list[dict] = []

    with _naming_cell(label, beta):
        rep = bundle(state)
    # the Fourier-pair, binning-lemma and binned Shannon rows read one set
    # of entropies, so the unsmeared pair is binned, on rng's first edges,
    # before they are taken
    binned = _bin_pair(rng, rep.u_k, rep.w_x, dmin, dmax)
    rows = rel.check_bbm_corrected(rep, binned)
    dk, dx = (None, None) if binned is None else (binned[0].delta_max,
                                                  binned[1].delta_max)
    del binned  # bins are a cell's largest arrays: free them
    widths = ((None, None), (None, None), (dk, None), (None, dx), (dk, dx))
    for rpt, (row_dk, row_dx) in zip(rows, widths):
        out.append(_record(rpt, label, beta, delta_k=row_dk, delta_x=row_dx))
    out.append(_record(rel.check_jensen(rep), label, beta))
    out.append(_record(rel.robertson_margin(rep), label, beta))

    pairs = [rel.conjugate_order(a) for a in config.alpha_grid]
    for pair in pairs:
        for rpt in rel.check_beckner(pair, rep):
            out.append(_record(rpt, label, beta, alpha=pair.alpha,
                               gamma=pair.gamma))

    for sigma in config.sigma_grid:
        with _naming_cell(label, beta, sigma):
            out.extend(_sigma_records(rep, sigma, pairs, rng, dmin, dmax,
                                      label, beta))
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


def _sigma_records(rep, sigma: float, pairs: list, rng: np.random.Generator,
                   dmin: float, dmax: float, label: str,
                   beta: float) -> list[dict]:
    """The smeared and binned checks of one cell at one sigma.

    The smeared densities and their bins, the largest arrays of a cell, are
    freed on return, before the next sigma builds its own.
    """
    out = []
    f = gaussian_acceptance(sigma)
    sf_val = s_f(f, rep.source.params)
    smeared = (smear(rep.u_k, f), smear(rep.w_x, f))
    for rpt in rel.check_smeared_shannon(rep, smeared, sf_val):
        out.append(_record(rpt, label, beta, sigma=sigma))
    binned = _bin_pair(rng, *smeared, dmin, dmax)
    for pair in pairs:
        for rpt in rel.check_renyi_smeared(pair, rep, smeared, sf_val):
            out.append(_record(rpt, label, beta, sigma=sigma,
                               alpha=pair.alpha, gamma=pair.gamma))
        if binned is None:
            continue
        p_m, p_n = binned
        *rows, ordering = rel.check_renyi_binned(pair, p_m, p_n, sf_val)
        for rpt in rows:
            out.append(_record(rpt, label, beta, sigma=sigma,
                               alpha=pair.alpha, gamma=pair.gamma,
                               delta_k=p_m.delta_max, delta_x=p_n.delta_max))
        out.append(_record(ordering, label, beta, sigma=sigma,
                           alpha=pair.alpha, gamma=pair.gamma,
                           delta_k=p_m.delta_max))
    return out


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
        state = _build_state(spec, beta)
        if state is None:
            raise ConfigError(f"sweep state {label!r} is undefined at "
                              f"beta={beta}")
        with _naming_cell(label, beta):
            rep = bundle(state)
    if param == "beta":
        for beta in config.beta_grid:
            state = _build_state(spec, beta)
            if state is None:
                continue
            with _naming_cell(label, beta):
                rep = bundle(state)
            rpt = rel.check_correction_term(rep)
            records.append(_record(rpt, label, beta))
            for r in rel.check_bbm_corrected(rep):
                records.append(_record(r, label, beta))
        records.extend(_sf_records(config))
    elif param == "sigma":
        for sigma in config.sigma_grid:
            f = gaussian_acceptance(sigma)
            with _naming_cell(label, beta, sigma):
                smeared = (smear(rep.u_k, f), smear(rep.w_x, f))
            for r in rel.check_smeared_shannon(rep, smeared,
                                               s_f(f, state.params)):
                records.append(_record(r, label, beta, sigma=sigma))
        records.extend(_sf_records(config))
    else:
        for a in config.alpha_grid:
            pair = rel.conjugate_order(a)
            rpt = rel.check_kappa(pair)
            records.append(_record(rpt, "-", beta, alpha=pair.alpha,
                                   gamma=pair.gamma))
            for r in rel.check_beckner(pair, rep):
                records.append(_record(r, label, beta, alpha=pair.alpha,
                                       gamma=pair.gamma))
    records.sort(key=lambda r: r["digest"])
    return records


# ---------------------------------------------------------------------------
# state inspection
# ---------------------------------------------------------------------------

def show_state(name: str, beta: float, shape_args=(), seed=None) -> dict:
    from .entropy import diff_shannon

    params = make_params(beta)
    state = catalog_state(name, params, shape_args=shape_args, seed=seed)
    rep = bundle(state)

    def table(density):
        n = len(density.grid)
        stride = max(1, n // _SHOW_MAX_ROWS)
        idx = np.arange(0, n, stride)
        return [[float(density.grid.nodes[i]), float(density.values[i])]
                for i in idx]

    return {
        "state": name, "beta": beta, "q0": params.q0,
        "normalization": {
            "v_q": rep.v_q.grid.integrate(rep.v_q.values) + rep.v_q.tail_mass_bound,
            "w_x": rep.w_x.grid.integrate(rep.w_x.values) + rep.w_x.tail_mass_bound,
            "u_k": rep.u_k.grid.integrate(rep.u_k.values) + rep.u_k.tail_mass_bound,
        },
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
        for key in ("beta", "sigma", "alpha", "gamma", "delta_k", "delta_x",
                    "lhs", "rhs", "margin", "est_error", "tolerance"):
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


def write_report(records: list[dict], config: RunConfig, path: str) -> None:
    write_text(path, render_json(records, config) if config.format == "json"
               else render_csv(records))


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
