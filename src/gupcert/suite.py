"""Certification suite: cross-product runs, sweeps, and deterministic reports.

The runner walks states x parameters, evaluates every applicable relation
check, and assembles one flat record per check.  Records are sorted by their
input digest so the report is byte-identical across runs and independent of
any parallel completion order; floats serialize with 17 significant digits.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import relations as rel
from .core import catalog_state, make_params
from .entropy import bin_density
from .errors import ConfigError, GupcertError
from .measurement import gaussian_acceptance, s_f, smear
from .transform import bundle

RECORD_FIELDS = ("relation_id", "state", "beta", "sigma", "alpha", "gamma",
                 "delta_k", "delta_x", "lhs", "rhs", "margin", "est_error",
                 "verdict")

_DEFAULT_STATES = (
    {"name": "raised_cosine_q", "shape_args": [], "seed": None},
    {"name": "truncated_gaussian_q", "shape_args": [0.25], "seed": None},
    {"name": "random_fourier_q", "shape_args": [6], "seed": 11},
    {"name": "uniform_q", "shape_args": [], "seed": None},
)


@dataclass
class RunConfig:
    beta_grid: list = field(default_factory=lambda: [1e-3, 1.0])
    sigma_grid: list = field(default_factory=lambda: [1.0])
    alpha_grid: list = field(default_factory=lambda: [1.5, 2.0])
    states: list = field(default_factory=lambda: [dict(s) for s in _DEFAULT_STATES])
    bins: dict = field(default_factory=lambda: {"delta_min": 0.05,
                                                "delta_max": 2.0, "seed": 5})
    tolerances: dict = field(default_factory=dict)
    margin_offset: float = 0.0
    output_path: str = "gupcert-report.json"
    format: str = "json"

    def validate(self) -> "RunConfig":
        for name, grid in (("beta_grid", self.beta_grid),
                           ("sigma_grid", self.sigma_grid),
                           ("alpha_grid", self.alpha_grid)):
            if not grid:
                raise ConfigError(f"{name} must be nonempty")
        if any(b < 0 for b in self.beta_grid):
            raise ConfigError("beta values must be nonnegative")
        if any(s <= 0 for s in self.sigma_grid):
            raise ConfigError("sigma values must be positive")
        if any(a < 1 for a in self.alpha_grid):
            raise ConfigError("alpha values must be >= 1")
        if not self.states:
            raise ConfigError("need at least one state")
        for tol in self.tolerances.values():
            if tol is not None and tol < 0:
                raise ConfigError("tolerances must be nonnegative")
        if self.format not in ("json", "csv"):
            raise ConfigError(f"unknown format {self.format!r}")
        return self


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
        for key, value in raw.items():
            if not hasattr(cfg, key):
                raise ConfigError(f"unknown config key {key!r}")
            setattr(cfg, key, value)
    for key, value in (overrides or {}).items():
        if value is not None:
            setattr(cfg, key, value)
    return cfg.validate()


# ---------------------------------------------------------------------------
# record assembly
# ---------------------------------------------------------------------------

def _record(report: rel.RelationReport, state: str, beta: float, sigma=None,
            alpha=None, gamma=None, delta_k=None, delta_x=None) -> dict:
    return {"relation_id": report.relation_id, "state": state, "beta": beta,
            "sigma": sigma, "alpha": alpha, "gamma": gamma,
            "delta_k": delta_k, "delta_x": delta_x, "lhs": report.lhs,
            "rhs": report.rhs, "margin": report.margin,
            "est_error": report.est_error, "verdict": report.verdict,
            "tolerance": report.tolerance, "digest": report.inputs_digest}


def _apply_fixture(records: list[dict], config: RunConfig) -> None:
    """Re-derive verdicts under tolerance overrides and the injected offset.

    margin_offset is a test fixture for exercising the failure path: it
    shifts every margin before the verdict is recomputed.
    """
    if config.margin_offset == 0.0 and not config.tolerances:
        return
    for r in records:
        if r["verdict"] == "not_applicable":
            continue
        margin = r["margin"] - config.margin_offset
        tol = config.tolerances.get(
            r["relation_id"], config.tolerances.get("default"))
        if tol is None:
            tol = r["tolerance"]
        r["margin"] = margin
        r["verdict"] = "pass" if margin >= -tol else "fail"


def _random_edges(rng: np.random.Generator, lo: float, hi: float,
                  dmin: float, dmax: float) -> np.ndarray:
    span = hi - lo
    n_est = int(span / ((dmin + dmax) / 2.0) * 1.3) + 16
    widths = rng.uniform(dmin, dmax, size=n_est)
    edges = lo + np.concatenate([[0.0], np.cumsum(widths)])
    last = int(np.searchsorted(edges, hi))
    return edges[:last + 1]


def _coverage_window(density, frac: float = 3e-7) -> tuple[float, float]:
    """Window outside of which less than frac of the mass lives per side.

    Uses the analytic tail-model quantile when the model still holds frac of
    the mass at the window edge; otherwise the quantile comes from the same
    interpolated CDF the binning operation itself uses, so the coverage
    precondition of bin_density is met by construction.
    """
    from .entropy import density_cdf

    x = density.grid.nodes
    cdf = density_cdf(density, x)
    m_left, m_right = density.tail_masses

    if m_left > frac:
        side = density.tail_left
        lo = -((side.coeff / ((side.exponent - 1.0) * frac))
               ** (1.0 / (side.exponent - 1.0)))
    else:
        lo = float(x[max(0, np.searchsorted(cdf, frac, side="right") - 1)])
    if m_right > frac:
        side = density.tail_right
        hi = ((side.coeff / ((side.exponent - 1.0) * frac))
              ** (1.0 / (side.exponent - 1.0)))
    else:
        hi = float(x[min(x.size - 1, np.searchsorted(cdf, 1.0 - frac, side="left"))])
    return lo, hi


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _build_state(spec: dict, beta: float):
    params = make_params(beta)
    return catalog_state(spec["name"], params,
                         shape_args=spec.get("shape_args") or (),
                         seed=spec.get("seed"))


def _verify_cell(spec: dict, beta: float, config: RunConfig) -> list[dict]:
    """All checks for one (state, beta) cell."""
    label = spec["name"]
    try:
        state = _build_state(spec, beta)
    except GupcertError:
        return []  # state undefined at this beta (flat states need beta > 0)
    rep = bundle(state)
    params = state.params
    out: list[dict] = []

    for rpt in rel.check_bbm_corrected(state, rep, label):
        out.append(_record(rpt, label, beta))
    out.append(_record(rel.check_jensen(state, rep, label), label, beta))
    out.append(_record(rel.robertson_margin(state, rep, label), label, beta))

    pairs = [rel.conjugate_order(a) for a in config.alpha_grid]
    for pair in pairs:
        for rpt in rel.check_beckner(state, pair, rep, label):
            out.append(_record(rpt, label, beta, alpha=pair.alpha,
                               gamma=pair.gamma))

    cell_tag = zlib.crc32(f"{label}:{beta:.17g}".encode()) % 100_000
    rng = np.random.default_rng(int(config.bins.get("seed", 5)) + cell_tag)
    dmin = float(config.bins.get("delta_min", 0.05))
    dmax = float(config.bins.get("delta_max", 2.0))

    klo, khi = _coverage_window(rep.u_k)
    xlo, xhi = _coverage_window(rep.w_x)
    # binning the coverage window of a very heavy tail at these widths can
    # take tens of millions of bins; skip the binned set for such cells
    bins_ok = (khi - klo) + (xhi - xlo) < 4e6 * (dmin + dmax) / 2.0
    if bins_ok:
        p_k = bin_density(rep.u_k, _random_edges(rng, klo, khi, dmin, dmax))
        p_x = bin_density(rep.w_x, _random_edges(rng, xlo, xhi, dmin, dmax))
        dk, dx = p_k.delta_max, p_x.delta_max
        out.append(_record(rel.check_binning_lemma(rep.u_k, p_k, beta, label,
                                                   axis="k"),
                           label, beta, delta_k=dk))
        out.append(_record(rel.check_binning_lemma(rep.w_x, p_x, beta, label,
                                                   axis="x"),
                           label, beta, delta_x=dx))
        out.append(_record(rel.check_binned_shannon(state, p_k, p_x, rep,
                                                    label),
                           label, beta, delta_k=dk, delta_x=dx))

    for sigma in config.sigma_grid:
        f = gaussian_acceptance(sigma)
        sf_val = s_f(f, params)
        smeared = (smear(rep.u_k, f), smear(rep.w_x, f))
        for rpt in rel.check_smeared_shannon(state, f, rep, smeared, sf_val,
                                             label):
            out.append(_record(rpt, label, beta, sigma=sigma))
        zlo, zhi = _coverage_window(smeared[0])
        xilo, xihi = _coverage_window(smeared[1])
        smeared_bins_ok = (zhi - zlo) + (xihi - xilo) < 4e6 * (dmin + dmax) / 2.0
        if smeared_bins_ok:
            p_m = bin_density(smeared[0],
                              _random_edges(rng, zlo, zhi, dmin, dmax))
            p_n = bin_density(smeared[1],
                              _random_edges(rng, xilo, xihi, dmin, dmax))
        for pair in pairs:
            for rpt in rel.check_renyi_smeared(state, f, pair, rep, smeared,
                                               sf_val, label):
                out.append(_record(rpt, label, beta, sigma=sigma,
                                   alpha=pair.alpha, gamma=pair.gamma))
            if not smeared_bins_ok:
                continue
            renyi, ordering = rel.check_binned_orders(state, f, pair, p_m,
                                                      p_n, sf_val, label)
            for rpt in renyi + rel.check_tsallis_binned(state, f, pair, p_m,
                                                        p_n, sf_val, label):
                out.append(_record(rpt, label, beta, sigma=sigma,
                                   alpha=pair.alpha, gamma=pair.gamma,
                                   delta_k=p_m.delta_max,
                                   delta_x=p_n.delta_max))
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
    cells = [(spec, beta) for spec in config.states for beta in config.beta_grid]
    threads = int(os.environ.get("THREADS", "1") or "1")
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            batches = list(pool.map(
                lambda cb: _verify_cell(cb[0], cb[1], config), cells))
    else:
        batches = [_verify_cell(spec, beta, config) for spec, beta in cells]
    records = [r for batch in batches for r in batch]
    records.extend(_sf_records(config))
    _apply_fixture(records, config)
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
    if param == "beta":
        for beta in config.beta_grid:
            try:
                state = _build_state(spec, beta)
            except GupcertError:
                continue
            rep = bundle(state)
            rpt = rel.check_correction_term(state, rep, spec["name"])
            records.append(_record(rpt, spec["name"], beta))
            for r in rel.check_bbm_corrected(state, rep, spec["name"]):
                records.append(_record(r, spec["name"], beta))
        records.extend(_sf_records(config))
    elif param == "sigma":
        beta = config.beta_grid[0]
        try:
            state = _build_state(spec, beta)
            rep = bundle(state)
        except GupcertError as exc:
            raise ConfigError(f"sweep state unusable at beta={beta}: {exc}")
        for sigma in config.sigma_grid:
            f = gaussian_acceptance(sigma)
            smeared = (smear(rep.u_k, f), smear(rep.w_x, f))
            for r in rel.check_smeared_shannon(state, f, rep, smeared,
                                               s_f(f, state.params),
                                               spec["name"]):
                records.append(_record(r, spec["name"], beta, sigma=sigma))
        records.extend(_sf_records(config))
    else:
        beta = config.beta_grid[0]
        try:
            state = _build_state(spec, beta)
            rep = bundle(state)
        except GupcertError as exc:
            raise ConfigError(f"sweep state unusable at beta={beta}: {exc}")
        for a in config.alpha_grid:
            pair = rel.conjugate_order(a)
            rpt = rel.check_kappa(pair, beta)
            records.append(_record(rpt, "-", beta, alpha=pair.alpha,
                                   gamma=pair.gamma))
            for r in rel.check_beckner(state, pair, rep, spec["name"]):
                records.append(_record(r, spec["name"], beta, alpha=pair.alpha,
                                       gamma=pair.gamma))
    _apply_fixture(records, config)
    records.sort(key=lambda r: r["digest"])
    return records


# ---------------------------------------------------------------------------
# state inspection
# ---------------------------------------------------------------------------

def show_state(name: str, beta: float, shape_args=(), seed=None,
               max_rows: int = 2000) -> dict:
    from .entropy import diff_shannon

    params = make_params(beta)
    state = catalog_state(name, params, shape_args=shape_args, seed=seed)
    rep = bundle(state)

    def table(density):
        n = len(density.grid)
        stride = max(1, n // max_rows)
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
            "correction": rel.correction_term(state, rep),
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
    lines = ["{"]
    if config is not None:
        lines.append(f'  "format": "{config.format}",')
    lines.append('  "records": [')
    body = []
    for r in records:
        parts = [f'"relation_id": "{r["relation_id"]}"',
                 f'"state": "{r["state"]}"']
        for key in ("beta", "sigma", "alpha", "gamma", "delta_k", "delta_x",
                    "lhs", "rhs", "margin", "est_error"):
            parts.append(f'"{key}": {_fmt_float(r[key])}')
        parts.append(f'"verdict": "{r["verdict"]}"')
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
    text = render_json(records, config) if config.format == "json" \
        else render_csv(records)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
