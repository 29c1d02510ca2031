"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or on failure).
Criteria certify identities and inequalities against closed-form oracles; no
expected value below was taken on faith, each is either a direct evaluation,
a closed form derived independently, or a cross-checked oracle.
"""

import json
import math

import numpy as np
import pytest
from scipy.special import erfc

import gupcert as g
from gupcert import relations
from gupcert.cli import main
from oracles import mc_diff_shannon

BETA_GRID = (1e-3, 0.1, 1.0)
CATALOG = (("uniform_q", (), None),
           ("raised_cosine_q", (), None),
           ("truncated_gaussian_q", (0.25,), None),
           ("random_fourier_q", (6,), 11))

_state_cache: dict = {}
_rep_cache: dict = {}


def _state(name, beta, shape=(), seed=None):
    key = (name, beta, shape, seed)
    if key not in _state_cache:
        p = g.make_params(beta)
        _state_cache[key] = g.catalog_state(name, p, shape_args=shape, seed=seed)
    return _state_cache[key]


def _rep(name, beta, shape=(), seed=None):
    key = (name, beta, shape, seed)
    if key not in _rep_cache:
        _rep_cache[key] = g.bundle(_state(name, beta, shape, seed))
    return _rep_cache[key]


def _criterion(num, description, ok):
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'}  {description}",
          flush=True)
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_entropy_identity():
    worst = 0.0
    for name, shape, seed in CATALOG:
        for beta in BETA_GRID:
            st = _state(name, beta, shape, seed)
            v = g.q_density(st)
            u = g.density_q_to_k(v, st.params)
            resid = abs(g.diff_shannon(u).value - g.diff_shannon(v).value
                        - g.correction_term(_rep(name, beta, shape, seed)))
            worst = max(worst, resid)
    _criterion(1, f"entropy identity residual <= 1e-6 (worst {worst:.2e})",
               worst <= 1e-6)


def test_criterion_02_cauchy_cross_check():
    rep = _rep("uniform_q", 1.0)
    hk = g.diff_shannon(rep.u_k).value
    corr = g.correction_term(rep)
    err_h = abs(hk - math.log(4 * math.pi))
    err_c = abs(corr - 2 * math.log(2.0))
    _criterion(2, f"uniform_q at beta=1: |H(K)-ln 4pi|={err_h:.2e}, "
                  f"|corr-2ln2|={err_c:.2e}, both <= 1e-6",
               err_h <= 1e-6 and err_c <= 1e-6)


def test_criterion_03_bbm_saturation():
    p = g.make_params(1e-6)
    st = g.catalog_state("truncated_gaussian_q", p, shape_args=[p.q0 / 20.0])
    rep = g.bundle(st)
    total = g.diff_shannon(rep.v_q).value + g.diff_shannon(rep.w_x).value
    defect = abs(total - g.LN_E_PI)
    _criterion(3, f"H(Q)+H(X) = ln(e pi) within 1e-3 at s=q0/20, beta=1e-6 "
                  f"(defect {defect:.2e})", defect <= 1e-3)


def test_criterion_04_corrected_bound_random_states():
    worst = math.inf
    for seed in range(200):
        for beta in BETA_GRID:
            p = g.make_params(beta)
            st = g.catalog_state("random_fourier_q", p, shape_args=[6],
                                 seed=seed)
            rep = g.bundle(st)
            margin = g.check_bbm_corrected(rep)[1].margin
            worst = min(worst, margin)
    _criterion(4, f"corrected bound margin >= -1e-8 over 200 seeds x "
                  f"{len(BETA_GRID)} betas (min {worst:.4f})", worst >= -1e-8)


def test_criterion_05_smearing_monotonicity():
    worst = math.inf
    for name, shape, seed in CATALOG:
        rep = _rep(name, 1.0, shape, seed)
        hk = g.diff_shannon(rep.u_k).value
        hx = g.diff_shannon(rep.w_x).value
        for sigma in (0.1, 1.0, 10.0):
            f = g.gaussian_acceptance(sigma)
            hm = g.diff_shannon(g.smear(rep.u_k, f)).value
            hn = g.diff_shannon(g.smear(rep.w_x, f)).value
            worst = min(worst, hm - hk, hn - hx)
    _criterion(5, f"smearing never lowers entropy, both axes, sigma in "
                  f"{{0.1, 1, 10}} (min gain {worst:.2e})", worst >= -1e-8)


def test_criterion_06_binning_lemma_and_binned_bound():
    worst = math.inf
    rng = np.random.default_rng(2026)
    for name, shape, seed in CATALOG:
        rep = _rep(name, 1.0, shape, seed)
        p_k, p_x = g.bin_pair(rng, rep.u_k, rep.w_x, 0.05, 2.0, (1.0,))
        lem_k = g.check_binning_lemma(rep.u_k, p_k)
        lem_x = g.check_binning_lemma(rep.w_x, p_x)
        both = g.check_binned_shannon(p_k, p_x, rep)
        worst = min(worst, lem_k.margin, lem_x.margin, both.margin)
    _criterion(6, f"binning lemma and binned bound margins >= -1e-8 over "
                  f"random layouts (min {worst:.4f})", worst >= -1e-8)


def test_criterion_07_correction_bounds():
    jensen_worst = math.inf
    for name, shape, seed in (("raised_cosine_q", (), None),
                              ("random_fourier_q", (6,), 11)):
        rep = _rep(name, 1.0, shape, seed)
        rpt = g.check_jensen(rep)
        assert rpt.verdict != "not_applicable"
        jensen_worst = min(jensen_worst, rpt.margin)
    p = g.make_params(1.0)
    tg = g.catalog_state("truncated_gaussian_q", p, shape_args=[1.0])
    lin = g.correction_linearization_check(tg, [1e-3])
    gap = abs(lin.points[0].ratio / lin.points[0].expected - 1.0)
    _criterion(7, f"Jensen margin >= -1e-8 (min {jensen_worst:.3f}) and "
                  f"linearization ratio within 10% (gap {gap:.1%})",
               jensen_worst >= -1e-8 and lin.applicable and gap <= 0.10)


def test_criterion_08_kappa_endpoints():
    e1 = abs(g.kappa(g.OrderPair(math.inf, 0.5)) - 2.0)
    e2 = abs(g.kappa(g.OrderPair(1.0, 1.0)) - math.e)
    e3 = abs(g.kappa(g.OrderPair(1.5, 0.75)) - 8.0 / 3.0)
    _criterion(8, f"kappa endpoints and 8/3 within 1e-12 "
                  f"(errors {e1:.1e}, {e2:.1e}, {e3:.1e})",
               max(e1, e2, e3) <= 1e-12)


def test_criterion_09_beckner_and_renyi_relations():
    worst = math.inf
    rng = np.random.default_rng(77)
    f = g.gaussian_acceptance(1.0)
    for name, shape, seed in CATALOG:
        st = _state(name, 1.0, shape, seed)
        rep = _rep(name, 1.0, shape, seed)
        smeared = (g.smear(rep.u_k, f), g.smear(rep.w_x, f))
        sf_val = g.s_f(f, st.params)
        pairs = [g.conjugate_order(a) for a in (1.25, 1.5, 2.0, 3.0)]
        p_m, p_n = g.bin_pair(rng, *smeared, 0.05, 2.0,
                              [o for p in pairs for o in (p.alpha, p.gamma)])
        for pair in pairs:
            reports = list(g.check_beckner(pair, rep))
            reports += g.check_renyi_smeared(pair, rep, smeared, sf_val)
            reports += g.check_renyi_binned(pair, p_m, p_n, sf_val)
            for rpt in reports:
                if rpt.verdict != "not_applicable":
                    worst = min(worst, rpt.margin)
    # near-saturated pairs at small beta
    rep = _rep("truncated_gaussian_q", 1e-3, (1.0,))
    for alpha in (1.25, 1.5, 2.0, 3.0):
        for rpt in g.check_beckner(g.conjugate_order(alpha), rep):
            worst = min(worst, rpt.margin)
    _criterion(9, f"Beckner/Renyi margins >= -1e-8 with and without "
                  f"smearing/binning (min {worst:.2e})", worst >= -1e-8)


def test_criterion_10_tsallis_and_norm_ordering():
    worst = math.inf
    rng = np.random.default_rng(78)
    f = g.gaussian_acceptance(1.0)
    for name, shape, seed in CATALOG:
        st = _state(name, 1.0, shape, seed)
        rep = _rep(name, 1.0, shape, seed)
        smeared = (g.smear(rep.u_k, f), g.smear(rep.w_x, f))
        sf_val = g.s_f(f, st.params)
        pairs = [g.conjugate_order(a) for a in (1.25, 1.5, 2.0, 3.0)]
        p_m, p_n = g.bin_pair(rng, *smeared, 0.05, 2.0,
                              [o for p in pairs for o in (p.alpha, p.gamma)])
        for pair in pairs:
            for rpt in g.check_tsallis_binned(pair, p_m, p_n, sf_val):
                worst = min(worst, rpt.margin)
            worst = min(worst, g.check_norm_ordering(p_m, pair).margin,
                        g.check_norm_ordering(p_n, pair).margin)
    _criterion(10, f"Tsallis binned and norm-ordering margins >= -1e-8 "
                   f"(min {worst:.2e})", worst >= -1e-8)


def test_criterion_11a_sf_bounds_grid():
    worst_unit = math.inf
    worst_bound = math.inf
    for sigma in np.geomspace(0.03, 100.0, 20):
        for beta in np.geomspace(1e-4, 1e4, 20):
            p = g.make_params(beta)
            sf = g.s_f(g.gaussian_acceptance(sigma), p)
            worst_unit = min(worst_unit, 1.0 - sf)
            worst_bound = min(worst_bound,
                              g.s_f_gaussian_bound(sigma, beta) - sf)
    _criterion("11a", f"S_f <= 1 and <= sqrt(pi/(2 sigma^2 beta)) on the "
                      f"20x20 log grid (min slacks {worst_unit:.2e}, "
                      f"{worst_bound:.2e})",
               worst_unit >= -1e-12 and worst_bound >= -1e-12)


def test_criterion_11b_sf_equality_trend():
    # S_f / bound at sigma^2 beta = 100, required within 5% of 1.
    # The exact ratio is e^(1/200) erfc(1/sqrt(200)) = 0.92496: the deviation
    # is 7.5%, first-order in 1/sqrt(sigma^2 beta), and reaches 5% only near
    # sigma^2 beta = 235.  The assertion is kept as stated and fails; the
    # companion check demonstrates the computed S_f matches the closed form
    # to machine precision, so the gap is in the stated threshold, not in
    # the numerics.
    sigma, beta = 10.0, 1.0
    sf = g.s_f(g.gaussian_acceptance(sigma), g.make_params(beta))
    ratio = sf / g.s_f_gaussian_bound(sigma, beta)
    y = 1.0 / math.sqrt(2.0 * sigma * sigma * beta)
    closed = math.exp(y * y) * erfc(y)
    assert ratio == pytest.approx(closed, rel=1e-12)
    _criterion("11b", f"S_f/bound -> 1 within 5% at sigma^2 beta = 100 "
                      f"(actual ratio {ratio:.5f}, deviation "
                      f"{abs(1 - ratio):.1%})", abs(1.0 - ratio) <= 0.05)


def test_criterion_12_oracle_agreement():
    cases = []
    rep_u = _rep("uniform_q", 1.0)
    rep_g = _rep("truncated_gaussian_q", 1e-3, (1.0,))
    for name, density in (("uniform v", rep_u.v_q),
                          ("gauss v", rep_g.v_q),
                          ("cauchy u", rep_u.u_k)):
        quad_h = g.diff_shannon(density).value
        mc = mc_diff_shannon(density, 1_000_000, seed=42)
        gap = abs(mc.value - quad_h)
        limit = max(4.0 * mc.est_error, 1e-9)
        cases.append((name, gap, limit, gap <= limit))
    desc = ", ".join(f"{n}: {gap:.1e} vs {lim:.1e}" for n, gap, lim, _ in cases)
    _criterion(12, f"quadrature vs Monte-Carlo within 4 SE at N=1e6 ({desc})",
               all(ok for *_, ok in cases))


def test_criterion_13_cli_determinism_and_failure_path(tmp_path, monkeypatch):
    cfg = {
        "beta_grid": [1.0],
        "sigma_grid": [0.8],
        "alpha_grid": [2.0],
        "states": [{"name": "truncated_gaussian_q", "shape_args": [0.25]}],
        "format": "json",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    rc1 = main(["verify", "--config", str(cfg_path), "--out", str(out1)])
    rc2 = main(["verify", "--config", str(cfg_path), "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()

    # plant a violation: every Shannon row reads LN_E_PI when evaluated
    monkeypatch.setattr(relations, "LN_E_PI", relations.LN_E_PI + 1.0)
    out3 = tmp_path / "r3.json"
    rc3 = main(["verify", "--config", str(cfg_path), "--out", str(out3)])
    failed = any(r["verdict"] == "fail"
                 for r in json.loads(out3.read_text())["records"])
    _criterion(13, f"repeated runs byte-identical ({identical}), pass rc="
                   f"{rc1}/{rc2}, failure-injection rc={rc3} (fail rows: "
                   f"{failed})",
               identical and rc1 == 0 and rc2 == 0 and rc3 == 1 and failed)
