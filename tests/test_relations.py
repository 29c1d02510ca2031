import math

import numpy as np
import pytest

import gupcert as g


def _smeared_cell(rep, f):
    """Both smeared densities and S_f for one acceptance, as a cell has them."""
    return ((g.smear(rep.u_k, f), g.smear(rep.w_x, f)),
            g.s_f(f, rep.source.params))


class TestKappa:
    def test_endpoints(self):
        assert g.kappa(g.OrderPair(math.inf, 0.5)) == pytest.approx(2.0,
                                                                    abs=1e-12)
        assert g.kappa(g.OrderPair(1.0, 1.0)) == pytest.approx(math.e,
                                                               abs=1e-12)

    def test_interior_value(self):
        assert g.kappa(g.OrderPair(1.5, 0.75)) == pytest.approx(8.0 / 3.0,
                                                                abs=1e-12)

    def test_monotone_in_gamma(self):
        gammas = np.linspace(0.5, 1.0, 21)
        values = []
        for gm in gammas:
            alpha = math.inf if gm == 0.5 else gm / (2 * gm - 1)
            pair = g.OrderPair(1.0, 1.0) if gm == 1.0 else g.OrderPair(alpha, gm)
            values.append(g.kappa(pair))
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[0] == pytest.approx(2.0, abs=1e-12)
        assert values[-1] == pytest.approx(math.e, abs=1e-12)


class TestConjugateOrder:
    def test_values(self):
        assert g.conjugate_order(1.5).gamma == pytest.approx(0.75, abs=1e-15)
        assert g.conjugate_order(2.0).gamma == pytest.approx(2.0 / 3.0,
                                                             abs=1e-15)

    def test_degenerate(self):
        pair = g.conjugate_order(1.0)
        assert pair.degenerate

    def test_limit_toward_one(self):
        pair = g.conjugate_order(1.0 + 1e-9)
        assert pair.gamma == pytest.approx(1.0, abs=1e-8)

    def test_invalid(self):
        with pytest.raises(g.InvalidParameterError):
            g.conjugate_order(0.8)


class TestCorrectionTerm:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_uniform_constant(self, beta):
        p = g.make_params(beta)
        st_ = g.catalog_state("uniform_q", p)
        corr = g.correction_term(g.bundle(st_))
        assert corr == pytest.approx(2.0 * math.log(2.0), abs=1e-6)

    def test_undeformed_zero(self, params_0):
        st_ = g.catalog_state("truncated_gaussian_q", params_0,
                              shape_args=[1.0])
        assert g.correction_term(g.bundle(st_)) == 0.0

    @pytest.mark.parametrize("name,shape,seed", [
        ("uniform_q", (), None),
        ("raised_cosine_q", (), None),
        ("truncated_gaussian_q", (0.25,), None),
        ("random_fourier_q", (6,), 11),
    ])
    @pytest.mark.parametrize("beta", [1e-3, 0.1, 1.0])
    def test_entropy_identity(self, name, shape, seed, beta):
        p = g.make_params(beta)
        st_ = g.catalog_state(name, p, shape_args=shape, seed=seed)
        v = g.q_density(st_)
        u = g.density_q_to_k(v, p)
        hk = g.diff_shannon(u).value
        hq = g.diff_shannon(v).value
        corr = g.correction_term(g.bundle(st_))
        assert abs(hk - hq - corr) < 1e-6

    def test_nonnegative(self, random_rep):
        assert g.correction_term(random_rep) >= 0.0


class TestJensen:
    def test_margin_where_finite(self, cosine_rep):
        rpt = g.check_jensen(cosine_rep)
        assert rpt.verdict == "pass"
        assert rpt.margin >= -1e-8

    def test_not_applicable_for_cauchy(self, uniform_rep):
        rpt = g.check_jensen(uniform_rep)
        assert rpt.verdict == "not_applicable"


class TestLinearization:
    def test_truncated_gaussian(self, params_1):
        st_ = g.catalog_state("truncated_gaussian_q", params_1,
                              shape_args=[1.0])
        report = g.correction_linearization_check(st_, [1e-2, 1e-3])
        assert report.applicable
        ratios = [pt.ratio for pt in report.points]
        assert abs(ratios[0] / ratios[1] - 1.0) < 0.05
        for pt in report.points:
            assert abs(pt.ratio / pt.expected - 1.0) < 0.10

    def test_zero_beta_point(self, params_1):
        st_ = g.catalog_state("truncated_gaussian_q", params_1,
                              shape_args=[1.0])
        report = g.correction_linearization_check(st_, [0.0])
        assert report.points[0].residual == 0.0

    def test_cauchy_not_applicable(self, uniform_state):
        report = g.correction_linearization_check(uniform_state, [1e-3])
        assert not report.applicable


class TestRobertson:
    def test_small_beta_gaussian(self, gauss_rep_small_beta):
        rpt = g.robertson_margin(gauss_rep_small_beta)
        assert rpt.verdict == "pass"
        assert rpt.margin >= -1e-8
        # near-minimal packet: product close to the bound
        assert rpt.margin < 0.05

    def test_rhs_formula(self, cosine_state, cosine_rep):
        rpt = g.robertson_margin(cosine_rep)
        k2 = g.moment(cosine_rep.u_k, 2).value
        beta = cosine_state.params.beta
        assert rpt.rhs == pytest.approx(0.5 * (1 + beta * k2), rel=1e-9)
        # bound chain: <k^2> dominates the variance
        k1 = g.moment(cosine_rep.u_k, 1).value
        assert rpt.rhs >= 0.5 * (1 + beta * (k2 - k1 ** 2)) - 1e-12

    def test_cauchy_not_applicable(self, uniform_rep):
        assert g.robertson_margin(uniform_rep).verdict == "not_applicable"


class TestShannonRelations:
    def test_base_and_corrected_margins(self, random_rep):
        base, corrected = g.check_bbm_corrected(random_rep)
        assert base.margin >= -1e-8
        assert corrected.margin >= -1e-8

    def test_corrected_equals_base(self, uniform_rep):
        # the corrected bound is the base bound plus the exact identity, so
        # the two margins agree to rounding on the image-grid construction
        base, corrected = g.check_bbm_corrected(uniform_rep)
        assert abs(corrected.margin - base.margin) < 1e-12

    def test_saturation_near_gaussian(self, gauss_rep_small_beta):
        base, corrected = g.check_bbm_corrected(gauss_rep_small_beta)
        assert 0.0 - 1e-8 <= base.margin < 1e-3

    def test_smeared_margins(self, cosine_rep):
        f = g.gaussian_acceptance(1.0)
        smeared, resolution = g.check_smeared_shannon(
            cosine_rep, *_smeared_cell(cosine_rep, f))
        assert smeared.margin >= -1e-8
        assert resolution.margin >= -1e-8

    def test_smeared_margin_dominates_unsmeared(self, cosine_rep):
        f = g.gaussian_acceptance(0.5)
        _, corrected = g.check_bbm_corrected(cosine_rep)
        smeared, _ = g.check_smeared_shannon(
            cosine_rep, *_smeared_cell(cosine_rep, f))
        assert smeared.margin >= corrected.margin - 1e-8

    def test_narrow_acceptance_approaches_unsmeared(self, cosine_rep):
        f = g.gaussian_acceptance(0.002)
        _, corrected = g.check_bbm_corrected(cosine_rep)
        smeared, _ = g.check_smeared_shannon(
            cosine_rep, *_smeared_cell(cosine_rep, f))
        assert abs(smeared.margin - corrected.margin) < 1e-3

    def test_wide_acceptance_raises_resolution_bound(self, cosine_rep):
        f = g.gaussian_acceptance(10.0)
        _, resolution = g.check_smeared_shannon(
            cosine_rep, *_smeared_cell(cosine_rep, f))
        assert resolution.rhs > g.LN_E_PI  # S_f < 1 tightens the bound
        assert resolution.margin >= -1e-8

    def test_binned_margins(self, cosine_rep):
        from gupcert.suite import _coverage_window, _random_edges
        rng = np.random.default_rng(4)
        klo, khi = _coverage_window(cosine_rep.u_k)
        xlo, xhi = _coverage_window(cosine_rep.w_x)
        bins_k = _random_edges(rng, klo, khi, 0.05, 2.0)
        bins_x = _random_edges(rng, xlo, xhi, 0.05, 2.0)
        rpt = g.check_binned_shannon(g.bin_density(cosine_rep.u_k, bins_k),
                                     g.bin_density(cosine_rep.w_x, bins_x),
                                     cosine_rep)
        assert rpt.margin >= -1e-8

    def test_binned_pair_adds_the_lemma_and_binned_rows(self, cosine_rep):
        # given the binned pair, the Fourier-pair check appends the rows the
        # single-purpose checks give, float for float
        from gupcert.suite import _coverage_window
        p_k, p_x = (g.bin_density(d, np.linspace(*_coverage_window(d), 200))
                    for d in (cosine_rep.u_k, cosine_rep.w_x))
        rows = g.check_bbm_corrected(cosine_rep, (p_k, p_x))
        assert rows[:2] == g.check_bbm_corrected(cosine_rep)
        assert rows[2:] == [g.check_binning_lemma(cosine_rep.u_k, p_k),
                            g.check_binning_lemma(cosine_rep.w_x, p_x),
                            g.check_binned_shannon(p_k, p_x, cosine_rep)]
        assert [r.relation_id for r in rows[2:]] == [
            "binning_lemma_k", "binning_lemma_x", "shannon_sum_binned"]

    def test_coarse_bins_vacuous(self, cosine_rep):
        bins_k = np.array([-120.0, 0.0, 120.0])
        bins_x = np.array([-60.0, 0.0, 60.0])
        rpt = g.check_binned_shannon(g.bin_density(cosine_rep.u_k, bins_k),
                                     g.bin_density(cosine_rep.w_x, bins_x),
                                     cosine_rep)
        assert rpt.rhs < 0.0
        assert rpt.margin > 1.0


class TestBecknerAndRenyi:
    @pytest.mark.parametrize("alpha", [1.25, 1.5, 2.0, 3.0])
    def test_beckner_margins(self, cosine_rep, alpha):
        pair = g.conjugate_order(alpha)
        for rpt in g.check_beckner(pair, cosine_rep):
            assert rpt.margin >= -1e-8

    def test_beckner_near_saturation(self, gauss_rep_small_beta):
        for alpha in (1.5, 2.0, 3.0):
            pair = g.conjugate_order(alpha)
            for rpt in g.check_beckner(pair, gauss_rep_small_beta):
                assert rpt.margin >= -1e-8
                assert rpt.margin < 1e-6  # Gaussians saturate the inequality

    def test_degenerate_dispatches_to_base(self, cosine_rep):
        reports = g.check_beckner(g.OrderPair(1.0, 1.0), cosine_rep)
        assert reports[0].relation_id == "shannon_sum_base"

    def test_renyi_smeared(self, cosine_rep):
        f = g.gaussian_acceptance(1.0)
        pair = g.conjugate_order(2.0)
        reports = g.check_renyi_smeared(
            pair, cosine_rep, *_smeared_cell(cosine_rep, f))
        assert len(reports) == 4
        for rpt in reports:
            assert rpt.margin >= -1e-8

    def test_sf_replaced_by_one_is_weaker(self, cosine_rep):
        f = g.gaussian_acceptance(2.0)
        pair = g.conjugate_order(2.0)
        smeared, sf_val = _smeared_cell(cosine_rep, f)
        strict = g.check_renyi_smeared(pair, cosine_rep, smeared, sf_val)
        relaxed = g.check_renyi_smeared(pair, cosine_rep, smeared,
                                        sf_value=1.0)
        assert relaxed[0].margin > strict[0].margin
        assert relaxed[0].margin >= -1e-8

    def test_renyi_and_tsallis_binned(self, cosine_rep):
        from gupcert.suite import _coverage_window, _random_edges
        f = g.gaussian_acceptance(1.0)
        pair = g.conjugate_order(2.0)
        smeared, sf_val = _smeared_cell(cosine_rep, f)
        rng = np.random.default_rng(9)
        zlo, zhi = _coverage_window(smeared[0])
        xlo, xhi = _coverage_window(smeared[1])
        p_m = g.bin_density(smeared[0], _random_edges(rng, zlo, zhi, 0.05, 2.0))
        p_n = g.bin_density(smeared[1], _random_edges(rng, xlo, xhi, 0.05, 2.0))
        for rpt in g.check_renyi_binned(pair, p_m, p_n, sf_val):
            assert rpt.margin >= -1e-8
        for rpt in g.check_tsallis_binned(pair, p_m, p_n, sf_val):
            assert rpt.margin >= -1e-8
        assert g.check_norm_ordering(p_m, pair).margin >= -1e-12

    def test_randomized_margins_sweep(self):
        # a slice of the randomized certification: every applicable check
        # stays above the tolerance for seeded random states across beta
        # and order grids (the acceptance suite covers the corrected bound
        # over the full 200-seed set)
        f = g.gaussian_acceptance(1.0)
        worst = math.inf
        for seed in (0, 1, 2, 3, 4):
            for beta in (1e-3, 1.0):
                p = g.make_params(beta)
                st_ = g.catalog_state("random_fourier_q", p, shape_args=[5],
                                      seed=seed)
                rep = g.bundle(st_)
                reports = list(g.check_bbm_corrected(rep))
                reports.append(g.check_jensen(rep))
                reports.append(g.robertson_margin(rep))
                smeared = (g.smear(rep.u_k, f), g.smear(rep.w_x, f))
                sf_val = g.s_f(f, p)
                reports += g.check_smeared_shannon(rep, smeared, sf_val)
                for alpha in (1.5, 3.0):
                    pair = g.conjugate_order(alpha)
                    reports += g.check_beckner(pair, rep)
                    reports += g.check_renyi_smeared(pair, rep, smeared,
                                                     sf_val)
                for rpt in reports:
                    if rpt.verdict != "not_applicable":
                        worst = min(worst, rpt.margin)
        assert worst >= -1e-8

    def test_tsallis_degenerate_matches_shannon_form(self, cosine_rep):
        from gupcert.suite import _coverage_window
        f = g.gaussian_acceptance(1.0)
        pair = g.OrderPair(1.0, 1.0)
        smeared, sf_val = _smeared_cell(cosine_rep, f)
        zlo, zhi = _coverage_window(smeared[0])
        xlo, xhi = _coverage_window(smeared[1])
        bins_z = np.linspace(zlo, zhi, int((zhi - zlo) / 0.5) + 2)
        bins_x = np.linspace(xlo, xhi, int((xhi - xlo) / 0.5) + 2)
        p_m = g.bin_density(smeared[0], bins_z)
        p_n = g.bin_density(smeared[1], bins_x)
        ts = g.check_tsallis_binned(pair, p_m, p_n, sf_val)
        ren = g.check_renyi_binned(pair, p_m, p_n, sf_val)
        # with nu = 1 the deformed log is the log: same bound as Shannon form
        assert ts[0].rhs == pytest.approx(ren[0].rhs, abs=1e-12)
        assert ts[0].lhs == pytest.approx(ren[0].lhs, abs=1e-12)
