import math

import numpy as np
import pytest
from scipy.special import erfc

import gupcert as g
from gupcert.measurement import _gaussian_j


class TestGaussianAcceptance:
    def test_normalized(self):
        f = g.gaussian_acceptance(1.0)
        z = np.linspace(-12, 12, 4001)
        assert np.trapezoid(f.density(z), z) == pytest.approx(1.0, abs=1e-10)

    def test_peak_value(self):
        f = g.gaussian_acceptance(1.0)
        assert f.density(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi),
                                               abs=1e-14)

    def test_second_moment(self):
        f = g.gaussian_acceptance(2.0)
        z = np.linspace(-30, 30, 8001)
        m2 = np.trapezoid(z * z * f.density(z), z)
        assert m2 == pytest.approx(4.0, abs=1e-8)

    def test_invalid_sigma(self):
        with pytest.raises(g.InvalidParameterError):
            g.gaussian_acceptance(0.0)


class TestSmear:
    def test_gaussian_convolution_closed_form(self, params_0):
        st_ = g.catalog_state("truncated_gaussian_q", params_0, shape_args=[1.0])
        u = g.bundle(st_).u_k
        out = g.smear(u, g.gaussian_acceptance(2.0))
        assert g.moment(out, 2).value == pytest.approx(5.0, abs=1e-7)
        h = g.diff_shannon(out)
        assert h.value == pytest.approx(0.5 * math.log(2 * math.pi * math.e * 5),
                                        abs=1e-8)

    def test_narrow_limit_close_to_input(self, params_0):
        st_ = g.catalog_state("truncated_gaussian_q", params_0, shape_args=[1.0])
        u = g.bundle(st_).u_k
        out = g.smear(u, g.gaussian_acceptance(2e-4 * 60.0))
        from gupcert.quadrature import pchip
        interp = pchip(u.grid.nodes, u.values)
        lo, hi = u.window
        diff = np.abs(out.values
                      - np.clip(interp(np.clip(out.grid.nodes, lo, hi)), 0, None))
        assert out.grid.integrate(diff) < 1e-3

    @pytest.mark.parametrize("sigma", [0.1, 1.0, 10.0])
    def test_normalization_preserved(self, uniform_rep, sigma):
        out = g.smear(uniform_rep.u_k, g.gaussian_acceptance(sigma))
        total = out.grid.integrate(out.values) + out.tail_mass_bound
        assert total == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("sigma", [0.1, 1.0, 10.0])
    def test_entropy_never_decreases(self, uniform_rep, sigma):
        f = g.gaussian_acceptance(sigma)
        hk = g.diff_shannon(uniform_rep.u_k).value
        hx = g.diff_shannon(uniform_rep.w_x).value
        hm = g.diff_shannon(g.smear(uniform_rep.u_k, f)).value
        hn = g.diff_shannon(g.smear(uniform_rep.w_x, f)).value
        assert hm >= hk - 1e-8
        assert hn >= hx - 1e-8

    def test_narrow_window_raises(self, uniform_rep):
        nodes, weights = np.linspace(-0.5, 0.5, 51), np.full(51, 0.02)
        weights[0] = weights[-1] = 0.01
        tiny = g.Grid(nodes=nodes, weights=weights, domain_tag=g.Domain.ZETA)
        with pytest.raises(g.ResolutionError):
            g.smear(uniform_rep.u_k, g.gaussian_acceptance(0.2), out_grid=tiny)


class TestJProfile:
    def test_undeformed_is_unity(self, params_0):
        grid = g.Grid(nodes=np.linspace(-5, 5, 21), weights=np.full(21, 0.5),
                      domain_tag=g.Domain.ZETA)
        j = g.j_profile(g.gaussian_acceptance(1.0), params_0, grid)
        assert np.array_equal(j, np.ones(21))

    def test_delta_limit_at_two(self, params_1):
        assert _gaussian_j(2.0, 1e-6, 1.0) == pytest.approx(0.2, abs=1e-9)

    def test_delta_limit_at_origin(self, params_1):
        assert _gaussian_j(0.0, 1e-6, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_subnormalized_and_even(self, params_1):
        grid = g.Grid(nodes=np.linspace(-10, 10, 41), weights=np.full(41, 0.5),
                      domain_tag=g.Domain.ZETA)
        j = g.j_profile(g.gaussian_acceptance(0.7), params_1, grid)
        assert np.all(j <= 1.0 + 1e-12)
        assert np.all(j > 0.0)
        assert np.allclose(j, j[::-1], atol=1e-12)
        assert np.argmax(j) == 20  # symmetric unimodal peak at zero


class TestSF:
    def test_undeformed(self, params_0):
        assert g.s_f(g.gaussian_acceptance(1.0), params_0) == 1.0

    def test_closed_form_agreement(self):
        # S_f for a Gaussian acceptance equals bound * e^y^2 erfc(y),
        # y = 1/sqrt(2 sigma^2 beta); checks the Faddeeva evaluation
        for sigma, beta in ((0.3, 2.0), (1.0, 1.0), (10.0, 1.0), (5.0, 0.01)):
            p = g.make_params(beta)
            sf = g.s_f(g.gaussian_acceptance(sigma), p)
            y = 1.0 / math.sqrt(2 * sigma * sigma * beta)
            expect = g.s_f_gaussian_bound(sigma, beta) * math.exp(y * y) * erfc(y)
            assert sf == pytest.approx(expect, rel=1e-12)

    def test_bound_values(self):
        assert g.s_f_gaussian_bound(math.sqrt(math.pi / 2), 1.0) == \
            pytest.approx(1.0, abs=1e-14)
        assert g.s_f_gaussian_bound(math.sqrt(2 * math.pi), 1.0) == \
            pytest.approx(0.5, abs=1e-14)
        assert g.s_f_gaussian_bound(math.sqrt(math.pi / 8), 1.0) == \
            pytest.approx(2.0, abs=1e-14)

    def test_narrow_limit_reaches_one(self, params_1):
        assert g.s_f(g.gaussian_acceptance(1e-5), params_1) == \
            pytest.approx(1.0, abs=1e-8)

    def test_bounded_by_one_and_gaussian_bound(self):
        for sigma in np.geomspace(0.05, 50.0, 12):
            for beta in np.geomspace(1e-3, 1e3, 12):
                p = g.make_params(beta)
                sf = g.s_f(g.gaussian_acceptance(sigma), p)
                assert sf <= 1.0 + 1e-12
                assert sf <= g.s_f_gaussian_bound(sigma, beta) + 1e-12

    def test_custom_profile_matches_gaussian(self, params_1):
        nodes = np.linspace(-9, 9, 3001)
        vals = np.exp(-nodes ** 2 / 2) / math.sqrt(2 * math.pi)
        fc = g.custom_acceptance(nodes, vals)
        sf_custom = g.s_f(fc, params_1)
        sf_exact = g.s_f(g.gaussian_acceptance(1.0), params_1)
        assert sf_custom == pytest.approx(sf_exact, abs=5e-6)

    def test_custom_rejects_bad_table(self):
        with pytest.raises(g.InvalidParameterError):
            g.custom_acceptance(np.linspace(-1, 1, 16), np.full(16, 40.0))
