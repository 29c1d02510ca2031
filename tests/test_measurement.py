import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc

import gupcert as g
from gupcert import measurement
from gupcert.quadrature import composite_rule
from gupcert.tails import TailSide
from oracles import pchip


def _raised_cosine2():
    """Raised-cosine-squared |f|^2 table: 513 nodes on [-3, 3], unit mass."""
    t = np.linspace(-3.0, 3.0, 513)
    return t, (0.5 * (1.0 + np.cos(math.pi * t / 3.0))) ** 2 / 2.25


def _two_tail_density(c_left, c_right, edge=2e4, image=False):
    """Gauss panels on [-edge, edge] carrying
    (c_left + (c_right - c_left)(1 + tanh x)/2) / (1 + x^2), extended on each
    side by a c/x^2 tail model of that side's weight; with `image` the grid
    stands for the whole axis, as an image grid does, and the models extend
    nothing (tail_mass_bound 0)."""
    nodes, weights = composite_rule(np.linspace(-edge, edge, 4001), 8)
    values = (c_left + (c_right - c_left) * 0.5 * (1.0 + np.tanh(nodes))) \
        / (1.0 + nodes ** 2)
    # c/x^2 holds c/edge past |x| = edge
    beyond = 0.0 if image else (c_left + c_right) / edge
    scale = 1.0 / (np.dot(weights, values) + beyond)
    left, right = (TailSide(coeff=c * scale, exponent=2.0, oscillatory=False,
                            valid_from=edge) for c in (c_left, c_right))
    grid = g.Grid(nodes=nodes, weights=weights, domain_tag=g.Domain.K)
    return g.DensityFn(grid=grid, values=values * scale,
                       tail_mass_bound=beyond * scale, tail_left=left,
                       tail_right=right)


_ONES = np.full(5, 0.5)
_BAD_TABLES = [
    (np.linspace(-1, 1, 16), np.full(16, 40.0)),    # far from normalized
    (np.array([0.0, 0.0, 1.0, 2.0, 3.0]), _ONES),   # repeated node
    (np.array([3.0, 2.0, 1.0, 0.0, -1.0]), _ONES),  # decreasing
    (np.array([0.0, 1.0, np.nan, 3.0, 4.0]), _ONES),
    (np.array([0.0, 1.0, 2.0, 3.0, np.inf]), _ONES),
    (np.arange(5.0), np.array([0.5, 0.5, np.nan, 0.5, 0.5])),
    (np.arange(5.0), np.array([0.5, 0.5, -np.inf, 0.5, 0.5])),
]


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

    @pytest.mark.parametrize("sigma", [-1.0, 0.0, math.nan])
    def test_constructor_validates(self, sigma):
        with pytest.raises(g.InvalidParameterError):
            g.GaussianAcceptance(sigma)


class TestTableAcceptance:
    def test_window_mass(self):
        f = g.custom_acceptance(*_raised_cosine2())
        a, b = f.table_nodes[0], f.table_nodes[-1]
        whole = f.window_mass(a, b)
        assert f.window_mass(3.5, 9.0) == 0.0
        assert f.window_mass(-9.0, -3.5) == 0.0
        for lo, hi in ((a - 1.0, b), (a, b + 2.0), (-50.0, 50.0)):
            assert f.window_mass(lo, hi) == whole
        for split in (-2.0, 0.3, 2.9):
            assert f.window_mass(a, split) + f.window_mass(split, b) \
                == pytest.approx(whole, rel=0.0, abs=1e-15)
        lo, hi = np.array([-4.0, -1.0, 0.5]), np.array([-2.5, 1.0, 4.0])
        assert np.array_equal(f.window_mass(lo, hi),
                              [f.window_mass(x, y) for x, y in zip(lo, hi)])

    def test_builds_one_interpolant(self, cosine_rep, monkeypatch):
        # every read of |f|^2 and of its window masses, the J rules and the
        # smears included, goes through the interpolant the profile holds
        built = []

        class Counting(measurement.PchipInterpolator):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(measurement, "PchipInterpolator", Counting)
        f = g.custom_acceptance(*_raised_cosine2())
        f.density(np.linspace(-4.0, 4.0, 9))
        f.window_mass(-1.0, 1.0)
        f.lattice_kernel(64, 0.05)
        grid = g.Grid(nodes=np.linspace(-5.0, 5.0, 11), weights=np.ones(11),
                      domain_tag=g.Domain.ZETA)
        for beta in (1.0, 10.0):
            g.j_profile(f, g.make_params(beta), grid)
        g.s_f(f, g.make_params(1.0))
        g.smear(cosine_rep.w_x, f)
        g.smear(cosine_rep.u_k, f)
        assert len(built) == 1


class TestBulkWindow:
    def test_each_side_reads_its_own_mass(self):
        # window-extending tails of unequal weight: a cut that read the
        # other side's model mass would break the mirror symmetry and leave
        # more than the 1e-4 quantile beyond it
        densities = [_two_tail_density(0.4, 0.1), _two_tail_density(0.1, 0.4)]
        windows = [measurement._bulk_window(d) for d in densities]
        (lo, hi), (mlo, mhi) = windows
        assert mlo == pytest.approx(-hi, rel=1e-12, abs=0.0)
        assert mhi == pytest.approx(-lo, rel=1e-12, abs=0.0)
        for d, (cut_lo, cut_hi) in zip(densities, windows):
            x, masses = d.grid.nodes, d.grid.weights * d.values
            m_left, m_right = d.tail_masses
            grand = masses.sum() + m_left + m_right
            assert masses[x < cut_lo].sum() + m_left <= 1e-4 * grand
            assert masses[x > cut_hi].sum() + m_right <= 1e-4 * grand

    def test_image_grid_cuts_read_grid_mass_only(self):
        # an image grid's measure covers the axis, so its tail models add no
        # mass: each cut is the 1e-4 quantile of the grid mass alone, the
        # first node with that much at or below it on the left and the
        # first with at most that much above it on the right
        d = _two_tail_density(0.4, 0.1, image=True)
        assert d.tail_mass_bound == 0.0 and min(d.tail_masses) > 1e-6
        x = d.grid.nodes
        cum = np.cumsum(d.grid.weights * d.values)
        target, above = 1e-4 * cum[-1], cum[-1] - cum
        lo, hi = measurement._bulk_window(d)
        i, j = np.flatnonzero(x == lo)[0], np.flatnonzero(x == hi)[0]
        assert cum[i - 1] < target <= cum[i]
        assert above[j] <= target < above[j - 1]


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

    @pytest.mark.parametrize("rep_name", ["cosine_rep", "uniform_rep"])
    def test_tabulated_acceptance(self, request, rep_name):
        # a PCHIP table is not band-limited: its lattice samples miss unit
        # mass by more than the smear's normalization check allows
        rep = request.getfixturevalue(rep_name)
        z = np.linspace(-6.0, 6.0, 513)
        table = g.custom_acceptance(z, np.exp(-0.5 * z * z)
                                    / math.sqrt(2 * math.pi))
        raised = g.custom_acceptance(*_raised_cosine2())
        gauss = g.gaussian_acceptance(1.0)
        for density in (rep.u_k, rep.w_x):
            h_table = g.diff_shannon(g.smear(density, table)).value
            h_gauss = g.diff_shannon(g.smear(density, gauss)).value
            assert h_table == pytest.approx(h_gauss, abs=5e-5)
            g.smear(density, raised)

    def test_narrow_window_raises(self):
        # mass declared outside the window with no tail model to place it
        nodes = np.linspace(-8.0, 8.0, 1601)
        weights = np.full(nodes.size, 0.01)
        weights[0] = weights[-1] = 0.005
        grid = g.Grid(nodes=nodes, weights=weights, domain_tag=g.Domain.K)
        values = np.exp(-0.5 * nodes ** 2)
        values *= (1.0 - 1e-4) / grid.integrate(values)
        lossy = g.DensityFn(grid=grid, values=values, tail_mass_bound=1e-4)
        with pytest.raises(g.ResolutionError, match="no tail model"):
            g.smear(lossy, g.gaussian_acceptance(0.2))

    @pytest.mark.parametrize("sigma", [1e-9, 1e12])
    def test_lattice_over_budget_raises(self, uniform_rep, sigma):
        # a lattice or kernel of terabytes is refused before it is
        # allocated, on the image grid and on the X lattice
        f = g.gaussian_acceptance(sigma)
        for density in (uniform_rep.u_k, uniform_rep.w_x):
            with pytest.raises(g.ResolutionError, match="over the budget"):
                g.smear(density, f)


class TestJProfile:
    def test_undeformed_is_unity(self, params_0):
        grid = g.Grid(nodes=np.linspace(-5, 5, 21), weights=np.full(21, 0.5),
                      domain_tag=g.Domain.ZETA)
        j = g.j_profile(g.gaussian_acceptance(1.0), params_0, grid)
        assert np.array_equal(j, np.ones(21))

    def test_delta_limit_at_two(self, params_1):
        narrow = g.GaussianAcceptance(1e-6)
        assert narrow.j(2.0, 1.0) == pytest.approx(0.2, abs=1e-9)

    def test_delta_limit_at_origin(self, params_1):
        narrow = g.GaussianAcceptance(1e-6)
        assert narrow.j(0.0, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_subnormalized_and_even(self, params_1):
        grid = g.Grid(nodes=np.linspace(-10, 10, 41), weights=np.full(41, 0.5),
                      domain_tag=g.Domain.ZETA)
        table = g.custom_acceptance(*_raised_cosine2())
        for f in (g.gaussian_acceptance(0.7), table):
            j = g.j_profile(f, params_1, grid)
            assert np.all(j <= 1.0 + 1e-12)
            assert np.all(j > 0.0)
            assert np.allclose(j, j[::-1], atol=1e-12)
            assert np.argmax(j) == 20  # symmetric unimodal peak at zero

    @pytest.mark.parametrize("beta", [1.0, 10.0, 1e3])
    def test_table_matches_quadrature(self, beta):
        # oracle: adaptive quadrature of the same monotone interpolant, one
        # table interval at a time so no kink falls inside a quad panel
        f = g.custom_acceptance(*_raised_cosine2())
        t = f.table_nodes
        interp = pchip(t, f.table_values)
        zetas = np.array([-1.0, 0.0, 2.0])
        grid = g.Grid(nodes=zetas, weights=np.ones(3), domain_tag=g.Domain.ZETA)
        j = g.j_profile(f, g.make_params(beta), grid)
        for z, value in zip(zetas, j):
            ref = sum(quad(lambda s: interp(s) / (1.0 + beta * (z - s) ** 2),
                           a, b, epsabs=1e-15, epsrel=1e-13)[0]
                      for a, b in zip(t[:-1], t[1:]))
            assert value == pytest.approx(ref, abs=1e-7)

    @pytest.mark.parametrize("beta", [1.0, 10.0])
    def test_table_j_does_not_depend_on_blocks(self, beta, monkeypatch):
        # real kernel rows may round differently in another block layout:
        # the wide table's rule has over 2^15 nodes, so two-row blocks
        # against one block of 241 rows move J by up to 2.9e-15 at beta = 10
        from gupcert import quadrature

        params = g.make_params(beta)
        tables = [g.custom_acceptance(*_raised_cosine2())]
        for sigma, n in ((1.0, 513), (50.0, 2001)):
            nodes = np.linspace(-10.0 * sigma, 10.0 * sigma, n)
            tables.append(g.custom_acceptance(
                nodes, np.exp(-0.5 * (nodes / sigma) ** 2)
                / (sigma * math.sqrt(2.0 * math.pi))))
        blocked = []
        for f in tables:
            span = f.reach + 6.0 * f.width  # the coarse scan of sup_j
            grid = g.Grid(nodes=np.linspace(-span, span, 241),
                          weights=np.ones(241), domain_tag=g.Domain.ZETA)
            blocked.append((grid, g.j_profile(f, params, grid),
                            g.s_f(f, params)))
        monkeypatch.setattr(quadrature, "_BLOCK_ENTRIES", 10 ** 12)
        for f, (grid, j, s) in zip(tables, blocked):
            assert np.allclose(g.j_profile(f, params, grid), j, rtol=1e-14,
                               atol=0.0)
            assert g.s_f(f, params) == pytest.approx(s, rel=1e-14, abs=0.0)

    def test_gaussian_table_matches_voigt(self):
        for sigma in np.geomspace(0.05, 50.0, 7):
            nodes = np.linspace(-10.0 * sigma, 10.0 * sigma, 2001)
            vals = np.exp(-0.5 * (nodes / sigma) ** 2) \
                / (sigma * math.sqrt(2 * math.pi))
            f = g.custom_acceptance(nodes, vals)
            zetas = np.array([-sigma, 0.0, 2.5 * sigma])
            grid = g.Grid(nodes=zetas, weights=np.ones(3),
                          domain_tag=g.Domain.ZETA)
            for beta in np.geomspace(1e-3, 1e3, 7):
                j = g.j_profile(f, g.make_params(beta), grid)
                voigt = g.GaussianAcceptance(sigma).j(zetas, beta)
                assert np.allclose(j, voigt, rtol=0.0, atol=1e-7)


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
        for nodes, values in _BAD_TABLES:
            with pytest.raises(g.InvalidParameterError):
                g.custom_acceptance(nodes, values)

    def test_table_constructor_validates(self):
        for nodes, values in _BAD_TABLES:
            with pytest.raises(g.InvalidParameterError):
                g.TableAcceptance(nodes, values)
        t, values = _raised_cosine2()
        f = g.TableAcceptance(t, 1.5 * values)
        assert np.trapezoid(f.table_values, t) == pytest.approx(1.0, abs=1e-14)
