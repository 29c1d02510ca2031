import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gupcert as g
from conftest import random_discrete


def uniform_density(length, n=801):
    nodes = np.linspace(0.0, length, n)
    w = np.full(n, length / (n - 1))
    w[0] = w[-1] = 0.5 * length / (n - 1)
    grid = g.Grid(nodes=nodes, weights=w, domain_tag=g.Domain.X)
    return g.DensityFn(grid=grid, values=np.full(n, 1.0 / length))


class TestDiffShannon:
    def test_uniform_interval(self):
        d = uniform_density(math.pi)
        assert g.diff_shannon(d).value == pytest.approx(math.log(math.pi),
                                                        abs=1e-10)

    def test_cauchy_closed_form(self, uniform_rep):
        h = g.diff_shannon(uniform_rep.u_k)
        assert h.value == pytest.approx(math.log(4 * math.pi), abs=1e-6)

    def test_gaussian_closed_form(self, gauss_rep_small_beta):
        h = g.diff_shannon(gauss_rep_small_beta.v_q)
        assert h.value == pytest.approx(0.5 * math.log(2 * math.pi * math.e),
                                        abs=1e-9)

    def test_rejects_unnormalized(self):
        d = uniform_density(2.0)
        with pytest.raises(g.ContractError):
            g.DensityFn(grid=d.grid, values=d.values * 0.9)


class TestAlphaNorm:
    def test_unit_interval_flat(self):
        d = uniform_density(1.0)
        for alpha in (0.5, 1.0, 2.0, 3.0):
            assert g.alpha_norm(d, alpha) == pytest.approx(1.0, abs=1e-9)

    def test_length_two_alpha_two(self):
        d = uniform_density(2.0)
        assert g.alpha_norm(d, 2.0) == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_alpha_one_is_one(self, cosine_rep):
        assert g.alpha_norm(cosine_rep.v_q, 1.0) == 1.0

    def test_heavy_tail_divergence(self, uniform_rep):
        with pytest.raises(g.NormDivergenceError):
            g.alpha_norm(uniform_rep.u_k, 0.45)


class TestDiffRenyi:
    def test_flat_density_all_orders(self):
        d = uniform_density(math.pi)
        for alpha in (0.5, 2.0, 3.0):
            r = g.diff_renyi(d, alpha)
            assert r.value == pytest.approx(math.log(math.pi), abs=1e-9)

    def test_gaussian_order_two(self, gauss_rep_small_beta):
        r = g.diff_renyi(gauss_rep_small_beta.v_q, 2.0)
        assert r.value == pytest.approx(0.5 * math.log(4 * math.pi), abs=1e-8)

    @pytest.mark.parametrize("fixture", ["cosine_rep", "gauss_rep_small_beta"])
    def test_limit_consistency(self, fixture, request):
        # the deviation is linear in (alpha - 1); the symmetric mean at
        # alpha = 1 +- 1e-4 cancels it, leaving the quadratic remainder
        rep = request.getfixturevalue(fixture)
        h = g.diff_shannon(rep.v_q).value
        r_hi = g.diff_renyi(rep.v_q, 1.0 + 1e-4).value
        r_lo = g.diff_renyi(rep.v_q, 1.0 - 1e-4).value
        assert 0.5 * (r_hi + r_lo) == pytest.approx(h, abs=1e-6)
        assert abs(g.diff_renyi(rep.v_q, 1.0 + 1e-5).value - h) < 1e-5

    def test_large_orders(self, cosine_rep):
        # p**alpha summed as it stands underflows near alpha = 1e3; taken
        # relative to max p the sum stays finite, and R_alpha falls toward
        # the min-entropy -ln max p
        d = cosine_rep.v_q
        w, p = d.grid.weights, d.values
        for alpha in (300.0, 700.0):
            direct = math.log(float(np.dot(w, p ** alpha))) / (1.0 - alpha)
            assert g.diff_renyi(d, alpha).value == pytest.approx(direct,
                                                                 rel=1e-12)
        r_big = g.diff_renyi(d, 1e4).value
        assert math.isfinite(r_big)
        assert -math.log(p.max()) <= r_big <= g.diff_renyi(d, 1e3).value


class TestBinning:
    def test_uniform_quarters(self):
        d = uniform_density(1.0)
        dist = g.bin_density(d, np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
        assert np.allclose(dist.probs, 0.25, atol=1e-9)

    def test_single_covering_bin(self, cosine_rep):
        dist = g.bin_density(cosine_rep.v_q, np.array([-2.0, 2.0]))
        assert dist.probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_cauchy_quarter_mass(self, uniform_rep):
        from gupcert.entropy import density_cdf
        cdf = density_cdf(uniform_rep.u_k, np.array([-1.0, 0.0]))
        assert cdf[1] - cdf[0] == pytest.approx(0.25, abs=1e-6)

    def test_insufficient_coverage(self, uniform_rep):
        with pytest.raises(g.ContractError):
            g.bin_density(uniform_rep.u_k, np.array([-1.0, 0.0, 1.0]))

    def test_too_few_edges(self, cosine_rep):
        with pytest.raises(g.ContractError):
            g.bin_density(cosine_rep.v_q, np.array([0.0]))


class TestDiscreteEntropies:
    def test_equiprobable_renyi(self):
        p = np.full(8, 0.125)
        dist = g.DiscreteDist(edges=np.arange(9.0), probs=p)
        for alpha in (0.5, 1.0, 2.0, 5.0):
            assert g.discrete_renyi(dist, alpha).value == pytest.approx(
                math.log(8), abs=1e-12)

    def test_point_mass(self):
        dist = g.DiscreteDist(edges=np.arange(4.0),
                              probs=np.array([1.0, 0.0, 0.0]))
        assert g.discrete_renyi(dist, 2.0).value == 0.0
        assert g.discrete_tsallis(dist, 2.0).value == 0.0

    def test_two_point_order_two(self):
        dist = g.DiscreteDist(edges=np.arange(3.0),
                              probs=np.array([0.75, 0.25]))
        assert g.discrete_renyi(dist, 2.0).value == pytest.approx(
            -math.log(5.0 / 8.0), abs=1e-12)

    def test_tsallis_uniform(self):
        for n in (2, 5, 16):
            p = np.full(n, 1.0 / n)
            dist = g.DiscreteDist(edges=np.arange(n + 1.0), probs=p)
            assert g.discrete_tsallis(dist, 2.0).value == pytest.approx(
                1.0 - 1.0 / n, abs=1e-12)

    def test_large_orders(self):
        dist = g.DiscreteDist(edges=np.arange(3.0),
                              probs=np.array([0.75, 0.25]))
        for alpha in (1e3, 1e5):
            # 0.25**alpha is lost against 0.75**alpha
            assert g.discrete_renyi(dist, alpha).value == pytest.approx(
                -math.log(0.75) * alpha / (alpha - 1.0), rel=1e-12)
            assert g.discrete_tsallis(dist, alpha).value == pytest.approx(
                1.0 / (alpha - 1.0), rel=1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_renyi_nonincreasing_in_alpha(self, seed):
        dist = random_discrete(np.random.default_rng(seed), 12)
        values = [g.discrete_renyi(dist, a).value
                  for a in (0.5, 0.75, 1.0, 1.5, 2.0, 3.0)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_norm_ordering(self, seed):
        dist = random_discrete(np.random.default_rng(seed), 9)
        for alpha in (1.5, 2.0, 4.0):
            pair = g.conjugate_order(alpha)
            assert g.discrete_norm(dist, pair.alpha) <= 1.0 + 1e-12
            assert g.discrete_norm(dist, pair.gamma) >= 1.0 - 1e-12

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_tsallis_limit_matches_shannon(self, seed):
        dist = random_discrete(np.random.default_rng(seed), 7)
        shannon = g.discrete_renyi(dist, 1.0).value
        for eps in (1e-5, -1e-5):
            assert g.discrete_tsallis(dist, 1.0 + eps).value == pytest.approx(
                shannon, abs=1e-4)
        mean = 0.5 * (g.discrete_tsallis(dist, 1.0 + 1e-5).value
                      + g.discrete_tsallis(dist, 1.0 - 1e-5).value)
        assert mean == pytest.approx(shannon, abs=1e-6)


class TestAlphaLog:
    def test_unit_argument(self):
        for nu in (0.5, 1.0, 2.0):
            assert g.alpha_log(1.0, nu) == 0.0

    def test_nu_one_is_log(self):
        assert g.alpha_log(2.0, 1.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_direct_value(self):
        assert g.alpha_log(2.0, 2.0) == pytest.approx(0.5, abs=1e-15)

    def test_continuity_at_one(self):
        for y in (0.3, 2.0, 40.0):
            assert g.alpha_log(y, 1.0 + 1e-12) == pytest.approx(
                math.log(y), abs=1e-9)

    def test_domain(self):
        with pytest.raises(g.InvalidParameterError):
            g.alpha_log(0.0, 2.0)


class TestBinningLemma:
    @pytest.mark.parametrize("fixture", ["cosine_rep", "gauss_rep_small_beta",
                                         "random_rep"])
    def test_random_layouts(self, fixture, request):
        rep = request.getfixturevalue(fixture)
        from gupcert.suite import _coverage_window, _random_edges
        rng = np.random.default_rng(17)
        for density, axis in ((rep.u_k, "k"), (rep.w_x, "x")):
            lo, hi = _coverage_window(density)
            edges = _random_edges(rng, lo, hi, 0.05, 2.0)
            rpt = g.check_binning_lemma(density, g.bin_density(density, edges))
            assert rpt.relation_id == f"binning_lemma_{axis}"
            assert rpt.margin >= -1e-8

    def test_fine_equal_bins_smooth_state(self, gauss_rep_small_beta):
        # equal widths minimize the lemma slack; smooth fast-decay densities
        # keep the margin positive at the tolerance scale
        d = gauss_rep_small_beta.v_q
        edges = np.arange(-8.0, 8.0 + 1e-9, 0.05)
        rpt = g.check_binning_lemma(d, g.bin_density(d, edges))
        assert rpt.margin >= -1e-8

    def test_refinement_stability(self, gauss_rep_small_beta):
        # H(p) + ln(delta) drifts less than the entropy error as bins shrink
        d = gauss_rep_small_beta.v_q
        vals = []
        for delta in (0.2, 0.1, 0.05):
            edges = np.arange(-8.0, 8.0 + 1e-9, delta)
            dist = g.bin_density(d, edges)
            vals.append(g.discrete_renyi(dist, 1.0).value
                        + math.log(dist.delta_max))
        assert abs(vals[-1] - vals[-2]) < 2e-3
        assert abs(vals[-2] - vals[-1]) <= abs(vals[0] - vals[-1]) + 1e-12


class TestMonteCarlo:
    def test_gaussian(self, gauss_rep_small_beta):
        h = g.diff_shannon(gauss_rep_small_beta.v_q)
        mc = g.mc_diff_shannon(gauss_rep_small_beta.v_q, 400_000, seed=7)
        assert abs(mc.value - h.value) <= 4.0 * mc.est_error

    def test_uniform_zero_variance(self, uniform_rep):
        mc = g.mc_diff_shannon(uniform_rep.v_q, 50_000, seed=3)
        assert mc.value == pytest.approx(math.log(math.pi), abs=1e-9)
        assert mc.est_error < 1e-12

    def test_cauchy(self, uniform_rep):
        mc = g.mc_diff_shannon(uniform_rep.u_k, 400_000, seed=5)
        assert abs(mc.value - math.log(4 * math.pi)) <= 4.0 * mc.est_error
