"""Error estimates against closed forms: every rung sound and sharp.

A rung is sound when the actual error is at most `est_error` and sharp when
`est_error` is at most 1e3 times the actual error plus 1e-12.  The flat
auxiliary state `uniform_q` has closed forms on both sides of the
pushforward: H(Q) = ln(2 q0), an exactly Cauchy K density of scale
1/sqrt(beta) (H(K) = ln(4 pi / sqrt(beta)), Renyi entropies from
integral (1 + t^2)^-alpha dt = sqrt(pi) Gamma(alpha - 1/2) / Gamma(alpha)),
a position density sin^2(q0 x) / (pi q0 x^2) (Renyi entropies from the
integrals of sinc^6 and sinc^8, 11 pi / 20 and 151 pi / 315) and the
correction 2 ln 2.  `raised_cosine_q` has <k^2> = 1/beta.  The
Gaussian state saturates H(Q) + H(X) = ln(e pi).  Binned probabilities are
checked bin by bin against the Gaussian and Cauchy CDFs.
"""

import math

import numpy as np
import pytest
from scipy.special import gammaln, ndtr

import gupcert as g


def _sound_and_sharp(value, exact, est):
    actual = abs(value - exact)
    assert actual <= est
    assert est <= 1e3 * actual + 1e-12


@pytest.fixture(scope="module", params=[1e-3, 0.1, 1.0, 10.0])
def flat(request):
    beta = request.param
    return beta, g.bundle(g.catalog_state("uniform_q", g.make_params(beta)))


def test_flat_auxiliary_entropy(flat):
    beta, rep = flat
    h = g.diff_shannon(rep.v_q)
    _sound_and_sharp(h.value, math.log(2.0 * g.make_params(beta).q0),
                     h.est_error)


def test_cauchy_entropy(flat):
    # the image grid's measure covers the axis: no tail term is added
    beta, rep = flat
    h = g.diff_shannon(rep.u_k)
    exact = math.log(4.0 * math.pi / math.sqrt(beta))
    _sound_and_sharp(h.value, exact, h.est_error)
    assert abs(h.value - exact) <= 1e-14


@pytest.mark.parametrize("alpha", [1.5, 2.0, 4.0])
def test_cauchy_renyi(flat, alpha):
    beta, rep = flat
    scale = 1.0 / math.sqrt(beta)
    log_power = (-alpha * math.log(math.pi * scale) + math.log(scale)
                 + 0.5 * math.log(math.pi) + gammaln(alpha - 0.5)
                 - gammaln(alpha))
    r = g.diff_renyi(rep.u_k, alpha)
    _sound_and_sharp(r.value, log_power / (1.0 - alpha), r.est_error)


@pytest.mark.parametrize("alpha, exact", [
    (3.0, lambda q0: -0.5 * math.log(11.0 * q0 ** 2 / (20.0 * math.pi ** 2))),
    (4.0, lambda q0: -math.log(151.0 * q0 ** 3 / (315.0 * math.pi ** 3)) / 3.0),
], ids=["3", "4"])
def test_flat_position_renyi(flat, alpha, exact):
    # the error is a few ulps, which the rounding of ln p_max, of ln of
    # the power sum and of the final division account for
    beta, rep = flat
    r = g.diff_renyi(rep.w_x, alpha)
    _sound_and_sharp(r.value, exact(g.make_params(beta).q0), r.est_error)


@pytest.mark.parametrize("beta", [1e-3, 0.1, 1.0, 10.0])
def test_image_grid_second_moment(beta):
    # the K image grid's measure covers the axis: the tail models add
    # nothing to the grid rule's sum
    u = g.bundle(g.catalog_state("raised_cosine_q", g.make_params(beta))).u_k
    m = g.moment(u, 2)
    assert m.value == float(u.grid.integrate(u.grid.nodes ** 2 * u.values))
    _sound_and_sharp(m.value, 1.0 / beta, m.est_error)


def test_flat_correction_term(flat):
    _, rep = flat
    rpt = g.check_correction_term(rep)
    _sound_and_sharp(rpt.lhs, 2.0 * math.log(2.0), rpt.est_error)


def test_gaussian_saturates_the_fourier_bound(gauss_rep_small_beta):
    rep = gauss_rep_small_beta
    base = g.check_bbm_corrected(rep)[0]
    _sound_and_sharp(base.lhs, g.LN_E_PI, base.est_error)


def _assert_bins_sound(dist, exact):
    assert np.all(np.abs(dist.probs - exact) <= dist.prob_errors)


def test_gaussian_bins(gauss_rep_small_beta):
    # the Gaussian state's position density is Gaussian of width 1/(2 s)
    density = gauss_rep_small_beta.w_x
    lo, hi = g.DensityCdf(density).coverage_window()
    rng = np.random.default_rng(3)
    for dmin, dmax in ((0.05, 2.0), (0.01, 0.1)):
        edges = g.random_edges(rng, lo, hi, dmin, dmax)
        cdf = ndtr(edges / 0.5)
        exact = np.diff(cdf)
        exact[0] += cdf[0]
        exact[-1] += 1.0 - cdf[-1]
        _assert_bins_sound(g.bin_density(density, edges), exact)


def test_cauchy_bins(uniform_rep):
    # beta = 1: unit-scale Cauchy; arctan differences in a form that keeps
    # the far-tail bins accurate
    density = uniform_rep.u_k
    lo, hi = g.DensityCdf(density).coverage_window()
    edges = g.random_edges(np.random.default_rng(3), lo, hi, 0.5, 20.0)
    a, b = edges[:-1], edges[1:]
    exact = np.where(a * b > -1.0, np.arctan((b - a) / (1.0 + a * b)),
                     np.arctan(b) - np.arctan(a)) / math.pi
    exact[0] -= math.atan(1.0 / edges[0]) / math.pi
    exact[-1] += math.atan(1.0 / edges[-1]) / math.pi
    dist = g.bin_density(density, edges)
    _assert_bins_sound(dist, exact)
    # the binning lemma's row carries both entropies' errors
    rpt = g.check_binning_lemma(density, g.BinnedSums.of(dist, (1.0,)))
    h_disc = g.discrete_renyi(dist, 1.0)
    assert rpt.est_error == g.diff_shannon(density).est_error + h_disc.est_error
    exact_h = -float(np.sum(exact * np.log(exact)))
    assert abs(h_disc.value - exact_h) <= h_disc.est_error
