"""The power-law tail model: fits, inversion and outside mass."""

import numpy as np
import pytest

from gupcert.tails import TailSide, fit_k_tails, fit_x_tail, outside_masses


@pytest.mark.parametrize("oscillatory", [False, True])
@pytest.mark.parametrize("exponent", [2.0, 4.0])
def test_quantile_beyond_inverts_mass_beyond(exponent, oscillatory):
    side = TailSide(coeff=0.37, exponent=exponent, oscillatory=oscillatory,
                    valid_from=3.0)
    t = np.geomspace(3.0, 1e6, 41)
    back = side.quantile_beyond(side.mass_beyond(t))
    assert back.shape == t.shape
    assert np.max(np.abs(back / t - 1.0)) <= 1e-14
    for ti in (3.0, 1234.5, 8.5e5):
        one = side.quantile_beyond(side.mass_beyond(ti))
        assert np.ndim(one) == 0
        assert abs(one / ti - 1.0) <= 1e-14


def test_outside_masses_per_side():
    left = TailSide(coeff=0.2, exponent=2.0, oscillatory=False, valid_from=5.0)
    right = TailSide(coeff=0.1, exponent=4.0, oscillatory=True, valid_from=4.0)
    assert outside_masses(left, right, -10.0, 8.0) == (
        left.mass_beyond(10.0), right.mass_beyond(8.0))
    assert outside_masses(None, right, -10.0, 8.0)[0] == 0.0
    assert outside_masses(left, None, -10.0, 8.0)[1] == 0.0


def test_k_tails_need_a_far_zone_and_a_decay():
    # no model inside |k| <= 10, nor for a decay no faster than 1/|k|^1.05,
    # whose mass beyond any window would not converge
    near = np.linspace(-10.0, 10.0, 201)
    assert fit_k_tails(near, 1.0 / (1.0 + near ** 2)) == (None, None)
    far = np.geomspace(1.0, 1e4, 200)
    k = np.concatenate([-far[::-1], far])
    assert fit_k_tails(k, np.abs(k) ** -1.0) == (None, None)
    left, right = fit_k_tails(k, 0.3 * np.abs(k) ** -2.0)
    assert left.exponent == right.exponent == 2.0
    assert abs(right.coeff / 0.3 - 1.0) < 1e-12


def test_x_tail_declines_zones_it_cannot_fit():
    x = np.linspace(0.0, 100.0, 1001)
    decay = 0.5 / (1.0 + x ** 2)
    # the outer quarter holds 2 periods of 10, short of the 4 required
    assert fit_x_tail(x, decay, 10.0) == (None, False)
    # 11 nodes in the outer quarter, short of 32
    coarse = np.linspace(0.0, 100.0, 41)
    assert fit_x_tail(coarse, 0.5 / (1.0 + coarse ** 2), None) == (None, True)
    # the zone's first block of 12 (75 <= x < 77.08) is empty: a zero block
    # mean has no logarithm to regress
    gap = np.where(x < 77.5, 0.0, decay)
    assert fit_x_tail(x, gap, None) == (None, True)
    side, stable = fit_x_tail(x, decay, None)
    assert side.exponent == 2.0 and stable


def test_entropy_beyond_a_massless_tail_is_zero():
    side = TailSide(coeff=0.0, exponent=2.0, oscillatory=False, valid_from=1.0)
    assert side.entropy_beyond(5.0) == 0.0
