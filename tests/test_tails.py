"""The power-law tail model: inversion and outside mass."""

import numpy as np
import pytest

from gupcert.tails import TailSide, outside_masses


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
