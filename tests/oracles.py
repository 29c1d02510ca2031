"""Reference computations that only tests use.

- `mc_diff_shannon`: the Shannon entropy of a density by Monte-Carlo,
  drawn by inverse-CDF sampling, independent of the quadrature path that
  `gupcert.diff_shannon` takes (criterion 12 and the Monte-Carlo tests);
- `fourier_x_to_q`: the inverse of `gupcert.fourier_q_to_x`, for the
  round-trip tests;
- `pchip`: SciPy's monotone cubic interpolant with its overflow warnings
  silenced, the reference interpolant of the measurement and transform
  tests.

pytest does not collect this file.
"""

import math

import numpy as np
from scipy.interpolate import PchipInterpolator

from gupcert.core import DensityFn, EntropyValue, Grid
from gupcert.errors import ContractError
from gupcert.quadrature import ENTROPY_FLOOR
from gupcert.transform import _fourier_sum


def pchip(x: np.ndarray, y: np.ndarray) -> PchipInterpolator:
    # image grids span many decades; silence spurious overflow in the
    # monotone slope blend, the interpolant itself stays finite
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return PchipInterpolator(x, y)


def fourier_x_to_q(psi: np.ndarray, x_grid: Grid, q_grid: Grid) -> np.ndarray:
    """phi at the nodes of q_grid by quadrature of psi against e^{-iqx} on
    x_grid; no renormalization."""
    coeff = x_grid.weights * np.asarray(psi, dtype=complex)
    return _fourier_sum(-1.0, q_grid.nodes, x_grid.nodes, coeff)[0]


def mc_diff_shannon(density: DensityFn, n_samples: int, seed: int) -> EntropyValue:
    """Monte-Carlo Shannon entropy by inverse-CDF sampling on the grid.

    Kept deliberately independent of the quadrature path: samples are drawn
    from the interpolated CDF and scored with -ln p at the sampled points.
    The estimate's standard error is reported as est_error; it is a
    cross-check oracle, not a production estimator.
    """
    if n_samples < 2:
        raise ContractError("need at least two samples")
    rng = np.random.default_rng(seed)
    x, p = density.grid.nodes, np.clip(density.values, 0.0, None)
    # refine the mesh before inverting: the inverse interpolant's implied
    # sampling density then tracks the scored density to higher order
    shape = pchip(x, p)
    for _ in range(2):
        x = np.sort(np.concatenate([x, 0.5 * (x[:-1] + x[1:])]))
    p = np.clip(shape(x), 0.0, None)
    anti = pchip(x, p).antiderivative()
    cdf_nodes = anti(x) - anti(x[0])
    m_left, m_right = density.tail_masses
    total = m_left + cdf_nodes[-1] + m_right

    u = rng.random(n_samples) * total
    log_p = np.empty(n_samples)

    in_left = u < m_left
    in_right = u > m_left + cdf_nodes[-1]
    mid = ~(in_left | in_right)

    # window samples: invert the monotone piecewise CDF numerically; flat
    # stretches (zero-density regions) carry no mass and are dropped so the
    # inverse interpolant has finite slopes
    cu = m_left + cdf_nodes
    keep = np.concatenate([[True], np.diff(cu) > 1e-14 * total])
    inv = pchip(cu[keep], x[keep])
    xs = inv(u[mid])
    dens = pchip(x, p)(xs)
    log_p[mid] = np.log(np.clip(dens, ENTROPY_FLOOR, None))

    # tail samples: invert the mean-envelope power law analytically
    for mask, side, sign in ((in_left, density.tail_left, -1.0),
                             (in_right, density.tail_right, 1.0)):
        if side is None or not np.any(mask):
            continue
        residual = u[mask] if sign < 0 else total - u[mask]
        t = side.quantile_beyond(np.clip(residual, 1e-300, None))
        log_p[mask] = np.log(side.coeff) - side.exponent * np.log(t)

    values = -log_p
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(n_samples))
    return EntropyValue(value=mean, differential=True, est_error=se)
