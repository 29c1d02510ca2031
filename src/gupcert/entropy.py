"""Differential and discrete entropy functionals, norms, binning, MC oracle.

Differential entropies are quadrature sums over the density's own grid plus
closed-form contributions of the fitted tail models.  Error estimates compare
the grid rule against a monotone-interpolant integral of the same tabulated
integrand; acceptance thresholds elsewhere reference these estimates rather
than absolute truth.

Discrete entropies follow the conventional definitions via the norm-like
functional ||p||_a = (sum_j p_j^a)^(1/a):

    Renyi    R_a(p) = a/(1-a) ln ||p||_a
    Tsallis  H_a(p) = (||p||_a^a - 1) / (1-a)

with the a -> 1 limit dispatching to the Shannon sum in both families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .core import DensityFn, DiscreteDist
from .errors import ContractError, InvalidParameterError, NormDivergenceError
from .quadrature import (ENTROPY_FLOOR, entropy_sum, interp_delta, pchip,
                         power_sum)


@dataclass(frozen=True)
class EntropyValue:
    value: float
    differential: bool
    est_error: float

    def __post_init__(self):
        if self.est_error < 0.0:
            raise ContractError("est_error must be nonnegative")
        if not self.differential and self.value < -1e-12:
            raise ContractError("discrete entropies are nonnegative")


# ---------------------------------------------------------------------------
# differential entropies
# ---------------------------------------------------------------------------

def diff_shannon(density: DensityFn) -> EntropyValue:
    """Differential Shannon entropy -integral p ln p in nats.

    Tail models contribute their period-averaged closed forms; their share of
    the value is also folded into the error estimate at the few-percent level
    the envelope fits are good for.
    """
    x, w, p = density.grid.nodes, density.grid.weights, density.values
    core = entropy_sum(w, p)
    tail = 0.0
    for side, start, _ in density.tail_sides():
        tail += side.entropy_beyond(start)
    f = np.where(p > ENTROPY_FLOOR, -p * np.log(np.clip(p, ENTROPY_FLOOR, None)), 0.0)
    est = interp_delta(x, f, core) + 0.03 * abs(tail) + 1e-14
    return EntropyValue(value=core + tail, differential=True, est_error=est)


def renyi_and_norm(density: DensityFn,
                   alpha: float) -> tuple[EntropyValue, float]:
    """Renyi entropy and alpha-norm of one order from one integral of p**alpha.

    Both are functions of the same integral (tail models included), so a
    caller that needs both computes it once.  alpha = 1 gives the Shannon
    entropy and norm 1.  Raises NormDivergenceError when a tail model makes
    the integral diverge at a numerically material scale.
    """
    if alpha <= 0.0:
        raise InvalidParameterError("alpha must be positive")
    if alpha == 1.0:
        return diff_shannon(density), 1.0
    x, w, p = density.grid.nodes, density.grid.weights, density.values
    core = power_sum(w, p, alpha)
    tail = 0.0
    for side, start, _ in density.tail_sides():
        if not side.alpha_converges(alpha):
            if side.alpha_mass_beyond(max(alpha, 1.0 / side.exponent + 0.02), start) \
                    < 1e-12 * max(core, 1e-30):
                continue
            raise NormDivergenceError(
                f"integral of p**{alpha:g} diverges (tail exponent {side.exponent:g})",
                tail_exponent=side.exponent)
        tail += side.alpha_mass_beyond(alpha, start)
    f = np.where(p > ENTROPY_FLOOR, p ** alpha, 0.0)
    err = interp_delta(x, f, core) + 0.05 * tail
    total = core + tail
    renyi = EntropyValue(value=math.log(total) / (1.0 - alpha),
                         differential=True,
                         est_error=err / (abs(1.0 - alpha) * max(total, 1e-300)))
    return renyi, total ** (1.0 / alpha)


def alpha_norm(density: DensityFn, alpha: float) -> float:
    """(integral of p**alpha)**(1/alpha); equals 1 at alpha = 1."""
    return renyi_and_norm(density, alpha)[1]


def diff_renyi(density: DensityFn, alpha: float) -> EntropyValue:
    """Differential Renyi entropy ln(integral p**alpha) / (1 - alpha)."""
    return renyi_and_norm(density, alpha)[0]


# ---------------------------------------------------------------------------
# binning
# ---------------------------------------------------------------------------

def density_cdf(density: DensityFn, points: np.ndarray) -> np.ndarray:
    """Cumulative distribution at arbitrary points, tail models included.

    Inside the window a cubic-spline interpolant of the tabulated values is
    integrated (a monotone interpolant falls an order short of the interval
    probability tolerance); outside it the fitted power-law mass takes over.
    The result is clipped monotone into [0, 1] and scaled so the total mass
    is exactly one.
    """
    from scipy.interpolate import CubicSpline

    x, p = density.grid.nodes, density.values
    anti = CubicSpline(x, np.clip(p, 0.0, None)).antiderivative()
    lo, hi = density.window
    m_left, m_right = density.tail_masses
    window_mass = float(anti(hi) - anti(lo))
    total = m_left + window_mass + m_right

    pts = np.asarray(points, dtype=float)
    out = np.empty(pts.shape)
    below = pts <= lo
    above = pts >= hi
    inside = ~(below | above)
    if density.tail_left is not None:
        out[below] = density.tail_left.mass_beyond(np.abs(pts[below]))
    else:
        out[below] = 0.0
    if density.tail_right is not None:
        out[above] = total - density.tail_right.mass_beyond(pts[above])
    else:
        out[above] = total
    out[inside] = m_left + (anti(pts[inside]) - anti(lo))
    return np.clip(out / total, 0.0, 1.0)


def bin_density(density: DensityFn, edges: np.ndarray) -> DiscreteDist:
    """Interval probabilities of a density, out-of-range mass folded inward.

    The edges must capture at least 1 - 1e-6 of the mass; what little lies
    outside is folded into the first and last bins so the discrete
    distribution is exactly normalized.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.size < 2:
        raise ContractError("need at least two bin edges")
    if np.any(np.diff(edges) <= 0.0):
        raise ContractError("bin edges must be strictly increasing")
    cdf = density_cdf(density, edges)
    coverage = cdf[-1] - cdf[0]
    if coverage < 1.0 - 1e-6:
        raise ContractError(f"bins cover only {coverage:.8f} of the mass")
    probs = np.diff(cdf)
    probs[0] += cdf[0]
    probs[-1] += 1.0 - cdf[-1]
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    return DiscreteDist(edges=edges, probs=probs)


# ---------------------------------------------------------------------------
# discrete entropies
# ---------------------------------------------------------------------------

def _discrete_shannon(dist: DiscreteDist) -> EntropyValue:
    p = dist.probs[dist.probs > 0.0]
    return EntropyValue(value=float(-np.sum(p * np.log(p))),
                        differential=False, est_error=0.0)


def discrete_renyi_and_norm(dist: DiscreteDist,
                            alpha: float) -> tuple[EntropyValue, float]:
    """Renyi entropy and ||p||_alpha of one order from one log-space sum.

    Both are functions of ln sum_j p_j**alpha.  alpha = 1 gives the Shannon
    entropy and norm 1.
    """
    if alpha <= 0.0:
        raise InvalidParameterError("alpha must be positive")
    if alpha == 1.0:
        return _discrete_shannon(dist), 1.0
    p = dist.probs[dist.probs > 0.0]
    log_sum = float(logsumexp(alpha * np.log(p)))
    return EntropyValue(value=log_sum / (1.0 - alpha), differential=False,
                        est_error=0.0), math.exp(log_sum / alpha)


def discrete_norm(dist: DiscreteDist, alpha: float) -> float:
    """||p||_alpha = (sum p_j^alpha)^(1/alpha), computed in log space."""
    return discrete_renyi_and_norm(dist, alpha)[1]


def discrete_renyi(dist: DiscreteDist, alpha: float) -> EntropyValue:
    """Renyi entropy of a binned distribution; alpha = 1 gives Shannon."""
    return discrete_renyi_and_norm(dist, alpha)[0]


def discrete_tsallis(dist: DiscreteDist, alpha: float) -> EntropyValue:
    """Tsallis entropy (sum p^alpha - 1)/(1 - alpha); alpha = 1 gives Shannon."""
    if alpha <= 0.0:
        raise InvalidParameterError("alpha must be positive")
    if alpha == 1.0:
        return _discrete_shannon(dist)
    p = dist.probs[dist.probs > 0.0]
    value = (float(np.sum(p ** alpha)) - 1.0) / (1.0 - alpha)
    return EntropyValue(value=value, differential=False, est_error=0.0)


def alpha_log(y: float, nu: float) -> float:
    """Deformed logarithm (y^(1-nu) - 1)/(1-nu), continuous in nu at 1."""
    if y <= 0.0:
        raise InvalidParameterError("alpha_log needs y > 0")
    if nu <= 0.0:
        raise InvalidParameterError("alpha_log needs nu > 0")
    if nu == 1.0:
        return math.log(y)
    return math.expm1((1.0 - nu) * math.log(y)) / (1.0 - nu)


# ---------------------------------------------------------------------------
# Monte-Carlo oracle
# ---------------------------------------------------------------------------

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
