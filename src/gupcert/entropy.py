"""Differential and discrete entropy functionals, norms, binning, MC oracle.

Differential entropies are quadrature sums over the density's own grid plus
closed-form contributions of the fitted tail models where a model extends a
window.  An image grid's measure already covers the axis (its
tail_mass_bound is 0), so there the models add nothing and only decide
whether a power integral diverges.  Error estimates come from the rule that
built the grid (`Grid.rule_error`: Legendre coefficient decay on Gauss
panels, the trapezoid sum against its every-other-node subsample on
lattices), plus a few ulps of rounding in the density values and a share of
each tail model's contribution.  Binned probabilities carry a bound on their
own errors, from the CDF spline and the tail models, which the discrete
functionals propagate to first order.  Acceptance thresholds elsewhere
reference these estimates rather than absolute truth.

Every Renyi entropy, norm and Tsallis entropy of order a reads one power
sum S_a = sum_j w_j p_j^a (w_j = 1 for bins, tail integrals added for
densities), formed relative to the largest p so that no order under- or
overflows:

    Renyi    R_a = ln S_a / (1-a)
    norm     ||p||_a = S_a^(1/a)
    Tsallis  H_a = (S_a - 1) / (1-a) = expm1((1-a) R_a) / (1-a)

with the a -> 1 limit dispatching to the Shannon entropy in all three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .core import DensityFn, DiscreteDist
from .errors import ContractError, InvalidParameterError, NormDivergenceError
from .quadrature import ENTROPY_FLOOR, entropy_sum, pchip

_EPS = float(np.finfo(float).eps)
_VALUE_ULPS = 4  # rounding carried by a density value, in units of _EPS
_BUMP_PEAK = 4.0  # bound on 15/4, a pair's peak-to-mean interpolation error


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

    Tail models that extend a window (tail_mass_bound > 0) contribute their
    period-averaged closed forms.  The error estimate adds the grid rule's
    own estimate, a few ulps of rounding in each density value (which ln p
    turns into p |1 + ln p| per ulp) and 3% of the tail models'
    contribution.
    """
    w, p = density.grid.weights, density.values
    core = entropy_sum(w, p)
    tail = 0.0
    if density.tail_mass_bound > 0.0:
        for side, start, _ in density.tail_sides():
            tail += side.entropy_beyond(start)
    live = p > ENTROPY_FLOOR
    log_p = np.log(np.clip(p, ENTROPY_FLOOR, None))
    rounding = _VALUE_ULPS * _EPS * float(
        np.dot(w, np.where(live, p * np.abs(1.0 + log_p), 0.0)))
    f = np.where(live, -p * log_p, 0.0)
    est = density.grid.rule_error(f) + rounding + 0.03 * abs(tail)
    return EntropyValue(value=core + tail, differential=True, est_error=est)


def _power_sum(p: np.ndarray, alpha: float, weights=None, tails=()):
    """ln of sum_j w_j p_j**alpha plus the integrals of p**alpha beyond the
    starts of (TailSide, start) tails; the weights default to one (bins).

    Formed as alpha ln p_max + ln sum_j w_j (p_j / p_max)**alpha, the tails
    in the same unit p_max**alpha, so no order under- or overflows.  Also
    returns, in that unit, the terms (p / p_max)**alpha, their weighted sum
    and the tails' integrals.
    """
    p_max = float(np.max(p))
    terms = p / p_max
    np.power(terms, alpha, out=terms)
    core = float(np.sum(terms) if weights is None else np.dot(weights, terms))
    tail = sum(side.alpha_mass_beyond(alpha, start, p_max)
               for side, start in tails)
    return alpha * math.log(p_max) + math.log(core + tail), terms, core, tail


def renyi_and_norm(density: DensityFn,
                   alpha: float) -> tuple[EntropyValue, float]:
    """Renyi entropy and alpha-norm of one order from one integral of p**alpha.

    Both are functions of the same integral (tail models that extend the
    window included), so a caller that needs both computes it once; the
    error of ln(norm) is the Renyi entropy's times |1 - alpha| / alpha.
    alpha = 1 gives the Shannon entropy and norm 1.  Raises
    NormDivergenceError when a tail model makes the integral diverge at a
    numerically material scale.
    """
    if alpha <= 0.0:
        raise InvalidParameterError("alpha must be positive")
    if alpha == 1.0:
        return diff_shannon(density), 1.0
    sides = density.tail_sides()
    added = [(side, start) for side, start, _ in sides
             if side.alpha_converges(alpha) and density.tail_mass_bound > 0.0]
    p = np.where(density.values > ENTROPY_FLOOR, density.values, 0.0)
    log_sum, terms, core, tail = _power_sum(p, alpha, density.grid.weights,
                                            added)
    for side, start, _ in sides:  # alpha < 1 if one diverges: exp is finite
        if not side.alpha_converges(alpha) and side.alpha_mass_beyond(
                max(alpha, 1.0 / side.exponent + 0.02), start, 1.0) \
                >= 1e-12 * max(math.exp(log_sum), 1e-30):
            raise NormDivergenceError(
                f"integral of p**{alpha:g} diverges (tail exponent {side.exponent:g})",
                tail_exponent=side.exponent)
    err = (density.grid.rule_error(terms) + _VALUE_ULPS * _EPS * alpha * core
           + 0.05 * tail)
    renyi = EntropyValue(value=log_sum / (1.0 - alpha), differential=True,
                         est_error=err / (abs(1.0 - alpha) * (core + tail)))
    return renyi, math.exp(log_sum / alpha)


def alpha_norm(density: DensityFn, alpha: float) -> float:
    """(integral of p**alpha)**(1/alpha); equals 1 at alpha = 1."""
    return renyi_and_norm(density, alpha)[1]


def diff_renyi(density: DensityFn, alpha: float) -> EntropyValue:
    """Differential Renyi entropy ln(integral p**alpha) / (1 - alpha)."""
    return renyi_and_norm(density, alpha)[0]


# ---------------------------------------------------------------------------
# binning
# ---------------------------------------------------------------------------

class DensityCdf:
    """Cumulative distribution of one density: one spline, read many times.

    Inside the window a cubic-spline interpolant of the tabulated values is
    integrated (a monotone interpolant falls an order short of the interval
    probability tolerance); outside it the fitted power-law mass takes over.
    Calling it gives the CDF at arbitrary points, clipped monotone into
    [0, 1] and scaled so the total mass is exactly one.  A caller that reads
    the CDF more than once (a coverage window, then the bins) builds one and
    passes it to `bin_density`; its spline holds five coefficients per grid
    interval, so drop it with the bins.
    """

    def __init__(self, density: DensityFn):
        x, p = density.grid.nodes, density.values
        self.density = density
        self._anti = CubicSpline(x, np.clip(p, 0.0, None)).antiderivative()
        lo, hi = density.window
        m_left, m_right = density.tail_masses
        window_mass = float(self._anti(hi) - self._anti(lo))
        self.total = m_left + window_mass + m_right

    def __call__(self, points: np.ndarray) -> np.ndarray:
        density, anti, total = self.density, self._anti, self.total
        lo, hi = density.window
        m_left = density.tail_masses[0]
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

    def bin_errors(self, edges: np.ndarray, cdf: np.ndarray,
                   probs: np.ndarray) -> np.ndarray:
        """Bound on |dp_i| of the bin probabilities `probs` read from this
        CDF, whose values at the edges are `cdf`.

        Two error measures grow from left to right; the increase of their
        sum across a bin, with what lies beyond the end edges folded into
        the end bins as bin_density folds the mass, bounds that bin's error:
        - the spline's local error: on each pair of grid intervals, the gap
          between the spline's integral and the three-point (Simpson) rule
          on the same nodes, summed from the left end of the window;
        - the tail models' share of the mass they place.
        Two terms are added per bin: the relative gap between the spline's
        total mass and the grid rule's, by which every probability is
        rescaled, and a few ulps of the bin's upper CDF value for rounding,
        since every probability is a difference of two CDF values.
        """
        density = self.density
        x = density.grid.nodes
        f = np.clip(density.values, 0.0, None)
        at_nodes = np.append(self._anti.c[-1], self._anti(x[-1]))
        # pairs of intervals (i, i+1, i+2) for even i; with an odd interval
        # count the last three nodes close the last interval
        i0 = np.arange(0, x.size - 2, 2)
        if x.size % 2 == 0 and x.size >= 3:
            i0 = np.append(i0, x.size - 3)
        h0, h1 = x[i0 + 1] - x[i0], x[i0 + 2] - x[i0 + 1]
        span = h0 + h1
        simpson = span / 6.0 * ((2.0 - h1 / h0) * f[i0]
                                + span * span / (h0 * h1) * f[i0 + 1]
                                + (2.0 - h0 / h1) * f[i0 + 2])
        # the interpolation error on an interval has the shape
        # (t (1 - t))^2, which peaks at 15/8 of its mean, and a pair's error
        # may sit in one of its intervals: a bin narrower than a pair gets
        # up to 15/4 of its length share
        gaps = np.cumsum(_BUMP_PEAK * np.abs(at_nodes[i0 + 2] - at_nodes[i0]
                                             - simpson))
        grown = np.interp(edges, np.append(x[0], x[i0 + 2]),
                          np.append(0.0, gaps))
        full = float(gaps[-1]) if gaps.size else 0.0

        m_left, m_right = density.tail_masses
        if m_left or m_right:
            # below the window the CDF is the left model's mass and above it
            # 1 - CDF the right model's; in between the models place m_left
            # a window-extending model is good to 5%; on an image grid the
            # modelled mass is counted twice, so all of it is error
            share = 0.05 if density.tail_mass_bound > 0.0 else 1.0
            lo, hi = density.window
            n_lo = int(np.searchsorted(edges, lo, side="right"))
            n_hi = int(np.searchsorted(edges, hi, side="left"))
            grown += share * m_left
            grown[:n_lo] += share * (self.total * cdf[:n_lo] - m_left)
            grown[n_hi:] += share * (m_right - self.total * (1.0 - cdf[n_hi:]))
            full += share * (m_left + m_right)

        errors = np.diff(grown)
        errors[0] += grown[0]
        errors[-1] += full - grown[-1]
        errors /= self.total
        rule_total = density.grid.integrate(f) + m_left + m_right
        scratch = grown[1:]  # reused for the two per-bin terms
        np.multiply(probs, abs(self.total - rule_total) / self.total, out=scratch)
        errors += scratch
        np.multiply(cdf[1:], _VALUE_ULPS * _EPS, out=scratch)
        errors += scratch
        return np.clip(errors, 0.0, None, out=errors)


def as_cdf(density: DensityFn | DensityCdf) -> DensityCdf:
    """The density's CDF; a DensityCdf passes through unchanged."""
    return density if isinstance(density, DensityCdf) else DensityCdf(density)


def density_cdf(density: DensityFn, points: np.ndarray) -> np.ndarray:
    """Cumulative distribution at arbitrary points, tail models included
    (see DensityCdf, which this builds and calls once)."""
    return DensityCdf(density)(points)


def bin_density(density: DensityFn | DensityCdf,
                edges: np.ndarray) -> DiscreteDist:
    """Interval probabilities of a density, out-of-range mass folded inward.

    The edges must capture at least 1 - 1e-6 of the mass; what little lies
    outside is folded into the first and last bins so the discrete
    distribution is exactly normalized.  The density may come as the
    DensityCdf a caller already built for it.  Each probability carries the
    error bound of DensityCdf.bin_errors.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.size < 2:
        raise ContractError("need at least two bin edges")
    if np.any(np.diff(edges) <= 0.0):
        raise ContractError("bin edges must be strictly increasing")
    cdf_of = as_cdf(density)
    cdf = cdf_of(edges)
    coverage = cdf[-1] - cdf[0]
    if coverage < 1.0 - 1e-6:
        raise ContractError(f"bins cover only {coverage:.8f} of the mass")
    probs = np.diff(cdf)
    probs[0] += cdf[0]
    probs[-1] += 1.0 - cdf[-1]
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    return DiscreteDist(edges=edges, probs=probs,
                        prob_errors=cdf_of.bin_errors(edges, cdf, probs))


# ---------------------------------------------------------------------------
# discrete entropies
# ---------------------------------------------------------------------------

def _positive(dist: DiscreteDist) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero probabilities and their errors (views when none is zero)."""
    mask = dist.probs > 0.0
    if mask.all():
        return dist.probs, dist.prob_errors
    return dist.probs[mask], dist.prob_errors[mask]


# The errors below propagate each bin's |dp_i| to first order.

def _discrete_shannon(dist: DiscreteDist) -> EntropyValue:
    """-sum p ln p, with error sum |dp_i| (1 + |ln p_i|)."""
    p, dp = _positive(dist)
    log_p = np.log(p)
    value = float(-np.sum(p * log_p))
    np.abs(log_p, out=log_p)
    log_p += 1.0
    return EntropyValue(value=value, differential=False,
                        est_error=float(np.dot(dp, log_p)))


def discrete_renyi_and_norm(dist: DiscreteDist,
                            alpha: float) -> tuple[EntropyValue, float]:
    """Renyi entropy and ||p||_alpha of one order from one power sum.

    Both are functions of ln sum_j p_j**alpha, whose error is
    alpha sum p^(alpha-1) |dp| / sum p^alpha; the entropy's error is that
    over |1 - alpha|.  alpha = 1 gives the Shannon entropy and norm 1.
    """
    if alpha <= 0.0:
        raise InvalidParameterError("alpha must be positive")
    if alpha == 1.0:
        return _discrete_shannon(dist), 1.0
    p, dp = _positive(dist)
    log_sum, terms, core, _ = _power_sum(p, alpha)
    terms /= p  # p^(alpha-1) / sum p^alpha is terms / (p core)
    err = alpha / abs(1.0 - alpha) * float(np.dot(terms, dp)) / core
    return EntropyValue(value=log_sum / (1.0 - alpha), differential=False,
                        est_error=err), math.exp(log_sum / alpha)


def discrete_norm(dist: DiscreteDist, alpha: float) -> float:
    """||p||_alpha = (sum p_j^alpha)^(1/alpha), from the power sum taken
    relative to the largest probability."""
    return discrete_renyi_and_norm(dist, alpha)[1]


def discrete_renyi(dist: DiscreteDist, alpha: float) -> EntropyValue:
    """Renyi entropy of a binned distribution; alpha = 1 gives Shannon."""
    return discrete_renyi_and_norm(dist, alpha)[0]


def discrete_tsallis(dist: DiscreteDist, alpha: float) -> EntropyValue:
    """Tsallis entropy (sum p^alpha - 1)/(1 - alpha); alpha = 1 gives Shannon.

    Read from the Renyi entropy R of the same order: sum p^alpha is
    exp((1 - alpha) R), and the error is that sum times R's error.
    """
    renyi = discrete_renyi(dist, alpha)
    if alpha == 1.0:
        return renyi
    log_sum = (1.0 - alpha) * renyi.value
    return EntropyValue(value=math.expm1(log_sum) / (1.0 - alpha),
                        differential=False,
                        est_error=math.exp(log_sum) * renyi.est_error)


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
