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

Binning has one path: a DensityCdf gives a density's coverage window,
random_edges lays random-width bins over it and bin_density reads them;
bin_pair does all three for a (wavenumber, position) pair and reduces each
binned distribution to the BinnedSums the binned checks read.  That
reduction, binned_sums, folds the bins into their sums one block of
quadrature._BLOCK_ENTRIES bins at a time: of a heavy-tailed density's
millions of bins it holds only the edges and the probabilities, while
bin_density's DiscreteDist, built from the same per-block arithmetic, also
holds every bin's error bound.

Every Renyi entropy, norm and Tsallis entropy of order a reads one power
sum S_a = sum_j w_j p_j^a (w_j = 1 for bins, tail integrals added for
densities), formed relative to the largest p so that no order under- or
overflows:

    Renyi    R_a = ln S_a / (1-a)
    norm     ||p||_a = S_a^(1/a)
    Tsallis  H_a = (S_a - 1) / (1-a) = expm1((1-a) R_a) / (1-a)

with the a -> 1 limit dispatching to the Shannon entropy in all three, and
a = inf taking the limits -ln max p, max p and (for bins) 0.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from . import quadrature
from .core import (_EPS, _VALUE_ULPS, DensityFn, DiscreteDist,
                   EntropyValue)
from .errors import ContractError, InvalidParameterError, NormDivergenceError
from .quadrature import ENTROPY_FLOOR, pchip

_BUMP_PEAK = 4.0  # bound on 15/4, a pair's peak-to-mean interpolation error
_OUTSIDE_MASS = 3e-7  # mass per side left outside a coverage window


# ---------------------------------------------------------------------------
# differential entropies
# ---------------------------------------------------------------------------

def diff_shannon(density: DensityFn) -> EntropyValue:
    """Differential Shannon entropy -integral p ln p in nats, with its error:
    the density's own `DensityFn.shannon`, taken on its first read and kept
    (core._shannon gives the tail terms and the error estimate)."""
    return density.shannon


def _power_sum(p: np.ndarray, alpha: float, weights: np.ndarray, tails):
    """ln of sum_j w_j p_j**alpha plus the integrals of p**alpha beyond the
    starts of (TailSide, start) tails.

    Formed as alpha ln p_max + ln sum_j w_j (p_j / p_max)**alpha, the tails
    in the same unit p_max**alpha, so no order under- or overflows.  Also
    returns, in that unit, the terms (p / p_max)**alpha, their weighted sum
    and the tails' integrals.
    """
    p_max = float(np.max(p))
    terms = p / p_max
    np.power(terms, alpha, out=terms)
    core = float(np.dot(weights, terms))
    tail = sum(side.alpha_mass_beyond(alpha, start, p_max)
               for side, start in tails)
    return alpha * math.log(p_max) + math.log(core + tail), terms, core, tail


def renyi_and_norm(density: DensityFn,
                   alpha: float) -> tuple[EntropyValue, float]:
    """Renyi entropy and alpha-norm of one order from one integral of p**alpha.

    Both are functions of the same integral (tail models that extend the
    window included), so a caller that needs both computes it once; the
    error of ln(norm) is the Renyi entropy's times |1 - alpha| / alpha.
    alpha = 1 gives the Shannon entropy and norm 1, alpha = inf the limits
    -ln sup p and sup p.  Raises NormDivergenceError when a tail model makes
    the integral diverge, or converge too slowly to resolve, at a
    numerically material scale.
    """
    if alpha <= 0.0:
        raise InvalidParameterError("alpha must be positive")
    if alpha == 1.0:
        return diff_shannon(density), 1.0
    if math.isinf(alpha):
        return _sup_renyi(density)
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
            verb = ("converges too slowly to resolve"
                    if side.exponent * alpha > 1.0 else "diverges")
            raise NormDivergenceError(
                f"integral of p**{alpha:g} {verb} (tail exponent {side.exponent:g})",
                tail_exponent=side.exponent)
    err = (density.grid.rule_error(terms) + _VALUE_ULPS * _EPS * alpha * core
           + 0.05 * tail)
    renyi = EntropyValue(value=log_sum / (1.0 - alpha), differential=True,
                         est_error=err / (abs(1.0 - alpha) * (core + tail)))
    return renyi, math.exp(log_sum / alpha)


def _sup_renyi(density: DensityFn) -> tuple[EntropyValue, float]:
    """R_inf = -ln sup p and ||p||_inf = sup p, read at the largest node.

    That node can only under-read the supremum, so the error adds the rise
    of the parabola through it and its two neighbours over their span.
    """
    x, p = density.grid.nodes, density.values
    i = int(np.argmax(p))
    p_max = float(p[i])
    j = min(max(i, 1), p.size - 2)  # the middle of the three nodes
    (x0, x1, x2), (y0, y1, y2) = x[j - 1:j + 2], p[j - 1:j + 2]
    slope = (y1 - y0) / (x1 - x0)
    curv = ((y2 - y1) / (x2 - x1) - slope) / (x2 - x0)
    rise = 0.0
    if curv < 0.0:
        top = min(max(0.5 * (x0 + x1 - slope / curv), x0), x2)
        rise = max(0.0, float(y0 + (top - x0) * (slope + curv * (top - x1)))
                   - p_max)
    return (EntropyValue(value=-math.log(p_max), differential=True,
                         est_error=rise / p_max + _VALUE_ULPS * _EPS), p_max)


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
    [0, 1] and scaled so the total mass is exactly one, in one pass over
    the points: the binning hands it one block of edges at a time, so its
    temporaries stay block-sized.  `node_cdf` holds those values at the
    grid nodes.  A caller that reads the CDF more than once (a coverage
    window, then the bins) builds one and passes it to `bin_density` or
    `binned_sums`; its spline holds five coefficients per grid interval, so
    drop it with the bins.
    """

    def __init__(self, density: DensityFn):
        x, p = density.grid.nodes, density.values
        self.density = density
        self._anti = anti = CubicSpline(x, np.clip(p, 0.0, None)).antiderivative()
        # the antiderivative at every node: each interval's constant
        # coefficient is its value at the left node, zero at the first
        self._at_nodes = np.append(anti.c[-1], anti(x[-1]))
        m_left, m_right = density.tail_masses
        self.total = m_left + float(self._at_nodes[-1]) + m_right
        inner = np.clip((m_left + self._at_nodes[1:-1]) / self.total, 0.0, 1.0)
        ends = self(x[[0, -1]])
        self.node_cdf = np.concatenate([ends[:1], inner, ends[1:]])

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        density, total = self.density, self.total
        lo, hi = density.window
        below = pts <= lo
        above = pts >= hi
        inside = ~(below | above)
        out = np.empty(pts.shape)
        if density.tail_left is not None:
            out[below] = density.tail_left.mass_beyond(np.abs(pts[below]))
        else:
            out[below] = 0.0
        if density.tail_right is not None:
            out[above] = total - density.tail_right.mass_beyond(pts[above])
        else:
            out[above] = total
        out[inside] = density.tail_masses[0] + self._anti(pts[inside])
        out /= total
        return np.clip(out, 0.0, 1.0, out=out)

    def coverage_window(self) -> tuple[float, float]:
        """Window with less than _OUTSIDE_MASS of the mass beyond each end.

        Uses the tail-model quantile when the model still holds that much
        mass at the window edge; otherwise the quantile comes from this CDF,
        which the binning then reads, so the coverage precondition of
        bin_density is met by construction.
        """
        frac, at, x = _OUTSIDE_MASS, self.node_cdf, self.density.grid.nodes
        lo, hi = _model_window(self.density)
        if lo is None:
            lo = float(x[max(0, np.searchsorted(at, frac, side="right") - 1)])
        if hi is None:
            hi = float(x[min(x.size - 1, np.searchsorted(at, 1.0 - frac))])
        return lo, hi

    def bin_errors(self, edges: np.ndarray, probs: np.ndarray):
        """Bound on |dp_i| of the bin probabilities `probs` read from this
        CDF at `edges`, block by block: yields, for each block of
        quadrature._BLOCK_ENTRIES bins, its first bin's index and its bins'
        bounds.

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
        since every probability is a difference of two CDF values.  Each
        block reads the CDF at its own edges again, so that besides the
        edges and probabilities only block-sized arrays are held.
        """
        density = self.density
        x = density.grid.nodes
        f = np.clip(density.values, 0.0, None)
        at_nodes = self._at_nodes
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
        knots, grown_at = np.append(x[0], x[i0 + 2]), np.append(0.0, gaps)
        full = float(gaps[-1]) if gaps.size else 0.0

        m_left, m_right = density.tail_masses
        tails = bool(m_left or m_right)
        if tails:
            # a window-extending model is good to 5%; on an image grid the
            # modelled mass is counted twice, so all of it is error
            share = 0.05 if density.tail_mass_bound > 0.0 else 1.0
            lo, hi = density.window
            full += share * (m_left + m_right)
        rule_total = density.grid.integrate(f) + m_left + m_right
        rescale = abs(self.total - rule_total) / self.total

        n, size = probs.size, quadrature._BLOCK_ENTRIES
        for start in range(0, n, size):
            stop = min(start + size, n)
            at = edges[start:stop + 1]
            cdf = self(at)
            grown = np.interp(at, knots, grown_at)
            if tails:
                # below the window the CDF is the left model's mass and
                # above it 1 - CDF the right model's; in between the models
                # place m_left
                below = slice(None, int(np.searchsorted(at, lo, side="right")))
                above = slice(int(np.searchsorted(at, hi, side="left")), None)
                grown += share * m_left
                grown[below] += share * (self.total * cdf[below] - m_left)
                grown[above] += share * (m_right
                                         - self.total * (1.0 - cdf[above]))
            block = np.subtract(grown[1:], grown[:-1])
            if start == 0:
                block[0] += grown[0]
            if stop == n:
                block[-1] += full - grown[-1]
            block /= self.total
            block += probs[start:stop] * rescale
            block += cdf[1:] * (_VALUE_ULPS * _EPS)
            yield start, np.clip(block, 0.0, None, out=block)


def _model_window(density: DensityFn) -> tuple[float | None, float | None]:
    """The coverage window's ends that tail-model quantiles fix; None at an
    end whose quantile the CDF must give (see DensityCdf.coverage_window)."""
    frac = _OUTSIDE_MASS
    m_left, m_right = density.tail_masses
    lo = -density.tail_left.quantile_beyond(frac) if m_left > frac else None
    hi = density.tail_right.quantile_beyond(frac) if m_right > frac else None
    return lo, hi


def density_cdf(density: DensityFn, points: np.ndarray) -> np.ndarray:
    """Cumulative distribution at arbitrary points, tail models included
    (see DensityCdf, which this builds and calls once)."""
    return DensityCdf(density)(points)


def _binned_probs(cdf_of: DensityCdf,
                  edges: np.ndarray) -> tuple[np.ndarray, float]:
    """The bin probabilities of bin_density and the widest bin's width.

    The probabilities are formed in place from the CDF values at the edges,
    read block by block, so no other array of bin length is held; their
    sum normalizes them.  Raises ContractError on fewer than two edges, on
    edges that do not increase, and on bins that miss more than 1e-6 of
    the mass.
    """
    n = edges.size - 1
    if n < 1:
        raise ContractError("need at least two bin edges")
    probs = np.empty(n)
    delta_max, size = 0.0, quadrature._BLOCK_ENTRIES
    for start in range(0, n, size):
        at = edges[start:start + size + 1]
        widths = np.diff(at)
        if np.any(widths <= 0.0):
            raise ContractError("bin edges must be strictly increasing")
        delta_max = max(delta_max, float(np.max(widths)))
        cdf = cdf_of(at)
        np.subtract(cdf[1:], cdf[:-1], out=probs[start:start + widths.size])
        if start == 0:
            first = cdf[0]
    last = cdf[-1]
    coverage = last - first
    if coverage < 1.0 - 1e-6:
        raise ContractError(f"bins cover only {coverage:.8f} of the mass")
    probs[0] += first
    probs[-1] += 1.0 - last
    np.clip(probs, 0.0, None, out=probs)
    probs /= probs.sum()
    return probs, delta_max


def _cdf_of(density: DensityFn | DensityCdf) -> DensityCdf:
    """The CDF a caller passed, or a new one of the density it passed."""
    return density if isinstance(density, DensityCdf) else DensityCdf(density)


def bin_density(density: DensityFn | DensityCdf,
                edges: np.ndarray) -> DiscreteDist:
    """Interval probabilities of a density, out-of-range mass folded inward.

    The edges must capture at least 1 - 1e-6 of the mass; what little lies
    outside is folded into the first and last bins so the discrete
    distribution is exactly normalized.  The density may come as the
    DensityCdf a caller already built for it.  Each probability carries the
    error bound of DensityCdf.bin_errors.  The distribution holds three
    arrays of bin length; binned_sums reduces the same bins to their power
    sums while holding two.
    """
    cdf_of, edges = _cdf_of(density), np.asarray(edges, dtype=float)
    probs, _ = _binned_probs(cdf_of, edges)
    errors = np.empty(probs.size)
    for start, block in cdf_of.bin_errors(edges, probs):
        errors[start:start + block.size] = block
    return DiscreteDist(edges=edges, probs=probs, prob_errors=errors)


def binned_sums(density: DensityFn | DensityCdf, edges: np.ndarray,
                orders: Iterable[float]) -> "BinnedSums":
    """BinnedSums.of(bin_density(density, edges), orders), folded block by
    block.

    Only the edges and the probabilities are held at bin length: each block
    of quadrature._BLOCK_ENTRIES bins forms its error bounds and adds to
    every order's sums, so the result equals the distribution's own sums
    float for float within one block and to the rounding of a blocked sum
    beyond.
    """
    cdf_of, edges = _cdf_of(density), np.asarray(edges, dtype=float)
    probs, delta_max = _binned_probs(cdf_of, edges)
    return BinnedSums(delta_max=delta_max,
                      sums=_fold(probs, cdf_of.bin_errors(edges, probs),
                                 orders))


def random_edges(rng: np.random.Generator, lo: float, hi: float,
                 dmin: float, dmax: float) -> np.ndarray:
    """Bin edges from lo on, with widths drawn uniformly from [dmin, dmax],
    up to the first edge at or past hi.

    About 1.3 times the widths needed are drawn, straight into the edge
    array with Generator.uniform's arithmetic (dmin + (dmax - dmin) u on
    the same draws u); the edges are summed in place and the array is cut
    to its size, so it holds no unused draws.
    """
    n_est = int((hi - lo) / ((dmin + dmax) / 2.0) * 1.3) + 16
    edges = np.empty(n_est + 1)
    edges[0] = 0.0
    widths = rng.random(out=edges[1:])
    widths *= dmax - dmin
    widths += dmin
    np.cumsum(edges, out=edges)
    edges += lo
    edges.resize(min(int(np.searchsorted(edges, hi)) + 1, edges.size),
                 refcheck=False)
    return edges


@dataclass(frozen=True)
class BinnedSums:
    """What the binned checks read of one binned distribution: its widest
    bin and, per order, the Renyi entropy and norm of one power sum.

    `sums` maps each order to discrete_renyi_and_norm(dist, order) of the
    distribution it was built from (order 1: the Shannon entropy and norm
    1), so it holds no array of bin length.
    """

    delta_max: float
    sums: dict[float, tuple[EntropyValue, float]]

    @classmethod
    def of(cls, dist: DiscreteDist, orders: Iterable[float]) -> "BinnedSums":
        """The sums of `dist` at each of `orders`, each taken once."""
        return cls(delta_max=dist.delta_max,
                   sums=_fold(dist.probs, [(0, dist.prob_errors)], orders))

    def renyi_and_norm(self, order: float) -> tuple[EntropyValue, float]:
        """The Renyi entropy and norm of one order; a ContractError when
        that order was not summed."""
        try:
            return self.sums[order]
        except KeyError:
            raise ContractError(f"no power sum of order {order:g} was taken "
                                "of these bins") from None


def bin_pair(rng: np.random.Generator, a: DensityFn, b: DensityFn,
             dmin: float, dmax: float,
             orders: Iterable[float]) -> tuple[BinnedSums, BinnedSums] | None:
    """Both densities binned on random edges over their coverage windows,
    each reduced to its BinnedSums at `orders`.

    Both windows are found first, one CDF spline per density, which then
    reads that density's bins.  rng draws the edges of a, a is binned and
    reduced to its sums (binned_sums) and its edges are dropped; only then
    are the edges of b drawn and b binned.  So at most one binned
    distribution is held at a time: for a heavy-tailed density that is
    millions of bins, whose edges and probabilities are the only arrays of
    that length.
    None, with the generator untouched, when the two windows together would
    take tens of millions of bins at these widths (very heavy tails).  The
    windows there come from tail-model quantiles, so that is decided before
    any spline is built: a window end the CDF gives is a grid node, and the
    grid bounds the span from below.
    """
    cap = 4e6 * (dmin + dmax) / 2.0
    least = 0.0
    for density in (a, b):
        lo, hi = _model_window(density)
        first, last = density.window  # bounds on the ends the CDF gives
        least += max(0.0, (first if hi is None else hi)
                     - (last if lo is None else lo))
    if not least < cap:
        return None
    cdfs = (DensityCdf(a), DensityCdf(b))
    windows = [cdf.coverage_window() for cdf in cdfs]
    if not sum(hi - lo for lo, hi in windows) < cap:
        return None
    # the edges are an argument only, so they go as soon as their sums return
    return tuple(binned_sums(cdf, random_edges(rng, lo, hi, dmin, dmax),
                             orders)
                 for cdf, (lo, hi) in zip(cdfs, windows))


# ---------------------------------------------------------------------------
# discrete entropies
# ---------------------------------------------------------------------------

def _fold(probs: np.ndarray, error_blocks: Iterable[tuple[int, np.ndarray]],
          orders: Iterable[float]) -> dict[float, tuple[EntropyValue, float]]:
    """discrete_renyi_and_norm at each of `orders` of the distribution
    `probs`, whose error bounds come as (first index, block) pairs that
    tile it; each block adds to every order's sums and is then dropped.
    Zero probabilities are left out.  Over one block of all the bins this
    is discrete_renyi_and_norm itself.
    """
    orders = list(dict.fromkeys(orders))
    if any(not order > 0.0 for order in orders):
        raise InvalidParameterError("alpha must be positive")
    finite = [a for a in orders if a != 1.0 and not math.isinf(a)]
    i_top = int(np.argmax(probs))
    p_max = float(probs[i_top])
    shannon = [0.0, 0.0]  # sum p ln p and its error
    power = {a: [0.0, 0.0] for a in finite}  # sum (p/p_max)^a, error's dot
    rise, top_error = -math.inf, 0.0
    for start, dp in error_blocks:
        p = probs[start:start + dp.size]
        if start <= i_top < start + dp.size:
            top_error = float(dp[i_top - start])
        mask = p > 0.0
        if not mask.all():
            p, dp = p[mask], dp[mask]
            if not p.size:
                continue
        if 1.0 in orders:
            buf = np.log(p)  # the one temporary, for both sums
            buf *= p
            shannon[0] += float(np.sum(buf))
            np.log(p, out=buf)
            np.abs(buf, out=buf)
            buf += 1.0
            shannon[1] += float(np.dot(dp, buf))
        if math.inf in orders:
            rise = max(rise, float(np.max(p + dp)))
        for a in finite:
            terms = p / p_max
            np.power(terms, a, out=terms)
            power[a][0] += float(np.sum(terms))
            terms /= p  # p^(a-1) / sum p^a is terms / (p core)
            power[a][1] += float(np.dot(terms, dp))

    sums = {}
    for a in orders:
        if a == 1.0:
            sums[a] = EntropyValue(value=-shannon[0], differential=False,
                                   est_error=shannon[1]), 1.0
        elif math.isinf(a):
            err = max(rise - p_max, top_error) / p_max
            sums[a] = EntropyValue(value=-math.log(p_max), differential=False,
                                   est_error=err), p_max
        else:
            core, slope = power[a]
            log_sum = a * math.log(p_max) + math.log(core)
            renyi = EntropyValue(value=log_sum / (1.0 - a), differential=False,
                                 est_error=a / abs(1.0 - a) * slope / core)
            sums[a] = renyi, math.exp(log_sum / a)
    return sums


def discrete_renyi_and_norm(dist: DiscreteDist,
                            alpha: float) -> tuple[EntropyValue, float]:
    """Renyi entropy and ||p||_alpha of one order from one power sum.

    Both are functions of ln sum_j p_j**alpha, taken relative to the
    largest p, whose error is alpha sum p^(alpha-1) |dp| / sum p^alpha; the
    entropy's error is that over |1 - alpha|.  alpha = 1 gives the Shannon
    entropy -sum p ln p, with error sum |dp| (1 + |ln p|), and norm 1;
    alpha = inf -ln max p and max p, whose error is the largest bin's own
    or the most any other bin may rise above it.  Each bin's |dp| is the
    distribution's prob_errors, propagated to first order.
    """
    return _fold(dist.probs, [(0, dist.prob_errors)], (alpha,))[alpha]


def discrete_norm(dist: DiscreteDist, alpha: float) -> float:
    """||p||_alpha = (sum p_j^alpha)^(1/alpha), from the power sum taken
    relative to the largest probability."""
    return discrete_renyi_and_norm(dist, alpha)[1]


def discrete_renyi(dist: DiscreteDist, alpha: float) -> EntropyValue:
    """Renyi entropy of a binned distribution; alpha = 1 gives Shannon."""
    return discrete_renyi_and_norm(dist, alpha)[0]


def discrete_tsallis(dist: DiscreteDist, alpha: float) -> EntropyValue:
    """Tsallis entropy (sum p^alpha - 1)/(1 - alpha); alpha = 1 gives Shannon."""
    return _tsallis_of_renyi(discrete_renyi(dist, alpha), alpha)


def _tsallis_of_renyi(renyi: EntropyValue, alpha: float) -> EntropyValue:
    """The Tsallis entropy of the order of the Renyi entropy R: sum p^alpha
    is exp((1 - alpha) R), and the error is that sum times R's error.
    alpha = 1 returns R, the Shannon entropy; at alpha = inf the sum of a
    distribution is at most 1, so the entropy is exactly its limit 0."""
    if alpha == 1.0:
        return renyi
    if math.isinf(alpha):
        return EntropyValue(value=0.0, differential=False, est_error=0.0)
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
    if math.isinf(nu):  # y**(1-nu) falls to 0 above y = 1 and grows below
        return 0.0 if y >= 1.0 else -math.inf
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
