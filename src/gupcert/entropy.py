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
reduction, binned_sums, makes two passes over blocks of
quadrature._BLOCK_ENTRIES bins, each on the thread pool of quadrature: the
first reads the CDF once at every edge, the second forms each block's
error bounds from those CDF values and folds the block into its sums.
bin_pair hands it the edges as a RandomEdges stream, which each pass draws
again, block by block, rather than holds, so of a heavy-tailed density's
millions of bins only the CDF values and the probabilities are held, while
bin_density's DiscreteDist, built from the same per-block arithmetic, holds
the edges, the probabilities and every bin's error bound.

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
    the points: the binning hands it one block of edges at a time, each
    edge once, so its temporaries stay block-sized.  Each point's value
    depends on that point alone, so any blocking gives the same floats.
    `node_cdf` holds those values at the grid nodes.  A caller that reads
    the CDF more than once (a coverage window, then the bins) builds one
    and passes it to `bin_density` or `binned_sums`; its spline holds five
    coefficients per grid interval, so drop it with the bins.  The
    spline's reads hold the interpreter lock (scipy's PPoly), so blocks on
    the pool read it one at a time.
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

    def bin_errors(self, probs: np.ndarray):
        """Bound on |dp_i| of the bin probabilities `probs` read from this
        CDF, one block of bins at a time: returns a function of a block's
        first bin index, its edges and the CDF values at them, which gives
        its bins' bounds.

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
        since every probability is a difference of two CDF values.  The
        CDF values are those the probabilities were formed from, so the
        spline is read once per edge; a block takes nothing but its own
        slices of the bin-length arrays, so blocks may run in any order and
        on any thread.
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
        total, n = self.total, probs.size

        def block_errors(start: int, at: np.ndarray,
                         cdf: np.ndarray) -> np.ndarray:
            grown = np.interp(at, knots, grown_at)
            if tails:
                # below the window the CDF is the left model's mass and
                # above it 1 - CDF the right model's; in between the models
                # place m_left
                below = slice(None, int(np.searchsorted(at, lo, side="right")))
                above = slice(int(np.searchsorted(at, hi, side="left")), None)
                grown += share * m_left
                grown[below] += share * (total * cdf[below] - m_left)
                grown[above] += share * (m_right - total * (1.0 - cdf[above]))
            block = np.subtract(grown[1:], grown[:-1])
            if start == 0:
                block[0] += grown[0]
            if start + block.size == n:
                block[-1] += full - grown[-1]
            block /= total
            block += probs[start:start + block.size] * rescale
            block += cdf[1:] * (_VALUE_ULPS * _EPS)
            return np.clip(block, 0.0, None, out=block)

        return block_errors


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


class _EdgeArray:
    """Bin edges held in one array, read as a RandomEdges stream is: in
    blocks of quadrature._BLOCK_ENTRIES bins, each block's edges from its
    first bin's lower edge to its last bin's upper edge."""

    def __init__(self, edges: np.ndarray):
        self.edges, self.size = edges, edges.size
        self._step = quadrature._BLOCK_ENTRIES

    def starts(self) -> range:
        """The first bin index of each block."""
        return range(0, self.size - 1, self._step)

    def block(self, start: int) -> np.ndarray:
        """The edges of the block whose first bin is `start`."""
        return self.edges[start:start + self._step + 1]


class RandomEdges:
    """Bin edges from lo on, with widths drawn uniformly from [dmin, dmax],
    up to the first edge at or past hi, as a stream of blocks of
    quadrature._BLOCK_ENTRIES bins that holds no edge array.

    About 1.3 times the widths needed are drawn (n_est), as
    dmin + (dmax - dmin) u on the draws u of rng.random, Generator.uniform's
    arithmetic; the edges are lo plus the running sums of the widths.
    Construction draws the stream once, block by block, saving the
    generator's state before each block and the exact running sum; it
    stops at the block whose edge reaches hi, sets `size` to the number of
    edges and draws and drops the widths left over, so rng ends where n_est
    draws leave it.  `block(start)` then draws a block again from its
    saved state: uniform draws do not depend on how they are chunked and
    np.cumsum adds in sequence, so the edges are the same floats, on any
    thread.  The last block is kept, so a stream of one block is never
    drawn twice.  `random_edges` joins the blocks into one array.
    """

    def __init__(self, rng: np.random.Generator, lo: float, hi: float,
                 dmin: float, dmax: float):
        self._lo, self._dmin, self._dmax = lo, dmin, dmax
        self._step = step = quadrature._BLOCK_ENTRIES
        self._bit_generator = type(rng.bit_generator)
        self._marks = []  # (generator state, running sum) of each block
        self._last = np.array([float(lo)])  # the edges of the last block
        self.size = 1
        n_est = int((hi - lo) / ((dmin + dmax) / 2.0) * 1.3) + 16
        total, drawn = 0.0, 0
        while drawn < n_est:
            count = min(step, n_est - drawn)
            self._marks.append((rng.bit_generator.state, total))
            sums = self._draw(rng, total, count)
            drawn += count
            total = float(sums[-1])
            if total + lo >= hi or drawn == n_est:  # its last edge
                sums += lo
                bins = min(int(np.searchsorted(sums, hi)), count)
                self._last = sums[:bins + 1]
                self.size = drawn - count + bins + 1
                break
        for left in range(n_est - drawn, 0, -step):  # the unused draws
            rng.random(min(step, left))

    def _draw(self, rng: np.random.Generator, total: float,
              count: int) -> np.ndarray:
        """The running sums of `count` widths drawn after the sum `total`,
        `total` first."""
        sums = np.empty(count + 1)
        sums[0] = total
        widths = rng.random(out=sums[1:])
        widths *= self._dmax - self._dmin
        widths += self._dmin
        return np.cumsum(sums, out=sums)

    def starts(self) -> range:
        """The first bin index of each block."""
        return range(0, self.size - 1, self._step)

    def block(self, start: int) -> np.ndarray:
        """The edges of the block whose first bin is `start`."""
        index = start // self._step
        if index == len(self._marks) - 1:
            return self._last
        state, total = self._marks[index]
        rng = np.random.Generator(self._bit_generator())
        rng.bit_generator.state = state
        edges = self._draw(rng, total, self._step)
        edges += self._lo
        return edges


def _binned_probs(cdf_of: DensityCdf, source: _EdgeArray | RandomEdges
                  ) -> tuple[np.ndarray, np.ndarray, float]:
    """The CDF values at the edges of `source`, the bin probabilities of
    bin_density and the widest bin's width.

    Each block of edges is read from the CDF once, on the pool
    (quadrature.map_blocks), into the CDF values and, by their
    differences, the probabilities: the two arrays of bin length.  Their
    sum then normalizes the probabilities.  Raises ContractError on fewer
    than two edges, on edges that do not increase, and on bins that miss
    more than 1e-6 of the mass.
    """
    n = source.size - 1
    if n < 1:
        raise ContractError("need at least two bin edges")
    cdf, probs = np.empty(n + 1), np.empty(n)

    def read(start: int) -> float:
        at = source.block(start)
        # the widths go where the block's probabilities will
        widths = np.subtract(at[1:], at[:-1],
                             out=probs[start:start + at.size - 1])
        if np.any(widths <= 0.0):
            raise ContractError("bin edges must be strictly increasing")
        widest = float(np.max(widths))
        values = cdf_of(at)
        first = 0 if start == 0 else 1  # the block before writes its edge
        cdf[start + first:start + at.size] = values[first:]
        np.subtract(values[1:], values[:-1], out=widths)
        return widest

    delta_max = max(quadrature.map_blocks(read, source.starts()))
    first, last = cdf[0], cdf[-1]
    coverage = last - first
    if coverage < 1.0 - 1e-6:
        raise ContractError(f"bins cover only {coverage:.8f} of the mass")
    probs[0] += first
    probs[-1] += 1.0 - last
    np.clip(probs, 0.0, None, out=probs)
    probs /= probs.sum()
    return cdf, probs, delta_max


def _binned(density: DensityFn | DensityCdf, source: _EdgeArray | RandomEdges):
    """The probabilities of bin_density on the edges of `source`, the
    widest bin's width, and a function of a block's first bin index that
    gives its bins' error bounds (DensityCdf.bin_errors)."""
    cdf_of = (density if isinstance(density, DensityCdf)
              else DensityCdf(density))
    cdf, probs, delta_max = _binned_probs(cdf_of, source)
    errors_of = cdf_of.bin_errors(probs)

    def errors(start: int) -> np.ndarray:
        at = source.block(start)
        return errors_of(start, at, cdf[start:start + at.size])

    return probs, delta_max, errors


def bin_density(density: DensityFn | DensityCdf,
                edges: np.ndarray) -> DiscreteDist:
    """Interval probabilities of a density, out-of-range mass folded inward.

    The edges must capture at least 1 - 1e-6 of the mass; what little lies
    outside is folded into the first and last bins so the discrete
    distribution is exactly normalized.  The density may come as the
    DensityCdf a caller already built for it.  Each probability carries the
    error bound of DensityCdf.bin_errors.  The distribution holds three
    arrays of bin length, and the CDF values at the edges are a fourth
    until the bounds are formed; binned_sums reduces the same bins to their
    power sums while holding two.
    """
    source = _EdgeArray(np.asarray(edges, dtype=float))
    probs, _, errors = _binned(density, source)
    prob_errors = np.empty(probs.size)

    def fill(start: int) -> None:
        block = errors(start)
        prob_errors[start:start + block.size] = block

    quadrature.map_blocks(fill, source.starts())
    return DiscreteDist(edges=source.edges, probs=probs,
                        prob_errors=prob_errors)


def binned_sums(density: DensityFn | DensityCdf,
                edges: np.ndarray | RandomEdges,
                orders: Iterable[float]) -> "BinnedSums":
    """BinnedSums.of(bin_density(density, edges), orders), folded block by
    block; the edges may come as an array or as a RandomEdges stream.

    Two passes run over blocks of quadrature._BLOCK_ENTRIES bins, each on
    the pool.  The first reads the CDF at each block's edges into the CDF
    values and the probabilities; the second forms each block's error
    bounds from the same CDF values and its share of every order's sums.
    So the CDF values and the probabilities are the only arrays of bin
    length: a stream's edges are drawn again in each pass rather than
    held.  The shares are added in block order, so the result equals the
    distribution's own sums float for float within one block and to the
    rounding of a blocked sum beyond, and does not depend on the pool.
    """
    source = (edges if isinstance(edges, RandomEdges)
              else _EdgeArray(np.asarray(edges, dtype=float)))
    probs, delta_max, errors = _binned(density, source)
    return BinnedSums(delta_max=delta_max,
                      sums=_fold(probs, source.starts(), errors, orders))


def random_edges(rng: np.random.Generator, lo: float, hi: float,
                 dmin: float, dmax: float) -> np.ndarray:
    """The edges of RandomEdges(rng, lo, hi, dmin, dmax), its blocks joined
    into one array of exactly their number (no unused draws behind them)."""
    stream = RandomEdges(rng, lo, hi, dmin, dmax)
    edges = np.empty(stream.size)
    edges[0] = lo
    for start in stream.starts():
        block = stream.block(start)
        edges[start:start + block.size] = block
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
                   sums=_fold(dist.probs, [0], lambda _: dist.prob_errors,
                              orders))

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
    # each stream is read to its end, and so draws from rng, before the
    # next one starts
    return tuple(binned_sums(cdf, RandomEdges(rng, lo, hi, dmin, dmax),
                             orders)
                 for cdf, (lo, hi) in zip(cdfs, windows))


# ---------------------------------------------------------------------------
# discrete entropies
# ---------------------------------------------------------------------------

def _fold(probs: np.ndarray, starts: Iterable[int], errors,
          orders: Iterable[float]) -> dict[float, tuple[EntropyValue, float]]:
    """discrete_renyi_and_norm at each of `orders` of the distribution
    `probs`, in blocks: `errors(start)` gives the error bounds of the block
    of bins from each of `starts` on, and the blocks tile the bins.

    Each block, on the pool (quadrature.map_blocks), forms its share of
    every order's sums and drops its bounds; the shares are added in block
    order, so the sums are the same floats on the pool and off it.  Zero
    probabilities are left out.  Over one block of all the bins this is
    discrete_renyi_and_norm itself.
    """
    orders = list(dict.fromkeys(orders))
    if any(not order > 0.0 for order in orders):
        raise InvalidParameterError("alpha must be positive")
    finite = [a for a in orders if a != 1.0 and not math.isinf(a)]
    i_top = int(np.argmax(probs))
    p_max = float(probs[i_top])

    def share(start: int):
        """The block's bound at the largest p if it holds it, and its sums:
        sum p ln p and its error, max(p + dp), and per finite order
        sum (p/p_max)^a and its error's dot; None when all p are zero."""
        dp = errors(start)
        p = probs[start:start + dp.size]
        top = (float(dp[i_top - start]) if start <= i_top < start + dp.size
               else None)
        mask = p > 0.0
        if not mask.all():
            p, dp = p[mask], dp[mask]
            if not p.size:
                return top, None
        shannon = rise = None
        if 1.0 in orders:
            buf = np.log(p)  # the one temporary, for both sums
            buf *= p
            total = float(np.sum(buf))
            np.log(p, out=buf)
            np.abs(buf, out=buf)
            buf += 1.0
            shannon = total, float(np.dot(dp, buf))
        if math.inf in orders:
            rise = float(np.max(p + dp))
        power = {}
        for a in finite:
            terms = p / p_max
            np.power(terms, a, out=terms)
            core = float(np.sum(terms))
            terms /= p  # p^(a-1) / sum p^a is terms / (p core)
            power[a] = core, float(np.dot(terms, dp))
        return top, (shannon, rise, power)

    shannon = [0.0, 0.0]  # sum p ln p and its error
    power = {a: [0.0, 0.0] for a in finite}  # sum (p/p_max)^a, error's dot
    rise, top_error = -math.inf, 0.0
    for top, block in quadrature.map_blocks(share, starts):
        if top is not None:
            top_error = top
        if block is None:
            continue
        block_shannon, block_rise, block_power = block
        if block_shannon is not None:
            shannon[0] += block_shannon[0]
            shannon[1] += block_shannon[1]
        if block_rise is not None:
            rise = max(rise, block_rise)
        for a, (core, slope) in block_power.items():
            power[a][0] += core
            power[a][1] += slope

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
    return _fold(dist.probs, [0], lambda _: dist.prob_errors, (alpha,))[alpha]


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
