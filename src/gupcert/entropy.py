"""Differential and discrete entropy functionals, norms and binning.

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

Binning has one path in the library: bin_pair lays random-width bins
over the coverage windows of a (wavenumber, position) pair as RandomEdges
streams and folds each through binned_sums, in one pass over blocks of
bins on the thread pool of quadrature, into the BinnedSums the binned
checks read.  Each block's edges are drawn once, as the pool takes it,
and it reads the CDF at them and folds its own bins, so of a heavy-tailed
density's millions of bins none is held.
bin_density, random_edges, density_cdf and the discrete_* functions serve
only tests, demos and the bench tracer: bin_density fills a DiscreteDist
by the same per-block arithmetic, and BinnedSums.of reduces a DiscreteDist.

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
from .quadrature import ENTROPY_FLOOR

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
    value = log_sum / (1.0 - alpha)
    # an ulp of each step from p_max and the sum to the entropy: ln p_max,
    # its product with alpha, ln of the sum, their sum and the division
    log_rest = math.log(core + tail)
    rounding = _EPS * ((2.0 * abs(log_sum - log_rest) + abs(log_rest)
                        + abs(log_sum)) / abs(1.0 - alpha) + abs(value))
    renyi = EntropyValue(value=value, differential=True,
                         est_error=err / (abs(1.0 - alpha) * (core + tail))
                         + rounding)
    return renyi, math.exp(log_sum / alpha)


def _sup_renyi(density: DensityFn) -> tuple[EntropyValue, float]:
    """R_inf = -ln sup p and ||p||_inf = sup p, read at the largest node.

    That node can only under-read the supremum, so the error adds the rise
    of the parabola through it and its two neighbours over their span; on
    fewer than three nodes the linear interpolant peaks at a node, with no
    rise.
    """
    x, p = density.grid.nodes, density.values
    i = int(np.argmax(p))
    p_max = float(p[i])
    rise = 0.0
    if p.size >= 3:
        j = min(max(i, 1), p.size - 2)  # the middle of the three nodes
        (x0, x1, x2), (y0, y1, y2) = x[j - 1:j + 2], p[j - 1:j + 2]
        slope = (y1 - y0) / (x1 - x0)
        curv = ((y2 - y1) / (x2 - x1) - slope) / (x2 - x0)
        if curv < 0.0:
            top = min(max(0.5 * (x0 + x1 - slope / curv), x0), x2)
            peak = float(y0 + (top - x0) * (slope + curv * (top - x1)))
            rise = max(0.0, peak - p_max)
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

    def bin_errors(self):
        """Bound on |dp_i| of the probabilities of bins read from this CDF,
        one block at a time: returns a function of a block's edges, the CDF
        values at them, its probabilities before normalization and whether
        it holds the first and the last bin, which gives its bins' bounds.

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
        edges, CDF values and probabilities, so blocks may run in any order
        and on any thread.
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
        total = self.total

        def block_errors(at: np.ndarray, cdf: np.ndarray, probs: np.ndarray,
                         first: bool, last: bool) -> np.ndarray:
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
            if first:
                block[0] += grown[0]
            if last:
                block[-1] += full - grown[-1]
            block /= total
            block += probs * rescale
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


def _edge_blocks(edges: np.ndarray) -> list:
    """The (edges, last) blocks of an edge array, cut as a RandomEdges
    stream yields them; ContractError on fewer than two edges."""
    if edges.size < 2:
        raise ContractError("need at least two bin edges")
    step = quadrature._BLOCK_ENTRIES
    return [(edges[start:start + step + 1], start + step >= edges.size - 1)
            for start in range(0, edges.size - 1, step)]


class RandomEdges:
    """Bin edges from lo on, with widths drawn uniformly from [dmin, dmax],
    up to the first edge at or past hi, as a stream of blocks of
    quadrature._BLOCK_ENTRIES bins that holds no edge array.

    About 1.3 times the widths needed are drawn (n_est), as
    dmin + (dmax - dmin) u on the draws u of rng.random, Generator.uniform's
    arithmetic; the edges are lo plus the running sums of the widths, the
    sum carried exactly from block to block.  Iterating draws each block
    once, in order, and yields its edges (its first bin's lower edge to its
    last bin's upper edge) and whether it holds the last bin, the one whose
    edge reaches hi; the widths left over are drawn and dropped before that
    block is yielded, so rng ends where n_est draws leave it.  A stream is
    read once: iterating it again raises ContractError.
    """

    def __init__(self, rng: np.random.Generator, lo: float, hi: float,
                 dmin: float, dmax: float):
        if not (lo < hi and math.isfinite(hi - lo)
                and 0.0 < dmin <= dmax < math.inf):
            raise InvalidParameterError(
                "random edges need finite lo < hi and 0 < dmin <= dmax, got "
                f"{lo!r}, {hi!r}, {dmin!r}, {dmax!r}")
        self._args, self._read = (rng, lo, hi, dmin, dmax), False

    def __iter__(self):
        if self._read:
            raise ContractError("a RandomEdges stream is read once")
        self._read = True
        rng, lo, hi, dmin, dmax = self._args
        step = quadrature._BLOCK_ENTRIES
        n_est = int((hi - lo) / ((dmin + dmax) / 2.0) * 1.3) + 16
        total = 0.0
        for start in range(0, n_est, step):
            sums = np.empty(min(step, n_est - start) + 1)
            sums[0] = total
            widths = rng.random(out=sums[1:])
            widths *= dmax - dmin
            widths += dmin
            np.cumsum(sums, out=sums)
            total = float(sums[-1])
            sums += lo
            if total + lo >= hi or start + step >= n_est:  # its last edge
                for left in range(n_est - start - step, 0, -step):
                    rng.random(min(step, left))
                bins = min(int(np.searchsorted(sums, hi)), sums.size - 1)
                yield sums[:bins + 1], True
                return
            yield sums, False


def _binned_probs(cdf: np.ndarray, first: bool,
                  last: bool) -> tuple[np.ndarray, np.ndarray]:
    """The probabilities of the bins between the edges whose CDF values are
    `cdf`, before normalization, and what their clip at zero added: the
    differences of those values, with the mass below the first edge folded
    into the first bin when the run holds the first bin and the mass above
    the last edge into the last when it holds the last, clipped at zero.
    Each bin's value depends on its two edges alone, so any run of the bins
    gives the same floats."""
    probs = np.subtract(cdf[1:], cdf[:-1])
    if first:
        probs[0] += cdf[0]
    if last:
        probs[-1] += 1.0 - cdf[-1]
    clipped = -probs[probs < 0.0]
    return np.clip(probs, 0.0, None, out=probs), clipped


def _binned(density: DensityFn | DensityCdf, blocks: Iterable,
            fold) -> tuple[float, float, list]:
    """The widest bin's width, the normalization Z of bin_density on the
    (edges, last) `blocks` and, in block order, fold(x, dx) of each block.

    One pass runs over the blocks on the pool (quadrature.map_blocks),
    which takes them from `blocks` as it goes: each reads the CDF at its
    edges once and forms its bins' probabilities before normalization, x
    (_binned_probs), and their bounds dx (DensityCdf.bin_errors), for fold
    to reduce or keep.  Before the clip at zero the x telescope to exactly
    1, so Z = sum x is 1 plus what the clip adds, summed exactly by
    math.fsum whatever the blocks.
    Raises ContractError on edges that are not finite and increasing and
    on bins that miss more than 1e-6 of the mass.
    """
    cdf_of = (density if isinstance(density, DensityCdf)
              else DensityCdf(density))
    errors_of = cdf_of.bin_errors()

    def read(block):
        index, (at, last) = block
        widths = np.subtract(at[1:], at[:-1])
        if not (np.all(widths > 0.0) and np.all(np.isfinite(at))):
            raise ContractError("bin edges must be finite and strictly "
                                "increasing")
        values = cdf_of(at)
        x, clipped = _binned_probs(values, index == 0, last)
        return (float(np.max(widths)), clipped, values[[0, -1]],
                fold(x, errors_of(at, values, x, index == 0, last)))

    parts = quadrature.map_blocks(read, enumerate(blocks))
    coverage = parts[-1][2][1] - parts[0][2][0]
    if not coverage >= 1.0 - 1e-6:
        raise ContractError(f"bins cover only {coverage:.8f} of the mass")
    total = 1.0 + math.fsum(c for part in parts for c in part[1])
    return (max(part[0] for part in parts), total,
            [part[3] for part in parts])


def bin_density(density: DensityFn | DensityCdf,
                edges: np.ndarray) -> DiscreteDist:
    """Interval probabilities of a density, out-of-range mass folded inward.

    The edges must capture at least 1 - 1e-6 of the mass; what little lies
    outside is folded into the first and last bins, and the CDF differences
    clipped at zero are divided by their sum, 1 plus what the clip added.
    The density may come as the DensityCdf a caller already built for it.
    Each probability carries the error bound of DensityCdf.bin_errors.  The
    distribution holds three arrays of bin length, its blocks' joined;
    binned_sums reduces the same bins to their power sums and holds none.
    """
    edges = np.asarray(edges, dtype=float)
    _, total, parts = _binned(density, _edge_blocks(edges),
                              lambda x, dx: (x, dx))
    probs, prob_errors = (np.concatenate(column) for column in zip(*parts))
    probs /= total
    return DiscreteDist(edges=edges, probs=probs, prob_errors=prob_errors)


def binned_sums(density: DensityFn | DensityCdf,
                edges: np.ndarray | RandomEdges,
                orders: Iterable[float]) -> "BinnedSums":
    """BinnedSums.of(bin_density(density, edges), orders), folded block by
    block; the edges may come as an array or as a RandomEdges stream.

    Each block of quadrature._BLOCK_ENTRIES bins, read once (_binned),
    folds its own share of every order's sums (_share) and _fold combines
    the shares with the normalization, so no array of bin length is held:
    a stream's blocks are drawn as the pool takes them.  The shares are
    combined in block order, so the result equals the distribution's own
    sums float for float within one block and to the rounding of a blocked
    sum beyond, and does not depend on the pool.
    """
    blocks = (edges if isinstance(edges, RandomEdges)
              else _edge_blocks(np.asarray(edges, dtype=float)))
    orders = _orders(orders)
    delta_max, total, shares = _binned(
        density, blocks, lambda x, dx: _share(x, dx, orders))
    return BinnedSums(delta_max=delta_max,
                      sums=_fold(shares, total, orders))


def random_edges(rng: np.random.Generator, lo: float, hi: float,
                 dmin: float, dmax: float) -> np.ndarray:
    """The edges of RandomEdges(rng, lo, hi, dmin, dmax), its blocks joined
    into one array of exactly their number (no unused draws behind them)."""
    blocks = iter(RandomEdges(rng, lo, hi, dmin, dmax))
    first, _ = next(blocks)
    return np.concatenate([first] + [edges[1:] for edges, _ in blocks])


@dataclass(frozen=True)
class BinnedSums:
    """What the binned checks read of one binned distribution: its widest
    bin and, per order, the Renyi entropy and norm of one power sum.

    `sums` maps each order to the Renyi entropy and norm (_fold) of the
    bins (order 1: the Shannon entropy and norm 1), so it holds no array of
    bin length.  bin_pair folds a RandomEdges stream into them through
    binned_sums, and `of` reduces a DiscreteDist.
    """

    delta_max: float
    sums: dict[float, tuple[EntropyValue, float]]

    @classmethod
    def of(cls, dist: DiscreteDist, orders: Iterable[float]) -> "BinnedSums":
        """The sums of `dist` at each of `orders`, each taken once."""
        orders = _orders(orders)
        return cls(delta_max=dist.delta_max,
                   sums=_fold([_share(dist.probs, dist.prob_errors, orders)],
                              1.0, orders))

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
    are the edges of b drawn and b binned.  No array of bin length is
    held, for a heavy-tailed density's millions of bins: each stream's
    blocks are drawn as binned_sums folds them.
    None, with the generator untouched, when the two windows together span
    4e6 mean widths (dmin + dmax)/2 or more, 4 M bins over both at the mean
    width (very heavy tails).  The windows there come from tail-model
    quantiles, so that is decided before any spline is built: a window end
    the CDF gives is a grid node, and the grid bounds the span from below.
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

def _orders(orders: Iterable[float]) -> list[float]:
    """The distinct orders, each positive (else InvalidParameterError)."""
    orders = list(dict.fromkeys(orders))
    if any(not order > 0.0 for order in orders):
        raise InvalidParameterError("alpha must be positive")
    return orders


def _share(x: np.ndarray, dx: np.ndarray, orders: list[float]):
    """One block's share of _fold's sums, from its probabilities x,
    normalized or not, and their bounds dx: its largest x, m, the dx of
    the first such bin and per order: sum x ln x, sum dx (1 + |ln x|) and
    sum dx at order 1, max(x + dx) and max dx at inf, and the sums of
    (x/m)^a and (x/m)^a dx / x at a finite a.  None when all x are zero;
    zero x are left out.  Every sum is np.sum of an elementwise product,
    which does not depend on the BLAS threads.
    """
    i = int(np.argmax(x))
    m, top_error = float(x[i]), float(dx[i])
    if not m > 0.0:
        return None
    mask = x > 0.0
    if not mask.all():
        x, dx = x[mask], dx[mask]
    sums = {}
    for a in orders:
        if a == 1.0:
            buf = np.log(x)  # the one temporary, for both sums
            buf *= x
            total = float(np.sum(buf))
            np.log(x, out=buf)
            np.abs(buf, out=buf)
            buf += 1.0
            buf *= dx
            sums[a] = total, float(np.sum(buf)), float(np.sum(dx))
        elif math.isinf(a):
            sums[a] = float(np.max(x + dx)), float(np.max(dx))
        else:
            terms = x / m
            np.power(terms, a, out=terms)
            core = float(np.sum(terms))
            terms /= x  # x^(a-1) dx, in the unit m^a
            terms *= dx
            sums[a] = core, float(np.sum(terms))
    return m, top_error, sums


def _fold(shares: list, total: float,
          orders: list[float]) -> dict[float, tuple[EntropyValue, float]]:
    """The Renyi entropy and norm at each of `orders` of p = x / Z, Z =
    `total`, from the _share of each block of bins, in block order.

    M, the largest x, is the first largest of the blocks' m, as np.argmax;
    (m/M)^a brings a block's power sums to the unit M, so
    ln sum p^a = a ln(M/Z) + ln sum (x/M)^a, and since sum x = Z the
    Shannon entropy is -(1/Z) sum x ln x + ln Z.  At Z = 1 each is the
    float of the sum taken of p, a power sum only within one block.

    Errors are first order in dp: ln sum p^a, taken relative to the largest
    p, has a sum p^(a-1) |dp| / sum p^a (Z times its sum in x) and the
    entropy that over |1 - a|; order 1 has sum |dp| (1 + |ln p|), at most
    sum |dp| (1 + |ln x|) + ln Z sum |dp|; and order inf, relative to
    max p, the larger of its bound and the most any bin may rise above it,
    in x at most max(x + dx) + (Z - 1) max dx - M.
    """
    shares = [share for share in shares if share is not None]
    top, top_error, _ = max(shares, key=lambda share: share[0])
    p_max = top / total
    sums = {}
    for a in orders:
        parts = [block[a] for _, _, block in shares]
        if a == 1.0:
            xlnx, err, spread = (sum(column) for column in zip(*parts))
            sums[a] = EntropyValue(
                value=-xlnx / total + math.log(total), differential=False,
                est_error=err + math.log(total) * spread), 1.0
        elif math.isinf(a):
            rise, widest = (max(column) for column in zip(*parts))
            err = max(rise + (total - 1.0) * widest - top,
                      total * top_error) / top
            sums[a] = EntropyValue(value=-math.log(p_max), differential=False,
                                   est_error=err), p_max
        else:
            scales = [(m / top) ** a for m, _, _ in shares]
            core, slope = (sum(s * c for s, c in zip(scales, column))
                           for column in zip(*parts))
            log_sum = a * math.log(p_max) + math.log(core)
            renyi = EntropyValue(value=log_sum / (1.0 - a), differential=False,
                                 est_error=a / abs(1.0 - a) * total * slope
                                 / core)
            sums[a] = renyi, math.exp(log_sum / a)
    return sums


def discrete_norm(dist: DiscreteDist, alpha: float) -> float:
    """||p||_alpha = (sum p_j^alpha)^(1/alpha), from the power sum taken
    relative to the largest probability."""
    return BinnedSums.of(dist, (alpha,)).sums[alpha][1]


def discrete_renyi(dist: DiscreteDist, alpha: float) -> EntropyValue:
    """Renyi entropy of a binned distribution; alpha = 1 gives Shannon."""
    return BinnedSums.of(dist, (alpha,)).sums[alpha][0]


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
