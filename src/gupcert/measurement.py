"""Finite-resolution measurement model: acceptance profiles and smearing.

A detector with acceptance profile f registers the density

    U(zeta) = integral |f(zeta - k)|^2 u(k) dk

instead of u itself, and likewise W(xi) from the position density.  The
sub-normalized kernel

    J(zeta) = integral |f(zeta - k)|^2 / (1 + beta k^2) dk  <=  1

and its supremum S_f over zeta quantify how much the minimal length tightens
smeared entropic bounds.  A profile is one of two types, each validated when
it is built and each owning its |f|^2, window masses, lattice kernel, J and
S_f: `GaussianAcceptance`, whose kernel is a Voigt profile evaluated through
the Faddeeva function, and `TableAcceptance`, a tabulated |f|^2 that vanishes
off its table, so that J is a finite Gauss-Legendre sum over the table
intervals; the tests cross-check it against the Voigt form and against
adaptive quadrature of the same interpolant.  A table builds that
interpolant and its antiderivative once, with the profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.interpolate import CubicSpline, PchipInterpolator
from scipy.optimize import minimize_scalar
from scipy.special import ndtr, wofz

from . import quadrature
from .core import DensityFn, Domain, Grid, MinLengthParams
from .errors import InvalidParameterError, ResolutionError
from .quadrature import composite_rule, dense_sum
from .tails import outside_masses

_SMEAR_TAG = {Domain.K: Domain.ZETA, Domain.X: Domain.XI}
_TABLE_GAUSS = 8  # Gauss nodes per panel of the tabulated-profile J rule
# lattice plus kernel nodes of one smear convolution (64 MB per float array);
# the default states need at most 0.4 M at sigma 1 and 4 M at sigma 0.1
_SMEAR_NODE_BUDGET = 1 << 23


@dataclass(frozen=True)
class GaussianAcceptance:
    """Gaussian profile |f(z)|^2 = exp(-z^2/(2 sigma^2)) / (sigma sqrt(2 pi))."""

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise InvalidParameterError("sigma must be positive")
        object.__setattr__(self, "sigma", float(self.sigma))

    def density(self, z):
        z = np.asarray(z, dtype=float)
        s = self.sigma
        return np.exp(-z * z / (2.0 * s * s)) / (s * math.sqrt(2.0 * math.pi))

    def window_mass(self, lo, hi):
        s = self.sigma
        return ndtr(np.asarray(hi) / s) - ndtr(np.asarray(lo) / s)

    @property
    def width(self) -> float:
        return self.sigma

    @property
    def reach(self) -> float:
        return 10.0 * self.sigma

    def lattice_kernel(self, m: int, h: float) -> np.ndarray:
        return self.density(np.arange(-m, m + 1) * h)

    def j(self, zeta, beta: float):
        """pi/sqrt(beta) times a Voigt profile."""
        gamma = 1.0 / math.sqrt(beta)
        sigma = self.sigma
        z = (np.asarray(zeta, dtype=float) + 1j * gamma) / (sigma * math.sqrt(2.0))
        voigt = np.real(wofz(z)) / (sigma * math.sqrt(2.0 * math.pi))
        return math.pi / math.sqrt(beta) * voigt

    def sup_j(self, beta: float) -> float:
        """J(0): |f|^2 convolved with the even unimodal Lorentzian-type
        factor is even and unimodal."""
        return float(self.j(0.0, beta))


@dataclass(frozen=True, eq=False)
class TableAcceptance:
    """Tabulated |f|^2 profile, monotone-interpolated and zero off its table.

    The values are renormalized to unit trapezoid mass; a table that is far
    from normalized is rejected.  The interpolant and its antiderivative are
    built once, with the profile; the width is taken on first read and kept.
    """

    table_nodes: np.ndarray
    table_values: np.ndarray  # |f|^2 samples

    def __post_init__(self):
        nodes = np.asarray(self.table_nodes, dtype=float)
        values = np.asarray(self.table_values, dtype=float)
        if nodes.ndim != 1 or nodes.shape != values.shape or nodes.size < 4:
            raise InvalidParameterError("need matching 1-d tables with >= 4 points")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(values))):
            raise InvalidParameterError("table nodes and values must be finite")
        if np.any(np.diff(nodes) <= 0.0):
            raise InvalidParameterError("table nodes must be strictly increasing")
        values = np.clip(values, 0.0, None)
        total = float(np.trapezoid(values, nodes))
        if not 0.5 < total < 2.0:
            raise InvalidParameterError("tabulated profile is too far from normalized")
        object.__setattr__(self, "table_nodes", nodes)
        object.__setattr__(self, "table_values", values / total)
        interp = PchipInterpolator(nodes, self.table_values, extrapolate=False)
        object.__setattr__(self, "_interp", interp)
        object.__setattr__(self, "_antiderivative", interp.antiderivative())

    def density(self, z):
        z = np.asarray(z, dtype=float)
        return np.nan_to_num(np.clip(self._interp(z), 0.0, None))

    def window_mass(self, lo, hi):
        a, b = self.table_nodes[0], self.table_nodes[-1]
        anti = self._antiderivative
        return anti(np.clip(hi, a, b)) - anti(np.clip(lo, a, b))

    @cached_property
    def width(self) -> float:
        m1 = np.trapezoid(self.table_nodes * self.table_values, self.table_nodes)
        m2 = np.trapezoid((self.table_nodes - m1) ** 2 * self.table_values,
                          self.table_nodes)
        return math.sqrt(max(m2, 1e-30))

    @property
    def reach(self) -> float:
        return float(max(abs(self.table_nodes[0]), abs(self.table_nodes[-1])))

    def lattice_kernel(self, m: int, h: float) -> np.ndarray:
        kernel = self.density(np.arange(-m, m + 1) * h)
        # a PCHIP table is not band-limited: its lattice samples miss unit
        # mass by up to a few 1e-7, more than the normalization check allows
        return kernel / (kernel.sum() * h)

    def _j_rule(self, beta: float):
        """J for beta > 0 as a function of a zeta array.

        |f|^2 vanishes off its table, so J(zeta) is the finite integral of
        |f(t)|^2 / (1 + beta (zeta - t)^2) over the table.  Each table
        interval is split into panels no wider than the Lorentzian width
        1/sqrt(beta); a Gauss-Legendre rule on those panels integrates the
        piecewise-cubic |f|^2 times the Lorentzian to near machine precision.
        The rule and its |f|^2 masses are built once; every zeta reuses them.
        """
        t = self.table_nodes
        # cumulative panel count at each table node; interpolating positions
        # against it splits every interval into equal panels
        per = np.ceil(np.diff(t) * math.sqrt(beta))
        count = np.concatenate([[0.0], np.cumsum(per)])
        edges = np.interp(np.arange(count[-1] + 1), count, t)
        nodes, weights = composite_rule(edges, _TABLE_GAUSS)
        masses = weights * self.density(nodes)

        def j(zeta: np.ndarray) -> np.ndarray:
            return dense_sum(lambda z, s: 1.0 / (1.0 + beta * (z - s) ** 2),
                             zeta, nodes, masses)[0]
        return j

    def j(self, zeta, beta: float):
        return self._j_rule(beta)(zeta)

    def sup_j(self, beta: float) -> float:
        """A coarse scan, then bounded scalar minimization with tolerance
        1e-8, both on one table rule."""
        j = self._j_rule(beta)
        span = self.reach + 6.0 * self.width
        zs = np.linspace(-span, span, 241)
        js = j(zs)
        i = int(np.argmax(js))
        lo = zs[max(i - 1, 0)]
        hi = zs[min(i + 1, zs.size - 1)]
        res = minimize_scalar(lambda z: -float(j(np.array([z]))[0]),
                              bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-8})
        return float(max(js[i], -res.fun))


# Either profile.  Each gives |f|^2 pointwise (density), the mass of |f|^2
# on [lo, hi], vectorized over the bounds (window_mass), a width and a
# half-width beyond which |f|^2 is negligible (reach), |f|^2 at the 2m + 1
# smear lattice offsets -m h .. m h with unit lattice mass (lattice_kernel),
# and for beta > 0 J at a zeta array (j) and its supremum S_f (sup_j).
AcceptanceFn = GaussianAcceptance | TableAcceptance


def gaussian_acceptance(sigma: float) -> GaussianAcceptance:
    """Gaussian profile of width sigma > 0."""
    return GaussianAcceptance(sigma)


def custom_acceptance(nodes, values) -> TableAcceptance:
    """Tabulated |f|^2 profile; renormalized exactly, rejected if far off."""
    return TableAcceptance(nodes, values)


# ---------------------------------------------------------------------------
# smearing
# ---------------------------------------------------------------------------

def _feature_scale(density: DensityFn) -> float:
    """Half-width-at-half-maximum as a robust finest-feature proxy."""
    x, p = density.grid.nodes, density.values
    i = int(np.argmax(p))
    half = 0.5 * p[i]
    above = p >= half
    lo = x[np.argmax(above)]
    hi = x[len(x) - 1 - np.argmax(above[::-1])]
    return max(0.5 * (hi - lo), 1e-6)


def _bulk_window(density: DensityFn) -> tuple[float, float]:
    """Central window beyond which the remaining mass is accounted for.

    A 1e-4 quantile per side is enough when the fitted tail model actually
    describes the density at that cut (the dropped mass is then modeled);
    models fitted far out may not hold yet at the 1e-4 point, in which case
    the quantile tightens to 1e-9 so essentially nothing unaccounted is
    dropped.  Each side reads its own mass beyond each node, grid plus that
    side's model; the model validity test compares modeled against actual
    remaining mass at the candidate cut.  An image grid's measure already
    covers the axis (its tail_mass_bound is 0), so there the models add no
    mass and only that test reads them.
    """
    cum = np.cumsum(density.grid.weights * density.values)
    total = cum[-1]
    x = density.grid.nodes
    m_left, m_right = (density.tail_masses if density.tail_mass_bound > 0.0
                       else (0.0, 0.0))
    grand = total + m_left + m_right
    below = cum + m_left               # grid mass at or below each node
    above = (total - cum) + m_right    # grid mass above each node
    cuts = []
    for side, leftward in ((density.tail_left, True), (density.tail_right, False)):
        for frac in (1e-4, 1e-9):  # the 1e-9 cut stands whatever the test says
            target = frac * grand
            if leftward:
                i = int(np.searchsorted(below, target))
            else:  # the first node at which the falling `above` meets it
                i = x.size - int(np.searchsorted(above[::-1], target, side="right"))
            i = min(i, x.size - 1)
            actual = float(below[max(i - 1, 0)] if leftward else above[i])
            t = float(x[i])
            if side is None:
                continue
            modeled = side.mass_beyond(abs(t))
            if actual <= 0.0 or 0.6 < modeled / max(actual, 1e-300) < 1.6:
                break
        cuts.append(t)
    return cuts[0], cuts[1]


def _is_uniform(nodes: np.ndarray) -> bool:
    d = np.diff(nodes)
    return bool(np.allclose(d, d[0], rtol=1e-9, atol=0.0))


def _check_budget(f: AcceptanceFn, h: float, n: int) -> int:
    """The m whose 2m + 1 kernel offsets cover f's reach at step h; raises
    ResolutionError if they and n lattice nodes exceed the node budget."""
    m = int(math.ceil(f.reach / h)) + 1
    if n + 2 * m + 1 > _SMEAR_NODE_BUDGET:
        raise ResolutionError(f"smear lattice needs {n + 2 * m + 1:.3g} nodes,"
                              f" over the budget of {_SMEAR_NODE_BUDGET}")
    return m


def _lattice_input(density: DensityFn, f: AcceptanceFn):
    """Values of the density on a uniform lattice fine enough to convolve.

    The step must resolve both the density's own features and the acceptance
    kernel: a trapezoid sum against a Gaussian of width sigma is exact to
    exp(-2 pi^2 sigma^2 / h^2), so h <= sigma/2 keeps kernel aliasing below
    1e-30.  Nonuniform grids cannot resolve a narrow kernel where their node
    spacing exceeds its width (image grids stretch like k^2 in the tail), so
    they are resampled through a cubic spline.  No error term counts that
    resampling: the est_error of an entropy of the smeared density leaves
    it out.  Uniform inputs are only ever refined, never coarsened.
    """
    k = density.grid.nodes
    target = min(f.width / 2.0, _feature_scale(density) / 8.0)
    if _is_uniform(k):
        h_in = float(k[1] - k[0])
        if h_in <= target * (1.0 + 1e-9):
            return k, density.values, h_in, 0, k.size
        refine = int(math.ceil(h_in / target))
        n = (k.size - 1) * refine + 1
        _check_budget(f, h_in / refine, n)
        lattice = np.linspace(k[0], k[-1], n)
        out_lo, out_hi = 0, n
    else:
        blo, bhi = _bulk_window(density)
        lo = max(density.window[0], blo - 2.0 * f.reach - 2.0 * f.width)
        hi = min(density.window[1], bhi + 2.0 * f.reach + 2.0 * f.width)
        n = int((hi - lo) / target) + 2
        _check_budget(f, (hi - lo) / (n - 1), n)
        lattice = np.linspace(lo, hi, n)
        # the output stops one kernel reach past the bulk window: there the
        # kernel spread of the central mass has died off, so the input's
        # tail model describes the smeared density from that point on, while
        # the outer lattice margin keeps inflow complete at the cut
        out_lo = int(np.searchsorted(lattice, blo - f.reach, side="left"))
        out_hi = int(np.searchsorted(lattice, bhi + f.reach, side="right"))
    # cubic spline rather than a monotone interpolant: the extra order is
    # needed to keep the resampled mass within the smear tolerance
    interp = CubicSpline(k, np.clip(density.values, 0.0, None))
    vals = np.clip(interp(lattice), 0.0, None)
    return lattice, vals, float(lattice[1] - lattice[0]), out_lo, out_hi


def _full_convolution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The full linear convolution of two real arrays through real FFTs of
    a fast length (the floats of scipy.signal.fftconvolve)."""
    n = a.size + b.size - 1
    size = next_fast_len(n, True)
    spectrum = rfft(a, size)
    spectrum *= rfft(b, size)
    return irfft(spectrum, size)[:n]


def smear(density: DensityFn, f: AcceptanceFn) -> DensityFn:
    """Convolve a density with |f|^2 on a uniform output lattice.

    The output window cannot capture slowly decaying inputs entirely; what
    falls outside is bookkept exactly through the acceptance CDF and modeled
    by the input's tail fit (far from the window the smeared and raw
    densities agree to the order of the tail curvature, so the input model
    carries over).  A lattice and kernel over the node budget raise
    ResolutionError before they are allocated.
    """
    tag = _SMEAR_TAG.get(density.grid.domain_tag, Domain.ZETA)
    lattice, lat_vals, h, i_lo, i_hi = _lattice_input(density, f)
    m = _check_budget(f, h, lattice.size)
    kernel = f.lattice_kernel(m, h)
    src_masses = lat_vals * h
    del lat_vals
    conv = _full_convolution(src_masses, kernel)

    # conv index j + m corresponds to lattice node j.  On a side whose
    # tail model holds material mass at the cut, the output stops there
    # and the model takes over (sources extend one reach further to feed
    # full inflow); otherwise essentially nothing lives beyond the
    # lattice and the output extends the full kernel reach past it.
    def _cut(side, position):
        return side is not None and side.mass_beyond(abs(position)) > 1e-6

    c_lo = m + i_lo if _cut(density.tail_left, lattice[i_lo]) else 0
    c_hi = m + i_hi if _cut(density.tail_right, lattice[i_hi - 1]) \
        else conv.size
    first = lattice[0]
    # the output window's end nodes, as the node array below forms them
    lo, hi = (float(first + (c - m) * h) for c in (c_lo, c_hi - 1))
    # each source's mass inside the output window, formed block by block
    # so that its temporaries stay block-sized; the sources then go
    inside, size = np.empty(lattice.size), quadrature._BLOCK_ENTRIES
    for start in range(0, lattice.size, size):
        at = lattice[start:start + size]
        inside[start:start + at.size] = f.window_mass(lo - at, hi - at)
    captured = float(np.dot(src_masses, inside))
    del lattice, src_masses, inside
    # sources dropped by the lattice restriction sit beyond the output
    # window's reach, so their in-window contribution is negligible
    tail_mass = max(0.0, 1.0 - captured)

    nodes = first + (np.arange(c_lo, c_hi) - m) * h
    u_out = conv[c_lo:c_hi]
    w = np.full(nodes.size, h)
    w[0] = w[-1] = 0.5 * h
    out_grid = Grid(nodes=nodes, weights=w, domain_tag=tag)
    left, right = density.tail_left, density.tail_right
    modeled = sum(outside_masses(left, right, lo, hi))
    if tail_mass > 4e-6 and left is None and right is None:
        raise ResolutionError(f"smear window loses {tail_mass:.2e} of the mass "
                              "and no tail model accounts for it")
    if modeled > 0.0 and abs(modeled - tail_mass) > max(4e-6, 0.25 * tail_mass):
        raise ResolutionError("smeared tail bookkeeping and tail model disagree")
    quad_mass = out_grid.integrate(u_out)
    total = quad_mass + tail_mass
    if abs(total - 1.0) > 1e-7:
        raise ResolutionError(f"smearing lost normalization: mass {total:.10f}")
    values = np.clip(u_out, 0.0, None) / total
    return DensityFn(grid=out_grid, values=values,
                     tail_mass_bound=tail_mass / total,
                     tail_left=left, tail_right=right)


# ---------------------------------------------------------------------------
# the sub-normalized kernel and S_f
# ---------------------------------------------------------------------------

def j_profile(f: AcceptanceFn, params: MinLengthParams,
              zeta_grid: Grid) -> np.ndarray:
    """J(zeta) at the grid nodes; identically one for beta = 0."""
    zeta = zeta_grid.nodes
    if not params.deformed:
        return np.ones_like(zeta)
    return f.j(zeta, params.beta)


def s_f(f: AcceptanceFn, params: MinLengthParams) -> float:
    """Supremum of J over zeta; one for beta = 0."""
    if not params.deformed:
        return 1.0
    return f.sup_j(params.beta)


def s_f_gaussian_bound(sigma: float, beta: float) -> float:
    """Closed-form upper bound sqrt(pi / (2 sigma^2 beta)) for Gaussian f."""
    if not (sigma > 0.0 and beta > 0.0):
        raise InvalidParameterError("sigma and beta must be positive")
    return math.sqrt(math.pi / (2.0 * sigma * sigma * beta))
