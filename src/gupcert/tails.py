"""Power-law tail models for densities tabulated on finite windows.

A tabulated density only covers a window of its axis.  Physical-wavenumber
densities can decay as slowly as 1/k^2 (sharp features of the auxiliary
density at the interval edge map onto Cauchy-type tails) and position
densities of edge-supported states decay as oscillatory sin^2(ax+phi)/x^2.
Mass, Shannon entropy, alpha-norm and moment integrals all pick up material
contributions from such tails, so each side of a window carries a fitted
model

    density(t) ~ c / |t|**p            (mean envelope, non-oscillatory)
    density(t) ~ 2 c sin^2(a t + phi) / |t|**p   (oscillatory; mean c/|t|**p)

where `c` is always the mean-envelope coefficient.  Oscillatory models use
period averages of the sin^2 factor: <s^2> = 1/2, <-s^2 ln s^2> = ln 2 - 1/2,
and <s^(2g)> = Gamma(g + 1/2) / (sqrt(pi) Gamma(g + 1)).

This module alone knows the model.  It fits it (`fit_k_tails` pointwise,
`fit_x_tail` on block means, one log-log exponent rule for both), inverts it
(`TailSide.quantile_beyond` undoes `mass_beyond`) and sums it
(`outside_masses`: the modelled mass beyond each end of a window).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# <-sin^2 ln sin^2> over one period
_OSC_ENTROPY_MEAN = math.log(2.0) - 0.5


def _osc_power_mean(g: float) -> float:
    """Period average of |sin|**(2 g)."""
    return math.exp(math.lgamma(g + 0.5) - math.lgamma(g + 1.0)) / math.sqrt(math.pi)


@dataclass(frozen=True)
class TailSide:
    """Fitted tail on one side of a window, valid for |t| >= valid_from."""

    coeff: float        # mean-envelope coefficient c
    exponent: float     # decay exponent p
    oscillatory: bool
    valid_from: float

    def mass_beyond(self, t: float) -> float:
        p = self.exponent
        return self.coeff * t ** (1.0 - p) / (p - 1.0)

    def quantile_beyond(self, mass):
        """|t| beyond which the tail holds `mass`; inverts mass_beyond."""
        pm1 = self.exponent - 1.0
        return (self.coeff / (pm1 * mass)) ** (1.0 / pm1)

    def entropy_beyond(self, t: float) -> float:
        """Integral of -w ln w over the tail, by period-averaged closed form."""
        c, p = self.coeff, self.exponent
        if c <= 0.0:
            return 0.0
        base = c * t ** (1.0 - p) / (p - 1.0)
        term = p * math.log(t) + p / (p - 1.0) - math.log(c)
        if self.oscillatory:
            term += 2.0 * _OSC_ENTROPY_MEAN - math.log(2.0)
        return base * term

    def alpha_converges(self, alpha: float) -> bool:
        return self.exponent * alpha > 1.0 + 1e-2

    def alpha_mass_beyond(self, alpha: float, t: float, unit: float) -> float:
        """Integral of density**alpha over the tail, in units of unit**alpha.

        The envelope at t is divided by `unit` (a density's largest value)
        before the power is taken, so a large order stays finite on the
        scale of a power sum taken in the same unit.
        """
        envelope = self.coeff * t ** -self.exponent / unit
        expo = self.exponent * alpha - 1.0
        if self.oscillatory:
            return (2.0 * envelope) ** alpha * _osc_power_mean(alpha) * t / expo
        return envelope ** alpha * t / expo

    def moment_converges(self, n: int) -> bool:
        return self.exponent - n > 1.0 + 1e-2

    def moment_beyond(self, n: int, t: float) -> float:
        """Integral of t^n * density over the tail (absolute value of abscissa)."""
        c, p = self.coeff, self.exponent
        return c * t ** (n + 1.0 - p) / (p - n - 1.0)

    def divergent_scale(self, n: int, t_lo: float, t_hi: float) -> float:
        """Magnitude of the (divergent or near-divergent) n-th moment tail.

        Used to decide whether a formally divergent tail is numerically
        material: coefficients can underflow to the point where the
        divergence is invisible at any representable scale.
        """
        c, p = self.coeff, self.exponent
        expo = n + 1.0 - p
        if abs(expo) < 1e-9:
            return c * math.log(t_hi / t_lo)
        return abs(c * (t_hi ** expo - t_lo ** expo) / expo)


def outside_masses(left: TailSide | None, right: TailSide | None,
                   lo: float, hi: float) -> tuple[float, float]:
    """Modelled (left, right) mass beyond a window [lo, hi], 0 without a model."""
    return (left.mass_beyond(abs(lo)) if left else 0.0,
            right.mass_beyond(hi) if right else 0.0)


def _exponent(lt: np.ndarray, ly: np.ndarray, window: float) -> float | None:
    """Decay rate p of the regression ly ~ -p lt; None when p <= 1.05.

    p snaps to 2 or 4 within `window`: the change of variables only
    produces even integer decay rates.
    """
    slope, _ = np.polyfit(lt, ly, 1)
    p = -slope
    for target in (2.0, 4.0):
        if abs(p - target) < window:
            return target
    return None if p <= 1.05 else p


def fit_k_tails(k: np.ndarray, u: np.ndarray):
    """(left, right) pointwise fits u ~ c |k|**-p on wavenumber nodes k.

    Each side uses top**0.55 <= |k| <= top**0.92 of its outermost node; it
    has no model below top = 10 or with fewer than 8 positive zone values.
    """
    def one_side(absk, vals):
        top = absk[-1]
        if top <= 10.0:
            return None
        zone = ((absk >= top ** 0.55) & (absk <= top ** 0.92)
                & (vals > 0.0) & np.isfinite(vals))
        if np.count_nonzero(zone) < 8:
            return None
        lt, ly = np.log(absk[zone]), np.log(vals[zone])
        p = _exponent(lt, ly, 0.5)
        if p is None:
            return None
        c = float(np.exp(np.mean(ly + p * lt)))
        # tiny-mass tails are still kept: their exponent is what detects
        # divergent moments, and consumers weigh the coefficient themselves
        return TailSide(coeff=c, exponent=float(p), oscillatory=False,
                        valid_from=float(absk[zone][0]))

    neg = k < 0.0
    return (one_side(np.abs(k[neg])[::-1], u[neg][::-1]),
            one_side(k[~neg], u[~neg]))


def _ratio_coeff(x: np.ndarray, w: np.ndarray, p: float) -> float:
    """Mean-envelope coefficient from integral(w) / integral(x**-p)."""
    num = float(np.trapezoid(w, x))
    den = float(np.trapezoid(x ** (-p), x))
    return num / den


def fit_x_tail(x: np.ndarray, w: np.ndarray, period: float | None):
    """Power-law tail fit over the outer quarter of one side of x >= 0.

    The exponent comes from a block-averaged log-log regression; the
    coefficient from the ratio of integrals of w and x**-p over the zone.
    With the zone trimmed to a whole number of boundary-oscillation periods
    the sin^2 phase cancels exactly in that ratio, which is what makes the
    window-defect bookkeeping converge for box-like states.
    Returns (TailSide | None, stable: bool).
    """
    hi = x[-1]
    zone_lo = 0.75 * hi
    if period is not None:
        n_per = int((hi - zone_lo) // period)
        if n_per < 4:
            return None, False
        zone_lo = hi - n_per * period
    sel = x >= zone_lo - 1e-12 * hi
    xs, ws = x[sel], w[sel]
    if xs.size < 32 or np.max(ws) <= 0.0:
        return None, True

    # exponent: coarse block means against position
    n_blocks = 12
    edges = np.linspace(xs[0], xs[-1], n_blocks + 1)
    idx = np.clip(np.searchsorted(edges, xs, side="right") - 1, 0, n_blocks - 1)
    sums = np.bincount(idx, weights=ws, minlength=n_blocks)
    counts = np.bincount(idx, minlength=n_blocks)
    ok = counts > 0
    b = sums[ok] / counts[ok]
    xc = 0.5 * (edges[:-1] + edges[1:])[ok]
    if np.any(b <= 0.0) or b.size < 4:
        return None, True
    p = _exponent(np.log(xc), np.log(b), 0.6)
    if p is None:
        return None, False

    c = _ratio_coeff(xs, ws, p)
    mid = xs.size // 2
    if period is not None:
        n_half = int((xs[-1] - xs[0]) / (2.0 * period)) * period
        mid = int(np.searchsorted(xs, xs[-1] - n_half))
    c1 = _ratio_coeff(xs[:mid + 1], ws[:mid + 1], p)
    c2 = _ratio_coeff(xs[mid:], ws[mid:], p)
    stable = abs(c1 - c2) <= 0.08 * c + 1e-16
    side = TailSide(coeff=c, exponent=float(p),
                    oscillatory=period is not None, valid_from=float(xs[0]))
    if side.mass_beyond(hi) < 1e-14:
        return None, True
    return side, stable
