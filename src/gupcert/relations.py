"""Certified inequalities: both sides, signed margins, graded verdicts.

Every check returns RelationReport records with margin = lhs - rhs, where the
sides are arranged so that a nonnegative margin (within tolerance) certifies
the inequality.  Checks that need finite moments downgrade to a
not-applicable verdict on heavy-tailed states instead of failing; the
entropic bounds are exactly the statements that survive infinite variance.

The pass threshold is -(base tolerance + 4 x propagated grid-error estimate);
numerical certification needs graded evidence rather than a boolean.

A check takes only what its inequality reads: the bundle's densities (whose
source state carries beta), S_f and the binned distributions with their
bin widths.  Reports carry no state label or parameter tags; the suite keys
each row by the cell and parameters it passed in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

from .core import (DensityFn, DiscreteDist, OrderPair, PureState, moment,
                   rebuild_state)
from .entropy import (EntropyValue, alpha_log, diff_shannon,
                      discrete_renyi, discrete_renyi_and_norm,
                      discrete_tsallis, renyi_and_norm)
from .errors import (InvalidParameterError, MomentDivergenceError,
                     NormDivergenceError)
from .measurement import s_f_gaussian_bound
from .transform import RepresentationBundle, bundle

LN_E_PI = 1.0 + math.log(math.pi)
BASE_TOLERANCE = 1e-8


@dataclass(frozen=True)
class RelationReport:
    """One inequality: both sides, the signed margin and its verdict.

    A report names its relation but not its inputs; the caller knows which
    state and parameters it checked and keys the row.  The verdict is stored:
    a NaN margin fails unless the check could not be made at all.
    """

    relation_id: str
    lhs: float
    rhs: float
    est_error: float
    verdict: str          # "pass" | "fail" | "not_applicable"
    reason: str = ""      # why a not-applicable check could not be made

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs

    @property
    def tolerance(self) -> float:
        """How far below zero the margin may fall and still pass."""
        return BASE_TOLERANCE + 4.0 * self.est_error


def _report(relation_id: str, lhs: float, rhs: float,
            est_error: float) -> RelationReport:
    rpt = RelationReport(relation_id=relation_id, lhs=lhs, rhs=rhs,
                         est_error=est_error, verdict="fail")
    return replace(rpt, verdict="pass") if rpt.margin >= -rpt.tolerance else rpt


def _not_applicable(relation_id: str, reason: str) -> RelationReport:
    return RelationReport(relation_id=relation_id, lhs=math.nan, rhs=math.nan,
                          est_error=0.0, verdict="not_applicable",
                          reason=reason)


# ---------------------------------------------------------------------------
# conjugate orders and the Beckner constant
# ---------------------------------------------------------------------------

def _order_log_term(t: float) -> float:
    """ln(t) / (t - 1) extended by continuity: 1 at t = 1, 0 at infinity."""
    if t == 1.0:
        return 1.0
    if math.isinf(t):
        return 0.0
    return math.log(t) / (t - 1.0)


def kappa(pair: OrderPair) -> float:
    """Beckner constant: kappa^2 = alpha^(1/(alpha-1)) gamma^(1/(gamma-1)).

    Continuous limits give kappa = 2 at gamma = 1/2 and kappa = e at the
    degenerate pair (1, 1).
    """
    return math.exp(0.5 * (_order_log_term(pair.alpha)
                           + _order_log_term(pair.gamma)))


def conjugate_order(alpha: float) -> OrderPair:
    """Pair alpha with gamma = alpha / (2 alpha - 1); alpha = 1 degenerates."""
    if alpha == 1.0:
        return OrderPair(1.0, 1.0)
    if not alpha > 1.0:
        raise InvalidParameterError("need alpha > 1 (or exactly 1)")
    if math.isinf(alpha):
        return OrderPair(math.inf, 0.5)
    return OrderPair(float(alpha), float(alpha / (2.0 * alpha - 1.0)))


def check_kappa(pair: OrderPair) -> RelationReport:
    """The Beckner constant of a pair as a record."""
    return _report("kappa_value", kappa(pair), 0.0, 0.0)


# ---------------------------------------------------------------------------
# S_f bounds
# ---------------------------------------------------------------------------

def check_sf_bounds(sf_value: float, sigma: float,
                    beta: float) -> list[RelationReport]:
    """S_f <= 1, and S_f <= sqrt(pi / (2 sigma^2 beta)) when beta > 0.

    `sf_value` is S_f of a Gaussian acceptance of width sigma at this beta.
    """
    out = [_report("sf_upper_unit", 1.0, sf_value, 1e-12)]
    if beta > 0.0:
        out.append(_report("sf_gaussian_bound",
                           s_f_gaussian_bound(sigma, beta), sf_value, 1e-12))
    return out


# ---------------------------------------------------------------------------
# the correction term and its bounds
# ---------------------------------------------------------------------------

def correction_term(rep: RepresentationBundle) -> float:
    """Mean of ln(1 + beta k^2) under the physical wavenumber density.

    Nonnegative, zero for beta = 0, and equal to H(K) - H(Q) by the exact
    density pushforward; the image-grid construction realizes that identity
    at the quadrature level.  Beta is that of the bundle's own state.
    """
    return _correction(rep)[0]


def _correction(rep: RepresentationBundle) -> tuple[float, float]:
    """The correction term and the K grid rule's error estimate for it."""
    params = rep.source.params
    if not params.deformed:
        return 0.0, 0.0
    u = rep.u_k
    k = u.grid.nodes
    f = u.values * np.log1p(params.beta * k * k)
    return float(u.grid.integrate(f)), u.grid.rule_error(f)


def check_correction_term(rep: RepresentationBundle) -> RelationReport:
    """The correction term as a record: nonnegative, so rhs is zero."""
    corr, err = _correction(rep)
    return _report("correction_term", corr, 0.0, err)


@dataclass(frozen=True)
class LinearizationPoint:
    beta: float
    residual: float       # <ln(1 + beta k^2)> - beta <k^2>
    ratio: float          # residual / beta^2
    expected: float       # -<k^4>/2 at this beta


@dataclass(frozen=True)
class LinearizationReport:
    applicable: bool
    points: tuple[LinearizationPoint, ...]
    reason: str = ""


def correction_linearization_check(state: PureState,
                                   beta_list: Sequence[float]) -> LinearizationReport:
    """Small-beta check: the correction is beta <k^2> minus (beta^2/2) <k^4>.

    The state is rebuilt at every requested beta through its profile; states
    whose wavenumber density lacks a fourth moment get a not-applicable
    verdict rather than a number.
    """
    points = []
    for beta in beta_list:
        if beta == 0.0:
            points.append(LinearizationPoint(0.0, 0.0, 0.0, 0.0))
            continue
        st = rebuild_state(state, beta)
        rep = bundle(st)
        u = rep.u_k
        try:
            moment(u, 2)  # both moments must exist for the expansion
            k4 = moment(u, 4).value
        except MomentDivergenceError as exc:
            return LinearizationReport(applicable=False, points=(),
                                       reason=str(exc))
        k = u.grid.nodes
        integrand = np.log1p(beta * k * k) - beta * k * k
        residual = float(u.grid.integrate(u.values * integrand))
        points.append(LinearizationPoint(beta=beta, residual=residual,
                                         ratio=residual / beta ** 2,
                                         expected=-0.5 * k4))
    return LinearizationReport(applicable=True, points=tuple(points))


def check_jensen(rep: RepresentationBundle) -> RelationReport:
    """Concavity bound: correction <= ln(1 + beta <k^2>) when <k^2> exists."""
    beta = rep.source.params.beta
    try:
        k2 = moment(rep.u_k, 2)
    except MomentDivergenceError as exc:
        return _not_applicable("correction_jensen", str(exc))
    corr, corr_err = _correction(rep)
    lhs = math.log1p(beta * k2.value)
    return _report("correction_jensen", lhs, corr,
                   k2.est_error * beta / (1.0 + beta * k2.value) + corr_err)


# ---------------------------------------------------------------------------
# variance-based bound
# ---------------------------------------------------------------------------

def robertson_margin(rep: RepresentationBundle) -> RelationReport:
    """Deformed variance bound: dx dk >= (1 + beta <k^2>) / 2.

    Downgrades to not-applicable when either standard deviation diverges,
    which genuinely happens for Cauchy-type wavenumber densities.
    """
    beta = rep.source.params.beta
    try:
        k1, k2 = moment(rep.u_k, 1), moment(rep.u_k, 2)
        x1, x2 = moment(rep.w_x, 1), moment(rep.w_x, 2)
    except MomentDivergenceError as exc:
        return _not_applicable("robertson_product", str(exc))
    var_k = k2.value - k1.value ** 2
    var_x = x2.value - x1.value ** 2
    if var_k <= 0.0 or var_x <= 0.0:
        return _not_applicable("robertson_product",
                               "a computed variance is not positive")
    dk, dx = math.sqrt(var_k), math.sqrt(var_x)
    err = (x2.est_error + 2.0 * abs(x1.value) * x1.est_error) / (2.0 * dx) * dk \
        + (k2.est_error + 2.0 * abs(k1.value) * k1.est_error) / (2.0 * dk) * dx \
        + 0.5 * beta * k2.est_error
    lhs = dx * dk
    rhs = 0.5 * (1.0 + beta * k2.value)
    return _report("robertson_product", lhs, rhs, err)


# ---------------------------------------------------------------------------
# Shannon relations
# ---------------------------------------------------------------------------

def check_bbm_corrected(rep: RepresentationBundle) -> list[RelationReport]:
    """Fourier-pair bound and its minimal-length corrected form.

    The base relation is H(Q) + H(X) >= ln(e pi); replacing the auxiliary
    entropy by the physical one adds the correction term to the bound.
    """
    hq = diff_shannon(rep.v_q)
    hx = diff_shannon(rep.w_x)
    hk = diff_shannon(rep.u_k)
    corr, corr_err = _correction(rep)
    base = _report("shannon_sum_base", hq.value + hx.value, LN_E_PI,
                   hq.est_error + hx.est_error)
    corrected = _report("shannon_sum_corrected", hk.value + hx.value,
                        LN_E_PI + corr, hk.est_error + hx.est_error + corr_err)
    return [base, corrected]


def check_smeared_shannon(rep: RepresentationBundle,
                          smeared: tuple[DensityFn, DensityFn],
                          sf_value: float) -> list[RelationReport]:
    """Smeared Shannon sums against the corrected and resolution bounds.

    `smeared` holds the two smeared densities (wavenumber, position) and
    `sf_value` is S_f of the momentum acceptance.  The corrected bound
    survives smearing unchanged; the resolution bound replaces it by
    ln(e pi / S_f), which exceeds ln(e pi) once the momentum acceptance is
    wide enough that S_f < 1.
    """
    u_s, w_s = smeared
    hm = diff_shannon(u_s)
    hn = diff_shannon(w_s)
    corr, corr_err = _correction(rep)
    err = hm.est_error + hn.est_error
    lhs = hm.value + hn.value
    return [
        _report("shannon_sum_smeared", lhs, LN_E_PI + corr, err + corr_err),
        _report("shannon_sum_smeared_resolution", lhs,
                LN_E_PI - math.log(sf_value), err),
    ]


def check_binning_lemma(density: DensityFn, dist: DiscreteDist) -> RelationReport:
    """Discretization lemma: H(p) >= H(density) - ln(max bin width).

    `dist` is the density binned on some layout; the density's axis names
    the row (binning_lemma_k for the wavenumber, binning_lemma_x for the
    position).  The row carries the errors of both entropies.
    """
    h_cont = diff_shannon(density)
    h_disc = discrete_renyi(dist, 1.0)
    axis = density.grid.domain_tag.value.lower()
    return _report(f"binning_lemma_{axis}", h_disc.value,
                   h_cont.value - math.log(dist.delta_max),
                   h_cont.est_error + h_disc.est_error)


def check_binned_shannon(p_k: DiscreteDist, p_x: DiscreteDist,
                         rep: RepresentationBundle) -> RelationReport:
    """Binned Shannon sum against ln(e pi / (dk dx)) plus the correction.

    `p_k` and `p_x` are the wavenumber and position densities of `rep`
    binned.
    """
    corr, corr_err = _correction(rep)
    h_k, h_x = discrete_renyi(p_k, 1.0), discrete_renyi(p_x, 1.0)
    rhs = LN_E_PI - math.log(p_k.delta_max * p_x.delta_max) + corr
    return _report("shannon_sum_binned", h_k.value + h_x.value, rhs,
                   h_k.est_error + h_x.est_error + corr_err)


# ---------------------------------------------------------------------------
# Renyi and Tsallis relations
# ---------------------------------------------------------------------------

def check_beckner(pair: OrderPair,
                  rep: RepresentationBundle) -> list[RelationReport]:
    """Conjugate-norm inequalities between the auxiliary and position pair.

    In log form: ln ||w||_gamma - ((1-gamma)/gamma) ln(kappa pi) >= ln ||v||_alpha
    together with the twin obtained by swapping the two densities: the norm
    rows of the Renyi relations with S_f = 1.  The degenerate (1, 1) pair
    dispatches to the base Shannon relation.
    """
    if pair.degenerate:
        return [check_bbm_corrected(rep)[0]]
    return _renyi_reports(renyi_and_norm, rep.v_q, rep.w_x, pair, 1.0, None,
                          ("beckner_qx", "beckner_xq"))[0]


def _log_norm_error(renyi: EntropyValue, order: float) -> float:
    """Error of ln ||p||_order from that of the Renyi entropy of the order."""
    return renyi.est_error * abs(1.0 - order) / order


def _renyi_reports(renyi_and_norm_fn, dens_m, dens_n, pair: OrderPair,
                   scale: float, rid_sum: str | None,
                   rid_norms: tuple[str, str]) -> tuple[list[RelationReport], dict]:
    """Renyi sums of (alpha on M, gamma on N), the swap, and their norm forms.

    Every row reads the four (entropy, norm) pairs of `renyi_and_norm_fn`,
    so each power integral is computed once; a divergent one turns the rows
    that need it into not-applicable records that carry its message; the
    pairs are returned with the rows, keyed by (side, order).  The sums are
    bounded by ln(kappa pi / scale) and the norm rows are
    ||.||_alpha <= (scale/(kappa pi))^((1-gamma)/gamma) ||.||_gamma, where
    `scale` is S_f, times the two bin widths when binned.  The first norm
    row puts gamma on N, the second on M.  Without `rid_sum` only the norm
    rows are made; with scale 1 they are the Beckner inequalities.
    """
    powers = {}
    for side, dens in (("m", dens_m), ("n", dens_n)):
        for order in (pair.alpha, pair.gamma):
            try:
                powers[side, order] = renyi_and_norm_fn(dens, order)
            except NormDivergenceError as exc:
                powers[side, order] = exc
    kp = kappa(pair)
    expo = (1.0 - pair.gamma) / pair.gamma
    rhs = math.log(kp * math.pi / scale)
    shift = expo * math.log(scale / (kp * math.pi))
    rows = [(rid_norms[0], "m", "n", False), (rid_norms[1], "n", "m", False)]
    if rid_sum is not None:
        rows[:0] = [(rid_sum, "m", "n", True),
                    (rid_sum + "_swapped", "n", "m", True)]
    out = []
    for rid, first, second, is_sum in rows:
        pa, pg = powers[first, pair.alpha], powers[second, pair.gamma]
        diverged = [p for p in (pa, pg) if isinstance(p, NormDivergenceError)]
        if diverged:
            out.append(_not_applicable(rid, str(diverged[0])))
        elif is_sum:
            ra, rg = pa[0], pg[0]
            out.append(_report(rid, ra.value + rg.value, rhs,
                               ra.est_error + rg.est_error))
        else:
            out.append(_report(rid, shift + math.log(pg[1]), math.log(pa[1]),
                               _log_norm_error(pg[0], pair.gamma)
                               + _log_norm_error(pa[0], pair.alpha)))
    return out, powers


def check_renyi_smeared(pair: OrderPair, rep: RepresentationBundle,
                        smeared: tuple[DensityFn, DensityFn],
                        sf_value: float) -> list[RelationReport]:
    """Smeared Renyi sums and the norm-level forms they come from.

    R_alpha(M) + R_gamma(N) >= ln(kappa pi / S_f) for conjugate orders, the
    swapped assignment, and the two norm inequalities
    ||U||_alpha <= (S_f/(kappa pi))^((1-gamma)/gamma) ||W||_gamma (and twin).
    The degenerate pair dispatches to the smeared Shannon relations.
    """
    if pair.degenerate:
        return check_smeared_shannon(rep, smeared, sf_value)
    return _renyi_reports(renyi_and_norm, smeared[0], smeared[1], pair,
                          sf_value, "renyi_sum_smeared",
                          ("renyi_norm_smeared_uw", "renyi_norm_smeared_wu"))[0]


def check_renyi_binned(pair: OrderPair, p_m: DiscreteDist, p_n: DiscreteDist,
                       sf_value: float) -> list[RelationReport]:
    """Binned Renyi sums against ln(kappa pi / (S_f dzeta dxi)) plus norms.

    `p_m` and `p_n` are the smeared wavenumber and position densities
    binned; `sf_value` is S_f of the momentum acceptance.  The last row is
    the norm ordering of `p_m`, read from the same power sums.
    """
    scale = sf_value * p_m.delta_max * p_n.delta_max
    if pair.degenerate:
        h_m, h_n = discrete_renyi(p_m, 1.0), discrete_renyi(p_n, 1.0)
        return [_report("renyi_sum_binned", h_m.value + h_n.value,
                        LN_E_PI - math.log(scale),
                        h_m.est_error + h_n.est_error),
                check_norm_ordering(p_m, pair)]
    rows, powers = _renyi_reports(discrete_renyi_and_norm, p_m, p_n, pair,
                                  scale, "renyi_sum_binned",
                                  ("renyi_norm_binned_mn",
                                   "renyi_norm_binned_nm"))
    return rows + [_norm_ordering(lambda order: powers["m", order], pair)]


def check_tsallis_binned(pair: OrderPair, p_m: DiscreteDist, p_n: DiscreteDist,
                         sf_value: float) -> list[RelationReport]:
    """Binned Tsallis sums against the deformed-log bound with nu = max order.

    Inputs as for check_renyi_binned.
    """
    kp = kappa(pair)
    nu = max(pair.alpha, pair.gamma)
    rhs = alpha_log(kp * math.pi / (sf_value * p_m.delta_max * p_n.delta_max),
                    nu)
    out = []
    for rid, first, second in (("tsallis_sum_binned", p_m, p_n),
                               ("tsallis_sum_binned_swapped", p_n, p_m)):
        t_a = discrete_tsallis(first, pair.alpha)
        t_g = discrete_tsallis(second, pair.gamma)
        out.append(_report(rid, t_a.value + t_g.value, rhs,
                           t_a.est_error + t_g.est_error))
    return out


def check_norm_ordering(dist: DiscreteDist, pair: OrderPair) -> RelationReport:
    """Discrete norm ordering ||p||_alpha <= 1 <= ||p||_gamma for alpha>1>gamma.

    Both inequalities fold into one report: lhs is the smaller slack of the
    two, rhs is zero.
    """
    return _norm_ordering(partial(discrete_renyi_and_norm, dist), pair)


def _norm_ordering(renyi_of, pair: OrderPair) -> RelationReport:
    """The check_norm_ordering row; `renyi_of(order)` gives the Renyi entropy
    and ||p|| of that order.  Either slack moves by at most its norm's error."""
    if pair.degenerate:
        return _report("discrete_norm_ordering", 0.0, 0.0, 0.0)
    (r_a, n_a), (r_g, n_g) = renyi_of(pair.alpha), renyi_of(pair.gamma)
    err = max(n_a * _log_norm_error(r_a, pair.alpha),
              n_g * _log_norm_error(r_g, pair.gamma))
    return _report("discrete_norm_ordering", min(1.0 - n_a, n_g - 1.0), 0.0,
                   err)
