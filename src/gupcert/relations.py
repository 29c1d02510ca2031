"""Certified inequalities: both sides, signed margins, graded verdicts.

Every check returns RelationReport records with margin = lhs - rhs, where the
sides are arranged so that a nonnegative margin (within tolerance) certifies
the inequality.  Checks that need finite moments downgrade to a
not-applicable verdict on heavy-tailed states instead of failing; the
entropic bounds are exactly the statements that survive infinite variance.

The pass threshold is -(base tolerance + 4 x propagated grid-error estimate);
numerical certification needs graded evidence rather than a boolean.

A check takes only what its inequality reads: the bundle's densities and
correction (its source state carries beta), S_f and, for a binned row, the
BinnedSums of each binned distribution: its widest bin and its power sums.
Reports carry no state label or parameter tags, only the widest bins a row
read; the suite keys each row by the cell and parameters it passed in.

Each density owns its differential Shannon entropy (DensityFn.shannon)
and each BinnedSums its discrete one (order 1), so the Fourier-pair,
binning-lemma and binned Shannon rows, and the Beckner and smeared Renyi
rows of the degenerate pair (1, 1), read them in any order and take none
twice.  The Renyi, norm and Tsallis rows of an order pair read one table of
power sums, one per density and order: check_renyi_binned returns every
binned row of the pair, and check_tsallis_binned and check_norm_ordering
are views.  The binned sums are taken when the bins are (entropy.bin_pair,
BinnedSums.of), so no check holds or reads a bin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (DensityFn, Domain, OrderPair, PureState, moment,
                   rebuild_state)
from .entropy import (BinnedSums, EntropyValue, _tsallis_of_renyi, alpha_log,
                      diff_shannon, renyi_and_norm)
from .errors import (InvalidParameterError, MomentDivergenceError,
                     NormDivergenceError)
from .measurement import s_f_gaussian_bound
from .transform import RepresentationBundle, density_q_to_k, q_density

LN_E_PI = 1.0 + math.log(math.pi)
BASE_TOLERANCE = 1e-8


@dataclass(frozen=True)
class RelationReport:
    """One inequality: both sides, the signed margin and its verdict.

    A report names its relation but not its inputs; the caller knows which
    state and parameters it checked and keys the row; a binned row names the
    widest bins it read.  The verdict is stored: a NaN margin fails unless
    the check could not be made at all.
    """

    relation_id: str
    lhs: float
    rhs: float
    est_error: float
    verdict: str          # "pass" | "fail" | "not_applicable"
    reason: str = ""      # why a not-applicable check could not be made
    delta_k: float | None = None  # widest wavenumber-side bin read
    delta_x: float | None = None  # widest position-side bin read

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs

    @property
    def tolerance(self) -> float:
        """How far below zero the margin may fall and still pass."""
        return _tolerance(self.est_error)


def _tolerance(est_error: float) -> float:
    return BASE_TOLERANCE + 4.0 * est_error


def _report(relation_id: str, lhs: float, rhs: float, est_error: float,
            **widths) -> RelationReport:
    verdict = "pass" if lhs - rhs >= -_tolerance(est_error) else "fail"
    return RelationReport(relation_id=relation_id, lhs=lhs, rhs=rhs,
                          est_error=est_error, verdict=verdict, **widths)


def _not_applicable(relation_id: str, reason: str, **widths) -> RelationReport:
    return RelationReport(relation_id=relation_id, lhs=math.nan, rhs=math.nan,
                          est_error=0.0, verdict="not_applicable",
                          reason=reason, **widths)


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
    at the quadrature level.  Beta is that of the bundle's own state, which
    integrates the term once (RepresentationBundle.correction).
    """
    return rep.correction[0]


def check_correction_term(rep: RepresentationBundle) -> RelationReport:
    """The correction term as a record: nonnegative, so rhs is zero."""
    corr, err = rep.correction
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
        u = density_q_to_k(q_density(st), st.params)  # as bundle takes it
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
    corr, corr_err = rep.correction
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
    corr, corr_err = rep.correction
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
    corr, corr_err = rep.correction
    err = hm.est_error + hn.est_error
    lhs = hm.value + hn.value
    return [
        _report("shannon_sum_smeared", lhs, LN_E_PI + corr, err + corr_err),
        _report("shannon_sum_smeared_resolution", lhs,
                LN_E_PI - math.log(sf_value), err),
    ]


def check_binning_lemma(density: DensityFn, sums: BinnedSums) -> RelationReport:
    """Discretization lemma: H(p) >= H(density) - ln(max bin width).

    `sums` are the BinnedSums of the density binned on some layout, order 1
    among them; the density's axis names the row (binning_lemma_k for the
    wavenumber, binning_lemma_x for the position).  The row carries the
    errors of both entropies, each read where it is kept.
    """
    h_cont, h_disc = diff_shannon(density), sums.renyi_and_norm(1.0)[0]
    tag = density.grid.domain_tag
    width = "delta_x" if tag in (Domain.X, Domain.XI) else "delta_k"
    return _report(f"binning_lemma_{tag.value.lower()}", h_disc.value,
                   h_cont.value - math.log(sums.delta_max),
                   h_cont.est_error + h_disc.est_error,
                   **{width: sums.delta_max})


def check_binned_shannon(p_k: BinnedSums, p_x: BinnedSums,
                         rep: RepresentationBundle) -> RelationReport:
    """Binned Shannon sum against ln(e pi / (dk dx)) plus the correction.

    `p_k` and `p_x` are the BinnedSums, with order 1, of the wavenumber and
    position densities of `rep` binned; the row reads their order-1 sums
    and the bundle's correction, and no continuous entropy.
    """
    (h_k, _), (h_x, _) = p_k.renyi_and_norm(1.0), p_x.renyi_and_norm(1.0)
    corr, corr_err = rep.correction
    return _report("shannon_sum_binned", h_k.value + h_x.value,
                   LN_E_PI - math.log(p_k.delta_max * p_x.delta_max) + corr,
                   h_k.est_error + h_x.est_error + corr_err,
                   delta_k=p_k.delta_max, delta_x=p_x.delta_max)


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
    return _renyi_reports(renyi_and_norm, rep.v_q, rep.w_x, pair, 1.0,
                          {"norm": ("beckner_qx", "beckner_xq")})[0]


def _log_norm_error(renyi: EntropyValue, order: float) -> float:
    """Error of ln ||p||_order from that of the Renyi entropy of the order;
    the factor |1 - order| / order is 1 at order inf."""
    if math.isinf(order):
        return renyi.est_error
    return renyi.est_error * abs(1.0 - order) / order


def _renyi_reports(renyi_and_norm_fn, dens_m, dens_n, pair: OrderPair,
                   scale: float, rids: dict,
                   **widths) -> tuple[list[RelationReport], dict]:
    """Rows from one table of the (entropy, norm) pairs of M and N.

    `renyi_and_norm_fn` fills the table, keyed by (side, order) and returned
    with the rows, once per density and order; a divergent sum turns the
    rows that read it into not-applicable records that carry its message.
    `rids` names the two rows of each kind, alpha on M first, then swapped:
    "sum" R_alpha + R_gamma >= ln(kappa pi / scale), "norm" ||.||_alpha <=
    (scale/(kappa pi))^((1-gamma)/gamma) ||.||_gamma (the Beckner rows at
    scale 1) and "tsallis" H_alpha + H_gamma >= ln_nu(kappa pi / scale),
    nu = max order.  `scale` is S_f, times the bin widths `widths` when binned.
    """
    powers = {}
    for side, dens in (("m", dens_m), ("n", dens_n)):
        for order in dict.fromkeys((pair.alpha, pair.gamma)):
            try:
                powers[side, order] = renyi_and_norm_fn(dens, order)
            except NormDivergenceError as exc:
                powers[side, order] = exc
    kp = kappa(pair)
    shift = (1.0 - pair.gamma) / pair.gamma * math.log(scale / (kp * math.pi))
    bounds = {"sum": math.log(kp * math.pi / scale),
              "tsallis": alpha_log(kp * math.pi / scale,
                                   max(pair.alpha, pair.gamma))}
    out = []
    for kind, (rid_mn, rid_nm) in rids.items():
        for rid, first, second in ((rid_mn, "m", "n"), (rid_nm, "n", "m")):
            pa, pg = powers[first, pair.alpha], powers[second, pair.gamma]
            diverged = [p for p in (pa, pg)
                        if isinstance(p, NormDivergenceError)]
            if diverged:
                out.append(_not_applicable(rid, str(diverged[0]), **widths))
            elif kind == "norm":
                out.append(_report(rid, shift + math.log(pg[1]),
                                   math.log(pa[1]),
                                   _log_norm_error(pg[0], pair.gamma)
                                   + _log_norm_error(pa[0], pair.alpha),
                                   **widths))
            else:
                ea, eg = pa[0], pg[0]
                if kind == "tsallis":
                    ea = _tsallis_of_renyi(ea, pair.alpha)
                    eg = _tsallis_of_renyi(eg, pair.gamma)
                out.append(_report(rid, ea.value + eg.value, bounds[kind],
                                   ea.est_error + eg.est_error, **widths))
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
                          sf_value,
                          {"sum": ("renyi_sum_smeared",
                                   "renyi_sum_smeared_swapped"),
                           "norm": ("renyi_norm_smeared_uw",
                                    "renyi_norm_smeared_wu")})[0]


_BINNED = {"sum": ("renyi_sum_binned", "renyi_sum_binned_swapped"),
           "norm": ("renyi_norm_binned_mn", "renyi_norm_binned_nm"),
           "tsallis": ("tsallis_sum_binned", "tsallis_sum_binned_swapped")}


def check_renyi_binned(pair: OrderPair, p_m: BinnedSums, p_n: BinnedSums,
                       sf_value: float) -> list[RelationReport]:
    """Every binned row of an order pair, from four discrete power sums.

    `p_m` and `p_n` are the BinnedSums of the smeared wavenumber and
    position densities binned, each with the pair's two orders summed;
    `sf_value` is S_f of the momentum acceptance.  The rows, in
    order: the Renyi sums against ln(kappa pi / (S_f dzeta dxi)), the norm
    rows, the Tsallis sums against the deformed-log bound with nu = max
    order, and the norm ordering of `p_m`.  All read ln sum p^alpha and
    ln sum p^gamma of both distributions, each taken once.  The degenerate
    pair gives one Shannon sum against ln(e pi / (S_f dzeta dxi)), the two
    Tsallis sums in their Shannon form and a flat ordering row.  The rows
    name dzeta and dxi, the ordering row (of `p_m` only) dzeta alone.
    """
    scale = sf_value * p_m.delta_max * p_n.delta_max
    widths = {"delta_k": p_m.delta_max, "delta_x": p_n.delta_max}
    rids = {"tsallis": _BINNED["tsallis"]} if pair.degenerate else _BINNED
    rows, powers = _renyi_reports(BinnedSums.renyi_and_norm, p_m, p_n, pair,
                                  scale, rids, **widths)
    if pair.degenerate:
        (h_m, _), (h_n, _) = powers["m", 1.0], powers["n", 1.0]
        rows.insert(0, _report("renyi_sum_binned", h_m.value + h_n.value,
                               LN_E_PI - math.log(scale),
                               h_m.est_error + h_n.est_error, **widths))
    # the ordering folds both slacks into one row; either moves by at most
    # its norm's error, and both norms are 1 at the degenerate pair
    (r_a, n_a), (r_g, n_g) = powers["m", pair.alpha], powers["m", pair.gamma]
    err = max(n_a * _log_norm_error(r_a, pair.alpha),
              n_g * _log_norm_error(r_g, pair.gamma))
    return rows + [_report("discrete_norm_ordering",
                           min(1.0 - n_a, n_g - 1.0), 0.0, err,
                           delta_k=p_m.delta_max)]


def check_tsallis_binned(pair: OrderPair, p_m: BinnedSums, p_n: BinnedSums,
                         sf_value: float) -> list[RelationReport]:
    """The two Tsallis rows of check_renyi_binned (same inputs)."""
    return [rpt for rpt in check_renyi_binned(pair, p_m, p_n, sf_value)
            if rpt.relation_id in _BINNED["tsallis"]]


def check_norm_ordering(sums: BinnedSums, pair: OrderPair) -> RelationReport:
    """Discrete norm ordering ||p||_alpha <= 1 <= ||p||_gamma for alpha>1>gamma.

    The last row of check_renyi_binned, read for one distribution's
    BinnedSums with the pair's two orders summed: lhs is the smaller slack
    of the two inequalities, rhs is zero.
    """
    return check_renyi_binned(pair, sums, sums, 1.0)[-1]
