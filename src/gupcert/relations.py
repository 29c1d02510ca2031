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
twice.  A check builds only the rows it returns, from one power sum per
density and order: one helper builds every "first + second >= bound" row,
one a norm, Renyi-sum or Tsallis-sum row and its swapped twin.  The binned
sums are taken when the bins are drawn (entropy.bin_pair folds each
RandomEdges stream through entropy.binned_sums), so no check holds or reads
a bin.
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

def _sum_row(rid: str, first: EntropyValue, second: EntropyValue,
             bound: float, extra_error: float = 0.0,
             **widths) -> RelationReport:
    """first + second >= bound, with the two entropies' errors and then
    `extra_error` (that of a correction in the bound) summed."""
    return _report(rid, first.value + second.value, bound,
                   first.est_error + second.est_error + extra_error, **widths)


def check_bbm_corrected(rep: RepresentationBundle) -> list[RelationReport]:
    """Fourier-pair bound and its minimal-length corrected form.

    The base relation is H(Q) + H(X) >= ln(e pi); replacing the auxiliary
    entropy by the physical one adds the correction term to the bound.
    """
    hx = diff_shannon(rep.w_x)
    corr, corr_err = rep.correction
    return [_sum_row("shannon_sum_base", diff_shannon(rep.v_q), hx, LN_E_PI),
            _sum_row("shannon_sum_corrected", diff_shannon(rep.u_k), hx,
                     LN_E_PI + corr, corr_err)]


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
    hm, hn = diff_shannon(smeared[0]), diff_shannon(smeared[1])
    corr, corr_err = rep.correction
    return [_sum_row("shannon_sum_smeared", hm, hn, LN_E_PI + corr, corr_err),
            _sum_row("shannon_sum_smeared_resolution", hm, hn,
                     LN_E_PI - math.log(sf_value))]


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
    return _sum_row("shannon_sum_binned", h_k, h_x,
                    LN_E_PI - math.log(p_k.delta_max * p_x.delta_max) + corr,
                    corr_err, delta_k=p_k.delta_max, delta_x=p_x.delta_max)


# ---------------------------------------------------------------------------
# Renyi and Tsallis relations
# ---------------------------------------------------------------------------

def _log_norm_error(renyi: EntropyValue, order: float) -> float:
    """Error of ln ||p||_order from that of the Renyi entropy of the order;
    the factor |1 - order| / order is 1 at order inf."""
    if math.isinf(order):
        return renyi.est_error
    return renyi.est_error * abs(1.0 - order) / order


def _sums(read, source, pair: OrderPair) -> dict:
    """read(source, order), one source's (entropy, norm) pair, once per order
    of `pair`; a divergent sum is kept as its NormDivergenceError."""
    out = {}
    for order in dict.fromkeys((pair.alpha, pair.gamma)):
        try:
            out[order] = read(source, order)
        except NormDivergenceError as exc:
            out[order] = exc
    return out


def _twin_rows(kind: str, rids: tuple, m: dict, n: dict, pair: OrderPair,
               scale: float, **widths) -> list[RelationReport]:
    """The row of `kind` with alpha on M and gamma on N (the _sums of each),
    then its twin with M and N swapped.

    "sum": R_alpha + R_gamma >= ln(kappa pi / scale); "norm": ||.||_alpha <=
    (scale/(kappa pi))^((1-gamma)/gamma) ||.||_gamma in log form (the Beckner
    rows at scale 1); "tsallis": H_alpha + H_gamma >= ln_nu(kappa pi / scale),
    nu = max order.  `scale` is S_f, times the bin widths `widths` when
    binned.  A row that reads a divergent sum is not applicable, with the
    message of the first (the alpha side first).
    """
    kp = kappa(pair)
    out = []
    for rid, (first, second) in zip(rids, ((m, n), (n, m))):
        pa, pg = first[pair.alpha], second[pair.gamma]
        diverged = [p for p in (pa, pg) if isinstance(p, NormDivergenceError)]
        if diverged:
            out.append(_not_applicable(rid, str(diverged[0]), **widths))
        elif kind == "norm":
            shift = ((1.0 - pair.gamma) / pair.gamma
                     * math.log(scale / (kp * math.pi)))
            out.append(_report(rid, shift + math.log(pg[1]), math.log(pa[1]),
                               _log_norm_error(pg[0], pair.gamma)
                               + _log_norm_error(pa[0], pair.alpha),
                               **widths))
        elif kind == "sum":
            out.append(_sum_row(rid, pa[0], pg[0],
                                math.log(kp * math.pi / scale), **widths))
        else:
            out.append(_sum_row(rid, _tsallis_of_renyi(pa[0], pair.alpha),
                                _tsallis_of_renyi(pg[0], pair.gamma),
                                alpha_log(kp * math.pi / scale,
                                          max(pair.alpha, pair.gamma)),
                                **widths))
    return out


def check_beckner(pair: OrderPair,
                  rep: RepresentationBundle) -> list[RelationReport]:
    """Conjugate-norm inequalities between the auxiliary and position pair.

    In log form: ln ||w||_gamma - ((1-gamma)/gamma) ln(kappa pi) >= ln ||v||_alpha
    together with the twin obtained by swapping the two densities: the norm
    rows of the Renyi relations with S_f = 1.  The degenerate (1, 1) pair
    gives the base Shannon row alone, which reads no correction.
    """
    if pair.degenerate:
        return [_sum_row("shannon_sum_base", diff_shannon(rep.v_q),
                         diff_shannon(rep.w_x), LN_E_PI)]
    return _twin_rows("norm", ("beckner_qx", "beckner_xq"),
                      _sums(renyi_and_norm, rep.v_q, pair),
                      _sums(renyi_and_norm, rep.w_x, pair), pair, 1.0)


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
    m, n = (_sums(renyi_and_norm, dens, pair) for dens in smeared)
    return (_twin_rows("sum", ("renyi_sum_smeared",
                               "renyi_sum_smeared_swapped"),
                       m, n, pair, sf_value)
            + _twin_rows("norm", ("renyi_norm_smeared_uw",
                                  "renyi_norm_smeared_wu"),
                         m, n, pair, sf_value))


def check_renyi_binned(pair: OrderPair, p_m: BinnedSums, p_n: BinnedSums,
                       sf_value: float) -> list[RelationReport]:
    """Every binned row of an order pair, from four discrete power sums.

    `p_m` and `p_n` are the BinnedSums of the smeared wavenumber and
    position densities binned, each with the pair's two orders summed;
    `sf_value` is S_f of the momentum acceptance.  The rows, in order: the
    Renyi sums against ln(kappa pi / (S_f dzeta dxi)) and the norm rows (at
    the degenerate pair one Shannon sum against ln(e pi / (S_f dzeta dxi))),
    then check_tsallis_binned and check_norm_ordering of `p_m`.
    """
    scale = sf_value * p_m.delta_max * p_n.delta_max
    widths = {"delta_k": p_m.delta_max, "delta_x": p_n.delta_max}
    if pair.degenerate:
        (h_m, _), (h_n, _) = p_m.renyi_and_norm(1.0), p_n.renyi_and_norm(1.0)
        rows = [_sum_row("renyi_sum_binned", h_m, h_n,
                         LN_E_PI - math.log(scale), **widths)]
    else:
        m, n = (_sums(BinnedSums.renyi_and_norm, p, pair) for p in (p_m, p_n))
        rows = (_twin_rows("sum", ("renyi_sum_binned",
                                   "renyi_sum_binned_swapped"),
                           m, n, pair, scale, **widths)
                + _twin_rows("norm", ("renyi_norm_binned_mn",
                                      "renyi_norm_binned_nm"),
                             m, n, pair, scale, **widths))
    return (rows + check_tsallis_binned(pair, p_m, p_n, sf_value)
            + [check_norm_ordering(p_m, pair)])


def check_tsallis_binned(pair: OrderPair, p_m: BinnedSums, p_n: BinnedSums,
                         sf_value: float) -> list[RelationReport]:
    """Binned Tsallis sums H_alpha + H_gamma >= ln_nu(kappa pi / (S_f dzeta
    dxi)), nu = max order, and the swapped assignment, from the inputs of
    check_renyi_binned; the degenerate pair gives two Shannon sums."""
    m, n = (_sums(BinnedSums.renyi_and_norm, p, pair) for p in (p_m, p_n))
    return _twin_rows("tsallis", ("tsallis_sum_binned",
                                  "tsallis_sum_binned_swapped"), m, n, pair,
                      sf_value * p_m.delta_max * p_n.delta_max,
                      delta_k=p_m.delta_max, delta_x=p_n.delta_max)


def check_norm_ordering(sums: BinnedSums, pair: OrderPair) -> RelationReport:
    """Discrete norm ordering ||p||_alpha <= 1 <= ||p||_gamma for alpha>1>gamma.

    Read for one distribution's BinnedSums with the pair's two orders
    summed: lhs is the smaller slack of the two inequalities (either moves
    by at most its norm's error; both norms are 1 at the degenerate pair),
    rhs is zero, and dzeta is the widest bin.
    """
    (r_a, n_a), (r_g, n_g) = map(sums.renyi_and_norm, (pair.alpha, pair.gamma))
    err = max(n_a * _log_norm_error(r_a, pair.alpha),
              n_g * _log_norm_error(r_g, pair.gamma))
    return _report("discrete_norm_ordering", min(1.0 - n_a, n_g - 1.0), 0.0,
                   err, delta_k=sums.delta_max)
