"""Representation changes between auxiliary, position, and physical spaces.

For beta > 0 the physical wavenumber is k = tan(sqrt(beta) q) / sqrt(beta), a
strictly increasing odd bijection of (-q0, q0) onto the real line.  Densities
push forward as u(k) = v(q(k)) / (1 + beta k^2).  K grids are images of Q-grid
nodes with Jacobian-transformed weights, which makes the pushforward identity
exact at the nodes and keeps quadrature sums over the two representations
equal in floating point.  Position wave functions come from the Fourier pair

    psi(x) = (2 pi)^{-1/2} integral e^{+iqx} phi(q) dq   over (-q0, q0)
    phi(q) = (2 pi)^{-1/2} integral e^{-iqx} psi(x) dx

evaluated by direct quadrature against the compact q interval.  Position
densities take x >= 0 only: one block of e^{iqx} gives psi at x and -x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (DensityFn, Domain, Grid, MinLengthParams, MixedState,
                   PureState, as_mixed, q_spread)
from .errors import ContractError, DomainError, ResolutionError
from .quadrature import composite_rule, dense_sum
from .tails import fit_k_tails, fit_x_tail, outside_masses

_X_NODE_BUDGET = 320_000
# accepted |1 - window mass - modeled tail| for x densities; strictly inside
# the DensityFn normalization tolerance so accepted windows always construct
_DEFECT_TOL = 8.0e-9


# ---------------------------------------------------------------------------
# the deformed wavenumber map
# ---------------------------------------------------------------------------

def k_of_q(q, params: MinLengthParams):
    """Physical wavenumber of an auxiliary wavenumber; identity for beta = 0."""
    qa = np.asarray(q, dtype=float)
    if math.isfinite(params.q0) and np.any(np.abs(qa) >= params.q0):
        raise DomainError("q must lie strictly inside (-q0, q0)")
    if not params.deformed:
        return qa if qa.shape else float(qa)
    r = math.sqrt(params.beta)
    out = np.tan(r * qa) / r
    return out if out.shape else float(out)


def q_of_k(k, params: MinLengthParams):
    """Inverse of k_of_q; arctan(sqrt(beta) k) / sqrt(beta) for beta > 0."""
    ka = np.asarray(k, dtype=float)
    if not params.deformed:
        return ka if ka.shape else float(ka)
    r = math.sqrt(params.beta)
    out = np.arctan(r * ka) / r
    return out if out.shape else float(out)


def jacobian(k, params: MinLengthParams):
    """dk/dq expressed in k, i.e. 1 + beta k^2."""
    ka = np.asarray(k, dtype=float)
    out = 1.0 + params.beta * ka * ka
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def q_density(state: PureState | MixedState) -> DensityFn:
    mixed = as_mixed(state)
    return DensityFn(grid=mixed.grid, values=mixed.density_values())


def density_q_to_k(v: DensityFn, params: MinLengthParams) -> DensityFn:
    """Push a Q density forward to the physical wavenumber axis.

    The K grid reuses the Q nodes through the map, so normalization carries
    over exactly and the K grid is the Q panel rule in the pulled-back
    variable; the measure of the image rule covers the whole axis even
    though nodes stop at the image of the outermost Q node.  A power-law tail
    model is fitted on the far zone for consumers that need to extend
    entropies, norms or moments past the last node.
    """
    if v.grid.domain_tag is not Domain.Q:
        raise ContractError("density_q_to_k expects a Q-tagged density")
    if not params.deformed:
        grid = Grid(nodes=v.grid.nodes, weights=v.grid.weights,
                    domain_tag=Domain.K, panel_nodes=v.grid.panel_nodes)
        return DensityFn(grid=grid, values=v.values,
                         tail_mass_bound=v.tail_mass_bound,
                         tail_left=v.tail_left, tail_right=v.tail_right)
    k = k_of_q(v.grid.nodes, params)
    jac = jacobian(k, params)
    grid = Grid(nodes=k, weights=v.grid.weights * jac, domain_tag=Domain.K,
                panel_nodes=v.grid.panel_nodes)
    u = v.values / jac
    left, right = fit_k_tails(k, u)
    return DensityFn(grid=grid, values=u, tail_mass_bound=0.0,
                     tail_left=left, tail_right=right)


# ---------------------------------------------------------------------------
# Fourier pair
# ---------------------------------------------------------------------------

def _transform_rule(state: PureState, x_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Plain composite rule resolving e^{iqx} up to |x| = x_max.

    The state's own graded grid is built for endpoint-singular density
    integrands, not for oscillatory transforms: its wide bulk panels cannot
    track the phase at large |x|.  Here panel counts scale with the number of
    phase wavelengths across the interval, and the rule is accepted once it
    reproduces the state's unit norm.  The new nodes take the state's
    profile, scaled to its tabulated amplitudes (`PureState.profile_scale`,
    taken once per state however often the window grows).
    """
    scale = state.profile_scale
    q = state.grid.nodes
    half = max(abs(q[0]), q[-1])
    n_osc = int(6.0 * (2.0 * half) * x_max / (2.0 * math.pi)) + 256
    for _ in range(4):
        panels = max(8, int(math.ceil(n_osc / 32)))
        edges = np.linspace(-half, half, panels + 1)
        nodes, weights = composite_rule(edges, 32)
        amp = state.profile(nodes, state.params) * scale
        norm = float(np.dot(weights, np.abs(amp) ** 2))
        if abs(norm - 1.0) < 1e-9:
            return nodes, weights * amp
        n_osc *= 2
    raise ResolutionError("transform rule failed to reproduce the state norm")


def _fourier_sum(sign: float, targets: np.ndarray, nodes: np.ndarray,
                 *coeffs: np.ndarray) -> tuple[np.ndarray, ...]:
    """(2 pi)^{-1/2} sum_j e^{sign i t n_j} c_j at every target t, one array
    per c, as `dense_sum` gives them."""
    sums = dense_sum(lambda t, n: _phases(sign * t, n), targets, nodes,
                     *coeffs)
    root = math.sqrt(2.0 * math.pi)
    return tuple(c / root for c in sums)


def _phases(t: np.ndarray, n: np.ndarray) -> np.ndarray:
    """e^{i t n} on the broadcast t and n, bit for bit np.exp(1j * t * n).

    The cosine and sine go straight into the real and imaginary parts of
    one complex block (glibc's cexp of i y is exactly (cos y, sin y)),
    which takes about a third less time than the complex exponential.
    Adding +0.0 turns a product -0.0 into the +0.0 that the complex product
    1j * t * n leaves in the phase, so the sine's zeros keep their sign.
    """
    phase = t * n
    phase += 0.0
    block = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=block.real)
    np.sin(phase, out=block.imag)
    return block


def fourier_q_to_x(state: PureState, x_grid: Grid) -> np.ndarray:
    """Evaluate psi on the given X grid by quadrature against e^{iqx}."""
    if abs(state.norm_sq() - 1.0) > 1e-8:
        raise ContractError("state must be normalized before transforming")
    x = x_grid.nodes
    x_max = float(max(abs(x[0]), abs(x[-1])))
    q, coeff = _transform_rule(state, x_max)
    return _fourier_sum(1.0, x, q, coeff)[0]


# ---------------------------------------------------------------------------
# X grids: step and extent
# ---------------------------------------------------------------------------

def _edge_wave_period(mixed: MixedState) -> float | None:
    """Boundary oscillation period pi/q0, or None when no edge waves matter."""
    params = mixed.params
    if not params.deformed:
        return None
    v = mixed.density_values()
    nodes = mixed.grid.nodes
    outer = np.abs(nodes) > 0.88 * params.q0
    if not np.any(outer):
        return None
    if np.max(v[outer]) < 1e-12 * np.max(v):
        return None
    return math.pi / params.q0


def _psi_sq_pair(mixed: MixedState, x: np.ndarray,
                 x_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Mixture position density (incoherent sum) at x and at -x, for x >= 0.

    |psi(-x)|^2 = |sum_j e^{iq_j x} conj(c_j)|^2, so one kernel block over
    x serves both signs, with the floats of a sum at every signed node.
    """
    right, left = np.zeros(x.size), np.zeros(x.size)
    for lam, comp in mixed.components:
        q, coeff = _transform_rule(comp, x_max)
        plus, minus = _fourier_sum(1.0, x, q, coeff, np.conj(coeff))
        right += lam * np.abs(plus) ** 2
        left += lam * np.abs(minus) ** 2
    return right, left


def x_density(state: PureState | MixedState) -> DensityFn:
    """Position density on an adaptively extended uniform lattice.

    The step resolves the finer of the intrinsic width of |psi|^2 and the
    boundary oscillation of period pi/q0 (an integer number of steps per
    period keeps grid, window and fit-zone edges on the oscillation lattice).
    The window is extended until the mass outside it is captured by the
    fitted tail model to within the density normalization tolerance; slowly
    decaying sinc-type tails are accounted for analytically rather than
    chased to numerical zero, which would need windows of order 1e8.
    Each pass evaluates only its new nodes x >= 0, both signs at once
    (`_psi_sq_pair`); the two halves are kept apart, each with its own tail.
    """
    mixed = as_mixed(state)
    period = _edge_wave_period(mixed)
    width = 1.0 / (2.0 * q_spread(mixed))  # at minimum uncertainty
    scale = width if period is None else min(width, 0.5 * period)
    h = scale / 6.0
    per_steps = 1
    if period is not None:
        per_steps = max(12, int(math.ceil(period / h)))
        h = period / per_steps

    m = int(math.ceil(max(24.0 * width, 40.0 * h) / h))
    if period is not None:
        m = int(math.ceil(max(m, 30 * per_steps) / per_steps)) * per_steps
    right = left = np.zeros(0)  # |psi|^2 at x and at -x, x = 0, h, 2h, ...
    for _ in range(24):
        half_span = m * h
        n = 2 * m + 1
        if n > _X_NODE_BUDGET:
            raise ResolutionError("x grid exceeds the node budget before the "
                                  "tail model stabilizes")
        new_right, new_left = _psi_sq_pair(
            mixed, np.arange(right.size, m + 1) * h, half_span)
        right = np.concatenate([right, new_right])
        left = np.concatenate([left, new_left])
        w_vals = np.concatenate([left[:0:-1], right])
        nodes = np.arange(-m, m + 1) * h
        weights = np.full(n, h)
        weights[0] = weights[-1] = 0.5 * h
        grid = Grid(nodes=nodes, weights=weights, domain_tag=Domain.X)
        tail_right, ok_r = fit_x_tail(nodes[m:], right, period)
        tail_left, ok_l = fit_x_tail(nodes[m:], left, period)
        tail = sum(outside_masses(tail_left, tail_right, -half_span,
                                  half_span))
        defect = abs(grid.integrate(w_vals) + tail - 1.0)
        if defect < _DEFECT_TOL and ok_l and ok_r and tail < 0.05:
            return DensityFn(grid=grid, values=np.clip(w_vals, 0.0, None),
                             tail_mass_bound=tail, tail_left=tail_left,
                             tail_right=tail_right)
        m = int(math.ceil(1.8 * m / per_steps)) * per_steps
    raise ResolutionError("x window failed to converge")


# ---------------------------------------------------------------------------
# bundles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RepresentationBundle:
    """The three densities of one state (auxiliary, position, physical)
    and the correction that links them."""

    v_q: DensityFn
    w_x: DensityFn
    u_k: DensityFn
    source: MixedState

    @cached_property
    def correction(self) -> tuple[float, float]:
        """<ln(1 + beta k^2)> under u_k and the K grid rule's error for it;
        (0, 0) at beta = 0."""
        u, params = self.u_k, self.source.params
        if not params.deformed:
            return 0.0, 0.0
        k = u.grid.nodes
        f = u.values * np.log1p(params.beta * k * k)
        return float(u.grid.integrate(f)), u.grid.rule_error(f)


def bundle(state: PureState | MixedState) -> RepresentationBundle:
    mixed = as_mixed(state)
    v = q_density(mixed)
    u = density_q_to_k(v, mixed.params)
    w = x_density(mixed)
    if mixed.params.deformed:
        jac = jacobian(u.grid.nodes, mixed.params)
        residual = np.max(np.abs(u.values * jac - v.values))
        if residual > 1e-10 * max(1.0, float(np.max(v.values))):
            raise ContractError("pushforward identity violated on the image grid")
    return RepresentationBundle(v_q=v, w_x=w, u_k=u, source=mixed)
