"""Domain types, minimal-length parameters, and the reference state catalog.

Conventions: hbar = 1 and all momenta are wavenumbers.  A strictly positive
deformation parameter `beta` confines the auxiliary wavenumber q to the open
interval (-q0, +q0) with q0 = pi / (2 sqrt(beta)); `beta = 0` reproduces
ordinary quantum mechanics and is represented by an infinite q0 sentinel so
that downstream formulas can branch to the undeformed limit without
cancellation near beta -> 0.

All types are immutable after construction and all operations are pure, so
states and densities can safely be evaluated in parallel.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (ContractError, DegenerateStateError,
                     InvalidParameterError, MomentDivergenceError)
from .quadrature import (ENTROPY_FLOOR, lattice_error, panel_error,
                         symmetric_rule)
from .tails import TailSide, outside_masses

NORM_TOL = 1e-8          # DensityFn normalization defect tolerance
_GAUSSIAN_SUPPORT = 30.0  # effective support of exp(-q^2/(2 s^2)) in units of s
_EPS = float(np.finfo(float).eps)
_VALUE_ULPS = 4  # rounding carried by a density value, in units of _EPS


class Domain(Enum):
    Q = "Q"        # auxiliary wavenumber
    X = "X"        # position
    K = "K"        # physical wavenumber
    ZETA = "ZETA"  # smeared physical wavenumber
    XI = "XI"      # smeared position


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinLengthParams:
    """Deformation parameter; build it with make_params, which validates."""

    beta: float

    @property
    def deformed(self) -> bool:
        return self.beta > 0.0

    @property
    def q0(self) -> float:
        """Half-width pi / (2 sqrt(beta)) of the auxiliary interval; inf at 0."""
        return math.pi / (2.0 * math.sqrt(self.beta)) if self.deformed else math.inf


def _finite(value) -> bool:
    """A real number, not a bool, that is finite as a float: an integer too
    large for a float is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _seed(value) -> bool:
    """An integer >= 0 that is not a bool."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= 0)


def make_params(beta: float) -> MinLengthParams:
    """Validate beta; the auxiliary half-width q0 follows from it."""
    if not _finite(beta):
        raise InvalidParameterError(f"beta must be finite, got {beta!r}")
    if beta < 0.0:
        raise InvalidParameterError(f"beta must be nonnegative, got {beta}")
    return MinLengthParams(beta=float(beta))


# ---------------------------------------------------------------------------
# grids and densities
# ---------------------------------------------------------------------------

def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Grid:
    """Quadrature nodes and weights on one of the tagged axes.

    `panel_nodes` names the rule: consecutive panels of that many
    Gauss-Legendre nodes (possibly through a change of variables, as on an
    image grid), or 0 for a uniform trapezoid lattice.
    """

    nodes: np.ndarray
    weights: np.ndarray
    domain_tag: Domain
    panel_nodes: int = 0

    def __post_init__(self):
        object.__setattr__(self, "nodes", _freeze(np.asarray(self.nodes, float)))
        object.__setattr__(self, "weights", _freeze(np.asarray(self.weights, float)))
        if self.nodes.ndim != 1 or self.nodes.shape != self.weights.shape:
            raise ContractError("grid nodes and weights must be matching 1-d vectors")
        if not np.all(np.diff(self.nodes) > 0.0) or not np.all(np.isfinite(self.nodes)):
            raise ContractError("grid nodes must be finite and strictly increasing")
        if not np.all((self.weights > 0.0) & (self.weights < np.inf)):
            raise ContractError("grid weights must be positive and finite")
        n = self.panel_nodes
        if n != 0 and not (n >= 4 and self.nodes.size % n == 0):
            raise ContractError("panel_nodes must be 0 or at least 4 and "
                                "divide the node count")

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))

    def rule_error(self, values: np.ndarray) -> float:
        """Error estimate of integrate(values), from the rule itself."""
        if self.panel_nodes:
            return panel_error(self.weights, values, self.panel_nodes)
        return lattice_error(self.nodes, values)

    def __len__(self) -> int:
        return self.nodes.size


@dataclass(frozen=True, eq=False)
class DensityFn:
    """A probability density tabulated on a grid, with tail metadata.

    `tail_mass_bound` accounts for mass outside the grid window so that
    quadrature + tail stays within NORM_TOL of one.  `tail_left/right` carry
    the fitted power-law models used to extend entropy, alpha-norm and moment
    integrals past the window; they may be None when the window covers the
    axis.  An image grid's measure is complete (tail_mass_bound is 0): there
    the entropy, alpha-norm and moment integrals read its models only to
    decide whether they diverge.  The density owns its differential Shannon
    entropy, `shannon`: taken on first read and kept, never retaken.
    """

    grid: Grid
    values: np.ndarray
    tail_mass_bound: float = 0.0
    tail_left: Optional[TailSide] = None
    tail_right: Optional[TailSide] = None

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(np.asarray(self.values, float)))
        if self.values.shape != self.grid.nodes.shape:
            raise ContractError("density values must match the grid")
        if not np.all(self.values >= -1e-12):
            raise ContractError("density values must be nonnegative")
        if not self.tail_mass_bound >= 0.0:
            raise ContractError("tail_mass_bound must be nonnegative")
        defect = abs(self.grid.integrate(self.values) + self.tail_mass_bound - 1.0)
        if not defect <= NORM_TOL:
            raise ContractError(
                f"density not normalized: quadrature + tail misses 1 by {defect:.3e}")

    @property
    def window(self) -> tuple[float, float]:
        return float(self.grid.nodes[0]), float(self.grid.nodes[-1])

    @cached_property
    def shannon(self) -> "EntropyValue":
        """-integral p ln p in nats with its error (_shannon), taken once."""
        return _shannon(self)

    @property
    def tail_masses(self) -> tuple[float, float]:
        """Modelled (left, right) mass beyond the window, 0 without a model."""
        return outside_masses(self.tail_left, self.tail_right, *self.window)

    def tail_sides(self) -> list[tuple[TailSide, float, float]]:
        """Usable tail models, each with the |abscissa| where it starts and
        the sign of that abscissa (-1 on the left, +1 on the right)."""
        lo, hi = self.window
        out = []
        if self.tail_left is not None:
            out.append((self.tail_left, abs(lo), -1.0))
        if self.tail_right is not None:
            out.append((self.tail_right, abs(hi), 1.0))
        return out


@dataclass(frozen=True, eq=False)
class DiscreteDist:
    """Binned probabilities with their edges; delta_max is the widest bin.

    `prob_errors` bounds the error |dp_i| of each probability; None, for
    probabilities given exactly, stores zeros.
    """

    edges: np.ndarray
    probs: np.ndarray
    prob_errors: Optional[np.ndarray] = None
    delta_max: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "edges", _freeze(np.asarray(self.edges, float)))
        object.__setattr__(self, "probs", _freeze(np.asarray(self.probs, float)))
        errors = (np.zeros(self.probs.shape) if self.prob_errors is None
                  else np.asarray(self.prob_errors, float))
        object.__setattr__(self, "prob_errors", _freeze(errors))
        if self.edges.size != self.probs.size + 1:
            raise ContractError("need len(edges) = len(probs) + 1")
        if errors.shape != self.probs.shape or not np.all(errors >= 0.0):
            raise ContractError("probability errors must match the "
                                "probabilities and be nonnegative")
        widths = np.diff(self.edges)  # read once, for the check and delta_max
        if not np.all(widths > 0.0) or not np.all(np.isfinite(self.edges)):
            raise ContractError("bin edges must be finite and strictly increasing")
        object.__setattr__(self, "delta_max", float(np.max(widths)))
        if not np.all(self.probs >= 0.0):
            raise ContractError("bin probabilities must be nonnegative")
        if not abs(float(np.sum(self.probs)) - 1.0) <= 1e-10:
            raise ContractError("bin probabilities must sum to one")


@dataclass(frozen=True)
class OrderPair:
    """Conjugate entropic orders with 1/alpha + 1/gamma = 2 (or the 1,1 pair)."""

    alpha: float
    gamma: float

    def __post_init__(self):
        if self.alpha == 1.0 and self.gamma == 1.0:
            return
        if not self.alpha > 1.0:
            raise InvalidParameterError("need alpha > 1 (or the degenerate 1,1 pair)")
        if not 0.5 <= self.gamma < 1.0:
            raise InvalidParameterError("need gamma in [1/2, 1)")
        if abs(1.0 / self.alpha + 1.0 / self.gamma - 2.0) > 1e-12:
            raise InvalidParameterError("orders must satisfy 1/alpha + 1/gamma = 2")

    @property
    def degenerate(self) -> bool:
        return self.alpha == 1.0


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

# profile signature: profile(q, params) -> complex amplitudes (unnormalized)
Profile = Callable[[np.ndarray, MinLengthParams], np.ndarray]


@dataclass(frozen=True)
class PureState:
    """Auxiliary-space amplitudes phi(q) on a Q grid.

    phi is treated as zero outside (-q0, q0).  `profile` is the generating
    closure: the Fourier transform evaluates it on its own rules, and it
    re-evaluates the state on another grid or at another beta.
    """

    grid: Grid
    amplitudes: np.ndarray
    params: MinLengthParams
    profile: Profile = field(repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "amplitudes",
                           _freeze(np.asarray(self.amplitudes, complex)))
        if self.amplitudes.shape != self.grid.nodes.shape:
            raise ContractError("amplitudes must match the grid")
        if math.isfinite(self.params.q0):
            if abs(self.grid.nodes[0]) >= self.params.q0 or self.grid.nodes[-1] >= self.params.q0:
                raise ContractError("Q grid must lie strictly inside (-q0, q0)")

    def density_values(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def norm_sq(self) -> float:
        return self.grid.integrate(self.density_values())

    @cached_property
    def profile_scale(self) -> complex:
        """Tabulated amplitude per unit of the profile, read at the node of
        largest |profile|; evaluates the profile over the grid once."""
        prof = self.profile(self.grid.nodes, self.params)
        i = int(np.argmax(np.abs(prof)))
        return self.amplitudes[i] / prof[i]


@dataclass(frozen=True)
class MixedState:
    """Finite convex combination of pure states sharing params and grid."""

    components: tuple[tuple[float, PureState], ...]

    def __post_init__(self):
        if not self.components:
            raise ContractError("mixed state needs at least one component")
        weights = [w for w, _ in self.components]
        if any(not 0.0 < w <= 1.0 for w in weights):
            raise ContractError("component weights must lie in (0, 1]")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ContractError("component weights must sum to one")
        first = self.components[0][1]
        for _, st in self.components[1:]:
            if st.params != first.params:
                raise ContractError("components must share MinLengthParams")
            if len(st.grid) != len(first.grid) or not np.array_equal(
                    st.grid.nodes, first.grid.nodes):
                raise ContractError("components must share the Q grid")

    @property
    def params(self) -> MinLengthParams:
        return self.components[0][1].params

    @property
    def grid(self) -> Grid:
        return self.components[0][1].grid

    def density_values(self) -> np.ndarray:
        out = np.zeros(len(self.grid))
        for w, st in self.components:
            out += w * st.density_values()
        return out


def as_mixed(state: PureState | MixedState) -> MixedState:
    if isinstance(state, MixedState):
        return state
    return MixedState(components=((1.0, state),))


def normalize(state: PureState) -> PureState:
    """Rescale amplitudes to unit norm; zero-norm input is degenerate."""
    nsq = state.norm_sq()
    if nsq <= 1e-280:
        raise DegenerateStateError("state has numerically zero norm")
    return PureState(grid=state.grid,
                     amplitudes=state.amplitudes / math.sqrt(nsq),
                     params=state.params,
                     profile=state.profile)


def mix_states(weights: Sequence[float], states: Sequence[PureState]) -> MixedState:
    """Convex mixture; re-evaluates profiles on a common grid if needed."""
    if len(weights) != len(states) or not states:
        raise ContractError("need matching, nonempty weights and states")
    base = states[0]
    rebuilt = [base]
    for st in states[1:]:
        if np.array_equal(st.grid.nodes, base.grid.nodes):
            rebuilt.append(st)
        else:
            amp = st.profile(base.grid.nodes, st.params)
            rebuilt.append(normalize(PureState(grid=base.grid, amplitudes=amp,
                                               params=st.params, profile=st.profile)))
    return MixedState(components=tuple((float(w), s) for w, s in zip(weights, rebuilt)))


# ---------------------------------------------------------------------------
# state catalog
# ---------------------------------------------------------------------------

CATALOG_NAMES = ("uniform_q", "raised_cosine_q", "truncated_gaussian_q",
                 "random_fourier_q")
# states that fill the whole interval (-q0, q0): undefined at beta = 0
BOX_STATES = ("uniform_q", "raised_cosine_q", "random_fourier_q")

_BASE_PANEL_NODES = 24
_MAX_PANEL_NODES = 96


def _uniform_profile(q, params):
    return np.ones_like(q, dtype=complex)


def _raised_cosine_profile(q, params):
    return np.cos(math.pi * q / (2.0 * params.q0)).astype(complex)


def _make_gaussian_profile(s: float) -> Profile:
    def profile(q, params):
        return np.exp(-q * q / (4.0 * s * s)).astype(complex)
    return profile


def _make_random_fourier_profile(n_modes: int, seed: int) -> Profile:
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)

    def profile(q, params):
        q0 = params.q0
        out = np.zeros(q.shape, dtype=complex)
        for n in range(1, n_modes + 1):
            out += coeff[n - 1] * np.sin(n * math.pi * (q + q0) / (2.0 * q0))
        return out
    return profile


def _state_grid(params: MinLengthParams, scale: float, n_per_panel: int) -> Grid:
    if params.deformed:  # graded toward the interval ends +-q0
        half, sc = params.q0, min(scale, params.q0)
    else:
        half, sc = _GAUSSIAN_SUPPORT * scale, scale
    nodes, weights = symmetric_rule(half, sc, n_per_panel, params.deformed)
    return Grid(nodes=nodes, weights=weights, domain_tag=Domain.Q,
                panel_nodes=n_per_panel)


def _entropy_probe(state: PureState) -> float:
    """H(Q) + H(K) pulled back to the Q grid; drives resolution doubling."""
    v = state.density_values()
    w = state.grid.weights
    hq = DensityFn(grid=state.grid, values=v).shannon.value
    beta = state.params.beta
    if beta == 0.0:
        return 2.0 * hq
    ln_jac = -2.0 * np.log(np.cos(math.sqrt(beta) * state.grid.nodes))
    return float(2.0 * hq + np.sum(w * v * ln_jac))


def _build_catalog_state(profile: Profile, params: MinLengthParams,
                         scale: float) -> PureState:
    n = _BASE_PANEL_NODES
    probe = None
    while True:
        grid = _state_grid(params, scale, n)
        cand = normalize(PureState(grid=grid, amplitudes=profile(grid.nodes, params),
                                   params=params, profile=profile))
        new_probe = _entropy_probe(cand)
        if probe is not None and abs(new_probe - probe) < 1e-9:
            return cand
        if n >= _MAX_PANEL_NODES:
            return cand
        probe = new_probe
        n *= 2


def check_catalog_args(name: str, shape_args: Sequence[float],
                       seed: Optional[int]) -> None:
    """Reject arguments that the named catalog state would not use as given.

    shape_args must be finite numbers and a seed an integer >= 0.
    uniform_q and raised_cosine_q take no shape_args, truncated_gaussian_q
    exactly one width s > 0, and random_fourier_q at most one whole mode
    count m >= 1 and a seed to draw from; any other shape_args would be
    truncated or ignored, building another state.
    """
    if name not in CATALOG_NAMES:
        raise InvalidParameterError(f"unknown catalog state {name!r}")
    if not all(map(_finite, shape_args)):
        raise InvalidParameterError("shape_args must be finite numbers")
    if not (seed is None or _seed(seed)):
        raise InvalidParameterError(f"seed must be an integer >= 0, got "
                                    f"{seed!r}")
    n = len(shape_args)
    if name in ("uniform_q", "raised_cosine_q") and n:
        raise InvalidParameterError(f"{name} takes no shape_args")
    if name == "truncated_gaussian_q" and not (n == 1 and shape_args[0] > 0.0):
        raise InvalidParameterError("truncated_gaussian_q needs exactly one "
                                    "width s > 0")
    if name == "random_fourier_q" and not (
            n == 0 or n == 1 and float(shape_args[0]).is_integer()
            and shape_args[0] >= 1):
        raise InvalidParameterError("random_fourier_q takes at most one whole "
                                    "mode count m >= 1")
    if name == "random_fourier_q" and seed is None:
        raise InvalidParameterError("random_fourier_q needs a seed")


def catalog_state(name: str, params: MinLengthParams,
                  shape_args: Sequence[float] = (),
                  seed: Optional[int] = None) -> PureState:
    """Build a normalized reference state supported on (-q0, q0).

    uniform_q            flat amplitude 1/sqrt(2 q0)
    raised_cosine_q      phi ~ cos(pi q / (2 q0))
    truncated_gaussian_q phi ~ exp(-q^2 / (4 s^2)), s = shape_args[0]
    random_fourier_q     seeded complex combination of the first m box modes
                         vanishing at +-q0, m = shape_args[0] (default 8)

    shape_args must be exactly what the state uses, and random_fourier_q
    needs a seed (see check_catalog_args).
    """
    check_catalog_args(name, shape_args, seed)
    if name in BOX_STATES and not params.deformed:
        raise InvalidParameterError(
            f"{name} needs beta > 0: it is not normalizable on an infinite interval")
    q0 = params.q0
    if name == "uniform_q":
        return _build_catalog_state(_uniform_profile, params, q0)
    if name == "raised_cosine_q":
        return _build_catalog_state(_raised_cosine_profile, params, q0)
    if name == "truncated_gaussian_q":
        s = float(shape_args[0])
        return _build_catalog_state(_make_gaussian_profile(s), params, s)
    # random_fourier_q, the last catalog name
    m = int(shape_args[0]) if shape_args else 8
    profile = _make_random_fourier_profile(m, seed)
    return _build_catalog_state(profile, params, q0 / m)


def rebuild_state(state: PureState, beta: float) -> PureState:
    """Re-evaluate a state's profile at a different deformation parameter."""
    return _build_catalog_state(state.profile, make_params(beta),
                                max(q_spread(state), 1e-6))


def q_spread(state: PureState | MixedState) -> float:
    """Standard deviation of the Q density, floored at 1e-15."""
    v = state.density_values()
    g = state.grid
    mean = g.integrate(g.nodes * v)
    return math.sqrt(max(g.integrate((g.nodes - mean) ** 2 * v), 1e-30))


# ---------------------------------------------------------------------------
# grid functionals with tail-aware errors: the Shannon entropy and moments
# ---------------------------------------------------------------------------

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


def _shannon(density: DensityFn) -> EntropyValue:
    """Differential Shannon entropy -integral p ln p in nats.

    Tail models that extend a window (tail_mass_bound > 0) contribute their
    period-averaged closed forms.  The error estimate adds the grid rule's
    own estimate, a few ulps of rounding in each density value (which ln p
    turns into p |1 + ln p| per ulp) and 3% of the tail models'
    contribution.  Read it as `DensityFn.shannon`, which keeps it.
    """
    w, p = density.grid.weights, density.values
    live = p > ENTROPY_FLOOR
    log_p = np.log(np.clip(p, ENTROPY_FLOOR, None))
    grid_part = float(-np.sum(w[live] * p[live] * log_p[live]))
    tail = 0.0
    if density.tail_mass_bound > 0.0:
        for side, start, _ in density.tail_sides():
            tail += side.entropy_beyond(start)
    rounding = _VALUE_ULPS * _EPS * float(
        np.dot(w, np.where(live, p * np.abs(1.0 + log_p), 0.0)))
    f = np.where(live, -p * log_p, 0.0)
    est = density.grid.rule_error(f) + rounding + 0.03 * abs(tail)
    return EntropyValue(value=grid_part + tail, differential=True,
                        est_error=est)


class MomentEstimate(NamedTuple):
    value: float
    est_error: float


def moment(density: DensityFn, n: int) -> MomentEstimate:
    """Integral of t^n against the density, with a tail-aware error estimate.

    Tail models that extend a window (tail_mass_bound > 0) add their
    moments beyond it.  On any grid, when a model says the integral diverges
    at a numerically material scale, a MomentDivergenceError carrying the
    partial grid value is raised instead of a grid-dependent number.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ContractError("moment order must be a positive integer")
    t = density.grid.nodes
    f = t ** n * density.values
    grid_part = density.grid.integrate(f)

    tail_part = 0.0
    tail_err = 0.0
    for side, start, sign in density.tail_sides():
        if not side.moment_converges(n):
            # divergent in principle; material only when the coefficient can
            # move the value within several decades of where the power law
            # demonstrably starts
            ref = max(side.valid_from, 1.0)
            scale = side.divergent_scale(n, ref, ref * 1e6)
            if scale > 1e-6 * (1.0 + abs(grid_part)):
                raise MomentDivergenceError(
                    f"moment of order {n} diverges (tail exponent {side.exponent:g})",
                    partial=float(grid_part), tail_exponent=side.exponent)
            tail_err += scale
        elif density.tail_mass_bound > 0.0:
            add = side.moment_beyond(n, start)
            tail_part += sign ** n * add
            tail_err += 0.3 * abs(add)

    return MomentEstimate(value=float(grid_part + tail_part),
                          est_error=density.grid.rule_error(f) + tail_err)
