"""Every input contract rejects what it names, with its own message.

Each case builds one invalid input and expects the error class and message
of the check that guards it, so a case cannot pass on an earlier check.
"""

import math

import numpy as np
import pytest

import gupcert as g
from gupcert.core import Domain


def _grid(n, tag=Domain.X):
    return g.Grid(nodes=np.linspace(-1.0, 1.0, n), weights=np.full(n, 1.0 / n),
                  domain_tag=tag)


def _density(values, tag=Domain.X, **kw):
    return g.DensityFn(grid=_grid(len(values), tag), values=np.asarray(values),
                       **kw)


def _flat(q, params):
    return np.ones_like(q, dtype=complex)


def _state(nodes, amplitudes):
    """A state of flat profile at beta = 1 (q0 = pi/2) on unit weights."""
    grid = g.Grid(nodes=np.asarray(nodes, float),
                  weights=np.full(len(nodes), 1.0), domain_tag=Domain.Q)
    return g.PureState(grid=grid, amplitudes=np.asarray(amplitudes),
                       params=g.make_params(1.0), profile=_flat)


_FLAT = np.full(5, 1.0)  # a unit-mass density on _grid(5)
_DIST = g.DiscreteDist(np.arange(3.0), np.array([0.5, 0.5]))

CASES = {
    "grid_shape": (lambda s: g.Grid(nodes=np.arange(3.0), weights=np.ones(2),
                                    domain_tag=Domain.Q),
                   g.ContractError, "matching 1-d"),
    "grid_weight": (lambda s: g.Grid(nodes=np.arange(3.0),
                                     weights=np.array([1.0, 0.0, 1.0]),
                                     domain_tag=Domain.Q),
                    g.ContractError, "weights must be positive"),
    "density_shape": (lambda s: g.DensityFn(grid=_grid(5), values=np.ones(4)),
                      g.ContractError, "match the grid"),
    "density_negative": (lambda s: _density([1.0, 1.0, 1.0, 2.0, -1e-9]),
                         g.ContractError, "nonnegative"),
    "density_tail_bound": (lambda s: _density(_FLAT, tail_mass_bound=-1e-9),
                           g.ContractError, "tail_mass_bound"),
    "dist_count": (lambda s: g.DiscreteDist(np.arange(4.0), np.array([0.5, 0.5])),
                   g.ContractError, "len\\(edges\\)"),
    "dist_edges": (lambda s: g.DiscreteDist(np.array([0.0, 1.0, 1.0]),
                                            np.array([0.5, 0.5])),
                   g.ContractError, "strictly increasing"),
    "dist_negative": (lambda s: g.DiscreteDist(np.arange(3.0),
                                               np.array([1.5, -0.5])),
                      g.ContractError, "nonnegative"),
    "pair_alpha": (lambda s: g.OrderPair(1.0, 0.5),
                   g.InvalidParameterError, "alpha > 1"),
    "pair_alpha_below_one": (lambda s: g.OrderPair(0.75, 1.5),
                             g.InvalidParameterError, "alpha > 1"),
    "pair_gamma": (lambda s: g.OrderPair(3.0, 0.4),
                   g.InvalidParameterError, "gamma in"),
    "state_shape": (lambda s: _state([-1.0, 0.0, 1.0], [1.0, 1.0]),
                    g.ContractError, "amplitudes must match"),
    "state_outside_q0": (lambda s: _state([-1.0, 0.0, math.pi / 2],
                                          [1.0, 1.0, 1.0]),
                         g.ContractError, "strictly inside"),
    "state_outside_q0_left": (lambda s: _state([-math.pi / 2, 0.0, 1.0],
                                               [1.0, 1.0, 1.0]),
                              g.ContractError, "strictly inside"),
    "mixed_empty": (lambda s: g.MixedState(components=()),
                    g.ContractError, "at least one"),
    "mixed_weight": (lambda s: g.MixedState(components=((1.5, s.cosine),
                                                        (-0.5, s.cosine))),
                     g.ContractError, "lie in"),
    "mixed_params": (lambda s: g.MixedState(components=((0.5, s.cosine),
                                                        (0.5, s.cosine_b2))),
                     g.ContractError, "share MinLengthParams"),
    "mixed_grid": (lambda s: g.MixedState(components=((0.5, s.cosine),
                                                      (0.5, s.bare))),
                   g.ContractError, "share the Q grid"),
    "mix_counts": (lambda s: g.mix_states([0.5, 0.5], [s.cosine]),
                   g.ContractError, "matching, nonempty"),
    "mix_empty": (lambda s: g.mix_states([], []),
                  g.ContractError, "matching, nonempty"),
    "entropy_error": (lambda s: g.EntropyValue(0.0, True, -1e-3),
                      g.ContractError, "est_error"),
    "entropy_discrete": (lambda s: g.EntropyValue(-1e-9, False, 0.0),
                         g.ContractError, "nonnegative"),
    "renyi_order": (lambda s: g.renyi_and_norm(_density(_FLAT), 0.0),
                    g.InvalidParameterError, "positive"),
    "discrete_renyi_order": (lambda s: g.discrete_renyi(_DIST, -1.0),
                             g.InvalidParameterError, "positive"),
    "binned_sums_order": (lambda s: g.BinnedSums.of(_DIST, (2.0,))
                          .renyi_and_norm(3.0),
                          g.ContractError, "order 3 was taken"),
    "alpha_log_order": (lambda s: g.alpha_log(2.0, 0.0),
                        g.InvalidParameterError, "nu > 0"),
    "bin_edges": (lambda s: g.bin_density(_density(_FLAT),
                                          np.array([-1.0, 0.5, 0.0, 1.0])),
                  g.ContractError, "strictly increasing"),
    "acceptance_table": (lambda s: g.custom_acceptance(np.arange(3.0),
                                                       np.full(3, 0.5)),
                         g.InvalidParameterError, ">= 4 points"),
    "sf_bound_sigma": (lambda s: g.s_f_gaussian_bound(0.0, 1.0),
                       g.InvalidParameterError, "must be positive"),
    "sf_bound_beta": (lambda s: g.s_f_gaussian_bound(1.0, 0.0),
                      g.InvalidParameterError, "must be positive"),
    "params_bool": (lambda s: g.make_params(True),
                    g.InvalidParameterError, "finite, got True"),
    "params_huge_int": (lambda s: g.make_params(10 ** 400),
                        g.InvalidParameterError, "beta must be finite"),
    "catalog_negative_seed": (lambda s: g.catalog_state(
        "random_fourier_q", g.make_params(1.0), seed=-1),
        g.InvalidParameterError, "seed must be an integer >= 0, got -1"),
    "catalog_bool_seed": (lambda s: g.catalog_state(
        "random_fourier_q", g.make_params(1.0), seed=True),
        g.InvalidParameterError, "seed must be an integer >= 0, got True"),
    "catalog_infinite_width": (lambda s: g.catalog_state(
        "truncated_gaussian_q", g.make_params(1.0), shape_args=(math.inf,)),
        g.InvalidParameterError, "shape_args must be finite"),
    "q_to_k_domain": (lambda s: g.density_q_to_k(_density(_FLAT),
                                                 g.make_params(1.0)),
                      g.ContractError, "Q-tagged"),
    "q_to_x_norm": (lambda s: g.fourier_q_to_x(s.doubled, _grid(5)),
                    g.ContractError, "normalized"),
}


@pytest.fixture(scope="module")
def states(cosine_state):
    class States:
        cosine = cosine_state
        cosine_b2 = g.catalog_state("raised_cosine_q", g.make_params(2.0))
        bare = _state([-1.0, 0.0, 1.0], np.full(3, 1.0 / math.sqrt(3.0)))
        doubled = g.PureState(grid=cosine_state.grid,
                              amplitudes=2.0 * cosine_state.amplitudes,
                              params=cosine_state.params,
                              profile=cosine_state.profile)
    return States


@pytest.mark.parametrize("case", CASES)
def test_contract_rejects(case, states):
    build, error, match = CASES[case]
    with pytest.raises(error, match=match):
        build(states)


def test_point_mass_has_no_robertson_row(cosine_state):
    # a density on one node has zero variance: the product bound reads no
    # spread, so the row is not applicable rather than a failure
    point = _density([0.0, 0.0, 5.0, 0.0, 0.0])
    k_point = _density([0.0, 0.0, 5.0, 0.0, 0.0], tag=Domain.K)
    rep = g.RepresentationBundle(v_q=g.q_density(cosine_state), w_x=point,
                                 u_k=k_point, source=g.as_mixed(cosine_state))
    rpt = g.robertson_margin(rep)
    assert rpt.verdict == "not_applicable"
    assert rpt.reason == "a computed variance is not positive"
