import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gupcert as g
from gupcert.core import check_catalog_args


class TestMakeParams:
    def test_beta_one(self):
        p = g.make_params(1.0)
        assert p.q0 == pytest.approx(math.pi / 2, abs=1e-15)

    def test_beta_zero_sentinel(self):
        p = g.make_params(0.0)
        assert math.isinf(p.q0)
        assert not p.deformed

    def test_quarter(self):
        assert g.make_params(0.25).q0 == pytest.approx(math.pi, abs=1e-15)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_invalid(self, bad):
        with pytest.raises(g.InvalidParameterError):
            g.make_params(bad)

    @given(st.floats(min_value=1e-8, max_value=1e8))
    @settings(max_examples=100, deadline=None)
    def test_q0_formula(self, beta):
        p = g.make_params(beta)
        assert p.q0 == pytest.approx(math.pi / (2 * math.sqrt(beta)), rel=1e-15)


class TestNormalize:
    def test_uniform_amplitude(self, uniform_state, params_1):
        # flat amplitude on (-pi/2, pi/2) normalizes to 1/sqrt(pi)
        assert np.allclose(np.abs(uniform_state.amplitudes),
                           1.0 / math.sqrt(math.pi), atol=1e-12)
        assert uniform_state.norm_sq() == pytest.approx(1.0, abs=1e-10)

    def test_idempotent(self, uniform_state):
        again = g.normalize(uniform_state)
        assert np.allclose(again.amplitudes, uniform_state.amplitudes,
                           atol=1e-12)

    def test_scale_invariance(self, uniform_state):
        scaled = g.PureState(grid=uniform_state.grid,
                             amplitudes=2.0 * uniform_state.amplitudes,
                             params=uniform_state.params,
                             profile=uniform_state.profile)
        back = g.normalize(scaled)
        assert np.allclose(back.amplitudes, uniform_state.amplitudes,
                           atol=1e-12)

    def test_zero_norm(self, uniform_state):
        dead = g.PureState(grid=uniform_state.grid,
                           amplitudes=np.zeros(len(uniform_state.grid)),
                           params=uniform_state.params,
                           profile=uniform_state.profile)
        with pytest.raises(g.DegenerateStateError):
            g.normalize(dead)


class TestCatalog:
    def test_raised_cosine_closed_form(self, cosine_state, params_1):
        q = cosine_state.grid.nodes
        expect = math.sqrt(2.0 / math.pi) * np.cos(q)
        assert np.allclose(np.abs(cosine_state.amplitudes), np.abs(expect),
                           atol=1e-12)

    def test_random_fourier_deterministic(self, params_1):
        a = g.catalog_state("random_fourier_q", params_1, shape_args=[6], seed=7)
        b = g.catalog_state("random_fourier_q", params_1, shape_args=[6], seed=7)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_random_fourier_needs_seed(self, params_1):
        with pytest.raises(g.InvalidParameterError):
            g.catalog_state("random_fourier_q", params_1)

    def test_unknown_name(self, params_1):
        with pytest.raises(g.InvalidParameterError):
            g.catalog_state("box_of_frogs", params_1)

    def test_bad_shape(self, params_1):
        with pytest.raises(g.InvalidParameterError):
            g.catalog_state("truncated_gaussian_q", params_1, shape_args=[-1.0])

    @pytest.mark.parametrize("name,shape", [
        ("random_fourier_q", [6.7]), ("random_fourier_q", [0]),
        ("random_fourier_q", [6, 2]), ("truncated_gaussian_q", [0.25, 9]),
        ("truncated_gaussian_q", []), ("uniform_q", [1.0]),
        ("raised_cosine_q", [2.0])])
    def test_unused_shape_args_rejected(self, params_1, name, shape):
        # each would otherwise be truncated or ignored: another state
        with pytest.raises(g.InvalidParameterError):
            g.catalog_state(name, params_1, shape_args=shape, seed=1)

    def test_whole_float_mode_count_accepted(self):
        check_catalog_args("random_fourier_q", [6.0], seed=1)

    def test_flat_states_need_deformation(self, params_0):
        for name in ("uniform_q", "raised_cosine_q"):
            with pytest.raises(g.InvalidParameterError):
                g.catalog_state(name, params_0)

    @pytest.mark.parametrize("beta", [1e-3, 0.1, 1.0])
    def test_catalog_normalized(self, beta):
        p = g.make_params(beta)
        for name, shape, seed in (("uniform_q", (), None),
                                  ("raised_cosine_q", (), None),
                                  ("truncated_gaussian_q", (0.2,), None),
                                  ("random_fourier_q", (5,), 3)):
            st_ = g.catalog_state(name, p, shape_args=shape, seed=seed)
            v = g.q_density(st_)
            assert v.grid.integrate(v.values) == pytest.approx(1.0, abs=1e-8)


class TestMixedStates:
    def test_self_mixture_density(self, cosine_state):
        mixed = g.mix_states([0.5, 0.5], [cosine_state, cosine_state])
        pure = g.q_density(cosine_state)
        assert np.allclose(mixed.density_values(), pure.values, atol=1e-14)

    def test_convexity_pointwise(self, params_1, cosine_state):
        other = g.catalog_state("truncated_gaussian_q", params_1,
                                shape_args=[0.3])
        mixed = g.mix_states([0.3, 0.7], [cosine_state, other])
        v = mixed.density_values()
        parts = [w * s.density_values() for w, s in mixed.components]
        assert np.allclose(v, parts[0] + parts[1], atol=1e-12)

    def test_weight_validation(self, cosine_state):
        with pytest.raises(g.ContractError):
            g.MixedState(components=((0.4, cosine_state),))


class TestMoment:
    def test_uniform_second(self, uniform_rep):
        m = g.moment(uniform_rep.v_q, 2)
        assert m.value == pytest.approx(math.pi ** 2 / 12.0, abs=1e-10)

    def test_symmetric_first_vanishes(self, gauss_rep_small_beta):
        m = g.moment(gauss_rep_small_beta.u_k, 1)
        assert abs(m.value) < 1e-10

    def test_symmetric_first_vanishes_with_tails(self, cosine_rep):
        # the X window is mirror-symmetric, so both tail models start at the
        # same |x|; their first moments must cancel, not add
        assert abs(g.moment(cosine_rep.w_x, 1).value) < 1e-12

    def test_cauchy_divergence(self, uniform_rep):
        with pytest.raises(g.MomentDivergenceError) as err:
            g.moment(uniform_rep.u_k, 2)
        assert err.value.tail_exponent == pytest.approx(2.0, abs=0.5)
        assert err.value.partial is not None

    def test_bad_order(self, uniform_rep):
        with pytest.raises(g.ContractError):
            g.moment(uniform_rep.v_q, 0)


class TestDomainTypes:
    def test_grid_monotone(self):
        with pytest.raises(g.ContractError):
            g.Grid(nodes=np.array([0.0, 0.0, 1.0]),
                   weights=np.ones(3), domain_tag=g.Domain.Q)

    def test_density_normalization_enforced(self):
        grid = g.Grid(nodes=np.linspace(0, 1, 11),
                      weights=np.full(11, 0.1), domain_tag=g.Domain.X)
        with pytest.raises(g.ContractError):
            g.DensityFn(grid=grid, values=np.full(11, 2.0))

    def test_discrete_dist_validation(self):
        with pytest.raises(g.ContractError):
            g.DiscreteDist(edges=np.array([0.0, 1.0, 2.0]),
                           probs=np.array([0.7, 0.2]))

    def test_discrete_dist_width_from_edges(self):
        dist = g.DiscreteDist(edges=np.array([0.0, 0.5, 2.0, 2.25]),
                              probs=np.array([0.25, 0.5, 0.25]))
        assert dist.delta_max == 1.5
        with pytest.raises(TypeError):
            g.DiscreteDist(edges=np.arange(3.0), probs=np.array([0.5, 0.5]),
                           delta_max=3.0)

    def test_grid_panel_rule_validated(self):
        nodes, weights = np.linspace(0.1, 1.0, 10), np.full(10, 0.1)
        assert g.Grid(nodes=nodes, weights=weights,
                      domain_tag=g.Domain.Q).panel_nodes == 0  # a lattice
        g.Grid(nodes=nodes, weights=weights, domain_tag=g.Domain.Q,
               panel_nodes=5)
        for bad in (3, 4, -5):
            with pytest.raises(g.ContractError):
                g.Grid(nodes=nodes, weights=weights, domain_tag=g.Domain.Q,
                       panel_nodes=bad)

    def test_catalog_grids_record_their_rule(self, cosine_rep):
        assert cosine_rep.v_q.grid.panel_nodes >= 24
        assert cosine_rep.u_k.grid.panel_nodes == cosine_rep.v_q.grid.panel_nodes
        assert cosine_rep.w_x.grid.panel_nodes == 0

    def test_discrete_dist_probability_errors(self):
        edges, probs = np.arange(3.0), np.array([0.5, 0.5])
        assert np.array_equal(g.DiscreteDist(edges, probs).prob_errors,
                              np.zeros(2))
        for bad in (np.array([1e-3]), np.array([1e-3, -1e-3]),
                    np.array([np.nan, 0.0])):
            with pytest.raises(g.ContractError):
                g.DiscreteDist(edges, probs, prob_errors=bad)

    def test_array_holding_types_compare_by_identity(self, cosine_rep):
        # value equality of their arrays would raise on ==
        z = np.linspace(-6.0, 6.0, 65)
        table = (z, np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi))
        dist = g.DiscreteDist(np.arange(3.0), np.array([0.5, 0.5]))
        pairs = [(cosine_rep.v_q.grid,
                  g.Grid(cosine_rep.v_q.grid.nodes, cosine_rep.v_q.grid.weights,
                         g.Domain.Q)),
                 (cosine_rep.v_q, g.q_density(cosine_rep.source)),
                 (dist, g.DiscreteDist(dist.edges, dist.probs)),
                 (g.custom_acceptance(*table), g.custom_acceptance(*table))]
        for a, b in pairs:
            assert a == a and a != b
            assert len({a, b}) == 2

    def test_order_pair_condition(self):
        g.OrderPair(2.0, 2.0 / 3.0)
        g.OrderPair(1.0, 1.0)
        with pytest.raises(g.InvalidParameterError):
            g.OrderPair(2.0, 0.7)

    @given(st.floats(min_value=1.0 + 1e-6, max_value=50.0))
    @settings(max_examples=100, deadline=None)
    def test_conjugate_identity(self, alpha):
        pair = g.conjugate_order(alpha)
        assert abs(1.0 / pair.alpha + 1.0 / pair.gamma - 2.0) < 1e-12
