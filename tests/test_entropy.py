import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gupcert as g
from conftest import random_discrete
from gupcert import entropy, quadrature
from oracles import mc_diff_shannon


EPS = np.finfo(float).eps


def spike_density() -> g.DensityFn:
    """The unit mass on the middle node of a 61-node lattice over [-3, 3]:
    the cubic spline through it rings, so the CDF falls across some bins."""
    nodes = np.linspace(-3.0, 3.0, 61)
    w = np.full(61, 0.1)
    w[0] = w[-1] = 0.05
    values = np.zeros(61)
    values[30] = 10.0
    grid = g.Grid(nodes=nodes, weights=w, domain_tag=g.Domain.X)
    return g.DensityFn(grid=grid, values=values)


def uniform_density(length, n=801):
    nodes = np.linspace(0.0, length, n)
    w = np.full(n, length / (n - 1))
    w[0] = w[-1] = 0.5 * length / (n - 1)
    grid = g.Grid(nodes=nodes, weights=w, domain_tag=g.Domain.X)
    return g.DensityFn(grid=grid, values=np.full(n, 1.0 / length))


class TestDiffShannon:
    def test_uniform_interval(self):
        d = uniform_density(math.pi)
        assert g.diff_shannon(d).value == pytest.approx(math.log(math.pi),
                                                        abs=1e-10)

    def test_cauchy_closed_form(self, uniform_rep):
        h = g.diff_shannon(uniform_rep.u_k)
        assert h.value == pytest.approx(math.log(4 * math.pi), abs=1e-6)

    def test_gaussian_closed_form(self, gauss_rep_small_beta):
        h = g.diff_shannon(gauss_rep_small_beta.v_q)
        assert h.value == pytest.approx(0.5 * math.log(2 * math.pi * math.e),
                                        abs=1e-9)

    def test_rejects_unnormalized(self):
        d = uniform_density(2.0)
        with pytest.raises(g.ContractError):
            g.DensityFn(grid=d.grid, values=d.values * 0.9)


class TestAlphaNorm:
    def test_unit_interval_flat(self):
        d = uniform_density(1.0)
        for alpha in (0.5, 1.0, 2.0, 3.0):
            assert g.alpha_norm(d, alpha) == pytest.approx(1.0, abs=1e-9)

    def test_length_two_alpha_two(self):
        d = uniform_density(2.0)
        assert g.alpha_norm(d, 2.0) == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_alpha_one_is_one(self, cosine_rep):
        assert g.alpha_norm(cosine_rep.v_q, 1.0) == 1.0

    def test_heavy_tail_divergence(self, uniform_rep):
        with pytest.raises(g.NormDivergenceError):
            g.alpha_norm(uniform_rep.u_k, 0.45)


class TestDiffRenyi:
    def test_flat_density_all_orders(self):
        d = uniform_density(math.pi)
        for alpha in (0.5, 2.0, 3.0):
            r = g.diff_renyi(d, alpha)
            assert r.value == pytest.approx(math.log(math.pi), abs=1e-9)

    def test_gaussian_order_two(self, gauss_rep_small_beta):
        r = g.diff_renyi(gauss_rep_small_beta.v_q, 2.0)
        assert r.value == pytest.approx(0.5 * math.log(4 * math.pi), abs=1e-8)

    @pytest.mark.parametrize("fixture", ["cosine_rep", "gauss_rep_small_beta"])
    def test_limit_consistency(self, fixture, request):
        # the deviation is linear in (alpha - 1); the symmetric mean at
        # alpha = 1 +- 1e-4 cancels it, leaving the quadratic remainder
        rep = request.getfixturevalue(fixture)
        h = g.diff_shannon(rep.v_q).value
        r_hi = g.diff_renyi(rep.v_q, 1.0 + 1e-4).value
        r_lo = g.diff_renyi(rep.v_q, 1.0 - 1e-4).value
        assert 0.5 * (r_hi + r_lo) == pytest.approx(h, abs=1e-6)
        assert abs(g.diff_renyi(rep.v_q, 1.0 + 1e-5).value - h) < 1e-5

    def test_large_orders(self, cosine_rep):
        # p**alpha summed as it stands underflows near alpha = 1e3; taken
        # relative to max p the sum stays finite, and R_alpha falls toward
        # the min-entropy -ln max p
        d = cosine_rep.v_q
        w, p = d.grid.weights, d.values
        for alpha in (300.0, 700.0):
            direct = math.log(float(np.dot(w, p ** alpha))) / (1.0 - alpha)
            assert g.diff_renyi(d, alpha).value == pytest.approx(direct,
                                                                 rel=1e-12)
        r_big = g.diff_renyi(d, 1e4).value
        assert math.isfinite(r_big)
        assert -math.log(p.max()) <= r_big <= g.diff_renyi(d, 1e3).value


    @pytest.mark.parametrize("fixture", ["cosine_rep", "uniform_rep"])
    def test_order_infinity_is_the_supremum(self, fixture, request):
        # R_inf = -ln max p, and max p can only under-read sup p: the error
        # holds the rise of the parabola through the top node and its
        # neighbours
        rep = request.getfixturevalue(fixture)
        for d in (rep.v_q, rep.w_x, rep.u_k):
            r, norm = g.renyi_and_norm(d, math.inf)
            assert norm == float(np.max(d.values))
            assert r.value == -math.log(norm)
            assert 0.0 < r.est_error < 1e-2
            assert r.value <= g.diff_renyi(d, 1e3).value + r.est_error
        d = uniform_density(2.0)
        assert g.alpha_norm(d, math.inf) == pytest.approx(0.5, rel=1e-15)
        # on two nodes the linear interpolant peaks at a node
        r, norm = g.renyi_and_norm(uniform_density(2.0, n=2), math.inf)
        assert r.value == math.log(2.0) and norm == 0.5


class TestBinning:
    def test_uniform_quarters(self):
        d = uniform_density(1.0)
        dist = g.bin_density(d, np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
        assert np.allclose(dist.probs, 0.25, atol=1e-9)

    def test_single_covering_bin(self, cosine_rep):
        dist = g.bin_density(cosine_rep.v_q, np.array([-2.0, 2.0]))
        assert dist.probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_cauchy_quarter_mass(self, uniform_rep):
        from gupcert.entropy import density_cdf
        cdf = density_cdf(uniform_rep.u_k, np.array([-1.0, 0.0]))
        assert cdf[1] - cdf[0] == pytest.approx(0.25, abs=1e-6)

    def test_insufficient_coverage(self, uniform_rep):
        with pytest.raises(g.ContractError):
            g.bin_density(uniform_rep.u_k, np.array([-1.0, 0.0, 1.0]))

    def test_too_few_edges(self, cosine_rep):
        with pytest.raises(g.ContractError):
            g.bin_density(cosine_rep.v_q, np.array([0.0]))

    @pytest.mark.parametrize("fixture", ["uniform_rep", "cosine_rep",
                                         "gauss_rep_small_beta", "random_rep"])
    def test_node_cdf_is_the_cdf_at_the_nodes(self, fixture, request):
        # read off the spline's knots, bit for bit what calling it gives;
        # uniform_q's wavenumber density is exactly Cauchy
        rep = request.getfixturevalue(fixture)
        f = g.gaussian_acceptance(1.0)
        for d in (rep.v_q, rep.w_x, rep.u_k, g.smear(rep.u_k, f),
                  g.smear(rep.w_x, f)):
            cdf = g.DensityCdf(d)
            assert cdf.node_cdf.tobytes() == cdf(d.grid.nodes).tobytes()

    @pytest.mark.parametrize("fixture", ["uniform_rep", "cosine_rep"])
    def test_node_antiderivative_starts_at_zero(self, fixture, request):
        # the CDF reads the antiderivative at the nodes relative to the first
        # node, where SciPy's antiderivative is exactly +0
        rep = request.getfixturevalue(fixture)
        f = g.gaussian_acceptance(1.0)
        for d in (rep.v_q, rep.w_x, rep.u_k, g.smear(rep.w_x, f)):
            at_nodes = g.DensityCdf(d)._at_nodes
            assert at_nodes.size == d.grid.nodes.size
            assert at_nodes[0] == 0.0 and not np.signbit(at_nodes[0])

    def test_random_edges_own_their_exact_size(self):
        # the edges are the cumulative widths of the same draws, with no
        # unused draws behind them
        lo, hi, dmin, dmax = -40.0, 55.0, 0.05, 2.0
        rng, old_rng = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(3):
            edges = g.random_edges(rng, lo, hi, dmin, dmax)
            n_est = int((hi - lo) / ((dmin + dmax) / 2.0) * 1.3) + 16
            widths = old_rng.uniform(dmin, dmax, size=n_est)
            old = lo + np.concatenate([[0.0], np.cumsum(widths)])
            old = old[:int(np.searchsorted(old, hi)) + 1]
            assert edges.base is None
            assert edges.tobytes() == old.tobytes()
            assert edges[-2] < hi <= edges[-1]
        assert rng.random() == old_rng.random()

    @pytest.mark.parametrize("fixture", ["uniform_rep", "cosine_rep",
                                         "spike"])
    def test_bin_errors_do_not_depend_on_the_block(self, fixture, request,
                                                   monkeypatch):
        # the probabilities and bin_errors run the same arithmetic bin by
        # bin in blocks of bins, each block's CDF values read in one pass:
        # any block size, one block for all bins included, gives the same
        # floats.  uniform_q's K window ends in tail-model bins on both
        # sides; raised_cosine_q's has none.  The spike's CDF falls on some
        # bins, whose differences the clip at zero raises.
        if fixture == "spike":
            densities = (spike_density(),)
        else:
            rep = request.getfixturevalue(fixture)
            densities = (rep.u_k, rep.w_x)
        for density in densities:
            cdf_of = g.DensityCdf(density)
            edges = np.linspace(*cdf_of.coverage_window(), 2001)
            results = []
            for block in (edges.size - 1, 1, 7, 2 ** 16):
                monkeypatch.setattr(quadrature, "_BLOCK_ENTRIES", block)
                dist = g.bin_density(cdf_of, edges)
                results.append((cdf_of(edges).tobytes(), dist.probs.tobytes(),
                                dist.prob_errors.tobytes()))
            assert results[1:] == results[:1] * 3
        if fixture == "spike":
            assert np.any(np.diff(cdf_of(edges)) < 0.0)
            assert np.all(dist.probs >= 0.0)
            assert abs(float(np.sum(dist.probs)) - 1.0) <= 4 * EPS

    def test_binning_reads_the_spline_once_per_block(self, cosine_rep,
                                                     monkeypatch):
        # binned_sums reads the CDF at each block's edges once, in one
        # evaluation of the spline's antiderivative, and forms the block's
        # probabilities and their bounds from those CDF values: 1 per block
        # of bins
        cdf_of = g.DensityCdf(cosine_rep.w_x)
        edges = np.linspace(*cdf_of.coverage_window(), 2501)
        monkeypatch.setattr(quadrature, "_BLOCK_ENTRIES", 1000)  # 3 blocks
        calls, anti = [], cdf_of._anti
        monkeypatch.setattr(cdf_of, "_anti",
                            lambda x: calls.append(1) or anti(x))
        g.binned_sums(cdf_of, edges, (1.0, 2.0))
        assert len(calls) == 3

    def test_random_edges_draw_uniform_widths(self):
        # the widths are drawn into the edge array as dmin + (dmax - dmin) u,
        # Generator.uniform's arithmetic on the same draws: the edges equal
        # those of rng.uniform widths over the 2.7 M draws of a Cauchy
        # wavenumber window
        lo, hi, dmin, dmax = -1.07e6, 1.07e6, 0.05, 2.0
        edges = g.random_edges(np.random.default_rng(8), lo, hi, dmin, dmax)
        n_est = int((hi - lo) / ((dmin + dmax) / 2.0) * 1.3) + 16
        assert n_est > 2_700_000
        widths = np.random.default_rng(8).uniform(dmin, dmax, size=n_est)
        old = lo + np.concatenate([[0.0], np.cumsum(widths)])
        assert edges.tobytes() == old[:edges.size].tobytes()


class _Recorded(g.RandomEdges):
    """A RandomEdges stream that keeps, in `blocks`, the (edges, last)
    blocks it yields, as it yields them."""

    def __iter__(self):
        self.blocks = []
        for block in super().__iter__():
            self.blocks.append(block)
            yield block


def _joined(stream: _Recorded) -> np.ndarray:
    """The edges of the blocks a stream yielded, joined."""
    blocks = [edges for edges, _ in stream.blocks]
    return np.concatenate([b[:-1] for b in blocks[:-1]] + blocks[-1:])


def _holding_bins(monkeypatch) -> list:
    """The (density, edges) of every binned_sums call from here on, held;
    the streams bin_pair draws from here on are _Recorded."""
    held, real = [], entropy.binned_sums

    def holding(density, edges, orders):
        held.append((density, edges))
        return real(density, edges, orders)

    monkeypatch.setattr(entropy, "binned_sums", holding)
    monkeypatch.setattr(entropy, "RandomEdges", _Recorded)
    return held


class TestBinPair:
    @pytest.fixture(scope="class")
    def smeared_cauchy(self):
        # uniform_q at beta = 1e-3, sigma = 1: both windows come from
        # tail-model quantiles, +-3.4e7 and +-1.1e4
        rep = g.bundle(g.catalog_state("uniform_q", g.make_params(1e-3)))
        f = g.gaussian_acceptance(1.0)
        return g.smear(rep.u_k, f), g.smear(rep.w_x, f)

    def test_over_the_cap_builds_no_spline(self, smeared_cauchy,
                                           monkeypatch):
        def no_spline(*args, **kw):
            raise AssertionError("a CDF spline was built")

        monkeypatch.setattr(entropy, "CubicSpline", no_spline)
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        assert g.bin_pair(rng, *smeared_cauchy, 0.05, 2.0, (1.0,)) is None
        assert rng.bit_generator.state == state

    def test_cdf_windows_meet_the_cap(self, cosine_rep, monkeypatch):
        # raised_cosine_q's K window comes from its CDF, so the bound checked
        # before the splines counts it as empty; the full spans still decide
        pair = (cosine_rep.u_k, cosine_rep.w_x)
        windows = [g.DensityCdf(d).coverage_window() for d in pair]
        half = 0.5 * sum(hi - lo for lo, hi in windows) / 4e6
        assert g.bin_pair(np.random.default_rng(5), *pair, half, half,
                          (1.0,)) is None
        held = _holding_bins(monkeypatch)
        g.bin_pair(np.random.default_rng(5), *pair, 0.05, 2.0, (1.0,))
        assert [stream.blocks[0][0][0] for _, stream in held] == \
            [lo for lo, _ in windows]

    def test_edges_are_random_edges_of_a_then_b(self, cosine_rep,
                                                monkeypatch):
        # one generator draws the edges of a, then those of b, as two
        # random_edges calls over the coverage windows would; each stream's
        # blocks of 50 bins (about 175 and 120 bins in all), as the stream
        # yielded them, are those edges, and only its last holds the last bin
        monkeypatch.setattr(quadrature, "_BLOCK_ENTRIES", 50)
        pair = (cosine_rep.u_k, cosine_rep.w_x)
        held = _holding_bins(monkeypatch)
        rng, own = np.random.default_rng(21), np.random.default_rng(21)
        g.bin_pair(rng, *pair, 0.05, 2.0, (1.0,))
        for (_, stream), density in zip(held, pair, strict=True):
            lo, hi = g.DensityCdf(density).coverage_window()
            assert _joined(stream).tobytes() == g.random_edges(
                own, lo, hi, 0.05, 2.0).tobytes()
            assert [last for _, last in stream.blocks] == \
                [False] * (len(stream.blocks) - 1) + [True]
        assert rng.bit_generator.state == own.bit_generator.state
        assert all(len(stream.blocks) > 1 for _, stream in held)

    @pytest.mark.parametrize("case", ["inside_a_block", "on_a_block_end",
                                      "in_the_overdraw_block"])
    def test_stream_blocks_are_random_edges(self, monkeypatch, case):
        # in blocks of 1000 bins, a stream's blocks, each drawn once, are
        # random_edges byte for byte, only the last flagged as holding the
        # last bin, and the generator ends after the same n_est draws,
        # wherever hi falls: inside a full block (the draws after it are
        # dropped), on the last edge of a block, or in the short last block
        # that uses up the n_est draws
        monkeypatch.setattr(quadrature, "_BLOCK_ENTRIES", 1000)
        lo, dmin, dmax = 0.0, 0.05, 2.0
        hi = {"inside_a_block": 2500.0, "in_the_overdraw_block": 2100.0,
              "on_a_block_end": g.random_edges(np.random.default_rng(13),
                                               lo, 3000.0, dmin, dmax)[2000]
              }[case]
        n_est = int((hi - lo) / ((dmin + dmax) / 2.0) * 1.3) + 16
        rng, own = np.random.default_rng(13), np.random.default_rng(13)
        stream = _Recorded(rng, lo, hi, dmin, dmax)
        blocks = list(stream)
        want = g.random_edges(own, lo, hi, dmin, dmax)
        assert rng.bit_generator.state == own.bit_generator.state
        assert want[-2] < hi <= want[-1]
        bins = want.size - 1
        last = bins - bins % 1000 if bins % 1000 else bins - 1000
        assert {"inside_a_block": 0 < bins % 1000 and last + 1000 < n_est,
                "on_a_block_end": bins == 2000 < n_est,
                "in_the_overdraw_block": last < bins < n_est < last + 1000,
                }[case]
        starts = range(0, last + 1, 1000)
        assert len(blocks) == len(starts)
        for start, (edges, is_last) in zip(starts, blocks):
            assert edges.tobytes() == want[start:start + 1001].tobytes()
            assert is_last == (start == last)
        assert _joined(stream).tobytes() == want.tobytes()

    def test_sums_are_the_discrete_sums_of_the_bins(self, cosine_rep,
                                                     monkeypatch):
        # each entry is the one-block BinnedSums.of of the same bins, float
        # for float, Shannon at order 1 and the sup limits at order inf
        orders = (1.0, 1.5, 0.75, 2.0, 2.0 / 3.0, 4.0, 4.0 / 7.0, math.inf)
        held = _holding_bins(monkeypatch)
        binned = g.bin_pair(np.random.default_rng(4), cosine_rep.u_k,
                            cosine_rep.w_x, 0.05, 2.0, orders)
        for sums, (density, stream) in zip(binned, held, strict=True):
            dist = g.bin_density(density, _joined(stream))
            assert dist.probs.size <= quadrature._BLOCK_ENTRIES
            assert sums.delta_max == dist.delta_max
            assert list(sums.sums) == list(orders)
            for order in orders:
                assert sums.renyi_and_norm(order) == \
                    g.BinnedSums.of(dist, (order,)).renyi_and_norm(order)

    def test_cauchy_sums_hold_no_bin_length_array(self, uniform_rep,
                                                  monkeypatch):
        # uniform_q at beta = 1: the Cauchy wavenumber side takes millions
        # of bins, and its sums keep a few floats per order
        held = _holding_bins(monkeypatch)
        binned = g.bin_pair(np.random.default_rng(5), uniform_rep.u_k,
                            uniform_rep.w_x, 0.05, 2.0,
                            (1.0, 2.0, 2.0 / 3.0, math.inf))
        assert sum(edges.size - 1 for edges, _ in held[0][1].blocks) > \
            2_000_000
        for sums in binned:
            assert len(pickle.dumps(sums)) < 4_000

    def test_cauchy_binning_holds_no_bin_length_array(self, uniform_rep):
        # of the 2.1 M bins of the Cauchy wavenumber distribution no array
        # is held: the traced peak of binned_sums is a few block-sized
        # transients per worker and the blocks of edges queued for the pool
        # (about 11.7 MB), whatever the bin count, where holding the CDF
        # values at the edges took about 23 MB.  The same stream drawn
        # again on its own counts the bins
        cdf_of = g.DensityCdf(uniform_rep.u_k)
        window = cdf_of.coverage_window()
        tracemalloc.start()
        try:
            stream = g.RandomEdges(np.random.default_rng(5), *window, 0.05,
                                   2.0)
            g.binned_sums(cdf_of, stream, (1.0, 2.0, 2.0 / 3.0, math.inf))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        twin = g.RandomEdges(np.random.default_rng(5), *window, 0.05, 2.0)
        assert sum(edges.size - 1 for edges, _ in twin) > 2_000_000
        assert peak < 24 * 8 * quadrature._BLOCK_ENTRIES

    def test_pooled_binning_is_the_calling_thread_binning(self, uniform_rep,
                                                         monkeypatch):
        # the 2.1 M bins of the Cauchy wavenumber distribution, in 33 or
        # more blocks on the pool, give the sums of the same blocks run one
        # by one on the calling thread, float for float; the one pass
        # submits each block once
        orders = (1.0, 1.5, 2.0 / 3.0, 4.0, 4.0 / 7.0, math.inf)
        cdf_of = g.DensityCdf(uniform_rep.u_k)
        window = cdf_of.coverage_window()

        def sums():
            stream = _Recorded(np.random.default_rng(5), *window, 0.05, 2.0)
            binned = g.binned_sums(cdf_of, stream, orders)
            return binned, len(stream.blocks)

        pool = quadrature._pool()
        submitted, submit = [], pool.submit
        monkeypatch.setattr(pool, "submit",
                            lambda *a: submitted.append(1) or submit(*a))
        pooled, blocks = sums()
        assert blocks >= 33 and len(submitted) == blocks
        monkeypatch.setattr(quadrature, "map_blocks",
                            lambda fn, items: [fn(item) for item in items])
        submitted.clear()
        serial, _ = sums()
        assert not submitted
        assert pooled.delta_max == serial.delta_max
        assert pooled.sums == serial.sums

    @pytest.mark.parametrize("fixture, rel", [("cosine_rep", 0.0),
                                              ("uniform_rep", 1e-14),
                                              ("spike", 1e-14)],
                             ids=["one_block", "cauchy", "spike"])
    def test_binned_sums_are_the_sums_of_bin_density(self, fixture, rel,
                                                      request, monkeypatch):
        # binned_sums folds the bins into their sums block by block; on the
        # same edges it gives the sums of bin_density's distribution, float
        # for float in one block of bins and to the rounding of a blocked
        # sum on the 2.1 M bins of the Cauchy wavenumber distribution.  The
        # spike's clipped CDF differences sum past 1, so its sums are taken
        # of unnormalized probabilities (in blocks of 7 bins): the values
        # agree to rounding, and each bound is at least the distribution's
        if fixture == "spike":
            monkeypatch.setattr(quadrature, "_BLOCK_ENTRIES", 7)
            cdf_of = g.DensityCdf(spike_density())
            edges = np.linspace(*cdf_of.coverage_window(), 2001)
            assert np.any(np.diff(cdf_of(edges)) < 0.0)
        else:
            cdf_of = g.DensityCdf(request.getfixturevalue(fixture).u_k)
            edges = g.random_edges(np.random.default_rng(5),
                                   *cdf_of.coverage_window(), 0.05, 2.0)
        assert (edges.size - 1 <= quadrature._BLOCK_ENTRIES) == (rel == 0.0)
        orders = (1.0, 2.0, 2.0 / 3.0, 4.0, 4.0 / 7.0, math.inf)
        folded = g.binned_sums(cdf_of, edges, orders)
        reference = g.BinnedSums.of(g.bin_density(cdf_of, edges), orders)
        assert folded.delta_max == reference.delta_max
        assert list(folded.sums) == list(reference.sums)
        for order, (renyi, norm) in reference.sums.items():
            got, got_norm = folded.sums[order]
            for a, b in ((got.value, renyi.value), (got_norm, norm)):
                assert abs(a - b) <= rel * abs(b), order
            if fixture == "spike":
                assert got.est_error >= renyi.est_error * (1.0 - rel), order
            else:
                assert abs(got.est_error - renyi.est_error) <= \
                    rel * renyi.est_error, order


class TestDiscreteEntropies:
    def test_equiprobable_renyi(self):
        p = np.full(8, 0.125)
        dist = g.DiscreteDist(edges=np.arange(9.0), probs=p)
        for alpha in (0.5, 1.0, 2.0, 5.0):
            assert g.discrete_renyi(dist, alpha).value == pytest.approx(
                math.log(8), abs=1e-12)

    def test_point_mass(self):
        dist = g.DiscreteDist(edges=np.arange(4.0),
                              probs=np.array([1.0, 0.0, 0.0]))
        assert g.discrete_renyi(dist, 2.0).value == 0.0
        assert g.discrete_tsallis(dist, 2.0).value == 0.0

    def test_two_point_order_two(self):
        dist = g.DiscreteDist(edges=np.arange(3.0),
                              probs=np.array([0.75, 0.25]))
        assert g.discrete_renyi(dist, 2.0).value == pytest.approx(
            -math.log(5.0 / 8.0), abs=1e-12)

    def test_tsallis_uniform(self):
        for n in (2, 5, 16):
            p = np.full(n, 1.0 / n)
            dist = g.DiscreteDist(edges=np.arange(n + 1.0), probs=p)
            assert g.discrete_tsallis(dist, 2.0).value == pytest.approx(
                1.0 - 1.0 / n, abs=1e-12)

    def test_large_orders(self):
        dist = g.DiscreteDist(edges=np.arange(3.0),
                              probs=np.array([0.75, 0.25]))
        for alpha in (1e3, 1e5):
            # 0.25**alpha is lost against 0.75**alpha
            assert g.discrete_renyi(dist, alpha).value == pytest.approx(
                -math.log(0.75) * alpha / (alpha - 1.0), rel=1e-12)
            assert g.discrete_tsallis(dist, alpha).value == pytest.approx(
                1.0 / (alpha - 1.0), rel=1e-12)

    def test_order_infinity(self):
        probs = np.array([0.5, 0.498, 0.002])
        dist = g.DiscreteDist(edges=np.arange(4.0), probs=probs,
                              prob_errors=np.array([1e-3, 4e-3, 1e-3]))
        r, norm = g.BinnedSums.of(dist, (math.inf,)).renyi_and_norm(math.inf)
        assert norm == 0.5 and r.value == -math.log(0.5)
        # the 0.498 bin may rise 2e-3 above max p, more than 0.5 may move
        assert r.est_error == pytest.approx(2e-3 / 0.5, rel=1e-9)
        t = g.discrete_tsallis(dist, math.inf)
        assert t.value == 0.0 and t.est_error == 0.0
        point = g.DiscreteDist(edges=np.arange(3.0), probs=np.array([1.0, 0.0]))
        assert g.discrete_renyi(point, math.inf).value == 0.0
        assert g.discrete_tsallis(point, math.inf).value == 0.0

    def test_an_all_zero_block_adds_nothing(self):
        # a block of bins that all hold zero probability is skipped whole,
        # its bounds included: the sums over the tiled blocks are those of
        # the bins that hold mass
        probs = np.array([0.25, 0.25, 0.0, 0.0, 0.5])
        errors = np.array([1e-3, 2e-3, 3e-3, 4e-3, 5e-3])
        orders = (1.0, 2.0, 0.5, math.inf)
        blocks = {0: (probs[:2], errors[:2]), 2: (probs[2:4], errors[2:4]),
                  4: (probs[4:], errors[4:])}
        tiled = entropy._fold([entropy._share(*blocks[start], orders)
                               for start in blocks], 1.0, orders)
        held = [0, 1, 4]
        live = g.DiscreteDist(edges=np.arange(4.0), probs=probs[held],
                              prob_errors=errors[held])
        for order in orders:
            (renyi, norm), (want, want_norm) = (
                tiled[order],
                g.BinnedSums.of(live, (order,)).renyi_and_norm(order))
            assert norm == pytest.approx(want_norm, rel=1e-15)
            assert renyi.value == pytest.approx(want.value, rel=1e-15)
            assert renyi.est_error == pytest.approx(want.est_error, rel=1e-15)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_renyi_nonincreasing_in_alpha(self, seed):
        dist = random_discrete(np.random.default_rng(seed), 12)
        values = [g.discrete_renyi(dist, a).value
                  for a in (0.5, 0.75, 1.0, 1.5, 2.0, 3.0)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_norm_ordering(self, seed):
        dist = random_discrete(np.random.default_rng(seed), 9)
        for alpha in (1.5, 2.0, 4.0):
            pair = g.conjugate_order(alpha)
            assert g.discrete_norm(dist, pair.alpha) <= 1.0 + 1e-12
            assert g.discrete_norm(dist, pair.gamma) >= 1.0 - 1e-12

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_tsallis_limit_matches_shannon(self, seed):
        dist = random_discrete(np.random.default_rng(seed), 7)
        shannon = g.discrete_renyi(dist, 1.0).value
        for eps in (1e-5, -1e-5):
            assert g.discrete_tsallis(dist, 1.0 + eps).value == pytest.approx(
                shannon, abs=1e-4)
        mean = 0.5 * (g.discrete_tsallis(dist, 1.0 + 1e-5).value
                      + g.discrete_tsallis(dist, 1.0 - 1e-5).value)
        assert mean == pytest.approx(shannon, abs=1e-6)


class TestAlphaLog:
    def test_unit_argument(self):
        for nu in (0.5, 1.0, 2.0):
            assert g.alpha_log(1.0, nu) == 0.0

    def test_nu_one_is_log(self):
        assert g.alpha_log(2.0, 1.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_direct_value(self):
        assert g.alpha_log(2.0, 2.0) == pytest.approx(0.5, abs=1e-15)

    def test_continuity_at_one(self):
        for y in (0.3, 2.0, 40.0):
            assert g.alpha_log(y, 1.0 + 1e-12) == pytest.approx(
                math.log(y), abs=1e-9)

    def test_domain(self):
        with pytest.raises(g.InvalidParameterError):
            g.alpha_log(0.0, 2.0)

    def test_nu_infinity_is_the_limit(self):
        assert g.alpha_log(2.0, math.inf) == 0.0
        assert g.alpha_log(1.0, math.inf) == 0.0
        assert g.alpha_log(0.5, math.inf) == -math.inf


class TestBinningLemma:
    @pytest.mark.parametrize("fixture", ["cosine_rep", "gauss_rep_small_beta",
                                         "random_rep"])
    def test_random_layouts(self, fixture, request):
        rep = request.getfixturevalue(fixture)
        binned = g.bin_pair(np.random.default_rng(17), rep.u_k, rep.w_x,
                            0.05, 2.0, (1.0,))
        for density, dist, axis in zip((rep.u_k, rep.w_x), binned, "kx"):
            rpt = g.check_binning_lemma(density, dist)
            assert rpt.relation_id == f"binning_lemma_{axis}"
            assert rpt.margin >= -1e-8

    def test_fine_equal_bins_smooth_state(self, gauss_rep_small_beta):
        # equal widths minimize the lemma slack; smooth fast-decay densities
        # keep the margin positive at the tolerance scale
        d = gauss_rep_small_beta.v_q
        edges = np.arange(-8.0, 8.0 + 1e-9, 0.05)
        rpt = g.check_binning_lemma(
            d, g.BinnedSums.of(g.bin_density(d, edges), (1.0,)))
        assert rpt.margin >= -1e-8

    def test_refinement_stability(self, gauss_rep_small_beta):
        # H(p) + ln(delta) drifts less than the entropy error as bins shrink
        d = gauss_rep_small_beta.v_q
        vals = []
        for delta in (0.2, 0.1, 0.05):
            edges = np.arange(-8.0, 8.0 + 1e-9, delta)
            dist = g.bin_density(d, edges)
            vals.append(g.discrete_renyi(dist, 1.0).value
                        + math.log(dist.delta_max))
        assert abs(vals[-1] - vals[-2]) < 2e-3
        assert abs(vals[-2] - vals[-1]) <= abs(vals[0] - vals[-1]) + 1e-12


class TestMonteCarlo:
    def test_needs_two_samples(self):
        with pytest.raises(g.ContractError, match="two samples"):
            mc_diff_shannon(uniform_density(1.0, n=5), 1, 0)

    def test_gaussian(self, gauss_rep_small_beta):
        h = g.diff_shannon(gauss_rep_small_beta.v_q)
        mc = mc_diff_shannon(gauss_rep_small_beta.v_q, 400_000, seed=7)
        assert abs(mc.value - h.value) <= 4.0 * mc.est_error

    def test_uniform_zero_variance(self, uniform_rep):
        mc = mc_diff_shannon(uniform_rep.v_q, 50_000, seed=3)
        assert mc.value == pytest.approx(math.log(math.pi), abs=1e-9)
        assert mc.est_error < 1e-12

    def test_cauchy(self, uniform_rep):
        mc = mc_diff_shannon(uniform_rep.u_k, 400_000, seed=5)
        assert abs(mc.value - math.log(4 * math.pi)) <= 4.0 * mc.est_error

    def test_position_tails(self, uniform_rep):
        # 2.9e-4 of uniform_q's X density lies beyond each end of its
        # window, so about 58 of the samples on each side are drawn from
        # the tail models
        d = uniform_rep.w_x
        assert min(d.tail_masses) > 2e-4
        mc = mc_diff_shannon(d, 200_000, seed=3)
        assert abs(mc.value - g.diff_shannon(d).value) <= 2.0 * mc.est_error
