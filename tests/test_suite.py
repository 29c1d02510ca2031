import math
import tracemalloc

import pytest

from gupcert import entropy, suite
from gupcert.errors import ConfigError, GupcertError
from gupcert.suite import RunConfig


def test_verify_cell_bins_each_density_once(monkeypatch):
    # one binning per (density, edges) pair: the raw wavenumber and position
    # densities, then the two smeared densities for every sigma; all binned
    # checks of the cell share those distributions
    calls = []
    real = entropy.binned_sums

    def counting(density, edges, orders):
        calls.append((density, edges))  # holding both keeps their ids unique
        return real(density, edges, orders)

    monkeypatch.setattr(entropy, "binned_sums", counting)
    config = RunConfig(beta_grid=[1.0], sigma_grid=[0.5, 2.0],
                       alpha_grid=[1.5, 2.0],
                       states=[{"name": "raised_cosine_q"}])
    records = suite._verify_cell(config.states[0], 1.0, config)
    keys = [(id(d), id(e)) for d, e in calls]
    assert len(keys) == 2 + 2 * len(config.sigma_grid)
    assert len(set(keys)) == len(keys)
    assert sum(r["relation_id"] == "discrete_norm_ordering"
               for r in records) == 4


def test_binned_rows_name_the_widths_they_read(monkeypatch):
    # each binned row carries the widest bins of the distributions it read:
    # the lemma rows one side, the binned sums both, the norm ordering the
    # wavenumber side only; every other row reads no bins
    pairs = []
    real = suite.bin_pair

    def holding(*args):
        pairs.append(real(*args))
        return pairs[-1]

    monkeypatch.setattr(suite, "bin_pair", holding)
    config = RunConfig(beta_grid=[1.0], sigma_grid=[0.5, 2.0],
                       alpha_grid=[1.0, 2.0],
                       states=[{"name": "raised_cosine_q"}])
    records = suite._verify_cell(config.states[0], 1.0, config)
    widths = [(p_k.delta_max, p_x.delta_max) for p_k, p_x in pairs]
    assert len(widths) == 1 + len(config.sigma_grid)
    by_sigma = dict(zip([None, *config.sigma_grid], widths))
    seen = set()
    for r in records:
        dk, dx = by_sigma[r["sigma"]]
        rid = r["relation_id"]
        if rid == "binning_lemma_k" or rid == "discrete_norm_ordering":
            want = (dk, None)
        elif rid == "binning_lemma_x":
            want = (None, dx)
        elif "binned" in rid:
            want = (dk, dx)
        else:
            want = (None, None)
        assert (r["delta_k"], r["delta_x"]) == want, rid
        seen.add(want != (None, None))
    assert seen == {True, False}


def test_verify_cell_integrates_the_correction_once(monkeypatch):
    # the corrected, Jensen and smeared Shannon rows of a cell all read the
    # bundle's correction, which integrates <ln(1 + beta k^2)> once
    from functools import cached_property

    from gupcert.transform import RepresentationBundle

    taken = []
    real = RepresentationBundle.correction.func

    def counting(rep):
        taken.append(rep)
        return real(rep)

    prop = cached_property(counting)
    prop.__set_name__(RepresentationBundle, "correction")
    monkeypatch.setattr(RepresentationBundle, "correction", prop)
    config = RunConfig(beta_grid=[1.0], sigma_grid=[0.5, 1.0, 2.0],
                       alpha_grid=[2.0], states=[{"name": "raised_cosine_q"}])
    records = suite._verify_cell(config.states[0], 1.0, config)
    assert len(taken) == 1
    ids = {r["relation_id"] for r in records}
    assert {"shannon_sum_corrected", "correction_jensen",
            "shannon_sum_smeared"} <= ids


def test_cell_rows_do_not_depend_on_the_other_cells():
    # each cell seeds its own bins, so a cell run alone, in any order,
    # renders the record lines it renders inside a run of every cell
    def rendered(config):
        return {r["digest"]: suite.render_json([r])
                for r in suite.run_verify(config)[0]}

    states = [{"name": "raised_cosine_q"},
              {"name": "truncated_gaussian_q", "shape_args": [0.25]}]
    betas = [1e-3, 1.0]
    full = rendered(RunConfig(beta_grid=betas, sigma_grid=[1.0],
                              alpha_grid=[2.0], states=states))
    alone = {}
    for spec, beta in reversed([(s, b) for s in states for b in betas]):
        alone.update(rendered(RunConfig(beta_grid=[beta], sigma_grid=[1.0],
                                        alpha_grid=[2.0], states=[spec])))
    assert alone == full


def test_norm_ordering_reads_the_renyi_norms(monkeypatch):
    # every binned row of an order pair (Renyi and Tsallis sums, norm rows,
    # norm ordering) reads the same four discrete power sums: ln sum p^alpha
    # and ln sum p^gamma of p_m and p_n, each taken once per sigma, when
    # bin_pair bins them; the unsmeared pair is summed at order 1 only
    calls = []
    real = entropy.binned_sums

    def counting(density, edges, orders):
        calls.extend(dict.fromkeys(orders))
        return real(density, edges, orders)

    monkeypatch.setattr(entropy, "binned_sums", counting)
    config = RunConfig(beta_grid=[1.0], sigma_grid=[0.5, 2.0],
                       alpha_grid=[1.5, 2.0],
                       states=[{"name": "raised_cosine_q"}])
    records = suite._verify_cell(config.states[0], 1.0, config)
    power_sums = [alpha for alpha in calls if alpha != 1.0]
    assert len(power_sums) == (4 * len(config.alpha_grid)
                               * len(config.sigma_grid))
    assert calls[:2] == [1.0, 1.0] and calls.count(1.0) == 2
    rows = [r for r in records if r["relation_id"] == "discrete_norm_ordering"]
    assert len(rows) == 4 and all(r["verdict"] == "pass" for r in rows)


@pytest.mark.parametrize("alpha_grid", [[1.5, 2.0], [1.0, 2.0]],
                         ids=["without_alpha1", "with_alpha1"])
def test_verify_cell_takes_each_shannon_entropy_once(monkeypatch, alpha_grid):
    # the Fourier-pair, binning-lemma and binned Shannon rows read one set
    # of entropies: H(Q), H(X), H(K), H(p_k) and H(p_x), then H of the two
    # smeared densities for every sigma, each taken once; at alpha = 1 the
    # Beckner and smeared Renyi rows are those Shannon rows, so an order of
    # 1 takes none again.  The binned smeared pair is summed at order 1
    # only when a pair is degenerate.  The spies sit on the functional that
    # fills DensityFn.shannon and on the sums of each binned distribution;
    # the entropies that pick a catalog state's resolution, taken while the
    # state is built, are not the cell's and are left out.
    from gupcert import core

    taken = []  # holding every argument keeps the ids unique
    building = []
    real_shannon = core._shannon
    real_sums = entropy.binned_sums
    real_build = core._build_catalog_state

    def build(*args):
        building.append(True)
        try:
            return real_build(*args)
        finally:
            building.pop()

    def shannon(dens):
        if not building:
            taken.append(dens)
        return real_shannon(dens)

    def discrete(density, edges, orders):
        if 1.0 in orders:
            taken.append(edges)
        return real_sums(density, edges, orders)

    monkeypatch.setattr(core, "_shannon", shannon)
    monkeypatch.setattr(core, "_build_catalog_state", build)
    monkeypatch.setattr(entropy, "binned_sums", discrete)
    config = RunConfig(beta_grid=[1.0], sigma_grid=[0.5, 2.0],
                       alpha_grid=alpha_grid,
                       states=[{"name": "raised_cosine_q"}])
    records = suite._verify_cell(config.states[0], 1.0, config)
    ids = [id(d) for d in taken]
    assert len(set(ids)) == len(ids)
    smeared_bins = 2 if 1.0 in alpha_grid else 0
    assert len(ids) == 3 + 2 + (2 + smeared_bins) * len(config.sigma_grid)
    assert {r["relation_id"] for r in records} >= {
        "binning_lemma_k", "binning_lemma_x", "shannon_sum_binned"}


def test_degenerate_order_rows_have_unique_digests():
    # at alpha = 1 the Beckner and smeared Renyi rows are the cell's own
    # shannon_sum_base and smeared Shannon reports, emitted once more with
    # the order pair; the order tags keep the two apart
    config = RunConfig(beta_grid=[1.0], sigma_grid=[1.0],
                       alpha_grid=[1.0, 2.0],
                       states=[{"name": "raised_cosine_q"}])
    records, _ = suite.run_verify(config)
    digests = [r["digest"] for r in records]
    assert len(set(digests)) == len(digests)


def test_beta_sweep_skips_a_box_state_at_beta_zero():
    config = RunConfig(beta_grid=[0.0, 1.0], states=[{"name": "uniform_q"}])
    betas = {r["beta"] for r in suite.run_sweep(config, "beta")
             if r["state"] == "uniform_q"}
    assert betas == {1.0}


@pytest.mark.parametrize("param", ["sigma", "alpha"])
def test_sweep_of_a_box_state_at_beta_zero_is_a_config_error(param):
    config = RunConfig(beta_grid=[0.0, 1.0], states=[{"name": "uniform_q"}])
    with pytest.raises(ConfigError, match="undefined at beta"):
        suite.run_sweep(config, param)


def test_unknown_sweep_parameter_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown sweep parameter"):
        suite.run_sweep(RunConfig(), "nonsense")


def test_render_json_writes_minus_infinity_as_a_string():
    record = {**dict.fromkeys(suite.RECORD_FIELDS, 0.0), "relation_id": "r",
              "state": "s", "verdict": "pass", "tolerance": 0.0,
              "digest": "d", "margin": -math.inf}
    assert '"margin": "-inf"' in suite.render_json([record])


def test_write_text_to_a_directory_raises(tmp_path):
    with pytest.raises(GupcertError, match="cannot write"):
        suite.write_text(str(tmp_path), "text")


def test_cauchy_cell_holds_one_binned_distribution():
    # uniform_q at beta = 1 has an exactly Cauchy wavenumber density: each
    # binned K distribution takes about 2.1 M bins, 17 MB per array.  The
    # cell bins one density at a time and keeps its sums only, and the sums
    # are folded block by block from one array of that length, the CDF
    # values at the edges (the edges are drawn again and the probabilities
    # formed again block by block, not held), so the traced peak (about
    # 29 MB) stays below that of a binning that also held the probabilities
    # (about 44 MB)
    config = RunConfig(beta_grid=[1.0], sigma_grid=[1.0, 10.0],
                       alpha_grid=[1.5, 2.0, 4.0],
                       states=[{"name": "uniform_q"}])
    tracemalloc.start()
    try:
        records = suite._verify_cell(config.states[0], 1.0, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 83
    assert peak < 32e6


def test_narrow_smear_cell_stays_lean():
    # uniform_q at beta = 1e-3 and sigma = 0.1 smears its K density on a
    # lattice of 4 M nodes, 32 MB per array.  The smear sums its captured
    # mass from block-sized window masses, multiplies the two spectra in
    # place and drops its sources before it builds the output grid, so the
    # cell's traced peak (about 230 MB) stays below that of a smear that
    # held them all at once (about 354 MB)
    config = RunConfig(beta_grid=[1e-3], sigma_grid=[0.1], alpha_grid=[2.0],
                       states=[{"name": "uniform_q"}])
    tracemalloc.start()
    try:
        records = suite._verify_cell(config.states[0], 1e-3, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 12
    assert peak < 250e6
