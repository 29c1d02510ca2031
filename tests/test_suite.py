from gupcert import suite
from gupcert.suite import RunConfig


def test_verify_cell_bins_each_density_once(monkeypatch):
    # one binning per (density, edges) pair: the raw wavenumber and position
    # densities, then the two smeared densities for every sigma; all binned
    # checks of the cell share those distributions
    calls = []
    real = suite.bin_density

    def counting(density, edges):
        calls.append((density, edges))  # holding both keeps their ids unique
        return real(density, edges)

    monkeypatch.setattr(suite, "bin_density", counting)
    config = RunConfig(beta_grid=[1.0], sigma_grid=[0.5, 2.0],
                       alpha_grid=[1.5, 2.0],
                       states=[{"name": "raised_cosine_q"}])
    records = suite._verify_cell(config.states[0], 1.0, config)
    keys = [(id(d), id(e)) for d, e in calls]
    assert len(keys) == 2 + 2 * len(config.sigma_grid)
    assert len(set(keys)) == len(keys)
    assert sum(r["relation_id"] == "discrete_norm_ordering"
               for r in records) == 4


def test_norm_ordering_reads_the_renyi_norms(monkeypatch):
    # every binned row of an order pair (Renyi and Tsallis sums, norm rows,
    # norm ordering) reads the same four discrete power sums: ln sum p^alpha
    # and ln sum p^gamma of p_m and p_n, each taken once per sigma.  The
    # sums are counted under both names the package calls them by.
    from gupcert import entropy, relations

    calls = []
    real = entropy.discrete_renyi_and_norm

    def counting(dist, alpha):
        calls.append(alpha)
        return real(dist, alpha)

    for module in (entropy, relations):
        monkeypatch.setattr(module, "discrete_renyi_and_norm", counting)
    config = RunConfig(beta_grid=[1.0], sigma_grid=[0.5, 2.0],
                       alpha_grid=[1.5, 2.0],
                       states=[{"name": "raised_cosine_q"}])
    records = suite._verify_cell(config.states[0], 1.0, config)
    power_sums = [alpha for alpha in calls if alpha != 1.0]
    assert len(power_sums) == (4 * len(config.alpha_grid)
                               * len(config.sigma_grid))
    rows = [r for r in records if r["relation_id"] == "discrete_norm_ordering"]
    assert len(rows) == 4 and all(r["verdict"] == "pass" for r in rows)


def test_degenerate_order_rows_have_unique_digests():
    # at alpha = 1 the Beckner and smeared Renyi checks dispatch to Shannon
    # rows that the cell also emits without an order; the order tags keep
    # the two apart
    config = RunConfig(beta_grid=[1.0], sigma_grid=[1.0],
                       alpha_grid=[1.0, 2.0],
                       states=[{"name": "raised_cosine_q"}])
    records, _ = suite.run_verify(config)
    digests = [r["digest"] for r in records]
    assert len(set(digests)) == len(digests)
