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


def test_verify_cell_takes_each_shannon_entropy_once(monkeypatch):
    # the Fourier-pair, binning-lemma and binned Shannon rows read one set
    # of entropies: H(Q), H(X), H(K), H(p_k) and H(p_x), then H of the two
    # smeared densities for every sigma, each taken once
    from gupcert import relations

    taken = []  # holding every argument keeps the ids unique

    def holding(name):
        real = getattr(relations, name)

        def wrapper(dens, *order):
            assert order in ((), (1.0,))  # the Shannon order only
            taken.append(dens)
            return real(dens, *order)
        return wrapper

    for name in ("diff_shannon", "discrete_renyi"):
        monkeypatch.setattr(relations, name, holding(name))
    config = RunConfig(beta_grid=[1.0], sigma_grid=[0.5, 2.0],
                       alpha_grid=[1.5, 2.0],
                       states=[{"name": "raised_cosine_q"}])
    records = suite._verify_cell(config.states[0], 1.0, config)
    ids = [id(d) for d in taken]
    assert len(set(ids)) == len(ids)
    assert len(ids) == 3 + 2 + 2 * len(config.sigma_grid)
    assert {r["relation_id"] for r in records} >= {
        "binning_lemma_k", "binning_lemma_x", "shannon_sum_binned"}


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
