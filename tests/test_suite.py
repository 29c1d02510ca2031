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
