"""Byte-for-byte regression against committed reports.

`tests/data/golden_small.json` holds the `render_json` text of a small
verify run (and its `render_csv` text), of verify cells with the degenerate
order pair (alpha = 1, also alone on the Cauchy cell), of the Cauchy cell at
alpha = 1000 (Beckner and smeared Renyi rows made not applicable by a
divergent power sum), in the undeformed limit (beta = 0) and with neither
pair binned, and of beta, sigma and alpha sweeps.  Optimisations that must not move a single float (reordered or
shared exponentials, blocked sums) are checked here.  A mismatch names the
report and its first differing line.  Regenerate the file only for a change
that is meant to alter report bytes:

    PYTHONPATH=src python tests/test_golden.py

The file was recorded under OpenBLAS's default threads, and the test
passes only there.  OpenBLAS splits a long dot product over its threads,
so with OPENBLAS_NUM_THREADS=1 the last bits of a few long sums differ and
the test fails first at `verify_uniform_q` line 6, on `est_error` (and the
`tolerance` derived from it).
"""

import json
import pathlib

from gupcert import suite
from gupcert.suite import RunConfig

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_small.json"


def _reports() -> dict:
    verify = RunConfig(beta_grid=[0.1, 1.0], sigma_grid=[1.0], alpha_grid=[2.0],
                       states=[{"name": "raised_cosine_q"},
                               {"name": "random_fourier_q", "shape_args": [6],
                                "seed": 11}])
    # the exactly Cauchy K density: p = 2 tail fit and tail quantile
    cauchy = RunConfig(beta_grid=[1.0], sigma_grid=[1.0], alpha_grid=[2.0],
                       states=[{"name": "uniform_q"}])
    # both bin counts over the cap: a cell with no binned row
    no_bins = RunConfig(beta_grid=[0.1], sigma_grid=[1.0], alpha_grid=[2.0],
                        states=[{"name": "uniform_q"}])
    # alpha = 1 alone on the Cauchy cell: the degenerate pair's Shannon
    # rows, with a binned K distribution of about 2 M bins
    cauchy_alpha1 = RunConfig(beta_grid=[1.0], sigma_grid=[1.0],
                              alpha_grid=[1.0], states=[{"name": "uniform_q"}])
    # alpha = 1000 on the Cauchy cell: power sums at gamma near 1/2 that
    # converge too slowly, so beckner_qx and the smeared Renyi rows are not
    # applicable while beckner_xq passes
    cauchy_alpha1000 = RunConfig(beta_grid=[1.0], sigma_grid=[1.0],
                                 alpha_grid=[1000.0],
                                 states=[{"name": "uniform_q"}])
    # alpha = 1: the degenerate (1, 1) pair's Shannon-form binned rows
    degenerate = RunConfig(beta_grid=[1.0], sigma_grid=[1.0],
                           alpha_grid=[1.0, 2.0],
                           states=[{"name": "raised_cosine_q"}])
    # beta = 0: infinite q0, ungraded Q grid, J identically one
    undeformed = RunConfig(beta_grid=[0.0], sigma_grid=[1.0],
                           alpha_grid=[2.0],
                           states=[{"name": "truncated_gaussian_q",
                                    "shape_args": [0.25]}])
    sweep = RunConfig(beta_grid=[1e-3, 0.1, 1.0],
                      states=[{"name": "random_fourier_q", "shape_args": [8],
                               "seed": 11}])
    smeared = RunConfig(beta_grid=[0.1], sigma_grid=[0.5, 1.0, 4.0],
                        alpha_grid=[1.5, 2.0, 4.0],
                        states=[{"name": "raised_cosine_q"}])
    records, _ = suite.run_verify(verify)
    cauchy_records, _ = suite.run_verify(cauchy)
    cauchy_alpha1_records, _ = suite.run_verify(cauchy_alpha1)
    cauchy_alpha1000_records, _ = suite.run_verify(cauchy_alpha1000)
    undeformed_records, _ = suite.run_verify(undeformed)
    degenerate_records, _ = suite.run_verify(degenerate)
    no_bins_records, _ = suite.run_verify(no_bins)
    return {"verify": suite.render_json(records, verify),
            "verify_csv": suite.render_csv(records),
            "verify_uniform_q": suite.render_json(cauchy_records, cauchy),
            "verify_uniform_q_alpha1": suite.render_json(
                cauchy_alpha1_records, cauchy_alpha1),
            "verify_uniform_q_alpha1000": suite.render_json(
                cauchy_alpha1000_records, cauchy_alpha1000),
            "verify_beta0": suite.render_json(undeformed_records, undeformed),
            "verify_alpha1": suite.render_json(degenerate_records, degenerate),
            "verify_no_bins": suite.render_json(no_bins_records, no_bins),
            "sweep_beta": suite.render_json(suite.run_sweep(sweep, "beta"),
                                            sweep),
            "sweep_sigma": suite.render_json(
                suite.run_sweep(smeared, "sigma"), smeared),
            "sweep_alpha": suite.render_json(
                suite.run_sweep(smeared, "alpha"), smeared)}


def test_reports_match_golden_bytes():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    reports = _reports()
    assert sorted(reports) == sorted(golden)
    for key, text in reports.items():
        for n, (got, want) in enumerate(zip(text.splitlines(),
                                            golden[key].splitlines()), 1):
            assert got == want, f"{key}, line {n}:\n got  {got}\n want {want}"
        assert text == golden[key], f"{key}: line counts differ"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_reports(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
