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

which rewrites the file and prints, for each report whose bytes change, its
changed rows and the largest |delta margin| and |delta est_error| among
them, so that a regeneration states how far it moved the reports.

The file was recorded under OpenBLAS's default threads, and the test
passes only there.  OpenBLAS splits a long dot product over its threads,
so with OPENBLAS_NUM_THREADS=1 the last bits of a few long sums differ and
the test fails first at `verify_uniform_q` line 9, on `est_error` (and the
`tolerance` derived from it).
"""

import csv
import io
import json
import math
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


def test_moves_name_each_changed_row():
    # what a regeneration prints of one report: a line per moved row, named
    # by its fields, and the largest moves
    text = json.loads(GOLDEN.read_text(encoding="utf-8"))["verify"]
    report = json.loads(text)
    row = report["records"][1]
    name = ";".join(str(row[f]) for f in _ROW_NAME)
    est_error = row["est_error"]
    row.update(margin=row["margin"] + 2e-12, est_error=2.0 * est_error,
               verdict="fail")
    assert _moves(text, text) == ["  largest |delta margin| 0, "
                                  "|delta est_error| 0"]
    assert _moves(text, json.dumps(report)) == [
        f"  {name}: |delta margin| 2e-12, |delta est_error| {est_error:.3g}, "
        "verdict pass -> fail",
        f"  largest |delta margin| 2e-12, |delta est_error| {est_error:.3g}"]


# the fields that name a row; a row keeps its name when its values move
_ROW_NAME = ("relation_id", "state", "beta", "sigma", "alpha", "gamma",
             "delta_k", "delta_x")


def _rows(text: str) -> dict:
    """The records of a rendered JSON or CSV report, keyed by their names."""
    if text.startswith("{"):
        records = json.loads(text)["records"]
    else:
        records = list(csv.DictReader(io.StringIO(text)))
    return {";".join(str(r[f]) for f in _ROW_NAME): r for r in records}


def _delta(old, new) -> float:
    """|new - old| of two rendered numbers (null and "" read as NaN)."""
    a, b = (math.nan if v in (None, "") else float(v) for v in (old, new))
    return 0.0 if a == b else abs(b - a)


def _moves(old: str, new: str) -> list[str]:
    """One line per row of a report that changed between two renderings,
    then the largest |delta margin| and |delta est_error| among them."""
    before, after = _rows(old), _rows(new)
    lines, d_margin, d_error = [], 0.0, 0.0
    for name in sorted(before.keys() | after.keys()):
        a, b = before.get(name), after.get(name)
        if a == b:
            continue
        if a is None or b is None:
            lines.append(f"  {'added' if a is None else 'removed'}: {name}")
            continue
        dm = _delta(a["margin"], b["margin"])
        de = _delta(a["est_error"], b["est_error"])
        d_margin, d_error = max(d_margin, dm), max(d_error, de)
        verdict = ("" if a["verdict"] == b["verdict"]
                   else f", verdict {a['verdict']} -> {b['verdict']}")
        lines.append(f"  {name}: |delta margin| {dm:.3g}, "
                     f"|delta est_error| {de:.3g}{verdict}")
    lines.append(f"  largest |delta margin| {d_margin:.3g}, "
                 f"|delta est_error| {d_error:.3g}")
    return lines


if __name__ == "__main__":
    old = (json.loads(GOLDEN.read_text(encoding="utf-8"))
           if GOLDEN.is_file() else {})
    reports = _reports()
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    for key in sorted(reports.keys() | old.keys()):
        if key not in reports or key not in old:
            print(f"{key}: {'new' if key in reports else 'dropped'} report")
        elif reports[key] != old[key]:
            print(f"{key}: changed")
            print("\n".join(_moves(old[key], reports[key])))
    unchanged = sum(old.get(key) == text for key, text in reports.items())
    print(f"{unchanged} of {len(reports)} reports unchanged")
