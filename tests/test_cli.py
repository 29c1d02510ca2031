import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import gupcert as g
from gupcert import relations
from gupcert.cli import main
from gupcert.suite import RunConfig, load_config, render_csv, render_json


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    cfg = {
        "beta_grid": [1.0],
        "sigma_grid": [0.8],
        "alpha_grid": [2.0],
        "states": [{"name": "truncated_gaussian_q", "shape_args": [0.25]}],
        "output_path": str(tmp_path_factory.mktemp("out") / "report.json"),
        "format": "json",
    }
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestVerify:
    def test_exit_zero_and_deterministic(self, small_config, tmp_path):
        path, cfg = small_config
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["verify", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["verify", "--config", str(path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_schema(self, small_config, tmp_path):
        path, _ = small_config
        out = tmp_path / "r.json"
        main(["verify", "--config", str(path), "--out", str(out)])
        payload = json.loads(out.read_text())
        records = payload["records"]
        assert records
        for rec in records:
            assert rec["verdict"] in ("pass", "fail", "not_applicable")
            assert "margin" in rec and "digest" in rec
        digests = [r["digest"] for r in records]
        assert digests == sorted(digests)

    def test_failure_injection_exit_one(self, small_config, tmp_path,
                                        monkeypatch):
        # every Shannon row reads LN_E_PI when it is evaluated, so raising
        # the bound by one nat plants a violation
        path, _ = small_config
        monkeypatch.setattr(relations, "LN_E_PI", relations.LN_E_PI + 1.0)
        out = tmp_path / "fail.json"
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 1
        payload = json.loads(out.read_text())
        assert any(r["verdict"] == "fail" for r in payload["records"])

    def test_planted_shift_of_the_bound_fails(self, tmp_path, monkeypatch):
        # the Gaussian state saturates H(Q) + H(X) >= ln(e pi) to 1e-15: a
        # shift of the bound by twice the base tolerance must fail the
        # default run, which it does only if est_error stays far below 1e-8
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(relations, "LN_E_PI", relations.LN_E_PI + 2e-8)
        assert main(["verify", "--out", str(tmp_path / "r.json")]) == 1

    def test_records_carry_tolerance_and_reasons(self, tmp_path):
        # the Cauchy K density has no variance: its moment rows are not
        # applicable, and say why
        path = tmp_path / "cauchy.json"
        path.write_text(json.dumps({"beta_grid": [1.0], "sigma_grid": [1.0],
                                    "alpha_grid": [2.0],
                                    "states": [{"name": "uniform_q"}]}))
        out = tmp_path / "r.json"
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 0
        records = json.loads(out.read_text())["records"]
        for rec in records:
            assert rec["tolerance"] == relations.BASE_TOLERANCE \
                + 4.0 * rec["est_error"]
            assert ("reason" in rec) == (rec["verdict"] == "not_applicable")
        reasons = {r["relation_id"]: r["reason"] for r in records
                   if r["verdict"] == "not_applicable"}
        assert set(reasons) == {"correction_jensen", "robertson_product"}
        assert all("diverges (tail exponent 2)" in text
                   for text in reasons.values())

    def test_missing_config_exit_two(self):
        assert main(["verify", "--config", "/nonexistent/conf.json"]) == 2

    @pytest.mark.parametrize("text", [
        '{"beta_grid": []}',
        '{"beta_grid": 0.5}',
        '{"sigma_grid": ["a"]}',
        '{"alpha_grid": [1.5, 1e400]}',
        '{"states": [{"name": "nope"}]}',
        '{"states": [{"shape_args": [6]}]}',
        '{"states": [{"name": "random_fourier_q", "shape_args": [6]}]}',
        '{"beta_grid": [0.0], "states": [{"name": "truncated_gaussian_q"}]}',
        '{"states": [{"name": "truncated_gaussian_q", "shape_args": "x"}]}',
        '{"states": [{"name": "random_fourier_q", "seed": -1}]}',
        '{"bins": {"delta_min": 3, "delta_max": 1}}',
        '{"bins": {"seed": "x"}}',
        '{"tolerances": {"default": "a"}}',
        '{"tolerances": {"default": 1.0}}',
        '{"output_path": 5}',
        '{"margin_offset": 10.0}',
        '{"states": [{"name": "random_fourier_q", "shape_arg": [3], '
        '"seed": 1}]}',
        '{"bins": {"delta_mim": 0.5}}',
        '{"bins": {"seed": 1.7}}',
        '{"bins": {"seed": true}}',
        '{"states": [{"name": "random_fourier_q", "seed": true}]}',
        '{"states": [{"name": "random_fourier_q", "shape_args": [4], '
        '"seed": 1}, {"name": "random_fourier_q", "shape_args": [8], '
        '"seed": 1}]}',
        '{"sigma_grid": [1.0, 1]}',
        '{"states": [{"name": "random_fourier_q", "shape_args": [6.7], '
        '"seed": 11}]}',
        '{"states": [{"name": "truncated_gaussian_q", "shape_args": [0.25, 9]}]}',
        '{"states": [{"name": "uniform_q", "shape_args": [1]}]}',
        '{"states": [{"name": "raised_cosine_q", "shape_args": [0.5]}]}',
        '{"validate": 1}',
        '{"binning": [0.1, 1, 2]}',
        '{"beta_grid": [-1.0]}',
        '{"sigma_grid": [0.0]}',
        '{"alpha_grid": [0.5]}',
        '{"states": []}',
        '{"format": "xml"}',
        '[1, 2]',
        '{"beta_grid": [1' + '0' * 400 + ']}',
        '{"states": [{"name": "truncated_gaussian_q", "shape_args": [1'
        + '0' * 400 + ']}]}',
    ], ids=["empty_grid", "scalar_grid", "text_in_grid", "infinite_alpha",
            "unknown_state", "unnamed_state", "unseeded_state",
            "widthless_state_beta0", "text_shape_args", "negative_seed",
            "inverted_bins", "text_bins_seed", "text_tolerance",
            "tolerance_override", "numeric_output_path", "margin_offset",
            "unknown_state_key", "unknown_bins_key", "fractional_bins_seed",
            "bool_bins_seed", "bool_state_seed",
            "repeated_state", "repeated_sigma", "fractional_modes",
            "extra_width", "flat_state_args", "cosine_state_args",
            "method_key", "property_key", "negative_beta", "zero_sigma",
            "alpha_below_one", "no_states", "unknown_format", "json_array",
            "huge_int_beta", "huge_int_shape_arg"])
    def test_invalid_config_exit_two(self, tmp_path, capsys, monkeypatch,
                                     text):
        monkeypatch.chdir(tmp_path)  # a report, if any, lands here
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["verify", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_flat_state_skipped_at_beta_zero(self, tmp_path):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"beta_grid": [0.0, 1.0],
                                    "alpha_grid": [2.0],
                                    "states": [{"name": "uniform_q"}]}))
        out = tmp_path / "r.json"
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 0
        records = json.loads(out.read_text())["records"]
        assert {r["beta"] for r in records if r["state"] == "uniform_q"} == {1}

    def test_unknown_key_exit_two(self, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps({"frobnicate": 1}))
        assert main(["verify", "--config", str(path)]) == 2

    @pytest.mark.parametrize("sigma", ["1e-9", "1e12"])
    def test_unresolvable_sigma_exit_two(self, tmp_path, capsys, sigma):
        # either width would take a smear lattice of terabytes
        assert main(["verify", "--sigma", sigma,
                     "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: smear lattice") and "Traceback" not in err

    def test_csv_schema(self, small_config, tmp_path):
        path, _ = small_config
        out = tmp_path / "r.csv"
        assert main(["verify", "--config", str(path), "--out", str(out),
                     "--format", "csv"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("relation_id,state,beta,sigma,alpha,gamma,"
                            "delta_k,delta_x,lhs,rhs,margin,est_error,verdict")
        assert len(lines) > 5


@pytest.mark.parametrize("command", [
    ["verify"],
    ["sweep", "--param", "beta"],
    ["show-state", "--name", "truncated_gaussian_q", "--beta", "1.0",
     "--shape-args", "0.25"],
], ids=["verify", "sweep", "show-state"])
def test_unwritable_out_exit_two(small_config, tmp_path, capsys, command):
    config = [] if command[0] == "show-state" else ["--config",
                                                     str(small_config[0])]
    out = tmp_path / "missing" / "r.json"
    assert main(command + config + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["verify"],
    ["sweep", "--param", "beta"],
    ["show-state", "--name", "truncated_gaussian_q", "--beta", "1.0",
     "--shape-args", "0.25"],
])
def test_unwritable_out_fails_before_any_cell(small_config, tmp_path, capsys,
                                              monkeypatch, command):
    from gupcert import cli

    def no_run(*args, **kwargs):
        raise AssertionError("ran a cell for an unwritable report")

    monkeypatch.setattr(cli, "run_verify", no_run)
    monkeypatch.setattr(cli, "run_sweep", no_run)
    monkeypatch.setattr(cli, "show_state", no_run)
    config = [] if command[0] == "show-state" else ["--config",
                                                     str(small_config[0])]
    out = tmp_path / "missing" / "r.json"
    assert main(command + config + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write")
    assert main(command + config + ["--out", str(tmp_path)]) == 2  # a folder


def test_unseeded_state_fails_before_any_cell(tmp_path, capsys, monkeypatch):
    # the seedless random_fourier_q is rejected with the config, not after
    # the raised_cosine_q cells have run
    from gupcert import suite

    def no_bundle(*args, **kwargs):
        raise AssertionError("ran a cell of an invalid config")

    monkeypatch.setattr(suite, "bundle", no_bundle)
    path = tmp_path / "seedless.json"
    path.write_text(json.dumps({"states": [
        {"name": "raised_cosine_q"},
        {"name": "random_fourier_q", "shape_args": [6]}]}))
    assert main(["verify", "--config", str(path),
                 "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "needs a seed" in err


def test_unresolvable_cell_names_itself(tmp_path, capsys):
    # in a run of many cells the message must say which one failed
    path = tmp_path / "tails.json"
    path.write_text(json.dumps({"states": [{"name": "uniform_q"}],
                                "beta_grid": [0.001], "sigma_grid": [10]}))
    assert main(["verify", "--config", str(path),
                 "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: smeared tail bookkeeping")
    assert "Traceback" not in err
    assert all(tag in err for tag in ("state=uniform_q", "beta=0.001",
                                      "sigma=10"))


def test_verify_does_not_import_scipy_signal():
    # smearing convolves through scipy.fft; scipy.signal costs most of a
    # second to import
    code = ("import sys\n"
            "from gupcert import suite\n"
            "config = suite.RunConfig(beta_grid=[1.0], sigma_grid=[1.0], "
            "alpha_grid=[2.0], states=[{'name': 'raised_cosine_q'}])\n"
            "suite.run_verify(config)\n"
            "print('scipy.signal' in sys.modules)\n")
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


class TestSweep:
    def test_sigma_sweep_sf_nonincreasing(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "beta_grid": [1.0],
            "sigma_grid": [0.3, 1.0, 3.0, 10.0],
            "alpha_grid": [2.0],
            "states": [{"name": "truncated_gaussian_q", "shape_args": [0.25]}],
        }))
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--param", "sigma", "--config", str(cfg),
                     "--out", str(out)]) == 0
        recs = json.loads(out.read_text())["records"]
        sf_rows = sorted((r for r in recs if r["relation_id"] == "sf_upper_unit"),
                         key=lambda r: r["sigma"])
        values = [r["rhs"] for r in sf_rows]  # rhs column carries S_f
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert any(r["relation_id"] == "sf_gaussian_bound" for r in recs)

    def test_beta_sweep_constant_correction(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "beta_grid": [0.5, 2.0],
            "sigma_grid": [1.0],
            "alpha_grid": [2.0],
            "states": [{"name": "uniform_q"}],
        }))
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--param", "beta", "--config", str(cfg),
                     "--out", str(out)]) == 0
        recs = json.loads(out.read_text())["records"]
        corr = [r["lhs"] for r in recs if r["relation_id"] == "correction_term"]
        assert len(corr) == 2
        for value in corr:
            assert value == pytest.approx(2 * math.log(2.0), abs=1e-6)

    def test_unbuildable_state_exit_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "beta_grid": [1.0],
            "states": [{"name": "truncated_gaussian_q"}],  # no width
        }))
        assert main(["sweep", "--param", "beta", "--config", str(cfg),
                     "--out", str(tmp_path / "sweep.json")]) == 2

    def test_bad_param_exit_two(self, small_config):
        path, _ = small_config
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--param", "nonsense", "--config", str(path)])
        assert exc.value.code == 2


class TestShowState:
    def test_cauchy_column(self, tmp_path):
        out = tmp_path / "state.json"
        assert main(["show-state", "--name", "uniform_q", "--beta", "1.0",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        k, u = np.array(payload["tables"]["k"]).T
        assert np.max(np.abs(u - 1.0 / (math.pi * (1.0 + k * k)))) < 1e-10
        for key, total in payload["normalization"].items():
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_beta_zero_u_equals_v(self, tmp_path):
        out = tmp_path / "state.json"
        assert main(["show-state", "--name", "truncated_gaussian_q",
                     "--beta", "0.0", "--shape-args", "1.0",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["tables"]["q"] == payload["tables"]["k"]

    def test_beta_zero_writes_strict_json(self, tmp_path):
        # RFC 8259 has no Infinity: q0 = inf at beta = 0 is written "inf"
        def no_constant(name):
            raise ValueError(f"non-standard JSON constant {name}")

        out = tmp_path / "state.json"
        assert main(["show-state", "--name", "truncated_gaussian_q",
                     "--beta", "0.0", "--shape-args", "1.0",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text(), parse_constant=no_constant)
        assert payload["q0"] == "inf"

    def test_writes_to_stdout(self, tmp_path, capsys):
        out = tmp_path / "state.json"
        args = ["show-state", "--name", "raised_cosine_q", "--beta", "1.0"]
        assert main(args) == 0
        text = capsys.readouterr().out
        assert main(args + ["--out", str(out)]) == 0
        assert text == out.read_text()
        assert json.loads(text)["state"] == "raised_cosine_q"

    def test_unknown_state_exit_two(self):
        assert main(["show-state", "--name", "bogus", "--beta", "1.0"]) == 2

    @pytest.mark.parametrize("args", [
        ["--name", "bogus", "--beta", "1.0"],
        ["--name", "random_fourier_q", "--beta", "1.0", "--shape-args", "6"],
        ["--name", "uniform_q", "--beta", "0.0"],
        ["--name", "random_fourier_q", "--beta", "1.0", "--seed", "-1"],
        ["--name", "truncated_gaussian_q", "--beta", "1.0",
         "--shape-args", "inf"],
    ], ids=["unknown", "unseeded", "box_at_beta_zero", "negative_seed",
            "infinite_width"])
    def test_unbuildable_state_is_a_config_error(self, args, capsys):
        assert main(["show-state"] + args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: state ") and "Traceback" not in err


class TestSerialization:
    def test_float_format_17g(self):
        rec = {"relation_id": "x", "state": "s", "beta": 0.1, "sigma": None,
               "alpha": None, "gamma": None, "delta_k": None, "delta_x": None,
               "lhs": 1.0 / 3.0, "rhs": 0.0, "margin": 1.0 / 3.0,
               "est_error": 0.0, "verdict": "pass", "tolerance": 1e-8,
               "digest": "d"}
        text = render_json([rec])
        assert "0.33333333333333331" in text
        assert '"sigma": null' in text
        csv_text = render_csv([rec])
        assert "0.33333333333333331" in csv_text

    def test_config_roundtrip(self, tmp_path):
        cfg = RunConfig()
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"beta_grid": [0.5], "format": "csv"}))
        loaded = load_config(str(path))
        assert loaded.beta_grid == [0.5]
        assert loaded.format == "csv"
        assert loaded.alpha_grid == cfg.alpha_grid
