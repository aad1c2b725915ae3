"""Result containers, file round-trips and the command-line interface."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tc2q
from tc2q import analytic, cli, oracle
from tc2q.analytic import coherence_integral
from tc2q.model import Fock, ModelParams, Thermal
from tc2q.series import (
    BetaSweep,
    ConcurrenceSeries,
    read_series,
    write_report,
    write_table,
)

P = ModelParams(omega=1.0, lambda_=0.1)


def make_series(n=3):
    t = np.linspace(0.0, 2.0, n)
    return ConcurrenceSeries(engine="analytic", t=t, omega_t=t,
                             concurrence=np.linspace(1.0, 0.5, n),
                             meta={"note": "fixture"})


class TestSeriesValidation:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            ConcurrenceSeries(engine="x", t=np.arange(3.0),
                              omega_t=np.arange(3.0),
                              concurrence=np.ones(4))

    def test_rejects_non_increasing_time(self):
        t = np.array([0.0, 2.0, 1.0])
        with pytest.raises(ValueError, match="increasing"):
            ConcurrenceSeries(engine="x", t=t, omega_t=t,
                              concurrence=np.ones(3))

    def test_rejects_out_of_range_concurrence(self):
        t = np.arange(3.0)
        with pytest.raises(ValueError, match="0, 1"):
            ConcurrenceSeries(engine="x", t=t, omega_t=t,
                              concurrence=np.array([0.0, 0.5, 1.5]))

    def test_rejects_non_finite_values(self):
        t = np.arange(3.0)
        with pytest.raises(ValueError, match="finite"):
            ConcurrenceSeries(engine="x", t=t, omega_t=t,
                              concurrence=np.array([0.0, math.nan, 1.0]))

    def test_optional_columns_must_align(self):
        t = np.arange(3.0)
        with pytest.raises(ValueError):
            ConcurrenceSeries(engine="x", t=t, omega_t=t,
                              concurrence=np.ones(3), u=np.zeros(5))

    def test_column_order(self):
        series = ConcurrenceSeries(engine="x", t=np.arange(2.0),
                                   omega_t=np.arange(2.0),
                                   concurrence=np.ones(2),
                                   leakage=np.zeros(2), u=np.zeros(2))
        assert list(series.columns()) == ["t", "omega_t", "C", "u", "leakage"]

    def test_rejects_empty_grid(self):
        empty = np.array([])
        with pytest.raises(ValueError, match="non-empty"):
            ConcurrenceSeries(engine="x", t=empty, omega_t=empty,
                              concurrence=empty)

    def test_sweep_validation(self):
        with pytest.raises(ValueError):
            BetaSweep(labels=["a"], beta=np.array([0.1, 0.2]),
                      concurrence=np.array([0.5, 0.6]))


class TestFileRoundTrips:
    def test_csv_is_header_plus_rows(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_table(make_series(3), path, "csv")
        lines = Path(path).read_text().split("\n")
        assert lines[0] == "t,omega_t,C"
        assert len(lines) == 5 and lines[4] == ""  # 3 rows + trailing newline

    def test_csv_round_trip_keeps_twelve_digits(self, tmp_path):
        path = str(tmp_path / "out.csv")
        src = make_series(7)
        write_table(src, path, "csv")
        back = read_series(path)
        np.testing.assert_allclose(back.concurrence, src.concurrence,
                                   rtol=1e-11)
        np.testing.assert_allclose(back.t, src.t, rtol=1e-11)
        assert back.meta["note"] == "fixture"  # via the sidecar

    def test_csv_sidecar_carries_the_echo(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_table(make_series(), path, "csv")
        sidecar = json.loads(Path(path + ".meta.json").read_text())
        assert sidecar["engine"] == "analytic"
        assert sidecar["meta"]["note"] == "fixture"
        assert "artifact_version" in sidecar

    def test_json_round_trip_is_lossless(self, tmp_path):
        src = make_series(5)
        # the content, not the suffix, marks a file as JSON
        for name in ("out.json", "out.dat"):
            path = str(tmp_path / name)
            write_table(src, path, "json")
            back = read_series(path)
            np.testing.assert_array_equal(back.concurrence, src.concurrence)
            assert back.engine == "analytic"
            assert back.meta["note"] == "fixture"

    def test_writes_are_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_table(make_series(), a, "csv")
        write_table(make_series(), b, "csv")
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_no_temp_residue_and_missing_dir_raises(self, tmp_path):
        path = str(tmp_path / "out.json")
        write_table(make_series(), path, "json")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]
        with pytest.raises(OSError):
            write_table(make_series(), str(tmp_path / "missing" / "x.json"),
                        "json")

    def test_report_is_indented_json_with_trailing_newline(self, tmp_path):
        path = str(tmp_path / "report.json")
        report = {"passed": True, "columns": {"x": [1.0, 2.5]}}
        write_report(path, report)
        text = Path(path).read_text()
        assert text == json.dumps(report, indent=2) + "\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_table(make_series(), str(tmp_path / "x.xml"), "xml")


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "version": 1,
        "engine": "analytic",
        "qubit_init": "psi_plus",
        "params": {"omega": 1.0, "lambda": 0.1},
        "oscillator": {"kind": "thermal", "mean_n": 1.0},
        "time_grid": {"t_start": 0.0, "t_end": 4.0 * math.pi, "n_points": 20},
        "output": {"path": str(tmp_path / "out.csv"), "format": "csv"},
    }
    cfg.update(overrides)
    cfg = {k: v for k, v in cfg.items() if v is not None}
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path), cfg


class TestCliRun:
    def test_analytic_series_matches_the_closed_form(self, tmp_path):
        cfg_path, cfg = write_config(tmp_path)
        assert cli.main(["run", "--config", cfg_path]) == 0
        series = read_series(cfg["output"]["path"])
        t = np.linspace(0.0, 4.0 * math.pi, 20)
        np.testing.assert_allclose(series.concurrence,
                                   np.abs(coherence_integral(Thermal(1.0), t, P)),
                                   rtol=1e-10, atol=1e-12)

    def test_stationary_preparation_emits_constant_series(self, tmp_path):
        cfg_path, cfg = write_config(tmp_path, qubit_init="psi_minus")
        assert cli.main(["run", "--config", cfg_path]) == 0
        series = read_series(cfg["output"]["path"])
        np.testing.assert_array_equal(series.concurrence, 1.0)
        assert series.u is None

    def test_oracle_engine_respects_dim_override(self, tmp_path):
        out = str(tmp_path / "o.json")
        cfg_path, _ = write_config(
            tmp_path, engine="oracle",
            time_grid={"t_start": 0.0, "t_end": 3.0, "n_points": 4},
            output={"path": out, "format": "json"})
        assert cli.main(["run", "--config", cfg_path, "--dim", "85"]) == 0
        payload = json.loads(Path(out).read_text())
        assert payload["meta"]["dim"] == 85
        assert payload["meta"]["config"]["engine"] == "oracle"

    def test_runs_are_byte_identical(self, tmp_path):
        cfg_path, cfg = write_config(tmp_path)
        out = cfg["output"]["path"]
        assert cli.main(["run", "--config", cfg_path]) == 0
        first = Path(out).read_bytes()
        assert cli.main(["run", "--config", cfg_path]) == 0
        assert Path(out).read_bytes() == first

    def test_classical_closed_form_run(self, tmp_path):
        cfg_path, cfg = write_config(
            tmp_path, engine="classical",
            oscillator={"kind": "gaussian", "q_bar": 0.0, "p_bar": 0.0,
                        "delta_q": 1.0, "delta_p": 1.0})
        assert cli.main(["run", "--config", cfg_path]) == 0
        series = read_series(cfg["output"]["path"])
        assert series.concurrence[0] == 1.0
        assert series.std_error is None

    def test_classical_monte_carlo_seed_override(self, tmp_path):
        out_a, out_b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        common = dict(
            engine="classical",
            oscillator={"kind": "classical_thermal", "k_T": 1.0},
            time_grid={"t_start": 0.0, "t_end": 3.0, "n_points": 4})
        cfg_a, _ = write_config(tmp_path, name="a.json",
                                monte_carlo={"samples": 400, "seed": 3},
                                output={"path": out_a, "format": "csv"},
                                **common)
        cfg_b, _ = write_config(tmp_path, name="b.json",
                                monte_carlo={"samples": 400, "seed": 42},
                                output={"path": out_b, "format": "csv"},
                                **common)
        assert cli.main(["run", "--config", cfg_a, "--seed", "42"]) == 0
        assert cli.main(["run", "--config", cfg_b]) == 0
        a = Path(out_a).read_text().splitlines()
        b = Path(out_b).read_text().splitlines()
        assert a[0] == "t,omega_t,C,std_error"
        assert a[1:] == b[1:]  # same samples, therefore identical numbers

    def test_format_follows_the_path_suffix(self, tmp_path):
        out = str(tmp_path / "out.json")
        cfg_path, _ = write_config(tmp_path, output={"path": out})
        assert cli.main(["run", "--config", cfg_path]) == 0
        assert read_series(out).t.size == 20
        assert cli.main(["run", "--config", cfg_path, "--format", "csv"]) == 0
        assert Path(out).read_text().startswith("t,omega_t,C")

    def test_module_entry_point(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            os.path.dirname(os.path.dirname(tc2q.__file__)), os.environ.get("PYTHONPATH")])))
        good, cfg = write_config(tmp_path)
        bad, _ = write_config(tmp_path, name="bad.json", engine="bogus")
        codes = [subprocess.run([sys.executable, "-m", "tc2q.cli", "run", "--config", path],
                                capture_output=True, env=env, timeout=120).returncode
                 for path in (good, bad)]
        assert codes == [0, 2]
        assert read_series(cfg["output"]["path"]).t.size == 20


class TestCliValidate:
    def test_passes_at_default_tolerance(self, tmp_path):
        out = str(tmp_path / "report.json")
        cfg_path, _ = write_config(
            tmp_path, engine="validate",
            time_grid={"t_start": 0.0, "t_end": 2.0 * math.pi, "n_points": 25},
            validate={"tolerance": 1e-6},
            output={"path": out, "format": "json"})
        assert cli.main(["validate", "--config", cfg_path]) == 0
        report = json.loads(Path(out).read_text())
        assert report["passed"] is True
        assert report["max_abs_diff"] <= 1e-6
        assert report["max_abs_diff_coherence"] <= 1e-6
        assert len(report["columns"]["abs_diff"]) == 25

    def test_unattainable_tolerance_exits_three(self, tmp_path):
        out = str(tmp_path / "report.json")
        cfg_path, _ = write_config(
            tmp_path, engine="validate",
            time_grid={"t_start": 0.0, "t_end": 2.0 * math.pi, "n_points": 25},
            validate={"tolerance": 1e-18},
            output={"path": out, "format": "json"})
        assert cli.main(["validate", "--config", cfg_path]) == 3
        assert json.loads(Path(out).read_text())["passed"] is False

    def test_run_command_accepts_validate_engine(self, tmp_path):
        out = str(tmp_path / "report.json")
        cfg_path, _ = write_config(
            tmp_path, engine="validate",
            time_grid={"t_start": 0.0, "t_end": 3.0, "n_points": 10},
            output={"path": out, "format": "json"})
        assert cli.main(["run", "--config", cfg_path]) == 0

    def test_csv_report_is_a_config_error(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, engine="validate")
        assert cli.main(["validate", "--config", cfg_path,
                         "--format", "csv"]) == 2
        out = str(tmp_path / "v.csv")  # a .csv suffix asks for CSV too
        cfg_path, _ = write_config(tmp_path, engine="validate", output={"path": out})
        assert cli.main(["validate", "--config", cfg_path]) == 2
        assert not os.path.exists(out)

    @pytest.mark.parametrize("qubit_init, code", [
        ("psi_plus", 3), ("phi_plus", 3), ("psi_minus", 0)])
    def test_conjugated_coherence_fails(self, tmp_path, monkeypatch, qubit_init, code):
        # |I| is unchanged, so only the comparison of I = u + iv can see it;
        # the stationary kinds have no I to compare
        exact = analytic.coherence_integral
        monkeypatch.setattr(analytic, "coherence_integral",
                            lambda *args: np.conj(exact(*args)))
        out = str(tmp_path / "report.json")
        cfg_path, _ = write_config(
            tmp_path, engine="validate", qubit_init=qubit_init, output={"path": out},
            oscillator={"kind": "coherent", "alpha0": [1.2, -0.7]})
        assert cli.main(["validate", "--config", cfg_path]) == code
        report = json.loads(Path(out).read_text())
        assert report["max_abs_diff"] <= 1e-6
        diff = report["max_abs_diff_coherence"]
        assert diff > 1e-6 if code else diff is None


class TestCliSweep:
    def test_rows_and_node_value(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        cfg_path, _ = write_config(
            tmp_path, engine="analytic", qubit_init=None, params=None,
            oscillator=None, time_grid=None,
            oscillators=[{"kind": "fock", "n": 1},
                         {"kind": "thermal", "mean_n": 1.0}],
            beta_grid={"start": 0.0, "stop": 0.25, "n_points": 5},
            output={"path": out, "format": "csv"})
        assert cli.main(["sweep-beta", "--config", cfg_path]) == 0
        lines = Path(out).read_text().strip().splitlines()
        assert lines[0] == "spec,beta,C"
        assert len(lines) == 11
        # beta = 1/8 is the node of the one-photon preparation
        node = [ln for ln in lines if ln.startswith("fock(n=1),0.125")]
        assert node and node[0].endswith(",0")
        value = abs(Fock(1).coherence(math.pi, 0.125))
        assert value == 0.0

    def test_single_oscillator_key_is_accepted(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        cfg_path, cfg = write_config(
            tmp_path, engine="analytic", qubit_init=None, params=None,
            time_grid=None,
            oscillator={"kind": "coherent", "alpha0": 0.0},
            beta_grid={"start": 0.05, "stop": 0.3, "n_points": 6},
            output={"path": out, "format": "csv"})
        assert cli.main(["sweep-beta", "--config", cfg_path]) == 0
        assert len(Path(out).read_text().strip().splitlines()) == 7
        with open(cfg_path, "w") as handle:  # but not both forms at once
            json.dump({**cfg, "oscillators": [{"kind": "fock", "n": 1}]}, handle)
        assert cli.main(["sweep-beta", "--config", cfg_path]) == 2

    def test_requires_analytic_engine(self, tmp_path):
        cfg_path, _ = write_config(
            tmp_path, engine="oracle", qubit_init=None, params=None,
            time_grid=None,
            beta_grid={"start": 0.0, "stop": 0.2, "n_points": 3})
        assert cli.main(["sweep-beta", "--config", cfg_path]) == 2

    def test_rejects_out_of_range_grid(self, tmp_path):
        cfg_path, _ = write_config(
            tmp_path, engine="analytic", qubit_init=None, params=None,
            time_grid=None,
            beta_grid={"start": 0.0, "stop": 0.7, "n_points": 3})
        assert cli.main(["sweep-beta", "--config", cfg_path]) == 2

    @pytest.mark.parametrize("params", [
        "nonsense",
        {"omega": -1, "bogus": 3},
        {"omega": 1.0, "lambda": 0.1, "omega0": 0.5},  # the sweep is the omega0 = 0 law
    ], ids=["not-an-object", "unknown-key", "nonzero-omega0"])
    def test_params_are_checked(self, tmp_path, params):
        out = str(tmp_path / "sweep.csv")
        cfg_path, _ = write_config(
            tmp_path, engine="analytic", qubit_init=None, time_grid=None,
            params=params, beta_grid={"start": 0.0, "stop": 0.2, "n_points": 3},
            output={"path": out, "format": "csv"})
        assert cli.main(["sweep-beta", "--config", cfg_path]) == 2
        assert not os.path.exists(out)


class TestCliSpectrum:
    def test_passes_and_reports(self, tmp_path):
        out = str(tmp_path / "spec.json")
        cfg_path, _ = write_config(
            tmp_path, engine="oracle", qubit_init=None, oscillator=None,
            time_grid=None, oracle={"dim": 40},
            output={"path": out, "format": "json"})
        assert cli.main(["spectrum", "--config", cfg_path]) == 0
        report = json.loads(Path(out).read_text())
        assert report["passed"] is True
        assert report["checked_levels"] == 26
        assert len(report["columns"]["computed"]) == 160

    def test_csv_table_output(self, tmp_path):
        out = str(tmp_path / "spec.csv")
        cfg_path, _ = write_config(
            tmp_path, engine="oracle", qubit_init=None, oscillator=None,
            time_grid=None,
            output={"path": out, "format": "csv"})
        assert cli.main(["spectrum", "--config", cfg_path, "--dim", "30"]) == 0
        lines = Path(out).read_text().strip().splitlines()
        assert lines[0] == "index,computed,predicted,abs_diff"
        assert len(lines) == 121

    def test_default_dim_is_sixty(self, tmp_path):
        out = str(tmp_path / "spec.json")
        cfg_path, _ = write_config(
            tmp_path, engine="oracle", qubit_init=None, oscillator=None,
            time_grid=None, output={"path": out, "format": "json"})
        assert cli.main(["spectrum", "--config", cfg_path]) == 0
        report = json.loads(Path(out).read_text())
        assert report["dim"] == 60
        assert len(report["columns"]["computed"]) == 240

    def test_unknown_oracle_key_is_a_config_error(self, tmp_path, capsys):
        cfg_path, _ = write_config(
            tmp_path, engine="oracle", qubit_init=None, oscillator=None,
            time_grid=None, oracle={"dim": 40, "dimm": 50})
        assert cli.main(["spectrum", "--config", cfg_path, "--dim", "30"]) == 2
        assert "dimm" in json.loads(capsys.readouterr().err)["error"]

    def test_needs_degenerate_point(self, tmp_path):
        cfg_path, _ = write_config(
            tmp_path, engine="oracle", qubit_init=None, oscillator=None,
            time_grid=None, params={"omega": 1.0, "lambda": 0.1, "omega0": 0.5})
        assert cli.main(["spectrum", "--config", cfg_path]) == 2


class TestCliErrors:
    def test_unknown_key_is_a_config_error(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, typo_key=1)
        assert cli.main(["run", "--config", cfg_path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "typo_key" in err["error"]
        assert err["exit_code"] == 2

    @pytest.mark.parametrize("engine", ["bogus", ["oracle"], None])
    def test_unknown_engine_is_a_config_error(self, tmp_path, engine):
        cfg_path, _ = write_config(tmp_path, engine=engine)
        assert cli.main(["run", "--config", cfg_path]) == 2

    def test_wrong_schema_version(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, version=2)
        assert cli.main(["run", "--config", cfg_path]) == 2

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["run", "--config", str(path)]) == 2

    def test_classical_engine_rejects_stationary_bell_kinds(self, tmp_path):
        cfg_path, _ = write_config(
            tmp_path, engine="classical", qubit_init="psi_minus",
            oscillator={"kind": "delta", "q0": 0.0, "p0": 0.0})
        assert cli.main(["run", "--config", cfg_path]) == 2

    def test_engine_oscillator_kind_mismatch(self, tmp_path):
        cfg_path, _ = write_config(
            tmp_path, oscillator={"kind": "delta", "q0": 0.0, "p0": 0.0})
        assert cli.main(["run", "--config", cfg_path]) == 2
        cfg_path, _ = write_config(
            tmp_path, engine="classical",
            oscillator={"kind": "thermal", "mean_n": 1.0})
        assert cli.main(["run", "--config", cfg_path]) == 2

    def test_seed_without_monte_carlo_section(self, tmp_path):
        cfg_path, _ = write_config(
            tmp_path, engine="classical",
            oscillator={"kind": "delta", "q0": 1.0, "p0": 0.0})
        assert cli.main(["run", "--config", cfg_path, "--seed", "5"]) == 2

    @pytest.mark.parametrize("alpha0", [[True, "2"], ["1", "2"], [None, 1]],
                             ids=["bool-and-string", "numeric-strings", "null"])
    def test_amplitude_pair_must_hold_numbers(self, tmp_path, capsys, alpha0):
        cfg_path, cfg = write_config(
            tmp_path, oscillator={"kind": "coherent", "alpha0": alpha0})
        assert cli.main(["run", "--config", cfg_path]) == 2
        assert "alpha0" in json.loads(capsys.readouterr().err)["error"]
        assert not os.path.exists(cfg["output"]["path"])

    def test_amplitude_pair_matches_the_complex_value(self, tmp_path):
        outs = []
        for name, alpha0 in (("pair", [1, -0.5]), ("scalar", 1)):
            out = str(tmp_path / f"{name}.json")
            cfg_path, _ = write_config(
                tmp_path, name=f"{name}.cfg.json",
                oscillator={"kind": "coherent", "alpha0": alpha0},
                output={"path": out, "format": "json"})
            assert cli.main(["run", "--config", cfg_path]) == 0
            outs.append(json.loads(Path(out).read_text())["meta"]["oscillator"])
        assert outs == ["coherent(alpha0=1-0.5j)", "coherent(alpha0=1+0j)"]

    SWEEP = {"qubit_init": None, "time_grid": None,
             "beta_grid": {"start": 0.0, "stop": 0.2, "n_points": 3}}

    @pytest.mark.parametrize("command, overrides, flag", [
        ("run", {}, "--seed"),
        ("run", {"engine": "oracle"}, "--seed"),
        ("run", {"engine": "classical", "monte_carlo": {"samples": 10},
                 "oscillator": {"kind": "delta", "q0": 0.0, "p0": 1.0}}, "--dim"),
        ("validate", {"engine": "validate"}, "--seed"),
        ("sweep-beta", SWEEP, "--dim"),
        ("sweep-beta", SWEEP, "--seed"),
        ("spectrum", {"engine": "oracle", "qubit_init": None, "oscillator": None,
                      "time_grid": None}, "--seed"),
    ])
    def test_overrides_apply_only_to_their_jobs(self, tmp_path, command, overrides, flag):
        fmt = "json" if command in ("validate", "spectrum") else "csv"
        cfg_path, cfg = write_config(
            tmp_path, output={"path": str(tmp_path / f"out.{fmt}"), "format": fmt},
            **overrides)
        assert cli.main([command, "--config", cfg_path]) == 0
        os.remove(cfg["output"]["path"])
        assert cli.main([command, "--config", cfg_path, flag, "30"]) == 2
        assert not os.path.exists(cfg["output"]["path"])

    @staticmethod
    def refuse_allocation(*args, **kwargs):
        raise AssertionError("an oversized job got past the memory check")

    @pytest.mark.parametrize("command, overrides", [
        ("run", {"engine": "oracle"}),
        ("validate", {"engine": "validate"}),
        ("spectrum", {"engine": "oracle", "qubit_init": None, "oscillator": None,
                      "time_grid": None}),
    ], ids=["run", "validate", "spectrum"])
    def test_oversized_dim_exits_two_before_allocating(self, tmp_path, capsys, monkeypatch,
                                                       command, overrides):
        monkeypatch.setattr(oracle, "build_hamiltonian", self.refuse_allocation)
        out = str(tmp_path / "out.json")
        cfg_path, _ = write_config(tmp_path, output={"path": out, "format": "json"},
                                   **overrides)
        assert cli.main([command, "--config", cfg_path, "--dim", "1000000"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["exit_code"] == 2 and "physical memory" in err["error"]
        assert "dim = 1000000" in err["error"]
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command, overrides", [
        ("run", {"time_grid": {"t_start": 0.0, "t_end": 1.0, "n_points": 10 ** 15}}),
        ("sweep-beta", {**SWEEP, "beta_grid": {"start": 0.0, "stop": 0.2,
                                               "n_points": 10 ** 15}}),
    ], ids=["time_grid", "beta_grid"])
    def test_oversized_grid_exits_two_before_allocating(self, tmp_path, capsys, monkeypatch,
                                                        command, overrides):
        monkeypatch.setattr(np, "linspace", self.refuse_allocation)
        cfg_path, cfg = write_config(tmp_path, **overrides)
        assert cli.main([command, "--config", cfg_path]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["exit_code"] == 2 and "physical memory" in err["error"]
        assert "n_points = 1000000000000000" in err["error"]
        assert not os.path.exists(cfg["output"]["path"])

    def test_grid_guard_counts_the_oracle_series_peak(self, monkeypatch):
        # a long grid at a small dim, so the per-point arrays set the peak
        counted = []
        monkeypatch.setattr(cli, "_check_fits", lambda nbytes, what: counted.append(nbytes))
        cfg = {"time_grid": {"t_start": 0.0, "t_end": 10.0, "n_points": 4000}}
        times = cli._parse_grid(cfg, "time_grid", "t_start", "t_end")
        tracemalloc.start()
        try:
            oracle.oracle_concurrence_series("psi_plus", Fock(0), times,
                                             ModelParams(omega=1.0, lambda_=0.01), dim=8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= counted[0]

    def test_sections_the_job_never_reads_are_config_errors(self, tmp_path, capsys):
        sections = {"monte_carlo": {"samples": 10}, "oracle": {"dim": 40},
                    "validate": {"tolerance": 1e-6},
                    "beta_grid": {"start": 0.0, "stop": 0.2, "n_points": 3}}
        cfg_path, _ = write_config(tmp_path, **sections)
        assert cli.main(["run", "--config", cfg_path]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert all(f"'{name}'" in error for name in sections)

    def test_dim_override_on_analytic_engine(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        assert cli.main(["run", "--config", cfg_path, "--dim", "50"]) == 2

    def test_truncation_failure_exits_three(self, tmp_path, capsys):
        cfg_path, _ = write_config(
            tmp_path, engine="oracle",
            oscillator={"kind": "coherent", "alpha0": 2.0})
        assert cli.main(["run", "--config", cfg_path, "--dim", "10"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["exit_code"] == 3

    def test_allocation_failure_exits_three(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(params, dim):
            raise MemoryError(f"cannot allocate the dim={dim} Hamiltonian")

        monkeypatch.setattr(oracle, "build_hamiltonian", out_of_memory)
        cfg_path, cfg = write_config(tmp_path, engine="oracle")
        assert cli.main(["run", "--config", cfg_path]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["exit_code"] == 3 and "allocate" in err["error"]
        assert not os.path.exists(cfg["output"]["path"])

    def test_missing_output_path(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, output=None)
        assert cli.main(["run", "--config", cfg_path]) == 2

    def test_bad_time_grid(self, tmp_path):
        cfg_path, _ = write_config(
            tmp_path, time_grid={"t_start": 2.0, "t_end": 1.0, "n_points": 5})
        assert cli.main(["run", "--config", cfg_path]) == 2

    def test_degenerate_grid_leaves_no_file(self, tmp_path):
        cfg_path, cfg = write_config(
            tmp_path, time_grid={"t_start": 0.0, "t_end": 1.0, "n_points": 1})
        assert cli.main(["run", "--config", cfg_path]) == 2
        assert not os.path.exists(cfg["output"]["path"])
