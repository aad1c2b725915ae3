"""Result containers, file round-trips and the command-line interface."""

import errno
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import tc2q
from tc2q import analytic, classical, cli, oracle, series
from tc2q.analytic import coherence_integral
from tc2q.model import Fock, ModelParams, Thermal
from tc2q.series import ConcurrenceSeries, read_series, write_table

P = ModelParams(omega=1.0, lambda_=0.1)


def make_series(n=3):
    t = np.linspace(0.0, 2.0, n)
    return ConcurrenceSeries(engine="analytic", t=t, omega_t=t,
                             concurrence=np.linspace(1.0, 0.5, n),
                             meta={"note": "fixture"})


def write_series(series, path, fmt):
    write_table(path, fmt, series.engine, series.columns(), series.meta)


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


class TestFileRoundTrips:
    def test_csv_is_header_plus_rows(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_series(make_series(3), path, "csv")
        lines = Path(path).read_text().split("\n")
        assert lines[0] == "t,omega_t,C"
        assert len(lines) == 5 and lines[4] == ""  # 3 rows + trailing newline

    def test_csv_round_trip_keeps_twelve_digits(self, tmp_path):
        path = str(tmp_path / "out.csv")
        src = make_series(7)
        write_series(src, path, "csv")
        back = read_series(path)
        np.testing.assert_allclose(back.concurrence, src.concurrence,
                                   rtol=1e-11)
        np.testing.assert_allclose(back.t, src.t, rtol=1e-11)
        assert back.meta["note"] == "fixture"  # via the sidecar

    def test_csv_sidecar_carries_the_echo(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_series(make_series(), path, "csv")
        sidecar = json.loads(Path(path + ".meta.json").read_text())
        assert sidecar["engine"] == "analytic"
        assert sidecar["meta"]["note"] == "fixture"
        assert "artifact_version" in sidecar

    def test_json_round_trip_is_lossless(self, tmp_path):
        src = make_series(5)
        # the content, not the suffix, marks a file as JSON
        for name in ("out.json", "out.dat"):
            path = str(tmp_path / name)
            write_series(src, path, "json")
            back = read_series(path)
            np.testing.assert_array_equal(back.concurrence, src.concurrence)
            assert back.engine == "analytic"
            assert back.meta["note"] == "fixture"

    def test_writes_are_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_series(make_series(), a, "csv")
        write_series(make_series(), b, "csv")
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_no_temp_residue_and_missing_dir_raises(self, tmp_path):
        path = str(tmp_path / "out.json")
        write_series(make_series(), path, "json")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]
        with pytest.raises(OSError):
            write_series(make_series(), str(tmp_path / "missing" / "x.json"), "json")

    def test_report_is_indented_json_with_trailing_newline(self, tmp_path):
        path = str(tmp_path / "report.json")
        write_table(path, "json", "x", {"x": np.array([1.0, 2.5])}, {"note": "fixture"},
                    summary={"passed": True})
        report = {"artifact_version": tc2q.__version__, "engine": "x", "passed": True,
                  "meta": {"note": "fixture"}, "columns": {"x": [1.0, 2.5]}}
        text = Path(path).read_text()
        assert text == json.dumps(report, indent=2) + "\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]

    def test_csv_text_matches_the_per_cell_formatter(self):
        def per_cell(columns):
            """The row-by-row formatter the column-wise one replaced."""
            def cell(value):
                return value if isinstance(value, str) else format(float(value), ".12g")
            names = list(columns)
            rows = len(next(iter(columns.values())))
            lines = [",".join(names)]
            lines += [",".join(cell(columns[name][i]) for name in names) for i in range(rows)]
            return "\n".join(lines) + "\n"

        values = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0 / 3.0, 2.0 / 3.0,
                           0.1, 123456789012.5, 1e-5, 7.0])
        columns = {"label": [f"spec({i})" for i in range(values.size)], "x": values,
                   "y": values[::-1].copy(), "index": np.arange(values.size)}
        assert series._csv_text(columns) == per_cell(columns)

    def test_failed_sidecar_leaves_no_table(self, tmp_path, capsys):
        # the sidecar path is a directory, so its rename fails after the
        # table is placed: the table must go again
        (tmp_path / "out.csv.meta.json").mkdir()
        cfg_path, _ = write_config(tmp_path)
        assert cli.main(["run", "--config", cfg_path]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["exit_code"] == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "out.csv.meta.json"]
        assert not any((tmp_path / "out.csv.meta.json").iterdir())

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_artifacts_follow_the_umask(self, tmp_path, fmt):
        path = tmp_path / f"out.{fmt}"
        old = os.umask(0o022)
        try:
            write_series(make_series(), str(path), fmt)
        finally:
            os.umask(old)
        written = [path] + ([tmp_path / "out.csv.meta.json"] if fmt == "csv" else [])
        assert [p.stat().st_mode & 0o777 for p in written] == [0o644] * len(written)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_series(make_series(), str(tmp_path / "x.xml"), "xml")


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

    def test_main_builds_its_parser_once(self, tmp_path, monkeypatch):
        # a parser built per call grew an in-process caller's memory call by call
        cfg_path, _ = write_config(tmp_path)
        assert cli.main(["run", "--config", cfg_path]) == 0
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
        assert cli.main(["run", "--config", cfg_path]) == 0

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
        # the m = +1 and m = -1 chains, diagonalised to round-off
        assert payload["meta"]["blocks"] == [85, 85]
        assert 0.0 <= payload["meta"]["eigen_residual"] < 1e-10

    def test_oracle_engine_models_nonzero_qubit_splitting(self, tmp_path):
        out = str(tmp_path / "o.json")
        params = {"omega": 1.0, "lambda": 0.1, "omega0": 0.3}
        cfg_path, _ = write_config(
            tmp_path, engine="oracle", params=params,
            time_grid={"t_start": 0.0, "t_end": 3.0, "n_points": 4},
            output={"path": out, "format": "json"})
        assert cli.main(["run", "--config", cfg_path, "--dim", "40"]) == 0
        payload = json.loads(Path(out).read_text())
        assert payload["meta"]["params"]["omega0"] == 0.3
        direct = oracle.oracle_concurrence_series(
            "psi_plus", Thermal(1.0), np.linspace(0.0, 3.0, 4),
            ModelParams(omega=1.0, lambda_=0.1, omega0=0.3), dim=40)
        assert payload["columns"]["C"] == direct.concurrence.tolist()

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
        assert report["meta"]["blocks"] == [report["dim"]] * 2
        assert 0.0 <= report["meta"]["eigen_residual"] < 1e-10

    def test_unattainable_tolerance_exits_three(self, tmp_path):
        out = str(tmp_path / "report.json")
        cfg_path, _ = write_config(
            tmp_path, engine="validate",
            time_grid={"t_start": 0.0, "t_end": 2.0 * math.pi, "n_points": 25},
            validate={"tolerance": 1e-18},
            output={"path": out, "format": "json"})
        assert cli.main(["validate", "--config", cfg_path]) == 3
        assert json.loads(Path(out).read_text())["passed"] is False

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
    ], ids=["not-an-object", "unknown-key"])
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


class TestEnvelope:
    SCENARIO = {"time_grid": {"t_start": 0.0, "t_end": 3.0, "n_points": 6}}
    NO_SCENARIO = {"qubit_init": None, "oscillator": None, "time_grid": None}

    @pytest.mark.parametrize("command, overrides, formats", [
        ("run", SCENARIO, ("csv", "json")),
        ("run", {**SCENARIO, "engine": "oracle"}, ("csv", "json")),
        ("run", {**SCENARIO, "engine": "classical",
                 "oscillator": {"kind": "classical_thermal", "k_T": 1.0},
                 "monte_carlo": {"samples": 50}}, ("csv", "json")),
        ("sweep-beta", {**NO_SCENARIO, "oscillators": [{"kind": "fock", "n": 1}],
                        "beta_grid": {"start": 0.0, "stop": 0.2, "n_points": 3}},
         ("csv", "json")),
        ("spectrum", {**NO_SCENARIO, "engine": "oracle", "oracle": {"dim": 12}},
         ("csv", "json")),
        ("validate", {**SCENARIO, "engine": "validate"}, ("json",)),
    ], ids=["run-analytic", "run-oracle", "run-classical", "sweep-beta", "spectrum",
            "validate"])
    def test_every_command_writes_one_envelope(self, tmp_path, command, overrides,
                                               formats):
        # no output section, so both formats echo the same config
        cfg_path, _ = write_config(tmp_path, output=None, **overrides)
        for fmt in formats:
            assert cli.main([command, "--config", cfg_path,
                             "--out", str(tmp_path / f"out.{fmt}")]) == 0
        payload = json.loads((tmp_path / "out.json").read_text())
        assert list(payload)[:2] == ["artifact_version", "engine"]
        assert list(payload)[-2:] == ["meta", "columns"]
        assert payload["meta"]["config"]["version"] == 1
        if "csv" in formats:
            columns = payload.pop("columns")
            sidecar = json.loads((tmp_path / "out.csv.meta.json").read_text())
            assert list(sidecar.items()) == list(payload.items())
            header = (tmp_path / "out.csv").read_text().splitlines()[0]
            assert header.split(",") == list(columns)


class TestCliErrors:
    def test_unknown_key_is_a_config_error(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, typo_key=1)
        assert cli.main(["run", "--config", cfg_path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "typo_key" in err["error"]
        assert err["exit_code"] == 2

    @pytest.mark.parametrize("engine", ["bogus", ["oracle"], None, "validate"])
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
        monkeypatch.setattr(oracle, "eigenblocks", self.refuse_allocation)
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

    @staticmethod
    def refuse_engine(*args, **kwargs):
        raise AssertionError("a job at omega0 != 0 got past the params check")

    @pytest.mark.parametrize("command, overrides", [
        ("run", {}),
        ("run", {"engine": "classical", "monte_carlo": {"samples": 50},
                 "oscillator": {"kind": "classical_thermal", "k_T": 1.0}}),
        ("validate", {"engine": "validate"}),
        ("sweep-beta", SWEEP),
        ("spectrum", {"engine": "oracle", "qubit_init": None, "oscillator": None,
                      "time_grid": None}),
    ], ids=["run-analytic", "run-classical", "validate", "sweep-beta", "spectrum"])
    def test_closed_form_jobs_need_the_degenerate_point(self, tmp_path, capsys,
                                                        monkeypatch, command, overrides):
        for module, name in ((oracle, "eigenblocks"),
                             (oracle, "oracle_concurrence_series"),
                             (analytic, "coherence_integral"),
                             (classical, "monte_carlo_classical_concurrence")):
            monkeypatch.setattr(module, name, self.refuse_engine)
        fmt = "json" if command in ("validate", "spectrum") else "csv"
        cfg_path, _ = write_config(
            tmp_path, params={"omega": 1.0, "lambda": 0.1, "omega0": 0.3},
            output={"path": str(tmp_path / f"out.{fmt}"), "format": fmt}, **overrides)
        assert cli.main([command, "--config", cfg_path]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "invalid params: omega0 must be 0 for the closed forms, got 0.3; "
                     "only the oracle engine models omega0 > 0",
            "exit_code": 2}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

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

    @pytest.mark.parametrize("command, overrides", [("run", {}), ("sweep-beta", SWEEP)],
                             ids=["run-analytic", "sweep-beta"])
    def test_huge_fock_level_exits_two_in_time(self, tmp_path, command, overrides):
        # the closed form of |n> is a recurrence of n steps, which at 10^30
        # would never return
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            os.path.dirname(os.path.dirname(tc2q.__file__)), os.environ.get("PYTHONPATH")])))
        cfg_path, _ = write_config(tmp_path, oscillator={"kind": "fock", "n": 10 ** 30},
                                   **overrides)
        done = subprocess.run([sys.executable, "-m", "tc2q.cli", command, "--config", cfg_path],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 2
        lines = done.stderr.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["exit_code"] == 2
        assert err["error"].endswith(f".n must be <= 10000, got {10 ** 30}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("level, code", [(10_000, 0), (10_001, 2)])
    def test_fock_level_bound(self, tmp_path, level, code):
        cfg_path, cfg = write_config(tmp_path, oscillator={"kind": "fock", "n": level},
                                     **self.SWEEP)
        assert cli.main(["sweep-beta", "--config", cfg_path]) == code
        assert os.path.exists(cfg["output"]["path"]) == (code == 0)

    @pytest.mark.parametrize("oscillator", [
        {"kind": "gaussian", "q_bar": 0.0, "p_bar": 0.0, "delta_q": 1.0, "delta_p": 1.0},
        {"kind": "classical_thermal", "k_T": 1.0},
    ], ids=["gaussian", "classical_thermal"])
    def test_oversized_monte_carlo_exits_two_before_sampling(self, tmp_path, capsys,
                                                             monkeypatch, oscillator):
        monkeypatch.setattr(np.random, "default_rng", self.refuse_allocation)
        cfg_path, cfg = write_config(tmp_path, engine="classical", oscillator=oscillator,
                                     monte_carlo={"samples": 10 ** 13})
        assert cli.main(["run", "--config", cfg_path]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["exit_code"] == 2 and "physical memory" in err["error"]
        assert "monte_carlo.samples = 10000000000000" in err["error"]
        assert not os.path.exists(cfg["output"]["path"])

    @pytest.mark.parametrize("spare", [0, -1], ids=["fits", "one-byte-short"])
    def test_monte_carlo_guard_is_the_engine_memory_model(self, tmp_path, capsys,
                                                          monkeypatch, spare):
        # physical memory exactly the model's count passes; one byte less is
        # exit 2, before any sample is drawn
        samples = 5000
        physical = classical.mc_peak_bytes(samples) + spare
        pages = {"SC_PHYS_PAGES": physical, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
        cfg_path, cfg = write_config(tmp_path, engine="classical",
                                     oscillator={"kind": "classical_thermal", "k_T": 1.0},
                                     monte_carlo={"samples": samples})
        if spare == 0:
            assert cli.main(["run", "--config", cfg_path]) == 0
            assert os.path.exists(cfg["output"]["path"])
            return
        monkeypatch.setattr(np.random, "default_rng", self.refuse_allocation)
        assert cli.main(["run", "--config", cfg_path]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["exit_code"] == 2 and "physical memory" in err["error"]
        assert f"monte_carlo.samples = {samples}" in err["error"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    JOBS = {
        "run": {},
        "sweep-beta": SWEEP,
        "validate": {"engine": "validate"},
        "spectrum": {"engine": "oracle", "qubit_init": None, "oscillator": None,
                     "time_grid": None},
    }

    @staticmethod
    def refuse_to_compute(*args, **kwargs):
        raise AssertionError("an engine ran although the output cannot be written")

    @pytest.mark.parametrize("path", ["", ".", "/", "/nonexistent/dir/x.csv"],
                             ids=["empty", "dot", "root", "missing-dir"])
    @pytest.mark.parametrize("command", list(JOBS))
    def test_unwritable_output_exits_two_before_any_engine(self, tmp_path, capsys,
                                                           monkeypatch, command, path):
        for module, name in ((oracle, "eigenblocks"), (oracle, "oracle_concurrence_series"),
                             (oracle, "spectrum"), (analytic, "coherence_integral"),
                             (Thermal, "coherence"), (cli, "write_table")):
            monkeypatch.setattr(module, name, self.refuse_to_compute)
        monkeypatch.chdir(tmp_path)
        fmt = "json" if command in ("validate", "spectrum") else "csv"
        cfg_path, _ = write_config(tmp_path, output={"path": path, "format": fmt},
                                   **self.JOBS[command])
        assert cli.main([command, "--config", cfg_path]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["exit_code"] == 2 and "output" in err["error"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("command", list(JOBS))
    def test_failed_write_exits_three_with_one_json_line(self, tmp_path, capsys,
                                                         monkeypatch, command):
        def full_disk(path, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

        monkeypatch.setattr(series, "_write_temp", full_disk)
        fmt = "json" if command in ("validate", "spectrum") else "csv"
        cfg_path, _ = write_config(tmp_path, output={"path": str(tmp_path / f"out.{fmt}"),
                                                     "format": fmt},
                                   **self.JOBS[command])
        assert cli.main([command, "--config", cfg_path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["exit_code"] == 3 and os.strerror(errno.ENOSPC) in err["error"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @staticmethod
    def traced_peak(monkeypatch, argv):
        """(peak traced bytes of ``cli.main(argv)``, the byte counts it checked)."""
        counted = []
        monkeypatch.setattr(cli, "_check_fits", lambda nbytes, what: counted.append(nbytes))
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, counted

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sample_guard_counts_the_monte_carlo_peak(self, tmp_path, monkeypatch, fmt):
        # many samples on a short grid, so the sampled ensemble sets the peak
        cfg_path, _ = write_config(
            tmp_path, engine="classical", oscillator={"kind": "classical_thermal", "k_T": 1.0},
            time_grid={"t_start": 0.0, "t_end": 3.0, "n_points": 4},
            monte_carlo={"samples": 20_000},
            output={"path": str(tmp_path / f"out.{fmt}"), "format": fmt})
        peak, counted = self.traced_peak(monkeypatch, ["run", "--config", cfg_path])
        assert peak <= sum(counted)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_guard_counts_the_written_rows(self, tmp_path, monkeypatch, fmt):
        oscillators = [{"kind": "thermal", "mean_n": 1.0}, {"kind": "fock", "n": 10},
                       {"kind": "coherent", "alpha0": [1.2, -0.7]},
                       {"kind": "thermal", "mean_n": 3.5}]
        cfg_path, _ = write_config(
            tmp_path, **{**self.SWEEP, "oscillator": None, "oscillators": oscillators,
                         "beta_grid": {"start": 0.0, "stop": 0.5, "n_points": 2000}},
            output={"path": str(tmp_path / f"sweep.{fmt}"), "format": fmt})
        peak, counted = self.traced_peak(monkeypatch, ["sweep-beta", "--config", cfg_path])
        assert peak <= max(counted)

    @pytest.mark.parametrize("command, overrides", [
        ("validate", {"engine": "validate", "validate": {"tolerance": math.inf}}),
        ("validate", {"engine": "validate", "validate": {"tolerance": math.nan}}),
        ("run", {"time_grid": {"t_start": 0.0, "t_end": math.inf, "n_points": 5}}),
        ("run", {"time_grid": {"t_start": 0.0, "t_end": "1e999", "n_points": 5}}),
        ("sweep-beta", {**SWEEP, "beta_grid": {"start": 0.0, "stop": math.nan,
                                               "n_points": 3}}),
    ], ids=["tolerance-Infinity", "tolerance-NaN", "t_end-Infinity", "t_end-1e999",
            "stop-NaN"])
    def test_non_finite_numbers_are_config_errors(self, tmp_path, capsys, command,
                                                  overrides):
        out = tmp_path / "out.json"
        cfg_path, _ = write_config(tmp_path, output={"path": str(out), "format": "json"},
                                   **overrides)
        # json.load reads NaN, Infinity and the overflowing literal 1e999 as floats
        cfg_file = Path(cfg_path)
        cfg_file.write_text(cfg_file.read_text().replace('"1e999"', "1e999"))
        assert cli.main([command, "--config", cfg_path]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["exit_code"] == 2 and "must be finite" in err["error"]
        assert not out.exists()

    @pytest.mark.parametrize("command, overrides, message", [
        ("run", {"engine": "oracle", "params": {"omega": 1e308, "lambda": 0.1}},
         "omega * t is not finite"),
        ("run", {"engine": "classical", "params": {"omega": 1e-320, "lambda": 0.1},
                 "oscillator": {"kind": "classical_thermal", "k_T": 1.0}},
         "beta = lambda/omega must be finite"),
        ("run", {"engine": "oracle", "params": {"omega": 1.0, "lambda": 1e308}},
         "no Fock truncation fits"),
        ("validate", {"engine": "validate", "params": {"omega": 1e308, "lambda": 0.1}},
         "omega * t is not finite"),
        ("spectrum", {"engine": "oracle", "params": {"omega": 1e308, "lambda": 0.1},
                      "qubit_init": None, "oscillator": None, "time_grid": None},
         "omega * dim is not finite"),
        ("spectrum", {"engine": "oracle", "params": {"omega": 1.0, "lambda": 1e308},
                      "qubit_init": None, "oscillator": None, "time_grid": None},
         "lambda * sqrt(dim) is not finite"),
        # omega t and omega dim are finite, but the oracle's phases E t are not
        ("run", {"engine": "oracle",
                 "time_grid": {"t_start": 0.0, "t_end": 1e308, "n_points": 20}},
         "omega * dim * t is not finite"),
        ("validate", {"engine": "validate",
                      "time_grid": {"t_start": -1e308, "t_end": 1.0, "n_points": 20}},
         "omega * dim * t is not finite"),
        # the closed form has a limit there, but the estimator's phases do not
        ("run", {"engine": "classical", "params": {"omega": 1.0, "lambda": 1e308},
                 "oscillator": {"kind": "gaussian", "q_bar": 0.0, "p_bar": 0.0,
                                "delta_q": 1.0, "delta_p": 1.0},
                 "time_grid": {"t_start": 0.0, "t_end": 6.0, "n_points": 7},
                 "monte_carlo": {"samples": 1000}},
         "8 beta sqrt(2 omega) is not finite"),
        ("run", {"engine": "classical", "params": {"omega": 1e-300, "lambda": 1e-10},
                 "oscillator": {"kind": "classical_thermal", "k_T": 1.0},
                 "time_grid": {"t_start": 0.0, "t_end": 6.0, "n_points": 7},
                 "monte_carlo": {"samples": 1000}},
         "4 beta sqrt(2/omega) is not finite"),
        # the coefficients are finite, but their products with the draws are not
        ("run", {"engine": "classical", "params": {"omega": 1.0, "lambda": 1e200},
                 "oscillator": {"kind": "gaussian", "q_bar": 0.0, "p_bar": 0.0,
                                "delta_q": 1e200, "delta_p": 1.0},
                 "time_grid": {"t_start": 0.0, "t_end": 6.0, "n_points": 7},
                 "monte_carlo": {"samples": 1000}},
         "the sampled phase a q0 + b p0 is not finite"),
        ("run", {"engine": "classical", "params": {"omega": 1.0, "lambda": 1e307},
                 "oscillator": {"kind": "gaussian", "q_bar": 1e300, "p_bar": 0.0,
                                "delta_q": 1.0, "delta_p": 1.0},
                 "time_grid": {"t_start": 0.0, "t_end": 6.0, "n_points": 7},
                 "monte_carlo": {"samples": 1000}},
         "the sampled phase a q0 + b p0 is not finite"),
    ], ids=["oracle-omega-1e308", "classical-omega-1e-320", "oracle-lambda-1e308",
            "validate-omega-1e308", "spectrum-omega-1e308", "spectrum-lambda-1e308",
            "oracle-t-1e308", "validate-t-minus-1e308", "classical-mc-lambda-1e308",
            "classical-mc-omega-1e-300", "classical-mc-delta-q-1e200",
            "classical-mc-q-bar-1e300"])
    def test_finite_extremes_are_config_errors(self, tmp_path, capsys, command, overrides,
                                               message):
        # finite parameters whose products with the grid or the truncation
        # overflow are refused before any engine runs, and a Monte Carlo
        # phase past the float range before it is evaluated, without a warning
        out = tmp_path / "out.json"
        cfg_path, _ = write_config(tmp_path, output={"path": str(out), "format": "json"},
                                   **overrides)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main([command, "--config", cfg_path]) == 2
        assert caught == []
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["exit_code"] == 2 and message in err["error"]
        assert not out.exists()

    @pytest.mark.parametrize("command, overrides, column, expected", [
        ("sweep-beta", {**SWEEP, "oscillator": None,
                        "oscillators": [{"kind": "thermal", "mean_n": 1e308}],
                        "beta_grid": {"start": 0.0, "stop": 0.5, "n_points": 5}},
         "C", [1.0, 0.0, 0.0, 0.0, 0.0]),
        ("run", {"engine": "classical", "params": {"omega": 1.0, "lambda": 1e200},
                 "oscillator": {"kind": "gaussian", "q_bar": 0.5, "p_bar": -0.3,
                                "delta_q": 1.0, "delta_p": 1.0},
                 "time_grid": {"t_start": 0.0, "t_end": 3.0, "n_points": 4}},
         "C", [1.0, 0.0, 0.0, 0.0]),
        ("run", {"engine": "classical", "params": {"omega": 1.0, "lambda": 1e200},
                 "oscillator": {"kind": "classical_thermal", "k_T": 1.0},
                 "time_grid": {"t_start": 0.0, "t_end": 3.0, "n_points": 4}},
         "C", [1.0, 0.0, 0.0, 0.0]),
        ("run", {"params": {"omega": 1.0, "lambda": 1e200},
                 "time_grid": {"t_start": 0.0, "t_end": 3.0, "n_points": 4}},
         "C", [1.0, 0.0, 0.0, 0.0]),
        # the thermal exponent overflows, and at t = 0 it is -inf * 0
        ("run", {"params": {"omega": 1.0, "lambda": 0.5},
                 "oscillator": {"kind": "thermal", "mean_n": 1e308},
                 "time_grid": {"t_start": 0.0, "t_end": 3.0, "n_points": 4}},
         "C", [1.0, 0.0, 0.0, 0.0]),
        # the Laguerre argument (8 beta s)^2 overflows, and L_n(inf) * 0 is no value
        ("run", {"params": {"omega": 1.0, "lambda": 1e200},
                 "oscillator": {"kind": "fock", "n": 2},
                 "time_grid": {"t_start": 0.0, "t_end": 3.0, "n_points": 4}},
         "C", [1.0, 0.0, 0.0, 0.0]),
        ("run", {"params": {"omega": 1.0, "lambda": 1e200},
                 "oscillator": {"kind": "fock", "n": 0},
                 "time_grid": {"t_start": 0.0, "t_end": 3.0, "n_points": 4}},
         "C", [1.0, 0.0, 0.0, 0.0]),
        # the argument is finite, but L_n of it overflows where e^{-x/2} is 0
        ("run", {"params": {"omega": 1.0, "lambda": 1e100},
                 "oscillator": {"kind": "fock", "n": 2},
                 "time_grid": {"t_start": 0.0, "t_end": 3.0, "n_points": 4}},
         "C", [1.0, 0.0, 0.0, 0.0]),
        ("run", {"params": {"omega": 1.0, "lambda": 1e10},
                 "oscillator": {"kind": "fock", "n": 400},
                 "time_grid": {"t_start": 0.0, "t_end": 3.0, "n_points": 4}},
         "C", [1.0, 0.0, 0.0, 0.0]),
        # a single trajectory draws no phase, so its estimate needs no finite one
        ("run", {"engine": "classical", "params": {"omega": 1.0, "lambda": 1e308},
                 "oscillator": {"kind": "delta", "q0": 0.5, "p0": -0.3},
                 "time_grid": {"t_start": 0.0, "t_end": 3.0, "n_points": 4},
                 "monte_carlo": {"samples": 10}},
         "C", [1.0, 1.0, 1.0, 1.0]),
    ], ids=["sweep-thermal-mean-n-1e308", "classical-gaussian-lambda-1e200",
            "classical-thermal-lambda-1e200", "analytic-lambda-1e200",
            "analytic-thermal-mean-n-1e308", "analytic-fock-2-lambda-1e200",
            "analytic-fock-0-lambda-1e200", "analytic-fock-2-lambda-1e100",
            "analytic-fock-400-lambda-1e10", "classical-mc-delta-lambda-1e308"])
    def test_exponents_that_overflow_give_their_limit(self, tmp_path, capsys, command,
                                                      overrides, column, expected):
        # exp(-inf) = 0 is the right value, so the job writes it, with no warning
        out = tmp_path / "out.json"
        cfg_path, _ = write_config(tmp_path, output={"path": str(out), "format": "json"},
                                   **overrides)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main([command, "--config", cfg_path]) == 0
        assert caught == [] and capsys.readouterr().err == ""
        assert json.loads(out.read_text())["columns"][column] == expected

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
        def out_of_memory(params, dim, population=None):
            raise MemoryError(f"cannot allocate the dim={dim} Hamiltonian blocks")

        monkeypatch.setattr(oracle, "eigenblocks", out_of_memory)
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


class TestJobPipeline:
    """``cli.main`` is the one place that writes, prints and sets the exit code."""

    GRID = {"t_start": 0.0, "t_end": 3.0, "n_points": 6}
    NO_SCENARIO = {"qubit_init": None, "oscillator": None, "time_grid": None}
    VALIDATE_LINE = ("max |C_analytic - C_oracle| = {max_abs_diff:.6g}, "
                     "max |I_analytic - I_oracle| = {max_abs_diff_coherence} "
                     "vs tolerance {tolerance:g}: ")

    # the numbers in the validate and spectrum lines are round-off, so they
    # are read back from the report, formatted as the line formats them
    @pytest.mark.parametrize("command, overrides, code, line", [
        ("run", {"output": {"path": "out.csv"}}, 0,
         "wrote 6 rows to out.csv (engine=analytic)"),
        ("run", {"engine": "oracle", "oscillator": {"kind": "coherent", "alpha0": 0.5},
                 "output": {"path": "out.json"}}, 0,
         "wrote 6 rows to out.json (engine=oracle)"),
        ("run", {"engine": "classical", "oscillator": {"kind": "classical_thermal",
                                                       "k_T": 1.0},
                 "output": {"path": "out"}}, 0,
         "wrote 6 rows to out (engine=classical)"),
        ("validate", {"engine": "validate", "output": {"path": "report.json"}}, 0,
         VALIDATE_LINE + "PASS (report.json)"),
        ("validate", {"engine": "validate", "validate": {"tolerance": 1e-18},
                      "output": {"path": "report"}}, 3,
         VALIDATE_LINE + "FAIL (report)"),
        ("sweep-beta", {**NO_SCENARIO, "oscillators": [{"kind": "fock", "n": 1},
                                                       {"kind": "thermal", "mean_n": 2.0}],
                        "beta_grid": {"start": 0.0, "stop": 0.2, "n_points": 3},
                        "output": {"path": "sweep.csv"}}, 0,
         "wrote 6 rows to sweep.csv (2 oscillator spec(s))"),
        ("spectrum", {**NO_SCENARIO, "engine": "oracle", "oracle": {"dim": 12},
                      "output": {"path": "spectrum"}}, 0,
         "lowest 8 levels: max |E - E_pred| = {max_abs_diff_checked:.6g} vs 1e-08: "
         "PASS (spectrum)"),
    ], ids=["run-analytic", "run-oracle", "run-classical", "validate-pass", "validate-fail",
            "sweep-beta", "spectrum"])
    def test_every_job_prints_its_one_line(self, tmp_path, capsys, monkeypatch, command,
                                           overrides, code, line):
        monkeypatch.chdir(tmp_path)
        cfg_path, cfg = write_config(tmp_path, **{"time_grid": self.GRID, **overrides})
        assert cli.main([command, "--config", cfg_path]) == code
        captured = capsys.readouterr()
        assert captured.err == ""
        out = cfg["output"]["path"]
        summary = json.loads(Path(out).read_text()) if "{" in line else {}
        assert captured.out == line.format(**summary) + "\n"

    def test_output_is_checked_before_the_other_sections(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, output=None,
                                   params={"omega": "fast", "lambda": 0.1})
        assert cli.main(["run", "--config", cfg_path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"].startswith("no output path: ")

        missing = tmp_path / "missing"
        cfg_path, _ = write_config(tmp_path, engine="oracle", oracle={"dim": 1},
                                   output={"path": str(missing / "s.json")},
                                   **self.NO_SCENARIO)
        assert cli.main(["spectrum", "--config", cfg_path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == (f"output directory {str(missing)!r} does not exist "
                                "or is not writable")

    # a separate interpreter, since pytest's filterwarnings = error would
    # turn the warning into an exception before the CLI could print it
    @pytest.mark.parametrize("command, overrides, flags", [
        ("run", {"engine": "oracle"}, ["--dim", "60"]),
        ("spectrum", {**NO_SCENARIO, "engine": "oracle"}, ["--dim", "60"]),
    ], ids=["run-oracle", "spectrum"])
    def test_overflow_inside_an_engine_exits_three(self, tmp_path, command, overrides,
                                                   flags):
        # lambda = 1e200 passes every scale check, but the oracle's residual
        # norm and the spectrum's beta^2 overflow
        cfg_path, _ = write_config(tmp_path, params={"omega": 1.0, "lambda": 1e200},
                                   output={"path": "out.json"},
                                   **{"time_grid": self.GRID, **overrides})
        done = run_cli(tmp_path, command, "--config", cfg_path, *flags)
        assert done.returncode == 3
        assert done.stdout == ""
        lines = done.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["exit_code"] == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def fresh_python(argv: list, **kwargs) -> subprocess.CompletedProcess:
    """``python argv`` in a fresh interpreter that imports this tc2q."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(tc2q.__file__).parents[1]), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, **kwargs)


def run_cli(cwd, *argv: str) -> subprocess.CompletedProcess:
    """``python -m tc2q.cli argv`` in ``cwd``."""
    return fresh_python(["-m", "tc2q.cli", *argv], cwd=cwd, timeout=120)


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """``python -c code args``, which must succeed."""
    return fresh_python(["-c", code, *args], check=True)


def test_package_import_loads_no_scipy():
    # scipy serves only the tests' reference routes; loading it would add to
    # the start-up of every CLI process
    code = ("import sys, tc2q, tc2q.cli; print(sorted(name for name in sys.modules "
            "if name.split('.')[0] == 'scipy'))")
    assert run_python(code).stdout.strip() == "[]"


def test_every_cli_job_runs_with_scipy_blocked(tmp_path):
    scenario = {"time_grid": {"t_start": 0.0, "t_end": 3.0, "n_points": 6}}
    no_scenario = {"qubit_init": None, "oscillator": None, "time_grid": None}
    jobs = [
        ("run", scenario),
        ("run", {**scenario, "engine": "oracle",
                 "oscillator": {"kind": "coherent", "alpha0": [1.0, 0.5]}}),
        ("run", {**scenario, "engine": "classical",
                 "oscillator": {"kind": "classical_thermal", "k_T": 1.0},
                 "monte_carlo": {"samples": 50}}),
        ("validate", {**scenario, "engine": "validate"}),
        ("sweep-beta", {**no_scenario, "oscillators": [{"kind": "fock", "n": 1}],
                        "beta_grid": {"start": 0.0, "stop": 0.2, "n_points": 3}}),
        ("spectrum", {**no_scenario, "engine": "oracle", "oracle": {"dim": 12}}),
    ]
    argvs = []
    for i, (command, overrides) in enumerate(jobs):
        out = {"path": str(tmp_path / f"out{i}.json"), "format": "json"}
        cfg_path, _ = write_config(tmp_path, name=f"cfg{i}.json", output=out, **overrides)
        argvs.append([command, "--config", cfg_path])
    # a None entry in sys.modules makes every import of scipy raise ImportError
    code = ("import json, sys; sys.modules['scipy'] = None; from tc2q import cli; "
            "print(json.dumps([cli.main(argv) for argv in json.loads(sys.argv[1])]))")
    done = run_python(code, json.dumps(argvs))
    assert json.loads(done.stdout.splitlines()[-1]) == [0] * len(jobs), done.stderr
    assert all((tmp_path / f"out{i}.json").exists() for i in range(len(jobs)))
