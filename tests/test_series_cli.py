"""Result containers, file round-trips and the command-line interface."""

import collections
import contextlib
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import tc2q
from reference import two_route_tolerance
from tc2q import analytic, classical, cli, oracle, series
from tc2q.analytic import coherence_integral
from tc2q.model import COHERENCE_KINDS, Fock, ModelParams, Thermal
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

    def test_failed_temp_write_removes_its_file(self, tmp_path):
        # a lone surrogate has no UTF-8 encoding, so the write itself fails
        with pytest.raises(UnicodeEncodeError):
            series._write_temp(str(tmp_path / "x.csv"), "t\ud800")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_series(make_series(), str(tmp_path / "x.xml"), "xml")


def job_config(output_path: str, **overrides) -> dict:
    """An analytic thermal run writing CSV to ``output_path``, with ``overrides``
    (a None value drops the key)."""
    cfg = {
        "version": 1,
        "engine": "analytic",
        "qubit_init": "psi_plus",
        "params": {"omega": 1.0, "lambda": 0.1},
        "oscillator": {"kind": "thermal", "mean_n": 1.0},
        "time_grid": {"t_start": 0.0, "t_end": 4.0 * math.pi, "n_points": 20},
        "output": {"path": output_path, "format": "csv"},
    }
    cfg.update(overrides)
    return {k: v for k, v in cfg.items() if v is not None}


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = job_config(str(tmp_path / "out.csv"), **overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path), cfg


#: what a CLI call did: exit code, stdout, stderr, warnings, and the files
#: and directories left in its working directory
CliCall = collections.namedtuple("CliCall", "code stdout stderr warnings files")


def files_in(directory) -> list:
    """Every path under ``directory``, relative to it, sorted."""
    return sorted(os.path.relpath(os.path.join(root, name), directory)
                  for root, dirs, names in os.walk(directory) for name in dirs + names)


def fresh_python(argv: list, **kwargs) -> subprocess.CompletedProcess:
    """``python argv`` in a fresh interpreter that imports this tc2q."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(tc2q.__file__).parents[1]), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, **kwargs)


def run_cli(cwd, *argv: str, timeout: float = 120) -> CliCall:
    """``python -m tc2q.cli argv`` in ``cwd``, within ``timeout`` seconds; a
    warning there is a stderr line."""
    done = fresh_python(["-m", "tc2q.cli", *argv], cwd=cwd, timeout=timeout)
    return CliCall(done.returncode, done.stdout, done.stderr, [], files_in(cwd))


def call_cli(cwd, *argv: str) -> CliCall:
    """``cli.main(argv)`` in the directory ``cwd``, every warning recorded."""
    stdout, stderr = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = cli.main(list(argv))
    finally:
        os.chdir(here)
    return CliCall(code, stdout.getvalue(), stderr.getvalue(), caught, files_in(cwd))


def check_error(call: CliCall, code: int, message=None) -> None:
    """The CLI's error contract: exit ``code``, nothing on stdout, exactly one
    stderr line ``{"error": message, "exit_code": code}``, no warning, and no
    file left but ``cfg.json``.  A compiled ``message`` must match the whole
    error; None takes any."""
    assert (call.code, call.stdout, call.warnings, call.files) == (code, "", [], ["cfg.json"])
    lines = call.stderr.splitlines()
    assert len(lines) == 1, lines
    error = json.loads(lines[0])
    assert list(error) == ["error", "exit_code"] and error["exit_code"] == code
    if isinstance(message, re.Pattern):
        assert message.fullmatch(error["error"]), error["error"]
    elif message is not None:
        assert error["error"] == message


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """``python -c code args``, which must succeed."""
    return fresh_python(["-c", code, *args], check=True)


#: write_config's overrides of a job that reads no scenario, of a sweep-beta
#: and of a spectrum job
NO_SCENARIO = {"qubit_init": None, "oscillator": None, "time_grid": None}
SWEEP = {**NO_SCENARIO, "oscillators": [{"kind": "thermal", "mean_n": 1.0}],
         "beta_grid": {"start": 0.0, "stop": 0.2, "n_points": 3}}
SPECTRUM = {**NO_SCENARIO, "engine": "oracle"}


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

    def test_oracle_engine_reads_oracle_dim(self, tmp_path):
        out = str(tmp_path / "o.json")
        cfg_path, _ = write_config(
            tmp_path, engine="oracle", oracle={"dim": 85},
            time_grid={"t_start": 0.0, "t_end": 3.0, "n_points": 4},
            output={"path": out, "format": "json"})
        assert cli.main(["run", "--config", cfg_path]) == 0
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
            tmp_path, engine="oracle", params=params, oracle={"dim": 40},
            time_grid={"t_start": 0.0, "t_end": 3.0, "n_points": 4},
            output={"path": out, "format": "json"})
        assert cli.main(["run", "--config", cfg_path]) == 0
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

    def test_monte_carlo_bytes_do_not_depend_on_the_blas_threads(self, tmp_path, monkeypatch):
        # the estimator's sums stay out of BLAS, which splits a long one by
        # its thread count: one seeded job in two fresh interpreters, on one
        # BLAS thread and on two, writes the same bits.  JSON holds every
        # bit, where a CSV's 12 digits hide a last-bit change of std_error
        artifacts = []
        for threads in ("1", "2"):
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                monkeypatch.setenv(name, threads)
            cwd = tmp_path / f"threads-{threads}"
            cwd.mkdir()
            write_config(cwd, engine="classical",
                         oscillator={"kind": "gaussian", "q_bar": 0.5, "p_bar": -0.3,
                                     "delta_q": 1.0, "delta_p": 1.0},
                         time_grid={"t_start": 0.0, "t_end": 12.5, "n_points": 101},
                         monte_carlo={"samples": 20000, "seed": 7},
                         output={"path": "mc.json"})
            done = run_cli(cwd, "run", "--config", "cfg.json")
            assert (done.code, done.stderr) == (0, "")
            artifacts.append((cwd / "mc.json").read_bytes())
        assert artifacts[0] == artifacts[1]

    def test_classical_closed_form_run(self, tmp_path):
        cfg_path, cfg = write_config(
            tmp_path, engine="classical",
            oscillator={"kind": "gaussian", "q_bar": 0.0, "p_bar": 0.0,
                        "delta_q": 1.0, "delta_p": 1.0})
        assert cli.main(["run", "--config", cfg_path]) == 0
        series = read_series(cfg["output"]["path"])
        assert series.concurrence[0] == 1.0
        assert series.std_error is None

    @pytest.mark.parametrize("command, overrides", [
        ("run", {}),
        ("run", {"engine": "classical", "oscillator": {"kind": "classical_thermal", "k_T": 1.0},
                 "monte_carlo": {"samples": 400, "seed": 42}}),
        ("run", {"engine": "oracle", "oracle": {"dim": 40}}),
        ("run", {"engine": "oracle"}),
        ("validate", {"engine": "validate"}),
        ("sweep-beta", {**NO_SCENARIO, "oscillators": [{"kind": "fock", "n": 1}],
                        "beta_grid": {"start": 0.0, "stop": 0.2, "n_points": 3}}),
        ("spectrum", {**SPECTRUM, "oracle": {"dim": 12}}),
    ], ids=["analytic", "monte-carlo", "oracle-dim", "oracle-rule", "validate", "sweep-beta",
            "spectrum"])
    def test_the_echo_and_dim_re_run_the_job(self, tmp_path, command, overrides):
        # the echo is the config the run used: re-run from it alone, with no
        # flag, it writes the same bytes; a rule-chosen dim is a function of it
        out = tmp_path / "out.json"
        cfg_path, _ = write_config(
            tmp_path, output={"path": str(out)},
            **{"time_grid": {"t_start": 0.0, "t_end": 3.0, "n_points": 4}, **overrides})
        assert cli.main([command, "--config", cfg_path]) == 0
        first = out.read_bytes()
        (tmp_path / "echo.json").write_text(json.dumps(json.loads(first)["meta"]["config"]))
        out.unlink()
        assert cli.main([command, "--config", str(tmp_path / "echo.json")]) == 0
        assert out.read_bytes() == first

    def test_format_follows_the_path_suffix(self, tmp_path):
        out = str(tmp_path / "out.json")
        cfg_path, _ = write_config(tmp_path, output={"path": out})
        assert cli.main(["run", "--config", cfg_path]) == 0
        assert read_series(out).t.size == 20
        # output.format, where given, wins over the suffix
        cfg_path, _ = write_config(tmp_path, output={"path": out, "format": "csv"})
        assert cli.main(["run", "--config", cfg_path]) == 0
        assert Path(out).read_text().startswith("t,omega_t,C")

    def test_module_entry_point(self, tmp_path):
        write_config(tmp_path, engine="bogus")
        check_error(run_cli(tmp_path, "run", "--config", "cfg.json"), 2, "run needs "
                    "config.engine in ('analytic', 'oracle', 'classical'), got 'bogus'")
        _, cfg = write_config(tmp_path)
        assert run_cli(tmp_path, "run", "--config", "cfg.json").code == 0
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
            time_grid=None, oracle={"dim": 30},
            output={"path": out, "format": "csv"})
        assert cli.main(["spectrum", "--config", cfg_path]) == 0
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


class TestEnvelope:
    SCENARIO = {"time_grid": {"t_start": 0.0, "t_end": 3.0, "n_points": 6}}

    @pytest.mark.parametrize("command, overrides, formats", [
        ("run", SCENARIO, ("csv", "json")),
        ("run", {**SCENARIO, "engine": "oracle"}, ("csv", "json")),
        ("run", {**SCENARIO, "engine": "classical",
                 "oscillator": {"kind": "classical_thermal", "k_T": 1.0},
                 "monte_carlo": {"samples": 50}}, ("csv", "json")),
        ("sweep-beta", {**NO_SCENARIO, "oscillators": [{"kind": "fock", "n": 1}],
                        "beta_grid": {"start": 0.0, "stop": 0.2, "n_points": 3}},
         ("csv", "json")),
        ("spectrum", {**SPECTRUM, "oracle": {"dim": 12}},
         ("csv", "json")),
        ("validate", {**SCENARIO, "engine": "validate"}, ("json",)),
    ], ids=["run-analytic", "run-oracle", "run-classical", "sweep-beta", "spectrum",
            "validate"])
    def test_every_command_writes_one_envelope(self, tmp_path, command, overrides,
                                               formats):
        for fmt in formats:
            cfg_path, _ = write_config(tmp_path, name=f"cfg.{fmt}.json",
                                       output={"path": str(tmp_path / f"out.{fmt}")},
                                       **overrides)
            assert cli.main([command, "--config", cfg_path]) == 0
        payload = json.loads((tmp_path / "out.json").read_text())
        assert list(payload)[:2] == ["artifact_version", "engine"]
        assert list(payload)[-2:] == ["meta", "columns"]
        assert payload["meta"]["config"]["version"] == 1
        if "csv" in formats:
            columns = payload.pop("columns")
            sidecar = json.loads((tmp_path / "out.csv.meta.json").read_text())
            # the two configs differ only in output.path
            payload["meta"]["config"]["output"]["path"] = str(tmp_path / "out.csv")
            assert list(sidecar.items()) == list(payload.items())
            header = (tmp_path / "out.csv").read_text().splitlines()[0]
            assert header.split(",") == list(columns)


#: the command and write_config's overrides of each job, by id
JOB_KINDS = {
    "run-analytic": ("run", {}),
    "run-oracle": ("run", {"engine": "oracle"}),
    "run-classical": ("run", {"engine": "classical", "monte_carlo": {"samples": 10},
                              "oscillator": {"kind": "delta", "q0": 0.0, "p0": 1.0}}),
    "validate": ("validate", {"engine": "validate"}),
    "sweep-beta": ("sweep-beta", SWEEP),
    "spectrum": ("spectrum", SPECTRUM),
}
JOBS = {job: JOB_KINDS[job] for job in ("run-analytic", "sweep-beta", "validate", "spectrum")}
CLASSICAL_THERMAL = {"engine": "classical", "monte_carlo": {"samples": 50},
                     "oscillator": {"kind": "classical_thermal", "k_T": 1.0}}
GAUSSIAN = {"kind": "gaussian", "q_bar": 0.0, "p_bar": 0.0, "delta_q": 1.0, "delta_p": 1.0}
SHORT_GRID = {"t_start": 0.0, "t_end": 6.0, "n_points": 7}
ALLOWED_IN_RUN = ("allowed: ['engine', 'oscillator', 'output', 'params', 'qubit_init', "
                  "'time_grid', 'version']")
#: a config file that is not write_config's, as its text
NOT_AN_OBJECT = "[1, 2]"
MALFORMED = "{not json"
LONG_INTEGER = json.dumps(job_config("out.json")).replace('"omega": 1.0',
                                                          '"omega": 1' + "0" * 5000)
OVERFLOWING_LITERAL = json.dumps(job_config(
    "out.json", time_grid={"t_start": 0.0, "t_end": "1e999", "n_points": 5})).replace(
        '"1e999"', "1e999")
NULL_MONTE_CARLO = json.dumps({**job_config("out.json", **CLASSICAL_THERMAL),
                               "monte_carlo": None})

#: every config and command-line error, by id: (the command, run as
#: ``command --config cfg.json``, or the whole command line as a list;
#: write_config's overrides or the config file's text; the error message).
#: The output is out.json in the working directory unless a row says
#: otherwise, and the machine has 8 GiB of physical memory
CONFIG_ERRORS = {
    # the command line: argparse's usage lines and SystemExit would break
    # the one-JSON-line contract
    "no-config": (["run"], CLASSICAL_THERMAL, "the following arguments are required: --config"),
    "config-without-path": (["run", "--config"], CLASSICAL_THERMAL,
                            "argument --config: expected one argument"),
    **{f"flag-{name}": (["run", "--config", "cfg.json", *flag], CLASSICAL_THERMAL,
                        f"unrecognized arguments: {' '.join(flag)}")
       for name, flag in (("seed", ["--seed", "7"]), ("format", ["--format", "csv"]),
                          ("dim-abc", ["--dim", "abc"]), ("dim-60", ["--dim", "60"]),
                          ("out-empty", ["--out", ""]), ("out-path", ["--out", "x.csv"]))},
    "no-command": (["--config", "cfg.json"], CLASSICAL_THERMAL,
                   re.compile(r"argument command: invalid choice: 'cfg\.json' .*")),
    "unknown-command": (["bogus", "--config", "cfg.json"], CLASSICAL_THERMAL,
                        re.compile(r"argument command: invalid choice: 'bogus' .*")),
    "empty-command-line": ([], CLASSICAL_THERMAL,
                           "the following arguments are required: command"),
    # the config is the whole job: any flag but --config is an unknown
    # argument on every job
    **{f"{flag[2:]}-on-{job}": ([command, "--config", "cfg.json", flag, "30"], overrides,
                                f"unrecognized arguments: {flag} 30")
       for flag in ("--seed", "--format", "--dim", "--out")
       for job, (command, overrides) in JOB_KINDS.items()},
    # the config file, its schema version and the job
    "missing-config": (["run", "--config", "nope.json"], {},
                       "cannot read config nope.json: [Errno 2] No such file or directory: "
                       "'nope.json'"),
    "malformed-json": ("run", MALFORMED, "config cfg.json is not valid JSON: Expecting property "
                       "name enclosed in double quotes: line 1 column 2 (char 1)"),
    # Python's JSON reader refuses an integer literal of over 4300 digits
    # with a ValueError that is not a JSONDecodeError
    "integer-past-the-digit-limit": ("run", LONG_INTEGER, re.compile(
        r"config cfg\.json is not valid JSON: .*4300 digits.*")),
    "root-array": ("run", NOT_AN_OBJECT, "config root must be a JSON object"),
    "version-2": ("run", {"version": 2}, "config version must be 1, got 2"),
    **{f"engine-{name}": ("run", {"engine": engine}, "run needs config.engine in ('analytic', "
                          f"'oracle', 'classical'), got {engine!r}")
       for name, engine in (("bogus", "bogus"), ("list", ["oracle"]), ("missing", None),
                            ("validate", "validate"))},
    "sweep-engine-oracle": ("sweep-beta", {**SWEEP, "engine": "oracle"},
                            "sweep-beta needs config.engine in ('analytic',), got 'oracle'"),
    "unknown-key": ("run", {"typo_key": 1},
                    f"unknown key(s) ['typo_key'] in config of run; {ALLOWED_IN_RUN}"),
    "sections-the-job-never-reads": ("run", {
        "monte_carlo": {"samples": 10}, "oracle": {"dim": 40}, "validate": {"tolerance": 1e-6},
        "beta_grid": {"start": 0.0, "stop": 0.2, "n_points": 3}},
        "unknown key(s) ['beta_grid', 'monte_carlo', 'oracle', 'validate'] in config of run; "
        + ALLOWED_IN_RUN),
    "sweep-oscillator": ("sweep-beta", {**SWEEP, "oscillators": None,
                                        "oscillator": {"kind": "thermal", "mean_n": 1.0}},
                         "unknown key(s) ['oscillator'] in config of sweep-beta; allowed: "
                         "['beta_grid', 'engine', 'oscillators', 'output', 'params', "
                         "'version']"),
    # the output, checked before the other sections: a config with two
    # faults, one of them in the output, reports the output
    "no-output-path": ("run", {"output": None}, "no output path: set config.output.path"),
    "no-output-path-and-bad-omega": ("run", {"output": None,
                                             "params": {"omega": "fast", "lambda": 0.1}},
                                     "no output path: set config.output.path"),
    "missing-output-dir-and-dim-1": ("spectrum", {**SPECTRUM, "oracle": {"dim": 1},
                                                  "output": {"path": "missing/s.json"}},
                                     "output directory 'missing' does not exist or is not "
                                     "writable"),
    **{f"validate-csv-{name}": ("validate", {"engine": "validate", "output": output},
                                "validate writes only a JSON report; give a .json output "
                                "path or output.format json")
       for name, output in (("format", {"path": "v.json", "format": "csv"}),
                            ("suffix", {"path": "v.csv"}))},
    # a present key is read even when falsy: a null or empty value is an
    # error, not the default an absent key gives
    **{f"format-{name}": ("run", {"output": {"path": "out.json", "format": value}},
                          f"output format must be 'csv' or 'json', got {value!r}")
       for name, value in (("false", False), ("empty", ""), ("null", None), ("0", 0),
                           ("list", []))},
    "monte-carlo-null": ("run", NULL_MONTE_CARLO,
                         "config.monte_carlo must be an object with keys ['samples', 'seed']"),
    # the scenario and the other sections
    "classical-psi-minus": ("run", {"engine": "classical", "qubit_init": "psi_minus",
                                    "oscillator": {"kind": "delta", "q0": 0.0, "p0": 0.0}},
                            "the classical engine models the (|eg>+|ge>)/sqrt(2) correlator; "
                            "qubit_init must be psi_plus or phi_plus"),
    "analytic-delta": ("run", {"oscillator": {"kind": "delta", "q0": 0.0, "p0": 0.0}},
                       "oscillator.kind must be one of ('thermal', 'coherent', 'fock') for "
                       "this engine, got 'delta'"),
    "classical-thermal": ("run", {"engine": "classical",
                                  "oscillator": {"kind": "thermal", "mean_n": 1.0}},
                          "oscillator.kind must be one of ('delta', 'gaussian', "
                          "'classical_thermal') for this engine, got 'thermal'"),
    **{f"alpha0-{name}": ("run", {"oscillator": {"kind": "coherent", "alpha0": alpha0}},
                          f"oscillator.alpha0 must be a number or [re, im], got {alpha0!r}")
       for name, alpha0 in (("bool-and-string", [True, "2"]), ("numeric-strings", ["1", "2"]),
                            ("null", [None, 1]))},
    "params-not-an-object": ("sweep-beta", {**SWEEP, "params": "nonsense"},
                             "config.params must be an object with keys ['lambda', 'omega', "
                             "'omega0']"),
    "params-unknown-key": ("sweep-beta", {**SWEEP, "params": {"omega": -1, "bogus": 3}},
                           "unknown key(s) ['bogus'] in params; allowed: ['lambda', 'omega', "
                           "'omega0']"),
    "spectrum-oracle-unknown-key": ("spectrum", {**SPECTRUM, "oracle": {"dim": 40, "dimm": 50}},
                                    "unknown key(s) ['dimm'] in oracle; allowed: ['dim']"),
    "dim-1": ("run", {"engine": "oracle", "oracle": {"dim": 1}}, "oracle.dim must be >= 2, got 1"),
    "tolerance-0": ("validate", {"engine": "validate", "validate": {"tolerance": 0}},
                    "validate.tolerance must be positive, got 0.0"),
    "oscillators-empty": ("sweep-beta", {**SWEEP, "oscillators": []},
                          "config.oscillators must be a non-empty list"),
    "fock-level-10001": ("sweep-beta", {**SWEEP, "oscillators": [{"kind": "fock", "n": 10_001}]},
                         "oscillators[0].n must be <= 10000, got 10001"),
    "t-end-before-t-start": ("run", {"time_grid": {"t_start": 2.0, "t_end": 1.0, "n_points": 5}},
                             "time_grid.t_end (1.0) must exceed t_start (2.0)"),
    "one-point-grid": ("run", {"time_grid": {"t_start": 0.0, "t_end": 1.0, "n_points": 1}},
                       "time_grid.n_points must be >= 2, got 1"),
    "beta-grid-past-one-half": ("sweep-beta", {**SWEEP, "beta_grid": {"start": 0.0, "stop": 0.7,
                                                                      "n_points": 3}},
                                "beta_grid must lie within [0, 0.5], got [0.0, 0.7]"),
    # a number must be finite: json.load reads NaN, Infinity and the
    # overflowing literal 1e999 as floats, and integer literals past the
    # float range are ints that float() cannot convert
    "tolerance-Infinity": ("validate", {"engine": "validate",
                                        "validate": {"tolerance": math.inf}},
                           "validate.tolerance must be finite, got inf"),
    "tolerance-NaN": ("validate", {"engine": "validate", "validate": {"tolerance": math.nan}},
                      "validate.tolerance must be finite, got nan"),
    "t_end-Infinity": ("run", {"time_grid": {"t_start": 0.0, "t_end": math.inf, "n_points": 5}},
                       "time_grid.t_end must be finite, got inf"),
    "t_end-1e999": ("run", OVERFLOWING_LITERAL, "time_grid.t_end must be finite, got inf"),
    "stop-NaN": ("sweep-beta", {**SWEEP, "beta_grid": {"start": 0.0, "stop": math.nan,
                                                       "n_points": 3}},
                 "beta_grid.stop must be finite, got nan"),
    "omega-10**400": ("run", {"params": {"omega": 10 ** 400, "lambda": 0.1}},
                      f"params.omega must be finite, got {10 ** 400}"),
    "mean_n-10**400": ("run", {"oscillator": {"kind": "thermal", "mean_n": 10 ** 400}},
                       f"oscillator.mean_n must be finite, got {10 ** 400}"),
    "alpha0-10**400": ("run", {"oscillator": {"kind": "coherent", "alpha0": [1.0, -10 ** 400]}},
                       f"oscillator.alpha0 must be finite, got {[1.0, -10 ** 400]!r}"),
    # finite parameters whose products with the grid or the truncation
    # overflow are refused before any engine runs
    "oracle-omega-1e308": ("run", {"engine": "oracle", "params": {"omega": 1e308, "lambda": 0.1}},
                           "omega * t is not finite for omega = 1e+308, lambda = 0.1"),
    "classical-omega-1e-320": ("run", {"engine": "classical",
                                       "params": {"omega": 1e-320, "lambda": 0.1},
                                       "oscillator": {"kind": "classical_thermal", "k_T": 1.0}},
                               "invalid params: beta = lambda/omega must be finite, "
                               "got 0.1/1e-320"),
    "oracle-lambda-1e308": ("run", {"engine": "oracle", "params": {"omega": 1.0, "lambda": 1e308}},
                            "no Fock truncation fits beta = 1e+308: cannot convert float "
                            "infinity to integer"),
    "validate-omega-1e308": ("validate", {"engine": "validate",
                                          "params": {"omega": 1e308, "lambda": 0.1}},
                             "omega * t is not finite for omega = 1e+308, lambda = 0.1"),
    "spectrum-omega-1e308": ("spectrum", {**SPECTRUM, "params": {"omega": 1e308, "lambda": 0.1}},
                             "omega * dim is not finite for omega = 1e+308, lambda = 0.1"),
    "spectrum-lambda-1e308": ("spectrum", {**SPECTRUM,
                                           "params": {"omega": 1.0, "lambda": 1e308}},
                              "lambda * sqrt(dim) is not finite for omega = 1.0, lambda = 1e+308"),
    # omega t and omega dim are finite, but the oracle's phases E t are not
    "oracle-t-1e308": ("run", {"engine": "oracle",
                               "time_grid": {"t_start": 0.0, "t_end": 1e308, "n_points": 20}},
                       "omega * dim * t is not finite for omega = 1.0, lambda = 0.1"),
    "validate-t-minus-1e308": ("validate", {"engine": "validate", "time_grid": {
        "t_start": -1e308, "t_end": 1.0, "n_points": 20}},
        "omega * dim * t is not finite for omega = 1.0, lambda = 0.1"),
    # mean_n / (1 + mean_n) rounds to 1, so no dim drops the thermal tail
    "oracle-thermal-mean-n-1e17": ("run", {"engine": "oracle",
                                           "oscillator": {"kind": "thermal", "mean_n": 1e17}},
                                   "no Fock truncation fits beta = 0.1: thermal mean_n=1e+17 "
                                   "leaves tail population 1 at every dim"),
    "validate-thermal-mean-n-1e17": ("validate", {"engine": "validate",
                                                  "oscillator": {"kind": "thermal",
                                                                 "mean_n": 1e17}},
                                     "no Fock truncation fits beta = 0.1: thermal "
                                     "mean_n=1e+17 leaves tail population 1 at every dim"),
    # the closed form has a limit there, but the estimator's phases do not;
    # each is checked without a warning, before it is evaluated
    "classical-mc-lambda-1e308": ("run", {"engine": "classical", "oscillator": GAUSSIAN,
                                          "params": {"omega": 1.0, "lambda": 1e308},
                                          "time_grid": SHORT_GRID,
                                          "monte_carlo": {"samples": 1000}},
                                  "8 beta sqrt(2 omega) is not finite for omega = 1.0, "
                                  "lambda = 1e+308"),
    "classical-mc-omega-1e-300": ("run", {**CLASSICAL_THERMAL, "time_grid": SHORT_GRID,
                                          "params": {"omega": 1e-300, "lambda": 1e-10},
                                          "monte_carlo": {"samples": 1000}},
                                  "4 beta sqrt(2/omega) is not finite for omega = 1e-300, "
                                  "lambda = 1e-10"),
    # the equipartition width sqrt(2 k_T)/omega is past the float range
    "classical-mc-k-T-1e200-omega-1e-250": ("run", {
        **CLASSICAL_THERMAL, "oscillator": {"kind": "classical_thermal", "k_T": 1e200},
        "params": {"omega": 1e-250, "lambda": 1e-250}, "time_grid": SHORT_GRID,
        "monte_carlo": {"samples": 1000}},
        "the equipartition width sqrt(2 k_T)/omega is not finite for k_T = 1e+200, "
        "omega = 1e-250"),
    # the coefficients are finite, but their products with the draws are not
    "classical-mc-delta-q-1e200": ("run", {"engine": "classical",
                                           "oscillator": {**GAUSSIAN, "delta_q": 1e200},
                                           "params": {"omega": 1.0, "lambda": 1e200},
                                           "time_grid": SHORT_GRID,
                                           "monte_carlo": {"samples": 1000}},
                                   re.compile(r"the sampled phase a q0 \+ b p0 is not finite "
                                              r"at t = 1: max \|q0\| = \S+, max \|p0\| = \S+")),
    "classical-mc-q-bar-1e300": ("run", {"engine": "classical",
                                         "oscillator": {**GAUSSIAN, "q_bar": 1e300},
                                         "params": {"omega": 1.0, "lambda": 1e307},
                                         "time_grid": SHORT_GRID,
                                         "monte_carlo": {"samples": 1000}},
                                 re.compile(r"the sampled phase a q0 \+ b p0 is not finite "
                                            r"at t = 1: max \|q0\| = 1e\+300, max \|p0\| = \S+")),
    # byte counts past the float range
    "dim-10**200": ("spectrum", {**SPECTRUM, "oracle": {"dim": 10 ** 200}},
                    f"dim = {10 ** 200} needs 6.58e+402 bytes of arrays, more than the "
                    "8.59e+9 bytes of physical memory"),
    "samples-10**307": ("run", {**CLASSICAL_THERMAL, "monte_carlo": {"samples": 10 ** 307}},
                        f"monte_carlo.samples = {10 ** 307} needs 3.20e+308 bytes of arrays, "
                        "more than the 8.59e+9 bytes of physical memory"),
    "n_points-10**306": ("run", {"time_grid": {"t_start": 0.0, "t_end": 1.0,
                                               "n_points": 10 ** 306}},
                         f"time_grid.n_points = {10 ** 306} needs 1.02e+309 bytes of arrays, "
                         "more than the 8.59e+9 bytes of physical memory"),
}

#: jobs that must fail before any engine, writer or large allocation, by id:
#: (the command, write_config's overrides, the error message).  The output is
#: out.json, or out.csv for a table, in the working directory unless a row
#: says otherwise, and the machine has one byte less physical memory than a
#: 5000-sample Monte Carlo estimate needs (classical.mc_peak_bytes)
BEFORE_ANY_ENGINE = {
    **{f"oversized-dim-{job}": (command, {**overrides, "oracle": {"dim": 10 ** 6}},
                                "dim = 1000000 needs 6.58e+14 bytes of arrays, more than the "
                                "1.21e+6 bytes of physical memory")
       for job, (command, overrides) in (("run", JOB_KINDS["run-oracle"]),
                                         ("validate", JOB_KINDS["validate"]),
                                         ("spectrum", JOB_KINDS["spectrum"]))},
    **{f"oversized-{name}": (command, overrides, f"{name}.n_points = {10 ** 15} needs 1.02e+18 "
                             "bytes of arrays, more than the 1.21e+6 bytes of physical memory")
       for name, (command, overrides) in (
           ("time_grid", ("run", {"time_grid": {"t_start": 0.0, "t_end": 1.0,
                                                "n_points": 10 ** 15}})),
           ("beta_grid", ("sweep-beta", {**SWEEP, "beta_grid": {"start": 0.0, "stop": 0.2,
                                                                "n_points": 10 ** 15}})))},
    **{f"oversized-monte-carlo-{name}": ("run", {"engine": "classical", "oscillator": oscillator,
                                                  "monte_carlo": {"samples": 10 ** 13}},
                                            "monte_carlo.samples = 10000000000000 needs "
                                            "3.20e+14 bytes of arrays, more than the 1.21e+6 "
                                            "bytes of physical memory")
       for name, oscillator in (("gaussian", GAUSSIAN),
                                ("classical_thermal", {"kind": "classical_thermal", "k_T": 1.0}))},
    # the memory guard is the engine's memory model, to the byte
    "monte-carlo-one-byte-short": ("run", {**CLASSICAL_THERMAL, "monte_carlo": {"samples": 5000}},
                                   "monte_carlo.samples = 5000 needs 1.21e+6 bytes of arrays, "
                                   "more than the 1.21e+6 bytes of physical memory"),
    # every job but an oracle run evaluates a closed form, at omega0 = 0 only
    **{f"omega0-{job}": (command, {**overrides, "params": {"omega": 1.0, "lambda": 0.1,
                                                           "omega0": 0.3}},
                         "invalid params: omega0 must be 0 for the closed forms, got 0.3; "
                         "only the oracle engine models omega0 > 0")
       for job, (command, overrides) in {**JOBS,
                                         "run-classical": ("run", CLASSICAL_THERMAL)}.items()},
    # an output path that names no file, or whose directory is missing
    **{f"output-{name}-{job}": (command, {**overrides, "output": {"path": path}}, message)
       for job, (command, overrides) in JOBS.items()
       for name, path, message in (
           ("empty", "", "output path '' does not name a file"),
           ("dot", ".", "output path '.' does not name a file"),
           ("root", "/", "output path '/' does not name a file"),
           ("missing-dir", "/nonexistent/dir/x.json",
            "output directory '/nonexistent/dir' does not exist or is not writable"))},
}


def out_of_memory(params, dim, population=None):
    raise MemoryError(f"cannot allocate the dim={dim} Hamiltonian blocks")


def full_disk(path, text):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)


#: jobs that fail inside, by id: (the command, write_config's overrides, the
#: fault put in as (object, attribute, replacement) or None, the error message)
FAILED_JOBS = {
    "truncation": ("run", {"engine": "oracle", "oracle": {"dim": 10},
                           "oscillator": {"kind": "coherent", "alpha0": 2.0}}, None,
                   "coherent |alpha0|=2 leaves tail population 8.132e-03 > 1e-12 at dim=10"),
    "allocation": ("run", {"engine": "oracle"}, (oracle, "eigenblocks", out_of_memory),
                   "cannot allocate the dim=80 Hamiltonian blocks"),
    **{f"full-disk-{job}": (JOBS[job][0], {**JOBS[job][1], "output": {"path": f"out.{fmt}"}},
                            (series, "_write_temp", full_disk),
                            f"[Errno 28] No space left on device: 'out.{fmt}'")
       for job, fmt in (("run-analytic", "csv"), ("sweep-beta", "csv"), ("validate", "json"),
                        ("spectrum", "json"))},
    # lambda = 1e200 passes every scale check, but the oracle's residual
    # norm and the spectrum's beta^2 overflow: numpy's warning, raised
    **{f"overflow-{job}": (command, {**overrides, "params": {"omega": 1.0, "lambda": 1e200},
                                     "oracle": {"dim": 60}}, None,
                           re.compile(r"overflow encountered in \w+"))
       for job, (command, overrides) in (("run-oracle", JOB_KINDS["run-oracle"]),
                                         ("spectrum", JOB_KINDS["spectrum"]))},
}


class TestCliErrors:
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

    @pytest.mark.parametrize("command, config, message", list(CONFIG_ERRORS.values()),
                             ids=list(CONFIG_ERRORS))
    def test_invalid_inputs_are_config_errors(self, tmp_path, monkeypatch, command, config,
                                              message):
        pages = {"SC_PHYS_PAGES": 2 ** 21, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
        if isinstance(config, str):
            (tmp_path / "cfg.json").write_text(config)
        else:
            write_config(tmp_path, **{"output": {"path": "out.json"}, **config})
        argv = [command, "--config", "cfg.json"] if isinstance(command, str) else command
        check_error(call_cli(tmp_path, *argv), 2, message)

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("a job that must fail first reached an engine or the writer")

    @pytest.mark.parametrize("command, overrides, message", list(BEFORE_ANY_ENGINE.values()),
                             ids=list(BEFORE_ANY_ENGINE))
    def test_exits_two_before_any_engine(self, tmp_path, monkeypatch, command, overrides,
                                         message):
        linspace = np.linspace

        def small_linspace(start, stop, num, **kwargs):
            assert num <= 10 ** 4, "an oversized grid got past the memory check"
            return linspace(start, stop, num, **kwargs)

        monkeypatch.setattr(np, "linspace", small_linspace)
        for module, name in ((analytic, "analytic_series"), (oracle, "oracle_concurrence_series"),
                             (oracle, "spectrum"), (classical, "classical_series"),
                             (Thermal, "coherence"), (cli, "write_table")):
            monkeypatch.setattr(module, name, self.refuse)
        pages = {"SC_PHYS_PAGES": classical.mc_peak_bytes(5000) - 1, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
        write_config(tmp_path, **{"output": {"path": "out.json"}, **overrides})
        check_error(call_cli(tmp_path, command, "--config", "cfg.json"), 2, message)

    @pytest.mark.parametrize("command, overrides, fault, message", list(FAILED_JOBS.values()),
                             ids=list(FAILED_JOBS))
    def test_a_failure_inside_a_job_exits_three(self, tmp_path, monkeypatch, command,
                                                overrides, fault, message):
        if fault:
            monkeypatch.setattr(*fault)
        write_config(tmp_path, **{"output": {"path": "out.json"}, **overrides})
        check_error(call_cli(tmp_path, command, "--config", "cfg.json"), 3, message)

    @pytest.mark.parametrize("argv", [["--version"], ["-h"], ["run", "-h"]])
    def test_version_and_help_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out and captured.err == ""

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

    HUGE_FOCK = {"kind": "fock", "n": 10 ** 30}

    @pytest.mark.parametrize("command, overrides, field", [
        ("run", {"oscillator": HUGE_FOCK}, "oscillator"),
        ("sweep-beta", {**SWEEP, "oscillators": [HUGE_FOCK]}, "oscillators[0]"),
    ], ids=["run-analytic", "sweep-beta"])
    def test_huge_fock_level_exits_two_in_time(self, tmp_path, command, overrides, field):
        # the closed form of |n> is a recurrence of n steps, which at 10^30
        # would never return
        write_config(tmp_path, **overrides)
        check_error(run_cli(tmp_path, command, "--config", "cfg.json", timeout=60), 2,
                    f"{field}.n must be <= 10000, got {10 ** 30}")

    def test_the_highest_fock_level_runs(self, tmp_path):
        # one level more is the fock-level-10001 config error
        cfg_path, cfg = write_config(
            tmp_path, **{**SWEEP, "oscillators": [{"kind": "fock", "n": 10_000}]})
        assert cli.main(["sweep-beta", "--config", cfg_path]) == 0
        assert os.path.exists(cfg["output"]["path"])

    def test_monte_carlo_guard_is_the_engine_memory_model(self, tmp_path, monkeypatch):
        # physical memory exactly the model's count passes; one byte less is
        # the monte-carlo-one-byte-short row of test_exits_two_before_any_engine
        samples = 5000
        pages = {"SC_PHYS_PAGES": classical.mc_peak_bytes(samples), "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
        cfg_path, cfg = write_config(tmp_path, engine="classical",
                                     oscillator={"kind": "classical_thermal", "k_T": 1.0},
                                     monte_carlo={"samples": samples})
        assert cli.main(["run", "--config", cfg_path]) == 0
        assert os.path.exists(cfg["output"]["path"])

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
            tmp_path, **{**SWEEP, "oscillator": None, "oscillators": oscillators,
                         "beta_grid": {"start": 0.0, "stop": 0.5, "n_points": 2000}},
            output={"path": str(tmp_path / f"sweep.{fmt}"), "format": fmt})
        peak, counted = self.traced_peak(monkeypatch, ["sweep-beta", "--config", cfg_path])
        assert peak <= max(counted)

    @pytest.mark.parametrize("command, overrides, column, expected", [
        ("sweep-beta", {**SWEEP,
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
        # at mean_n = 0 the thermal exponent's -64 beta^2 mean_n s^2 is -inf * 0
        ("run", {"params": {"omega": 1.0, "lambda": 1e200},
                 "oscillator": {"kind": "thermal", "mean_n": 0},
                 "time_grid": {"t_start": 0.0, "t_end": 3.0, "n_points": 4}},
         "C", [1.0, 0.0, 0.0, 0.0]),
        # the coherent phase 8 beta overflows, with and without a displacement
        ("run", {"params": {"omega": 1.0, "lambda": 1.7e308},
                 "oscillator": {"kind": "coherent", "alpha0": [1, 0.5]},
                 "time_grid": {"t_start": 0.0, "t_end": 3.0, "n_points": 4}},
         "C", [1.0, 0.0, 0.0, 0.0]),
        ("run", {"params": {"omega": 1.0, "lambda": 1.7e308},
                 "oscillator": {"kind": "coherent", "alpha0": 0},
                 "time_grid": {"t_start": 0.0, "t_end": 3.0, "n_points": 4}},
         "C", [1.0, 0.0, 0.0, 0.0]),
        # the Gaussian's 8 beta sqrt(2 omega) overflows; then its width's
        # square does, and at lambda = 0 the exponent is (0 * 1e200)^2 = 0
        ("run", {"engine": "classical", "params": {"omega": 1.0, "lambda": 1e308},
                 "oscillator": {"kind": "gaussian", "q_bar": 0, "p_bar": 0,
                                "delta_q": 1, "delta_p": 1},
                 "time_grid": {"t_start": 0.0, "t_end": 3.0, "n_points": 4}},
         "C", [1.0, 0.0, 0.0, 0.0]),
        ("run", {"engine": "classical", "params": {"omega": 1.0, "lambda": 0.1},
                 "oscillator": {"kind": "gaussian", "q_bar": 0, "p_bar": 0,
                                "delta_q": 1e200, "delta_p": 1},
                 "time_grid": {"t_start": 0.0, "t_end": 3.0, "n_points": 4}},
         "C", [1.0, 0.0, 0.0, 0.0]),
        ("run", {"engine": "classical", "params": {"omega": 1.0, "lambda": 0},
                 "oscillator": {"kind": "gaussian", "q_bar": 0, "p_bar": 0,
                                "delta_q": 1e200, "delta_p": 1},
                 "time_grid": {"t_start": 0.0, "t_end": 3.0, "n_points": 4}},
         "C", [1.0, 1.0, 1.0, 1.0]),
        # the equipartition width sqrt(2 k_T)/omega (first) and the scale
        # sqrt(2/omega) (second) pass the float range, where the thermal
        # exponent 64 beta^2 s^2 k_T/omega is 0
        ("run", {"engine": "classical", "params": {"omega": 1e-250, "lambda": 1e-250},
                 "oscillator": {"kind": "classical_thermal", "k_T": 1e200},
                 "time_grid": {"t_start": 0.0, "t_end": 3.0, "n_points": 4}},
         "C", [1.0, 1.0, 1.0, 1.0]),
        ("run", {"engine": "classical", "params": {"omega": 1e-308, "lambda": 1e-308},
                 "oscillator": {"kind": "classical_thermal", "k_T": 1.0},
                 "time_grid": {"t_start": 0.0, "t_end": 3.0, "n_points": 4}},
         "C", [1.0, 1.0, 1.0, 1.0]),
        # 2/omega passes the float range, but the Gaussian's phase scale
        # 4 beta sqrt(2)/sqrt(omega) does not, and every phase is tiny: the
        # closed form and the estimate are 1
        *(("run", {"engine": "classical", "params": {"omega": 1e-308, "lambda": 1e-308},
                   "oscillator": GAUSSIAN, **monte_carlo,
                   "time_grid": {"t_start": 0.0, "t_end": 6.0, "n_points": 4}},
           "C", [1.0, 1.0, 1.0, 1.0])
          for monte_carlo in ({}, {"monte_carlo": {"samples": 1000}})),
    ], ids=["sweep-thermal-mean-n-1e308", "classical-gaussian-lambda-1e200",
            "classical-thermal-lambda-1e200", "analytic-lambda-1e200",
            "analytic-thermal-mean-n-1e308", "analytic-fock-2-lambda-1e200",
            "analytic-fock-0-lambda-1e200", "analytic-fock-2-lambda-1e100",
            "analytic-fock-400-lambda-1e10", "classical-mc-delta-lambda-1e308",
            "analytic-thermal-mean-n-0-lambda-1e200", "analytic-coherent-lambda-1.7e308",
            "analytic-coherent-0-lambda-1.7e308", "classical-gaussian-lambda-1e308",
            "classical-gaussian-delta-q-1e200", "classical-gaussian-delta-q-1e200-lambda-0",
            "classical-thermal-k-T-1e200-omega-1e-250", "classical-thermal-omega-1e-308",
            "classical-gaussian-omega-1e-308", "classical-mc-gaussian-omega-1e-308"])
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


def passing_validate(kind: str, oscillator: dict, t_end: float, n_points: int):
    """A row of ``test_every_job_prints_its_one_line``: validate ``kind`` on
    ``oscillator`` over [0, t_end] at the two-route tolerance, which passes."""
    coherence = (", max |I_analytic - I_oracle| = {max_abs_diff_coherence:.6g}"
                 if kind in COHERENCE_KINDS else "")
    return ("validate", {"engine": "validate", "qubit_init": kind, "oscillator": oscillator,
                         "time_grid": {"t_start": 0.0, "t_end": t_end, "n_points": n_points},
                         "validate": {"tolerance": two_route_tolerance(1.0, t_end)},
                         "output": {"path": "report.json"}}, 0,
            "max |C_analytic - C_oracle| = {max_abs_diff:.6g}" + coherence
            + " vs tolerance {tolerance:g}: PASS (report.json)")


THERMAL = {"kind": "thermal", "mean_n": 1.0}
COHERENT = {"kind": "coherent", "alpha0": [1.0, 0.5]}

#: validate jobs that pass at the two-route gate, by id: a thermal state,
#: read through real forms, on every Bell kind (psi_minus and phi_minus
#: only through the conserved populations); a coherent state, read through
#: complex forms, on both parities; a number state; a grid to t = 20000,
#: where the oracle's phases E t reach 10^6 radians; and the benchmark's
#: Thermal(5) series, at dim 198
PASSING_VALIDATES = {
    **{f"validate-thermal-{kind}": passing_validate(kind, THERMAL, 12.5, 101)
       for kind in ("psi_plus", "psi_minus", "phi_plus", "phi_minus")},
    **{f"validate-coherent-{kind}": passing_validate(kind, COHERENT, 12.5, 101)
       for kind in ("psi_plus", "psi_minus", "phi_plus")},
    "validate-fock-psi_plus": passing_validate("psi_plus", {"kind": "fock", "n": 3}, 12.5, 101),
    "validate-thermal-to-t-20000": passing_validate("psi_plus", THERMAL, 20000.0, 1001),
    "validate-coherent-to-t-20000": passing_validate("psi_plus", COHERENT, 20000.0, 1001),
    **{f"validate-thermal-5-{kind}": passing_validate(
        kind, {"kind": "thermal", "mean_n": 5.0}, 4.0 * math.pi, 400)
       for kind in ("psi_plus", "phi_plus")},
}


class TestJobPipeline:
    """``cli.main`` is the one place that writes, prints and sets the exit code."""

    GRID = {"t_start": 0.0, "t_end": 3.0, "n_points": 6}
    VALIDATE_LINE = ("max |C_analytic - C_oracle| = {max_abs_diff:.6g}, "
                     "max |I_analytic - I_oracle| = {max_abs_diff_coherence:.6g} "
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
        # a stationary Bell kind has no I to compare, so the line has no I clause
        ("validate", {"engine": "validate", "qubit_init": "psi_minus",
                      "output": {"path": "report.json"}}, 0,
         "max |C_analytic - C_oracle| = {max_abs_diff:.6g} vs tolerance {tolerance:g}: "
         "PASS (report.json)"),
        ("sweep-beta", {**NO_SCENARIO, "oscillators": [{"kind": "fock", "n": 1},
                                                       {"kind": "thermal", "mean_n": 2.0}],
                        "beta_grid": {"start": 0.0, "stop": 0.2, "n_points": 3},
                        "output": {"path": "sweep.csv"}}, 0,
         "wrote 6 rows to sweep.csv (2 oscillator spec(s))"),
        ("spectrum", {**SPECTRUM, "oracle": {"dim": 12},
                      "output": {"path": "spectrum"}}, 0,
         "lowest 8 levels: max |E - E_pred| = {max_abs_diff_checked:.6g} vs 1e-08: "
         "PASS (spectrum)"),
        # away from omega0 = 0 no parity block mirrors the other: real forms
        # for a thermal state, complex ones reaching both blocks for a
        # coherent state, and a number state's products across two labels
        *(("run", {"engine": "oracle", "params": {"omega": 1.0, "lambda": 0.1, "omega0": 0.25},
                   "oscillator": oscillator,
                   "time_grid": {"t_start": 0.0, "t_end": 12.5, "n_points": 101},
                   "output": {"path": "split.csv"}}, 0,
           "wrote 101 rows to split.csv (engine=oracle)")
          for oscillator in (THERMAL, COHERENT, {"kind": "fock", "n": 3})),
        *PASSING_VALIDATES.values(),
    ], ids=["run-analytic", "run-oracle", "run-classical", "validate-pass", "validate-fail",
            "validate-stationary", "sweep-beta", "spectrum", "run-oracle-split-thermal",
            "run-oracle-split-coherent", "run-oracle-split-fock", *PASSING_VALIDATES])
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
        # no oracle series flags leakage at the dim its rule chose
        sidecar = Path(out + ".meta.json")
        meta = json.loads((sidecar if sidecar.exists() else Path(out)).read_text())["meta"]
        assert meta.get("leakage_flagged") is not True


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
