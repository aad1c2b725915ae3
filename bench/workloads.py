"""The benchmark's workloads: seeded job lists, warm-up jobs and output checks.

Each workload is a fixed list of jobs run one after another by a single
caller (a closed loop).  Sizes are fixed; the seed draws only physical
parameters, which barely change the work of a pass.

Every job is checked after it returns, outside its timed region.  A check
returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import platform
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy

import tc2q
from tc2q import analytic, classical, cli, oracle
from tc2q.model import Coherent, Fock, ModelParams, Thermal, spec_label
from tc2q.series import read_series

from spans import oracle_columns

TOL = 1e-6            # oracle and file read-back against the closed forms
SPECTRUM_TOL = 1e-8   # what the spectrum command itself promises
MC_SIGMAS = 6.0       # Monte Carlo estimate within this many std_error of exact
SPAN = 4.0 * math.pi
POINTS = 400
WARMUP_POINTS = 16


@dataclass
class Job:
    """One timed call, the check of its output, and its size for provenance.

    ``check`` runs right after each call, outside its timed region.
    """

    id: str
    run: Callable[[], object]
    check: Callable[[object], list]
    dim: int | None = None
    columns: int | None = None
    warmup: Callable[[], object] | None = None


@dataclass
class Workload:
    jobs: list
    warmup: Callable[[], object]
    notes: dict = field(default_factory=dict)

    def provenance(self) -> list:
        return [{"job": j.id, "dim": j.dim, "columns": j.columns} for j in self.jobs]


def _max_err(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _closed_form_problems(tag, conc, u, v, spec, times, params) -> list:
    """C, u and v of a psi_plus/phi_plus series against I(t) from the closed form."""
    i_t = analytic.coherence_integral(spec, times, params)
    problems = []
    for name, got, want in (("C", conc, np.abs(i_t)), ("u", u, i_t.real),
                            ("v", v, i_t.imag)):
        if got is None:
            problems.append(f"{tag}: no {name} column")
            continue
        err = _max_err(got, want)
        if not err <= TOL:
            problems.append(f"{tag}: max |{name} - closed form| = {err:.3e} > {TOL:g}")
    return problems


# --- oracle workloads ---------------------------------------------------------

def _oracle_job(job_id, qubit_init, spec, times, params) -> Job:
    dim = oracle.choose_dim(spec, params)

    def run():
        return oracle.oracle_concurrence_series(qubit_init, spec, times, params)

    def warmup():
        # same Hamiltonian and dim as the job, on a short grid
        return oracle.oracle_concurrence_series(qubit_init, spec,
                                                times[:WARMUP_POINTS], params)

    def check(series) -> list:
        problems = []
        if series.meta.get("leakage_flagged"):
            problems.append(f"{job_id}: leakage flag set")
        return problems + _closed_form_problems(
            job_id, series.concurrence, series.u, series.v, spec, times, params)

    return Job(job_id, run, check, dim, oracle_columns(spec, dim), warmup)


def oracle_thermal(rng) -> Workload:
    """One Thermal(5) series at beta 0.1: dim 198, 198 pure columns, 400 points."""
    qubit_init = ("psi_plus", "phi_plus")[int(rng.integers(2))]
    offset = float(rng.uniform(0.0, 2.0 * math.pi))
    times = offset + np.linspace(0.0, SPAN, POINTS)
    params = ModelParams(omega=1.0, lambda_=0.1)
    spec = Thermal(5.0)
    job = _oracle_job(f"thermal5-{qubit_init}", qubit_init, spec, times, params)
    return Workload([job], job.warmup, notes={"qubit_init": qubit_init, "grid_offset": offset})


# --- cli-jobs -----------------------------------------------------------------

def _call_cli(argv):
    """tc2q.cli.main in-process, with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _write_config(name: str, cfg: dict) -> str:
    path = f"{name}.config.json"
    with open(path, "w") as handle:
        json.dump(cfg, handle, indent=2)
    return path


def _cli_job(job_id, command, cfg, check_artifact, dim=None, columns=None) -> Job:
    config = _write_config(job_id, cfg)

    def run():
        return _call_cli([command, "--config", config])

    def check(result) -> list:
        code, err = result
        if code != 0:
            return [f"{job_id}: exit {code}: {err.strip()[:200]}"]
        return check_artifact(cfg["output"]["path"])

    return Job(job_id, run, check, dim, columns)


def _grid(n_points: int) -> dict:
    return {"t_start": 0.0, "t_end": SPAN, "n_points": n_points}


def _series_check(job_id, spec, params, n_points, engine, extra=None):
    """Read a series back through read_series and compare it with I(t)."""
    def check(path) -> list:
        series = read_series(path)
        if series.engine != engine or series.t.size != n_points:
            return [f"{job_id}: read back engine={series.engine} rows={series.t.size}"]
        problems = _closed_form_problems(job_id, series.concurrence, series.u,
                                         series.v, spec, series.t, params)
        return problems + (extra(series) if extra else [])
    return check


def cli_jobs(rng) -> Workload:
    """Six in-process CLI calls: three runs, a sweep, a validate and a spectrum.

    Config files and artifacts are bare file names in the current directory,
    so the echoed configs, and the bytes written, do not depend on where
    the benchmark is run from.
    """
    qubit_init = ("psi_plus", "phi_plus")[int(rng.integers(2))]
    omega = 1.0

    # run, analytic engine: Thermal(1), 2000 points, CSV
    p_analytic = ModelParams(omega, float(rng.uniform(0.05, 0.2)))
    analytic_job = _cli_job("run-analytic", "run", {
        "version": 1, "engine": "analytic", "qubit_init": qubit_init,
        "params": {"omega": omega, "lambda": p_analytic.lambda_},
        "oscillator": {"kind": "thermal", "mean_n": 1.0},
        "time_grid": _grid(2000),
        "output": {"path": "run-analytic.csv", "format": "csv"}},
        _series_check("run-analytic", Thermal(1.0), p_analytic, 2000, "analytic"))

    # run, oracle engine: Coherent(3 e^{i phi}) with a seeded phase, 400 points, CSV
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    alpha = complex(3.0 * math.cos(phase), 3.0 * math.sin(phase))
    coherent = Coherent(alpha)
    p_oracle = ModelParams(omega, float(rng.uniform(0.05, 0.2)))

    def no_leak(series) -> list:
        flagged = series.meta.get("leakage_flagged")
        return [] if flagged is False else [f"run-oracle: leakage_flagged={flagged!r}"]

    dim = oracle.choose_dim(coherent, p_oracle)
    oracle_job = _cli_job("run-oracle", "run", {
        "version": 1, "engine": "oracle", "qubit_init": qubit_init,
        "params": {"omega": omega, "lambda": p_oracle.lambda_},
        "oscillator": {"kind": "coherent", "alpha0": [alpha.real, alpha.imag]},
        "time_grid": _grid(POINTS),
        "output": {"path": "run-oracle.csv", "format": "csv"}},
        _series_check("run-oracle", coherent, p_oracle, POINTS, "oracle", no_leak),
        dim, oracle_columns(coherent, dim))

    # run, classical engine: Gaussian Monte Carlo, 2e4 samples x 400 points, JSON
    p_classical = ModelParams(omega, float(rng.uniform(0.05, 0.2)))
    dq, dp = classical.minimum_uncertainty_widths(p_classical)
    gaussian = classical.GaussianDist(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)),
                                      dq, dp)
    samples = 20_000

    def mc_check(path) -> list:
        series = read_series(path)
        if series.engine != "classical" or series.t.size != POINTS:
            return [f"run-classical: read back engine={series.engine} rows={series.t.size}"]
        if series.meta.get("monte_carlo", {}).get("samples") != samples:
            return [f"run-classical: monte_carlo meta {series.meta.get('monte_carlo')!r}"]
        exact = classical.classical_concurrence(gaussian, series.t, p_classical)
        excess = np.abs(series.concurrence - exact) - MC_SIGMAS * series.std_error
        if excess.max() > 1e-12:
            i = int(excess.argmax())
            return [f"run-classical: |C_mc - C| = {abs(series.concurrence[i] - exact[i]):.3e}"
                    f" > {MC_SIGMAS:g} std_error ({series.std_error[i]:.3e}) at t={series.t[i]:g}"]
        return []

    classical_job = _cli_job("run-classical", "run", {
        "version": 1, "engine": "classical", "qubit_init": qubit_init,
        "params": {"omega": omega, "lambda": p_classical.lambda_},
        "oscillator": {"kind": "gaussian", "q_bar": gaussian.q_bar, "p_bar": gaussian.p_bar,
                       "delta_q": dq, "delta_p": dp},
        "time_grid": _grid(POINTS),
        "monte_carlo": {"samples": samples, "seed": int(rng.integers(2 ** 31))},
        "output": {"path": "run-classical.json", "format": "json"}}, mc_check)

    # sweep-beta: 2000 betas x (thermal, coherent, Fock(10)), CSV; the seeded
    # mean_n and alpha0 do not change the cost of a closed-form call
    sweep_specs = [Thermal(float(rng.uniform(0.5, 5.0))),
                   Coherent(complex(*rng.uniform(-3.0, 3.0, 2))),
                   Fock(10)]
    n_betas = 2000

    def sweep_check(path) -> list:
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        if rows[0] != ["spec", "beta", "C"] or len(rows) != 1 + n_betas * len(sweep_specs):
            return [f"sweep-beta: header {rows[0]!r}, {len(rows) - 1} rows"]
        problems = []
        for k, spec in enumerate(sweep_specs):
            block = rows[1 + k * n_betas: 1 + (k + 1) * n_betas]
            if any(r[0] != spec_label(spec) for r in block):
                problems.append(f"sweep-beta: rows of {spec_label(spec)} out of order")
                continue
            err = max(abs(float(r[2]) - abs(analytic.coherence_integral(
                spec, math.pi, ModelParams(1.0, float(r[1]))))) for r in block)
            if not err <= TOL:
                problems.append(f"sweep-beta: {spec_label(spec)} max error {err:.3e}")
        return problems

    def quantum(spec) -> dict:
        if isinstance(spec, Thermal):
            return {"kind": "thermal", "mean_n": spec.mean_n}
        if isinstance(spec, Coherent):
            return {"kind": "coherent", "alpha0": [spec.alpha0.real, spec.alpha0.imag]}
        return {"kind": "fock", "n": spec.n_index}

    sweep_job = _cli_job("sweep-beta", "sweep-beta", {
        "version": 1, "engine": "analytic",
        "params": {"omega": omega, "lambda": 0.1},
        "oscillators": [quantum(s) for s in sweep_specs],
        "beta_grid": {"start": 0.0, "stop": 0.5, "n_points": n_betas},
        "output": {"path": "sweep-beta.csv", "format": "csv"}}, sweep_check)

    # validate: Thermal(4) at beta 0.1 (dim 171, 171 columns), 400 points, JSON report
    p_validate = ModelParams(omega, 0.1)
    thermal4 = Thermal(4.0)

    def validate_check(path) -> list:
        with open(path) as handle:
            report = json.load(handle)
        if not report.get("passed") or not report.get("max_abs_diff", 1.0) <= TOL:
            return [f"validate: report passed={report.get('passed')} "
                    f"max_abs_diff={report.get('max_abs_diff')}"]
        cols = report["columns"]
        exact = np.abs(analytic.coherence_integral(thermal4, np.array(cols["t"]), p_validate))
        err = max(_max_err(cols["C_oracle"], exact), _max_err(cols["C_analytic"], exact))
        return [] if err <= TOL else [f"validate: max |C - closed form| = {err:.3e}"]

    validate_dim = oracle.choose_dim(thermal4, p_validate)
    validate_job = _cli_job("validate", "validate", {
        "version": 1, "engine": "validate", "qubit_init": qubit_init,
        "params": {"omega": omega, "lambda": p_validate.lambda_},
        "oscillator": {"kind": "thermal", "mean_n": thermal4.mean_n},
        "time_grid": _grid(POINTS),
        "output": {"path": "validate.json", "format": "json"}},
        validate_check, validate_dim, oracle_columns(thermal4, validate_dim))

    # spectrum: dim 60, JSON report
    p_spectrum = ModelParams(omega, float(rng.uniform(0.05, 0.2)))
    spectrum_dim = 60

    def spectrum_check(path) -> list:
        with open(path) as handle:
            report = json.load(handle)
        levels = np.arange(spectrum_dim, dtype=float)
        shifted = p_spectrum.omega * (levels - 4.0 * p_spectrum.beta ** 2)
        exact = np.sort(np.concatenate([shifted, shifted, levels, levels]))
        checked = report.get("checked_levels", 0)
        computed = np.array(report["columns"]["computed"])
        if not report.get("passed") or checked < 1 or computed.size != 4 * spectrum_dim:
            return [f"spectrum: passed={report.get('passed')} checked={checked}"]
        err = _max_err(computed[:checked], exact[:checked])
        return [] if err <= SPECTRUM_TOL else [f"spectrum: max level error {err:.3e}"]

    spectrum_job = _cli_job("spectrum", "spectrum", {
        "version": 1, "engine": "oracle",
        "params": {"omega": omega, "lambda": p_spectrum.lambda_},
        "oracle": {"dim": spectrum_dim},
        "output": {"path": "spectrum.json", "format": "json"}},
        spectrum_check, spectrum_dim)

    jobs = [analytic_job, oracle_job, classical_job, sweep_job, validate_job, spectrum_job]
    return Workload(jobs, oracle_job.run, notes={"qubit_init": qubit_init, "mc_sigmas": MC_SIGMAS})


WORKLOADS = {
    "oracle-thermal": oracle_thermal,
    "cli-jobs": cli_jobs,
}


def versions() -> dict:
    """Library versions and the BLAS build numpy reports."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": None}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "tc2q": tc2q.__version__, "blas": blas,
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
