"""Command-line front end.

Four subcommands, all driven by a JSON config (schema version 1):

* ``run``        evolve one scenario and emit a concurrence series
* ``sweep-beta`` half-period concurrence over a grid of couplings
* ``validate``   analytic vs oracle on the same grid, pass/fail report
* ``spectrum``   oracle eigenvalues against the closed-form levels

Every job runs through ``main``: config, job check (``_JOBS``), output path,
the command's handler (parse and compute), one write, one line, exit code.

Exit codes: 0 success, 2 configuration or command-line error (the output
path is checked first), 3 numerical or validation failure (a numpy overflow
included) or a failed write; errors go to stderr as one JSON line.  Unknown
config keys, and sections the job does not read, are rejected rather than
ignored.  ``--config`` is the only flag, and an artifact echoes the config,
so the echo alone re-runs the job bit-identically; an oracle's dim
(``meta.dim``; ``dim`` in a report) is recorded as provenance.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings

import numpy as np

from . import __version__, analytic, classical, oracle
from .model import BELL_KINDS, COHERENCE_KINDS, Coherent, Fock, ModelParams, Thermal, clamp_unit
from .series import write_table

_SPECTRUM_DIM = 60
_SPECTRUM_TOL = 1e-8

#: the highest Fock level a config may name: the closed form of a number
#: state runs a recurrence of n steps over the whole grid (about 0.13 s for
#: 2000 points at this bound), and the oracle's memory check stops it far lower
_MAX_FOCK_LEVEL = 10_000


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 2."""


def _check_keys(obj: dict, allowed: set, context: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {context}; "
                          f"allowed: {sorted(allowed)}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _get_number(obj: dict, key: str, context: str, required: bool = True,
                default=None, integer: bool = False, minimum: int | None = None,
                maximum: int | None = None):
    """``obj[key]`` as a float, or as an int if ``integer``; booleans are neither."""
    if key not in obj:
        if required:
            raise ConfigError(f"missing key {key!r} in {context}")
        return default
    value = obj[key]
    if not _is_number(value) or (integer and not isinstance(value, int)):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{context}.{key} must be {kind}, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, inf or an int past the float range
        raise ConfigError(f"{context}.{key} must be finite, got {value}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{context}.{key} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{context}.{key} must be <= {maximum}, got {value}")
    return value if integer else float(value)


_get_int = functools.partial(_get_number, integer=True)
_get_level = functools.partial(_get_number, integer=True, minimum=0,
                               maximum=_MAX_FOCK_LEVEL)


def _get_amplitude(obj: dict, key: str, context: str) -> complex:
    """A complex number written as a real number or as [re, im]."""
    raw = obj.get(key)
    parts = raw if isinstance(raw, list) and len(raw) == 2 else [raw]
    if not all(_is_number(part) for part in parts):
        raise ConfigError(f"{context}.{key} must be a number or [re, im], got {raw!r}")
    if not all(abs(part) <= sys.float_info.max for part in parts):
        raise ConfigError(f"{context}.{key} must be finite, got {raw!r}")
    return complex(*parts)


# Every oscillator kind: the engine family that takes it, its constructor,
# and the config fields it reads, in argument order, each with its reader.
_KINDS = {
    "thermal": ("quantum", Thermal, {"mean_n": _get_number}),
    "coherent": ("quantum", Coherent, {"alpha0": _get_amplitude}),
    "fock": ("quantum", Fock, {"n": _get_level}),
    "delta": ("classical", classical.DeltaDist, {"q0": _get_number, "p0": _get_number}),
    "gaussian": ("classical", classical.GaussianDist,
                 dict.fromkeys(("q_bar", "p_bar", "delta_q", "delta_p"), _get_number)),
    "classical_thermal": ("classical", classical.ClassicalThermal, {"k_T": _get_number}),
}

# Every job, as (command, config.engine): its config sections besides
# version, engine and output, and the formats it writes, the default first;
# any other pair, section or format is an error.
_SCENARIO = ("qubit_init", "params", "oscillator", "time_grid")
_TABLE = ("csv", "json")
_JOBS = {
    ("run", "analytic"): (_SCENARIO, _TABLE),
    ("run", "oracle"): ((*_SCENARIO, "oracle"), _TABLE),
    ("run", "classical"): ((*_SCENARIO, "monte_carlo"), _TABLE),
    ("validate", "validate"): ((*_SCENARIO, "oracle", "validate"), ("json",)),
    ("sweep-beta", "analytic"): (("params", "oscillators", "beta_grid"), _TABLE),
    ("spectrum", "oracle"): (("params", "oracle"), ("json", "csv")),
}


def load_config(path: str) -> dict:
    try:
        with open(path) as handle:
            cfg = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8 or an int of over 4300 digits
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    version = cfg.get("version")
    if version != 1:
        raise ConfigError(f"config version must be 1, got {version!r}")
    return cfg


def _section(cfg: dict, name: str, keys: set, required: bool = False) -> dict:
    """``cfg[name]``: an object with no key outside ``keys`` ({} if optional and absent)."""
    if name not in cfg and not required:
        return {}
    obj = cfg.get(name)
    if not isinstance(obj, dict):
        raise ConfigError(f"config.{name} must be an object with keys {sorted(keys)}")
    _check_keys(obj, keys, name)
    return obj


def _parse_params(cfg: dict, command: str, engine: str) -> ModelParams:
    """config.params; every job but an oracle run evaluates a closed form, so
    it needs omega0 = 0."""
    obj = _section(cfg, "params", {"omega", "lambda", "omega0"}, required=True)
    try:
        params = ModelParams(
            omega=_get_number(obj, "omega", "params"),
            lambda_=_get_number(obj, "lambda", "params"),
            omega0=_get_number(obj, "omega0", "params", required=False, default=0.0),
        )
        if (command, engine) != ("run", "oracle"):
            params.require_degenerate()
        return params
    except ValueError as exc:
        raise ConfigError(f"invalid params: {exc}") from exc


def _parse_preparation(obj, context: str, family: str):
    """The oscillator preparation that ``{"kind": ..., <fields>}`` names."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be an object with a 'kind' field")
    kinds = tuple(kind for kind, entry in _KINDS.items() if entry[0] == family)
    kind = obj.get("kind")
    if kind not in kinds:
        raise ConfigError(f"{context}.kind must be one of {kinds} for this engine, "
                          f"got {kind!r}")
    _, make, fields = _KINDS[kind]
    _check_keys(obj, {"kind", *fields}, context)
    try:
        return make(*(read(obj, key, context) for key, read in fields.items()))
    except ValueError as exc:
        raise ConfigError(f"invalid {context}: {exc}") from exc


def _check_fits(nbytes: int, what: str) -> None:
    """Reject, before allocating, a job whose arrays alone would exceed the
    physical memory."""
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nbytes > physical:
        # imported on this error only: Decimal formats any int, float() fails past 1.8e308
        from decimal import Decimal
        raise ConfigError(f"{what} needs {Decimal(nbytes):.3g} bytes of arrays, more than "
                          f"the {Decimal(physical):.3g} bytes of physical memory")


def _parse_grid(cfg: dict, name: str, start: str, stop: str) -> np.ndarray:
    """np.linspace over the ``name`` section {start, stop, n_points}."""
    obj = _section(cfg, name, {start, stop, "n_points"}, required=True)
    first = _get_number(obj, start, name)
    last = _get_number(obj, stop, name)
    n_points = _get_int(obj, "n_points", name, minimum=2)
    if not last > first:
        raise ConfigError(f"{name}.{stop} ({last}) must exceed {start} ({first})")
    # per point the oracle series peaks at three 4x4 complex matrices (the
    # reduced state and two temporaries while the stack is rotated back)
    # and its float columns, about 780 bytes under tracemalloc; count 1 kB
    _check_fits(1024 * n_points, f"{name}.n_points = {n_points}")
    return np.linspace(first, last, n_points)


def _parse_job(cfg: dict, command: str) -> str:
    """config.engine, checked with the sections against ``_JOBS``."""
    engine = cfg.get("engine")
    if not isinstance(engine, str) or (command, engine) not in _JOBS:
        engines = tuple(name for job, name in _JOBS if job == command)
        raise ConfigError(f"{command} needs config.engine in {engines}, got {engine!r}")
    sections, _ = _JOBS[command, engine]
    _check_keys(cfg, {"version", "engine", "output", *sections}, f"config of {command}")
    return engine


def _check_scales(params: ModelParams, times: np.ndarray | None, dim: int | None = None) -> None:
    """Reject, before any engine runs, parameters whose products with the time
    grid (t = 0 without one), the Fock truncation or both overflow (ModelParams checks beta)."""
    span = 0.0 if times is None else max(-float(times[0]), float(times[-1]))
    products = {"omega * t": params.omega * span}
    if dim is not None:  # the oracle's phases E t, E up to about omega dim
        products.update({"omega * dim": params.omega * dim,
                         "lambda * sqrt(dim)": params.lambda_ * math.sqrt(dim),
                         "omega * dim * t": products["omega * t"] * dim})
    for name, value in products.items():
        if not math.isfinite(value):
            raise ConfigError(f"{name} is not finite for omega = {params.omega!r}, "
                              f"lambda = {params.lambda_!r}")


def _parse_scenario(cfg: dict, command: str, engine: str):
    """The scenario ``run`` and ``validate`` share, with its scales checked."""
    params = _parse_params(cfg, command, engine)
    kind = cfg.get("qubit_init")
    if kind not in BELL_KINDS:
        raise ConfigError(f"config.qubit_init must be one of {BELL_KINDS}, got {kind!r}")
    if engine == "classical" and kind not in COHERENCE_KINDS:
        raise ConfigError("the classical engine models the (|eg>+|ge>)/sqrt(2) "
                          "correlator; qubit_init must be psi_plus or phi_plus")
    spec = _parse_preparation(cfg.get("oscillator"), "oscillator",
                              "classical" if engine == "classical" else "quantum")
    times = _parse_grid(cfg, "time_grid", "t_start", "t_end")
    _check_scales(params, times)
    return params, kind, spec, times


def _resolve_dim(cfg: dict, params: ModelParams, spec=None, times=None) -> int:
    """The Fock truncation: oracle.dim, else oracle.choose_dim for ``spec``
    (the spectrum's fixed default without one), checked with ``times``."""
    obj = _section(cfg, "oracle", {"dim"})
    dim = _get_int(obj, "dim", "oracle", required=False, minimum=2)
    if dim is None:
        try:
            dim = _SPECTRUM_DIM if spec is None else oracle.choose_dim(spec, params)
        except (OverflowError, oracle.TruncationError) as exc:  # or a thermal tail of 1
            raise ConfigError(f"no Fock truncation fits beta = {params.beta!r}: "
                              f"{exc}") from exc
    _check_fits(oracle.peak_bytes(dim), f"dim = {dim}")
    _check_scales(params, times, dim)
    return dim


def _resolve_output(cfg: dict, command: str, engine: str):
    """Output path (output.path) and format: output.format, else the path's
    .csv or .json suffix, else the job's default format (``_JOBS``)."""
    formats = _JOBS[command, engine][1]
    obj = _section(cfg, "output", {"path", "format"})
    path = obj.get("path")
    if path is None:
        raise ConfigError("no output path: set config.output.path")
    if not isinstance(path, str):
        raise ConfigError(f"output.path must be a string, got {path!r}")
    # the atomic write needs the parent directory for its temp file
    parent = os.path.dirname(path) or "."
    if not os.path.basename(path) or os.path.isdir(path):
        raise ConfigError(f"output path {path!r} does not name a file")
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK)):
        raise ConfigError(f"output directory {parent!r} does not exist or is not writable")
    suffix = os.path.splitext(path)[1].lower()
    fmt = obj.get("format", {".csv": "csv", ".json": "json"}.get(suffix, formats[0]))
    if fmt not in _TABLE:
        raise ConfigError(f"output format must be 'csv' or 'json', got {fmt!r}")
    if fmt not in formats:
        raise ConfigError(f"{command} writes only a JSON report; give a .json "
                          "output path or output.format json")
    return path, fmt


def _cmd_run(cfg: dict, command: str, engine: str, path: str):
    params, qubit_init, spec, times = _parse_scenario(cfg, command, engine)
    if engine == "analytic":
        series = analytic.analytic_series(qubit_init, spec, times, params)
    elif engine == "oracle":
        series = oracle.oracle_concurrence_series(
            qubit_init, spec, times, params, dim=_resolve_dim(cfg, params, spec, times))
    else:
        series = _classical_series(cfg, spec, times, params)
    return (series.engine, series.columns(),
            {**series.meta, "artifact_version": __version__}, None,
            f"wrote {times.size} rows to {path} (engine={engine})", True)


def _classical_series(cfg: dict, dist, times: np.ndarray, params: ModelParams):
    samples, seed = None, 0
    if "monte_carlo" in cfg:
        mc = _section(cfg, "monte_carlo", {"samples", "seed"})
        samples = _get_int(mc, "samples", "monte_carlo", minimum=2)
        seed = _get_int(mc, "seed", "monte_carlo", required=False, default=0, minimum=0)
        _check_fits(classical.mc_peak_bytes(samples), f"monte_carlo.samples = {samples}")
    try:
        return classical.classical_series(dist, times, params, samples, seed)
    except OverflowError as exc:  # a sampled phase past the float range
        raise ConfigError(str(exc)) from exc


def _cmd_validate(cfg: dict, command: str, engine: str, path: str):
    params, qubit_init, spec, times = _parse_scenario(cfg, command, engine)
    tolerance = _get_number(_section(cfg, "validate", {"tolerance"}), "tolerance",
                            "validate", required=False, default=1e-6)
    if tolerance <= 0:
        raise ConfigError(f"validate.tolerance must be positive, got {tolerance}")
    dim = _resolve_dim(cfg, params, spec, times)
    analytic_series = analytic.analytic_series(qubit_init, spec, times, params)
    oracle_series = oracle.oracle_concurrence_series(qubit_init, spec, times,
                                                     params, dim=dim)
    diff = np.abs(analytic_series.concurrence - oracle_series.concurrence)
    max_diff = float(diff.max())
    # I = u + iv carries the phase that C = |I| cannot show; the stationary
    # Bell kinds have no I column
    coherence_diff, coherence = None, ""
    if analytic_series.u is not None:
        coherence_diff = float(np.hypot(analytic_series.u - oracle_series.u,
                                        analytic_series.v - oracle_series.v).max())
        coherence = f", max |I_analytic - I_oracle| = {coherence_diff:.6g}"
    passed = bool(max_diff <= tolerance
                  and (coherence_diff is None or coherence_diff <= tolerance))
    status = "PASS" if passed else "FAIL"
    return ("validate",
            {"t": times, "omega_t": analytic_series.omega_t,
             "C_analytic": analytic_series.concurrence,
             "C_oracle": oracle_series.concurrence, "abs_diff": diff},
            {"blocks": oracle_series.meta["blocks"],
             "eigen_residual": oracle_series.meta["eigen_residual"]},
            {"tolerance": tolerance, "max_abs_diff": max_diff,
             "max_abs_diff_coherence": coherence_diff, "passed": passed,
             "n_points": int(times.size), "dim": dim},
            f"max |C_analytic - C_oracle| = {max_diff:.6g}{coherence} vs tolerance "
            f"{tolerance:g}: {status} ({path})", passed)


def _cmd_sweep(cfg: dict, command: str, engine: str, path: str):
    # optional: beta comes from the grid, but params given are checked
    if "params" in cfg:
        _parse_params(cfg, command, engine)
    betas = _parse_grid(cfg, "beta_grid", "start", "stop")
    if not 0.0 <= betas[0] < betas[-1] <= 0.5:
        raise ConfigError(f"beta_grid must lie within [0, 0.5], "
                          f"got [{betas[0]}, {betas[-1]}]")
    raw_specs = cfg.get("oscillators")
    if not isinstance(raw_specs, list) or not raw_specs:
        raise ConfigError("config.oscillators must be a non-empty list")
    specs = [_parse_preparation(entry, f"oscillators[{i}]", "quantum")
             for i, entry in enumerate(raw_specs)]
    # one row per (oscillator, beta): writing the table peaks at about 500
    # bytes per row under tracemalloc (JSON; CSV about 310); count 1 kB
    _check_fits(1024 * len(specs) * betas.size,
                f"{len(specs)} oscillator(s) x {betas.size} betas")

    # the half-period point omega t = pi depends on beta alone
    labels = [label for spec in specs for label in [spec.label] * betas.size]
    conc = [clamp_unit(np.abs(spec.coherence(math.pi, betas))) for spec in specs]
    return ("analytic",
            {"spec": labels, "beta": np.tile(betas, len(specs)), "C": np.concatenate(conc)},
            {"engine": "analytic", "artifact_version": __version__}, None,
            f"wrote {len(labels)} rows to {path} ({len(specs)} oscillator spec(s))", True)


def _cmd_spectrum(cfg: dict, command: str, engine: str, path: str):
    params = _parse_params(cfg, command, engine)
    dim = _resolve_dim(cfg, params)
    computed = oracle.spectrum(params, dim)
    predicted = analytic.predicted_spectrum(params, dim)
    abs_diff = np.abs(computed - predicted)
    checked = (2 * dim) // 3
    max_diff = float(abs_diff[:checked].max())
    passed = bool(max_diff <= _SPECTRUM_TOL)
    status = "PASS" if passed else "FAIL"
    return ("oracle",
            {"index": np.arange(computed.size), "computed": computed,
             "predicted": predicted, "abs_diff": abs_diff},
            {}, {"dim": dim, "checked_levels": checked, "max_abs_diff_checked": max_diff,
                 "tolerance": _SPECTRUM_TOL, "passed": passed},
            f"lowest {checked} levels: max |E - E_pred| = {max_diff:.6g} vs "
            f"{_SPECTRUM_TOL:g}: {status} ({path})", passed)


class _Parser(argparse.ArgumentParser):
    """argparse's parser (and its subparsers') with a usage error, say an
    unknown flag, raised as a config error; --version and -h still exit 0."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tc2q",
        description="Entanglement dynamics of two qubits in a degenerate cavity.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, blurb in (
            ("run", _cmd_run, "evolve one scenario and write a concurrence series"),
            ("sweep-beta", _cmd_sweep, "half-period concurrence over a coupling grid"),
            ("validate", _cmd_validate, "compare analytic and oracle engines"),
            ("spectrum", _cmd_spectrum, "check oracle eigenvalues against closed form")):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.set_defaults(handler=handler)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every :func:`main` call in this process, built once:
    ``parse_args`` does not change it, and a parser built per call leaves
    argparse's debris behind, about 1 MB more resident memory after 1,800
    in-process calls."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        cfg = load_config(args.config)
        engine = _parse_job(cfg, args.command)
        path, fmt = _resolve_output(cfg, args.command, engine)
        with warnings.catch_warnings():
            # numpy reports an overflow as a warning: a numerical failure here
            warnings.simplefilter("error", RuntimeWarning)
            kind, columns, meta, summary, message, passed = args.handler(
                cfg, args.command, engine, path)
        write_table(path, fmt, kind, columns, {"config": cfg, **meta}, summary)
    except ConfigError as exc:
        print(json.dumps({"error": str(exc), "exit_code": 2}), file=sys.stderr)
        return 2
    except (oracle.TruncationError, MemoryError, OverflowError, ValueError, OSError,
            RuntimeWarning) as exc:
        print(json.dumps({"error": str(exc), "exit_code": 3}), file=sys.stderr)
        return 3
    print(message)
    return 0 if passed else 3


if __name__ == "__main__":
    sys.exit(main())
