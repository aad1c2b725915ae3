"""Command-line front end.

Four subcommands, all driven by a JSON config (schema version 1):

* ``run``        evolve one scenario and emit a concurrence series
* ``sweep-beta`` half-period concurrence over a grid of couplings
* ``validate``   analytic vs oracle on the same grid, pass/fail report
* ``spectrum``   oracle eigenvalues against the closed-form levels

Exit codes: 0 success, 2 configuration error, 3 numerical or validation
failure.  Unknown config keys, and sections the job does not read, are
rejected rather than ignored, and every JSON artifact echoes the config it
was produced from, so a result file is enough to re-run the job bit-identically.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__, analytic, classical, oracle
from .model import BELL_KINDS, Coherent, Fock, ModelParams, Thermal, clamp_unit
from .series import BetaSweep, ConcurrenceSeries, write_csv, write_report, write_table

_SPECTRUM_DIM = 60


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
                default=None, integer: bool = False, minimum: int | None = None):
    """``obj[key]`` as a float, or as an int if ``integer``; booleans are neither."""
    if key not in obj:
        if required:
            raise ConfigError(f"missing key {key!r} in {context}")
        return default
    value = obj[key]
    if not _is_number(value) or (integer and not isinstance(value, int)):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{context}.{key} must be {kind}, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{context}.{key} must be >= {minimum}, got {value}")
    return value if integer else float(value)


_get_int = functools.partial(_get_number, integer=True)
_get_count = functools.partial(_get_number, integer=True, minimum=0)


def _get_amplitude(obj: dict, key: str, context: str) -> complex:
    """A complex number written as a real number or as [re, im]."""
    raw = obj.get(key)
    parts = raw if isinstance(raw, list) and len(raw) == 2 else [raw]
    if not all(_is_number(part) for part in parts):
        raise ConfigError(f"{context}.{key} must be a number or [re, im], got {raw!r}")
    return complex(*parts)


# Every oscillator kind: the engine family that takes it, its constructor,
# and the config fields it reads, in argument order, each with its reader.
_KINDS = {
    "thermal": ("quantum", Thermal, {"mean_n": _get_number}),
    "coherent": ("quantum", Coherent, {"alpha0": _get_amplitude}),
    "fock": ("quantum", Fock, {"n": _get_count}),
    "delta": ("classical", classical.DeltaDist, {"q0": _get_number, "p0": _get_number}),
    "gaussian": ("classical", classical.GaussianDist,
                 dict.fromkeys(("q_bar", "p_bar", "delta_q", "delta_p"), _get_number)),
    "classical_thermal": ("classical", classical.ClassicalThermal, {"k_T": _get_number}),
}

# Every job, as (command, config.engine): the command-line overrides it reads
# (--seed only with a monte_carlo section) and its config sections besides
# version, engine and output; any other pair, override or section is an error.
_SCENARIO = ("qubit_init", "params", "oscillator", "time_grid")
_JOBS = {
    ("run", "analytic"): ((), _SCENARIO),
    ("run", "oracle"): (("dim",), (*_SCENARIO, "oracle")),
    ("run", "classical"): (("seed",), (*_SCENARIO, "monte_carlo")),
    ("run", "validate"): (("dim",), (*_SCENARIO, "oracle", "validate")),
    ("validate", "validate"): (("dim",), (*_SCENARIO, "oracle", "validate")),
    ("sweep-beta", "analytic"): ((), ("params", "oscillator", "oscillators", "beta_grid")),
    ("spectrum", "oracle"): (("dim",), ("params", "oracle")),
}


def load_config(path: str) -> dict:
    try:
        with open(path) as handle:
            cfg = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
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


def _parse_params(cfg: dict) -> ModelParams:
    obj = _section(cfg, "params", {"omega", "lambda", "omega0"}, required=True)
    try:
        return ModelParams(
            omega=_get_number(obj, "omega", "params"),
            lambda_=_get_number(obj, "lambda", "params"),
            omega0=_get_number(obj, "omega0", "params", required=False, default=0.0),
        )
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
        raise ConfigError(f"{what} needs {nbytes:.3g} bytes of arrays, more than the "
                          f"{physical:.3g} bytes of physical memory")


def _parse_grid(cfg: dict, name: str, start: str, stop: str) -> np.ndarray:
    """np.linspace over the ``name`` section {start, stop, n_points}."""
    obj = _section(cfg, name, {start, stop, "n_points"}, required=True)
    first = _get_number(obj, start, name)
    last = _get_number(obj, stop, name)
    n_points = _get_int(obj, "n_points", name, minimum=2)
    if not last > first:
        raise ConfigError(f"{name}.{stop} ({last}) must exceed {start} ({first})")
    # per point the oracle series peaks at three 4x4 complex matrices (the
    # reduced state and two temporaries while I(t) is read off the stack)
    # and its float columns, about 780 bytes under tracemalloc; count 1 kB
    _check_fits(1024 * n_points, f"{name}.n_points = {n_points}")
    return np.linspace(first, last, n_points)


def _parse_qubit_init(cfg: dict, engine: str) -> str:
    kind = cfg.get("qubit_init")
    if kind not in BELL_KINDS:
        raise ConfigError(f"config.qubit_init must be one of {BELL_KINDS}, got {kind!r}")
    if engine == "classical" and kind not in ("psi_plus", "phi_plus"):
        raise ConfigError("the classical engine models the (|eg>+|ge>)/sqrt(2) "
                          "correlator; qubit_init must be psi_plus or phi_plus")
    return kind


def _parse_job(cfg: dict, args, command: str) -> str:
    """config.engine, checked with --dim/--seed and the sections against ``_JOBS``."""
    engine = cfg.get("engine")
    if not isinstance(engine, str) or (command, engine) not in _JOBS:
        engines = tuple(name for job, name in _JOBS if job == command)
        raise ConfigError(f"{command} needs config.engine in {engines}, got {engine!r}")
    flags, sections = _JOBS[command, engine]
    for flag in ("dim", "seed"):
        if getattr(args, flag) is not None and flag not in flags:
            raise ConfigError(f"--{flag} does not apply to {command} with engine={engine}")
    _check_keys(cfg, {"version", "engine", "output", *sections}, f"config of {command}")
    return engine


def _resolve_dim(cfg: dict, args, default: int) -> int:
    """The Fock truncation: --dim, else oracle.dim, else ``default``."""
    obj = _section(cfg, "oracle", {"dim"})
    dim = _get_int(obj, "dim", "oracle", required=False, minimum=2)
    if args.dim is not None:
        dim = args.dim
    dim = default if dim is None else dim
    # about four dense (4 dim)^2 complex matrices at once: the Hamiltonian,
    # its eigenvectors and eigh's workspace
    _check_fits(4 * 16 * (4 * dim) ** 2, f"dim = {dim}")
    return dim


def _resolve_output(cfg: dict, args, default_format: str = "csv"):
    """Output path and format: --format, else output.format, else the path's
    .csv or .json suffix, else ``default_format``."""
    obj = _section(cfg, "output", {"path", "format"})
    path = args.out or obj.get("path")
    if path is None:
        raise ConfigError("no output path: set config.output.path or pass --out")
    if not isinstance(path, str):
        raise ConfigError(f"output.path must be a string, got {path!r}")
    suffix = os.path.splitext(path)[1].lower()
    fmt = (args.format or obj.get("format")
           or {".csv": "csv", ".json": "json"}.get(suffix, default_format))
    if fmt not in ("csv", "json"):
        raise ConfigError(f"output format must be 'csv' or 'json', got {fmt!r}")
    return path, fmt


def _echo_meta(cfg: dict, **extra) -> dict:
    meta = {"config": cfg}
    meta.update(extra)
    return meta


def _analytic_series(qubit_init: str, spec, times: np.ndarray,
                     params: ModelParams, cfg: dict) -> ConcurrenceSeries:
    if qubit_init in ("psi_plus", "phi_plus"):
        i_t = analytic.coherence_integral(spec, times, params)
        conc = clamp_unit(np.abs(i_t))
        u, v = i_t.real.copy(), i_t.imag.copy()
    else:
        # |psi-> and |phi-> are eigenstates of the degenerate Hamiltonian
        conc = np.ones_like(times)
        u = v = None
    return ConcurrenceSeries(
        engine="analytic", t=times, omega_t=params.omega * times,
        concurrence=conc, u=u, v=v,
        meta=_echo_meta(cfg, engine="analytic", oscillator=spec.label,
                        artifact_version=__version__))


def _cmd_run(cfg: dict, args) -> int:
    engine = _parse_job(cfg, args, "run")
    if engine == "validate":
        return _cmd_validate(cfg, args)
    params = _parse_params(cfg)
    qubit_init = _parse_qubit_init(cfg, engine)
    spec = _parse_preparation(cfg.get("oscillator"), "oscillator",
                              "classical" if engine == "classical" else "quantum")
    times = _parse_grid(cfg, "time_grid", "t_start", "t_end")
    path, fmt = _resolve_output(cfg, args)

    if engine == "analytic":
        series = _analytic_series(qubit_init, spec, times, params, cfg)
    elif engine == "oracle":
        dim = _resolve_dim(cfg, args, oracle.choose_dim(spec, params))
        series = oracle.oracle_concurrence_series(qubit_init, spec, times,
                                                  params, dim=dim)
        series.meta = _echo_meta(cfg, **series.meta, artifact_version=__version__)
    else:
        series = _classical_series(cfg, args, spec, times, params)

    write_table(series, path, fmt)
    print(f"wrote {times.size} rows to {path} (engine={engine})")
    return 0


def _classical_series(cfg: dict, args, dist, times: np.ndarray,
                      params: ModelParams) -> ConcurrenceSeries:
    meta = {"engine": "classical", "oscillator": dist.label}
    if cfg.get("monte_carlo") is None:
        if args.seed is not None:
            raise ConfigError("--seed requires a monte_carlo section in the config")
        conc, err = dist.concurrence(times, params), None
    else:
        mc = _section(cfg, "monte_carlo", {"samples", "seed"}, required=True)
        samples = _get_int(mc, "samples", "monte_carlo", minimum=2)
        seed = _get_int(mc, "seed", "monte_carlo", required=False, default=0, minimum=0)
        if args.seed is not None:
            seed = args.seed
        # one sample set for the whole grid: common random numbers keep the
        # curve smooth and the file reproducible
        conc, err = classical.monte_carlo_classical_concurrence(
            dist, times, params, samples, seed)
        meta["monte_carlo"] = {"samples": samples, "seed": seed}
    return ConcurrenceSeries(
        engine="classical", t=times, omega_t=params.omega * times,
        concurrence=conc, std_error=err,
        meta=_echo_meta(cfg, **meta, artifact_version=__version__))


def _cmd_validate(cfg: dict, args) -> int:
    engine = _parse_job(cfg, args, "validate")
    params = _parse_params(cfg)
    qubit_init = _parse_qubit_init(cfg, engine)
    spec = _parse_preparation(cfg.get("oscillator"), "oscillator", "quantum")
    times = _parse_grid(cfg, "time_grid", "t_start", "t_end")
    tolerance = _get_number(_section(cfg, "validate", {"tolerance"}), "tolerance",
                            "validate", required=False, default=1e-6)
    if tolerance <= 0:
        raise ConfigError(f"validate.tolerance must be positive, got {tolerance}")
    path, fmt = _resolve_output(cfg, args, default_format="json")
    if fmt != "json":
        raise ConfigError("validate writes a JSON report; use --format json")

    dim = _resolve_dim(cfg, args, oracle.choose_dim(spec, params))
    analytic_series = _analytic_series(qubit_init, spec, times, params, cfg)
    oracle_series = oracle.oracle_concurrence_series(qubit_init, spec, times,
                                                     params, dim=dim)
    diff = np.abs(analytic_series.concurrence - oracle_series.concurrence)
    max_diff = float(diff.max())
    # I = u + iv carries the phase that C = |I| cannot show; the stationary
    # Bell kinds have no I column
    coherence_diff = None
    if analytic_series.u is not None:
        coherence_diff = float(np.hypot(analytic_series.u - oracle_series.u,
                                        analytic_series.v - oracle_series.v).max())
    passed = bool(max_diff <= tolerance
                  and (coherence_diff is None or coherence_diff <= tolerance))
    report = {
        "artifact_version": __version__,
        "engine": "validate",
        "tolerance": tolerance,
        "max_abs_diff": max_diff,
        "max_abs_diff_coherence": coherence_diff,
        "passed": passed,
        "n_points": int(times.size),
        "dim": dim,
        "meta": _echo_meta(cfg),
        "columns": {
            "t": times.tolist(),
            "omega_t": (params.omega * times).tolist(),
            "C_analytic": analytic_series.concurrence.tolist(),
            "C_oracle": oracle_series.concurrence.tolist(),
            "abs_diff": diff.tolist(),
        },
    }
    write_report(path, report)
    status = "PASS" if passed else "FAIL"
    print(f"max |C_analytic - C_oracle| = {max_diff:.6g}, max |I_analytic - I_oracle| "
          f"= {coherence_diff} vs tolerance {tolerance:g}: {status} ({path})")
    return 0 if passed else 3


def _cmd_sweep(cfg: dict, args) -> int:
    _parse_job(cfg, args, "sweep-beta")
    # optional: beta comes from the grid, but params given are checked
    if "params" in cfg and _parse_params(cfg).omega0 != 0.0:
        raise ConfigError("sweep-beta evaluates the omega0 = 0 closed form; "
                          "params.omega0 must be 0")
    betas = _parse_grid(cfg, "beta_grid", "start", "stop")
    if not 0.0 <= betas[0] < betas[-1] <= 0.5:
        raise ConfigError(f"beta_grid must lie within [0, 0.5], "
                          f"got [{betas[0]}, {betas[-1]}]")
    raw_specs = cfg.get("oscillators")
    if raw_specs is not None and "oscillator" in cfg:
        raise ConfigError("give config.oscillator or config.oscillators, not both")
    if raw_specs is None:
        raw_specs = [cfg.get("oscillator")]
    if not isinstance(raw_specs, list) or not raw_specs:
        raise ConfigError("config.oscillators must be a non-empty list")
    specs = [_parse_preparation(entry, f"oscillators[{i}]", "quantum")
             for i, entry in enumerate(raw_specs)]
    path, fmt = _resolve_output(cfg, args)

    # the half-period point omega t = pi depends on beta alone
    labels = [spec.label for spec in specs for _ in betas]
    conc = [clamp_unit(np.abs(spec.coherence(math.pi, betas))) for spec in specs]
    sweep = BetaSweep(labels=labels, beta=np.tile(betas, len(specs)),
                      concurrence=np.concatenate(conc),
                      meta=_echo_meta(cfg, engine="analytic",
                                      artifact_version=__version__))
    write_table(sweep, path, fmt)
    print(f"wrote {len(labels)} rows to {path} ({len(specs)} oscillator spec(s))")
    return 0


def _cmd_spectrum(cfg: dict, args) -> int:
    _parse_job(cfg, args, "spectrum")
    params = _parse_params(cfg)
    if params.omega0 != 0.0:
        raise ConfigError("the closed-form level structure needs omega0 = 0")
    dim = _resolve_dim(cfg, args, _SPECTRUM_DIM)
    path, fmt = _resolve_output(cfg, args, default_format="json")

    computed = np.sort(np.linalg.eigvalsh(oracle.build_hamiltonian(params, dim)))
    predicted = oracle.predicted_spectrum(params, dim)
    checked = (2 * dim) // 3
    max_diff = float(np.abs(computed[:checked] - predicted[:checked]).max())
    passed = bool(max_diff <= 1e-8)
    if fmt == "csv":
        write_csv(path, {"index": np.arange(computed.size, dtype=float),
                         "computed": computed,
                         "predicted": predicted,
                         "abs_diff": np.abs(computed - predicted)},
                  "oracle", _echo_meta(cfg, dim=dim, checked_levels=checked,
                                       max_abs_diff_checked=max_diff, passed=passed,
                                       artifact_version=__version__))
    else:
        write_report(path, {
            "artifact_version": __version__,
            "engine": "oracle",
            "dim": dim,
            "checked_levels": checked,
            "max_abs_diff_checked": max_diff,
            "tolerance": 1e-8,
            "passed": passed,
            "meta": _echo_meta(cfg),
            "columns": {
                "computed": computed.tolist(),
                "predicted": predicted.tolist(),
            },
        })
    status = "PASS" if passed else "FAIL"
    print(f"lowest {checked} levels: max |E - E_pred| = {max_diff:.6g} vs 1e-08: "
          f"{status} ({path})")
    return 0 if passed else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        p.add_argument("--out", default=None, help="output path (overrides config)")
        p.add_argument("--format", default=None, choices=("csv", "json"),
                       help="output format (overrides config)")
        p.add_argument("--seed", type=int, default=None,
                       help="Monte Carlo seed, overrides monte_carlo.seed (classical run)")
        p.add_argument("--dim", type=int, default=None,
                       help="Fock-space dimension, overrides oracle.dim and the default "
                            "(oracle run, validate, spectrum)")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        if args.dim is not None and args.dim < 2:
            raise ConfigError(f"--dim must be >= 2, got {args.dim}")
        return args.handler(cfg, args)
    except ConfigError as exc:
        print(json.dumps({"error": str(exc), "exit_code": 2}), file=sys.stderr)
        return 2
    except (oracle.TruncationError, MemoryError, OverflowError, ValueError) as exc:
        print(json.dumps({"error": str(exc), "exit_code": 3}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
