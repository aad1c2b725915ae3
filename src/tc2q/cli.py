"""Command-line front end.

Four subcommands, all driven by a JSON config (schema version 1):

* ``run``        evolve one scenario and emit a concurrence series
* ``sweep-beta`` half-period concurrence over a grid of couplings
* ``validate``   analytic vs oracle on the same grid, pass/fail report
* ``spectrum``   oracle eigenvalues against the closed-form levels

Exit codes: 0 success, 2 configuration error, 3 numerical or validation
failure.  Unknown config keys are rejected rather than ignored, and every
JSON artifact echoes the config it was produced from, so a result file is
enough to re-run the job bit-identically.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, analytic, classical, oracle
from .model import BELL_KINDS, Coherent, Fock, ModelParams, Thermal, clamp_unit
from .series import BetaSweep, ConcurrenceSeries, write_csv, write_report, write_table

_ENGINES = ("analytic", "oracle", "classical", "validate")
_QUANTUM_KINDS = ("thermal", "coherent", "fock")
_CLASSICAL_KINDS = ("delta", "gaussian", "classical_thermal")

_TOP_KEYS = {"version", "engine", "qubit_init", "params", "oscillator",
             "oscillators", "time_grid", "beta_grid", "oracle", "monte_carlo",
             "validate", "output"}


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 2."""


def _check_keys(obj: dict, allowed: set, context: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {context}; "
                          f"allowed: {sorted(allowed)}")


def _get_number(obj: dict, key: str, context: str, required: bool = True,
                default=None):
    if key not in obj:
        if required:
            raise ConfigError(f"missing key {key!r} in {context}")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context}.{key} must be a number, got {value!r}")
    return float(value)


def _get_int(obj: dict, key: str, context: str, required: bool = True,
             default=None, minimum: int | None = None):
    if key not in obj:
        if required:
            raise ConfigError(f"missing key {key!r} in {context}")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context}.{key} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{context}.{key} must be >= {minimum}, got {value}")
    return value


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
    _check_keys(cfg, _TOP_KEYS, "config")
    version = cfg.get("version")
    if version != 1:
        raise ConfigError(f"config version must be 1, got {version!r}")
    return cfg


def _parse_params(cfg: dict) -> ModelParams:
    obj = cfg.get("params")
    if not isinstance(obj, dict):
        raise ConfigError("config.params must be an object with omega and lambda")
    _check_keys(obj, {"omega", "lambda", "omega0"}, "params")
    try:
        return ModelParams(
            omega=_get_number(obj, "omega", "params"),
            lambda_=_get_number(obj, "lambda", "params"),
            omega0=_get_number(obj, "omega0", "params", required=False, default=0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid params: {exc}") from exc


def _parse_quantum_spec(obj: dict, context: str):
    kind = obj.get("kind")
    try:
        if kind == "thermal":
            _check_keys(obj, {"kind", "mean_n"}, context)
            return Thermal(_get_number(obj, "mean_n", context))
        if kind == "coherent":
            _check_keys(obj, {"kind", "alpha0"}, context)
            raw = obj.get("alpha0")
            if isinstance(raw, (list, tuple)) and len(raw) == 2:
                alpha0 = complex(float(raw[0]), float(raw[1]))
            elif isinstance(raw, (int, float)) and not isinstance(raw, bool):
                alpha0 = complex(raw)
            else:
                raise ConfigError(
                    f"{context}.alpha0 must be a number or [re, im], got {raw!r}")
            return Coherent(alpha0)
        if kind == "fock":
            _check_keys(obj, {"kind", "n"}, context)
            return Fock(_get_int(obj, "n", context, minimum=0))
    except ValueError as exc:
        raise ConfigError(f"invalid {context}: {exc}") from exc
    raise ConfigError(f"{context}.kind must be one of {_QUANTUM_KINDS} for this engine, "
                      f"got {kind!r}")


def _parse_classical_dist(obj: dict, context: str):
    kind = obj.get("kind")
    try:
        if kind == "delta":
            _check_keys(obj, {"kind", "q0", "p0"}, context)
            return classical.DeltaDist(_get_number(obj, "q0", context),
                                       _get_number(obj, "p0", context))
        if kind == "gaussian":
            _check_keys(obj, {"kind", "q_bar", "p_bar", "delta_q", "delta_p"}, context)
            return classical.GaussianDist(
                _get_number(obj, "q_bar", context),
                _get_number(obj, "p_bar", context),
                _get_number(obj, "delta_q", context),
                _get_number(obj, "delta_p", context))
        if kind == "classical_thermal":
            _check_keys(obj, {"kind", "k_T"}, context)
            return classical.ClassicalThermal(_get_number(obj, "k_T", context))
    except ValueError as exc:
        raise ConfigError(f"invalid {context}: {exc}") from exc
    raise ConfigError(f"{context}.kind must be one of {_CLASSICAL_KINDS} for the "
                      f"classical engine, got {kind!r}")


def _parse_oscillator(cfg: dict, engine: str):
    obj = cfg.get("oscillator")
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("config.oscillator must be an object with a 'kind' field")
    if engine == "classical":
        return _parse_classical_dist(obj, "oscillator")
    return _parse_quantum_spec(obj, "oscillator")


def _parse_time_grid(cfg: dict) -> np.ndarray:
    obj = cfg.get("time_grid")
    if not isinstance(obj, dict):
        raise ConfigError(
            "config.time_grid must be an object with t_start, t_end, n_points")
    _check_keys(obj, {"t_start", "t_end", "n_points"}, "time_grid")
    t_start = _get_number(obj, "t_start", "time_grid")
    t_end = _get_number(obj, "t_end", "time_grid")
    n_points = _get_int(obj, "n_points", "time_grid", minimum=2)
    if not t_end > t_start:
        raise ConfigError(f"time_grid.t_end ({t_end}) must exceed t_start ({t_start})")
    return np.linspace(t_start, t_end, n_points)


def _parse_qubit_init(cfg: dict, engine: str) -> str:
    kind = cfg.get("qubit_init")
    if kind not in BELL_KINDS:
        raise ConfigError(f"config.qubit_init must be one of {BELL_KINDS}, got {kind!r}")
    if engine == "classical" and kind not in ("psi_plus", "phi_plus"):
        raise ConfigError("the classical engine models the (|eg>+|ge>)/sqrt(2) "
                          "correlator; qubit_init must be psi_plus or phi_plus")
    return kind


def _parse_engine(cfg: dict) -> str:
    engine = cfg.get("engine")
    if engine not in _ENGINES:
        raise ConfigError(f"config.engine must be one of {_ENGINES}, got {engine!r}")
    return engine


def _parse_dim(cfg: dict, args, spec, params) -> int:
    obj = cfg.get("oracle", {})
    if not isinstance(obj, dict):
        raise ConfigError("config.oracle must be an object")
    _check_keys(obj, {"dim"}, "oracle")
    dim = _get_int(obj, "dim", "oracle", required=False, minimum=2)
    if getattr(args, "dim", None) is not None:
        dim = args.dim
    if dim is None:
        dim = oracle.choose_dim(spec, params)
    return dim


def _resolve_output(cfg: dict, args, default_format: str = "csv"):
    obj = cfg.get("output", {})
    if not isinstance(obj, dict):
        raise ConfigError("config.output must be an object")
    _check_keys(obj, {"path", "format"}, "output")
    path = args.out or obj.get("path")
    fmt = args.format or obj.get("format") or default_format
    if path is None:
        raise ConfigError("no output path: set config.output.path or pass --out")
    if not isinstance(path, str):
        raise ConfigError(f"output.path must be a string, got {path!r}")
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
    engine = _parse_engine(cfg)
    if engine == "validate":
        return _cmd_validate(cfg, args)
    params = _parse_params(cfg)
    qubit_init = _parse_qubit_init(cfg, engine)
    spec = _parse_oscillator(cfg, engine)
    times = _parse_time_grid(cfg)
    path, fmt = _resolve_output(cfg, args)

    if engine == "analytic":
        if args.dim is not None or args.seed is not None:
            raise ConfigError("--dim/--seed do not apply to the analytic engine")
        series = _analytic_series(qubit_init, spec, times, params, cfg)
    elif engine == "oracle":
        if args.seed is not None:
            raise ConfigError("--seed does not apply to the oracle engine")
        dim = _parse_dim(cfg, args, spec, params)
        series = oracle.oracle_concurrence_series(qubit_init, spec, times,
                                                  params, dim=dim)
        series.meta = _echo_meta(cfg, **series.meta, artifact_version=__version__)
    else:
        series = _classical_series(cfg, args, qubit_init, spec, times, params)

    write_table(series, path, fmt)
    print(f"wrote {times.size} rows to {path} (engine={engine})")
    return 0


def _classical_series(cfg: dict, args, qubit_init: str, dist,
                      times: np.ndarray, params: ModelParams) -> ConcurrenceSeries:
    if args.dim is not None:
        raise ConfigError("--dim does not apply to the classical engine")
    mc = cfg.get("monte_carlo")
    if isinstance(dist, classical.ClassicalThermal):
        closed = classical.classical_concurrence_thermal(dist.k_T, times, params)
        sample_dist = classical.classical_thermal_dist(dist.k_T, params)
        label = f"classical_thermal(k_T={dist.k_T:g})"
    else:
        closed = classical.classical_concurrence(dist, times, params)
        sample_dist = dist
        label = type(dist).__name__.lower()
    if mc is None:
        if args.seed is not None:
            raise ConfigError("--seed requires a monte_carlo section in the config")
        return ConcurrenceSeries(
            engine="classical", t=times, omega_t=params.omega * times,
            concurrence=np.asarray(closed, dtype=float),
            meta=_echo_meta(cfg, engine="classical", oscillator=label,
                            artifact_version=__version__))
    if not isinstance(mc, dict):
        raise ConfigError("config.monte_carlo must be an object")
    _check_keys(mc, {"samples", "seed"}, "monte_carlo")
    samples = _get_int(mc, "samples", "monte_carlo", minimum=2)
    seed = _get_int(mc, "seed", "monte_carlo", required=False, default=0, minimum=0)
    if args.seed is not None:
        seed = args.seed
    conc = np.empty(times.size)
    err = np.empty(times.size)
    for idx, t in enumerate(times):
        # same seed at every grid point: common random numbers keep the
        # curve smooth and the file reproducible
        conc[idx], err[idx] = classical.monte_carlo_classical_concurrence(
            sample_dist, float(t), params, samples, seed)
    return ConcurrenceSeries(
        engine="classical", t=times, omega_t=params.omega * times,
        concurrence=conc, std_error=err,
        meta=_echo_meta(cfg, engine="classical", oscillator=label,
                        monte_carlo={"samples": samples, "seed": seed},
                        artifact_version=__version__))


def _cmd_validate(cfg: dict, args) -> int:
    engine = _parse_engine(cfg)
    if engine != "validate":
        raise ConfigError(f"the validate command needs engine='validate', got {engine!r}")
    params = _parse_params(cfg)
    qubit_init = _parse_qubit_init(cfg, engine)
    spec = _parse_oscillator(cfg, "validate")
    times = _parse_time_grid(cfg)
    vcfg = cfg.get("validate", {})
    if not isinstance(vcfg, dict):
        raise ConfigError("config.validate must be an object")
    _check_keys(vcfg, {"tolerance"}, "validate")
    tolerance = _get_number(vcfg, "tolerance", "validate", required=False,
                            default=1e-6)
    if tolerance <= 0:
        raise ConfigError(f"validate.tolerance must be positive, got {tolerance}")
    path, fmt = _resolve_output(cfg, args, default_format="json")
    if fmt != "json":
        raise ConfigError("validate writes a JSON report; use --format json")
    if args.seed is not None:
        raise ConfigError("--seed does not apply to the validate engine")

    dim = _parse_dim(cfg, args, spec, params)
    analytic_series = _analytic_series(qubit_init, spec, times, params, cfg)
    oracle_series = oracle.oracle_concurrence_series(qubit_init, spec, times,
                                                     params, dim=dim)
    diff = np.abs(analytic_series.concurrence - oracle_series.concurrence)
    max_diff = float(diff.max())
    passed = bool(max_diff <= tolerance)
    report = {
        "artifact_version": __version__,
        "engine": "validate",
        "tolerance": tolerance,
        "max_abs_diff": max_diff,
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
    print(f"max |C_analytic - C_oracle| = {max_diff:.6g} vs tolerance "
          f"{tolerance:g}: {status} ({path})")
    return 0 if passed else 3


def _cmd_sweep(cfg: dict, args) -> int:
    engine = _parse_engine(cfg)
    if engine != "analytic":
        raise ConfigError("sweep-beta uses the closed forms; set engine='analytic'")
    if args.dim is not None or args.seed is not None:
        raise ConfigError("--dim/--seed do not apply to sweep-beta")
    obj = cfg.get("beta_grid")
    if not isinstance(obj, dict):
        raise ConfigError("config.beta_grid must be an object with start, stop, n_points")
    _check_keys(obj, {"start", "stop", "n_points"}, "beta_grid")
    start = _get_number(obj, "start", "beta_grid")
    stop = _get_number(obj, "stop", "beta_grid")
    n_points = _get_int(obj, "n_points", "beta_grid", minimum=2)
    if not (0.0 <= start < stop <= 0.5):
        raise ConfigError(f"beta_grid must satisfy 0 <= start < stop <= 0.5, "
                          f"got [{start}, {stop}]")
    raw_specs = cfg.get("oscillators")
    if raw_specs is None:
        raw_specs = [cfg.get("oscillator")]
    if not isinstance(raw_specs, list) or not raw_specs:
        raise ConfigError("config.oscillators must be a non-empty list")
    specs = []
    for i, entry in enumerate(raw_specs):
        if not isinstance(entry, dict):
            raise ConfigError(f"oscillators[{i}] must be an object")
        specs.append(_parse_quantum_spec(entry, f"oscillators[{i}]"))
    path, fmt = _resolve_output(cfg, args)

    # the half-period point omega t = pi depends on beta alone
    betas = np.linspace(start, stop, n_points)
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
    engine = _parse_engine(cfg)
    if engine != "oracle":
        raise ConfigError(
            "spectrum diagonalizes the oracle Hamiltonian; set engine='oracle'")
    if args.seed is not None:
        raise ConfigError("--seed does not apply to spectrum")
    params = _parse_params(cfg)
    if params.omega0 != 0.0:
        raise ConfigError("the closed-form level structure needs omega0 = 0")
    obj = cfg.get("oracle", {})
    if not isinstance(obj, dict):
        raise ConfigError("config.oracle must be an object")
    _check_keys(obj, {"dim"}, "oracle")
    dim = _get_int(obj, "dim", "oracle", required=False, default=None, minimum=2)
    if args.dim is not None:
        dim = args.dim
    if dim is None:
        dim = 60
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
                       help="Monte Carlo seed (overrides config)")
        p.add_argument("--dim", type=int, default=None,
                       help="Fock-space dimension (overrides config/rule)")
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
