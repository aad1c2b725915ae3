"""Run one fixed corpus of CLI calls against two checkouts and diff the artifacts.

    python tools/corpus.py BASE [HEAD] [--match REGEX]

BASE and HEAD are checkouts of this repository (HEAD defaults to the one
this script is in).  Each side runs the whole corpus in a fresh interpreter
with its own ``src/`` first on ``PYTHONPATH``, as in-process ``cli.main``
calls, one directory per call.  The corpus is the table in
:func:`corpus`: every ``run`` engine, ``validate``, ``sweep-beta`` and
``spectrum``, each Bell kind and preparation the job reads, CSV and JSON,
the oracle at omega0 = 0 and 0.25 with and without ``oracle.dim``,
``validate`` to t = 20000 (oracle phases E t near 10^6 radians) and on the
benchmark's Thermal(5) series at dim 198, classical closed forms and Monte
Carlo runs at several seeds, and the command-line and config errors of the
CLI's exit-code contract.
``--match`` keeps the calls whose name the regex finds.

The script prints one line: that every file, stdout, stderr and exit code
is identical, or, for each call and artifact that differs, what differs:
each numeric field (a table column, a summary or ``meta`` number) with its
max abs diff, and any other field by name.  No field is skipped.  It exits
0 whatever it finds, and 1 only if a side cannot run.  No golden output is
kept: the two sides are compared on one machine, with one numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

KINDS = ("psi_plus", "psi_minus", "phi_plus", "phi_minus")
QUANTUM = {"thermal": {"kind": "thermal", "mean_n": 1.0},
           "coherent": {"kind": "coherent", "alpha0": [1.0, 0.5]},
           "fock": {"kind": "fock", "n": 3}}
CLASSICAL = {"delta": {"kind": "delta", "q0": 0.5, "p0": -0.3},
             "gaussian": {"kind": "gaussian", "q_bar": 0.5, "p_bar": -0.3,
                          "delta_q": 1.0, "delta_p": 1.0},
             "classical_thermal": {"kind": "classical_thermal", "k_T": 1.0}}
GRID = {"t_start": 0.0, "t_end": 4.0 * math.pi, "n_points": 201}
SUFFIX = {"csv": "out.csv", "json": "out.json"}

#: additions to the command line of the README's oracle run, as the CLI fuzz
#: test draws them: flags no job reads, --dim and --out among them
FLAGS = (["--seed", "7"], ["--seed", "-1"], ["--format", "csv"], ["--format", "json"],
         ["--bogus"], ["extra"], ["--dim"], ["--out"], ["--config", "missing.json"],
         ["--dim", "60"], ["--out", "other.csv"])
#: oracle.dim and output.path values of that run's config
DIMS = ("abc", "", 1.5, 1e3, -3, 0, 1, 2, 12, 48, 60)
OUTS = ("out.json", "out.csv", "out", "", ".", "missing/out.csv")


def scenario(engine: str, kind: str, oscillator: dict, fmt: str, omega0: float = 0.0,
             **sections) -> dict:
    """A run or validate config on the corpus grid at lambda = 0.2."""
    return {"version": 1, "engine": engine, "qubit_init": kind,
            "params": {"omega": 1.0, "lambda": 0.2, "omega0": omega0},
            "oscillator": oscillator, "time_grid": dict(GRID),
            "output": {"path": SUFFIX[fmt]}, **sections}


def call(command: str, *extra: str) -> list:
    """The command line of a corpus call, which reads ``cfg.json``."""
    return [command, "--config", "cfg.json", *extra]


RUN, VALIDATE = call("run"), call("validate")


def corpus():
    """(name, argv, config) of every call, in a fixed order."""
    formats = tuple(SUFFIX)
    for kind, (prep, osc), fmt in itertools.product(KINDS, QUANTUM.items(), formats):
        yield f"run-analytic-{kind}-{prep}-{fmt}", RUN, scenario("analytic", kind, osc, fmt)
        for omega0 in (0.0, 0.25):
            yield (f"run-oracle-w{omega0:g}-{kind}-{prep}-{fmt}", RUN,
                   scenario("oracle", kind, osc, fmt, omega0))
    for omega0, (label, sections) in itertools.product((0.0, 0.25), (
            ("dim", {"oracle": {"dim": 60}}),
            ("out", {"output": {"path": "other.json"}}),
            ("dim-and-out", {"oracle": {"dim": 70}, "output": {"path": "other.csv"}}))):
        yield (f"run-oracle-w{omega0:g}-{label}", RUN,
               {**scenario("oracle", "psi_plus", QUANTUM["coherent"], "csv", omega0),
                **sections})
    for kind, (prep, osc) in itertools.product(KINDS, QUANTUM.items()):
        yield f"validate-{kind}-{prep}", VALIDATE, scenario("validate", kind, osc, "json")
    yield "validate-failing-tolerance", VALIDATE, scenario(
        "validate", "psi_plus", QUANTUM["coherent"], "json", validate={"tolerance": 1e-300})
    weak = {"omega": 1.0, "lambda": 0.1, "omega0": 0.0}
    for prep in ("thermal", "coherent"):
        yield f"validate-long-psi_plus-{prep}", VALIDATE, {
            **scenario("validate", "psi_plus", QUANTUM[prep], "json"), "params": weak,
            "time_grid": {"t_start": 0.0, "t_end": 20000.0, "n_points": 1001}}
    for kind in ("psi_plus", "phi_plus"):
        yield f"validate-bench-{kind}-thermal-5", VALIDATE, {
            **scenario("validate", kind, {"kind": "thermal", "mean_n": 5.0}, "json"),
            "params": weak, "time_grid": {**GRID, "n_points": 400}}
    for kind, (ens, dist), seed, fmt in itertools.product(
            ("psi_plus", "phi_plus"), CLASSICAL.items(), (None, 0, 7), formats):
        sections = {} if seed is None else {"monte_carlo": {"samples": 1000, "seed": seed}}
        yield (f"run-classical-{kind}-{ens}-{'closed' if seed is None else f'seed{seed}'}-{fmt}",
               RUN, scenario("classical", kind, dist, fmt, **sections))
    for fmt, (label, oscillators) in itertools.product(formats, (
            ("one", [QUANTUM["thermal"]]), ("list", list(QUANTUM.values())))):
        yield (f"sweep-beta-{label}-{fmt}", call("sweep-beta"),
               {"version": 1, "engine": "analytic", "params": {"omega": 1.0, "lambda": 0.1},
                "oscillators": oscillators,
                "beta_grid": {"start": 0.0, "stop": 0.5, "n_points": 101},
                "output": {"path": SUFFIX[fmt]}})
    for fmt, oracle in itertools.product(formats, ({}, {"oracle": {"dim": 30}})):
        yield (f"spectrum-{fmt}{'-dim' if oracle else ''}", call("spectrum"),
               {"version": 1, "engine": "oracle", "params": {"omega": 1.0, "lambda": 0.2},
                "output": {"path": SUFFIX[fmt]}, **oracle})
    yield from errors()


def errors():
    """The command-line and config errors, one numerical failure, and classical
    jobs at the ends of the float range."""
    base = scenario("oracle", "psi_plus", QUANTUM["thermal"], "csv")
    for n, flag in enumerate(FLAGS):
        yield f"argv-flag-{n}", call("run", *flag), base
    for n, dim in enumerate(DIMS):
        yield f"config-dim-{n}", RUN, {**base, "oracle": {"dim": dim}}
    for n, out in enumerate(OUTS):
        yield f"config-out-{n}", RUN, {**base, "output": {"path": out}}
    yield "config-dim-on-analytic", RUN, {**base, "engine": "analytic", "oracle": {"dim": 48}}
    yield "argv-no-config", ["run"], base
    yield "argv-version", ["--version"], base
    for name, change in (("unknown-key", {"colour": 1}),
                         ("engine", {"engine": "exact"}),
                         ("qubit-init", {"qubit_init": "singlet"}),
                         ("fock-level", {"oscillator": {"kind": "fock", "n": 10001}}),
                         ("thermal-tail", {"oscillator": {"kind": "thermal", "mean_n": 1e17}}),
                         ("phase", {"time_grid": {**GRID, "t_end": 1e308}}),
                         ("huge-int", {"params": {"omega": 10 ** 400, "lambda": 0.2}}),
                         ("format-false", {"output": {"path": "out.csv", "format": False}}),
                         ("monte-carlo-null", {"engine": "classical",
                                               "oscillator": CLASSICAL["delta"],
                                               "monte_carlo": None}),
                         ("split-analytic", {"engine": "analytic",
                                             "params": {"omega": 1.0, "lambda": 0.2,
                                                        "omega0": 0.25}}),
                         # array byte counts past the float range
                         ("memory-dim", {"oracle": {"dim": 10 ** 200}}),
                         ("memory-grid", {"time_grid": {**GRID, "n_points": 10 ** 306}}),
                         ("memory-samples", {"engine": "classical",
                                             "oscillator": CLASSICAL["delta"],
                                             "monte_carlo": {"samples": 10 ** 307}})):
        yield f"error-config-{name}", RUN, {**base, **change}
    yield ("error-overflow", RUN,
           {**base, "params": {"omega": 1.0, "lambda": 1e200}, "oracle": {"dim": 60}})
    # classical jobs at the ends of the float range: a phase scale sqrt(2/omega)
    # past it, though every phase is tiny, and an equipartition width past it
    tiny = {**base, "engine": "classical", "oscillator": CLASSICAL["gaussian"],
            "params": {"omega": 1e-308, "lambda": 1e-308, "omega0": 0.0}}
    yield "edge-gaussian-omega-1e-308-closed", RUN, tiny
    yield "edge-gaussian-omega-1e-308-seed0", RUN, {**tiny, "monte_carlo": {"samples": 1000}}
    yield "error-config-thermal-width", RUN, {
        **base, "engine": "classical", "oscillator": {"kind": "classical_thermal", "k_T": 1e200},
        "params": {"omega": 1e-250, "lambda": 1e-250, "omega0": 0.0},
        "monte_carlo": {"samples": 1000}}


def run_side(out: str, match: str) -> None:
    """Run the corpus in this interpreter, one directory per call under ``out``,
    and write each call's exit code, stdout and stderr to ``calls.json``."""
    from tc2q import cli

    calls = {}
    for name, argv, cfg in corpus():
        if not re.search(match, name):
            continue
        os.makedirs(os.path.join(out, name))
        os.chdir(os.path.join(out, name))
        with open("cfg.json", "w") as handle:
            json.dump(cfg, handle)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # --version
                code = exc.code
            except Exception as exc:  # a crash of the package is an outcome to compare
                code = f"raised {type(exc).__name__}: {exc}"
        calls[name] = {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    with open(os.path.join(out, "calls.json"), "w") as handle:
        json.dump({"module": cli.__file__, "calls": calls}, handle)


def _load(path: str):
    """A JSON file as its value, a CSV table as {column: values}, else its bytes."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        return json.loads(raw)
    except ValueError:
        pass
    rows = list(csv.reader(io.StringIO(raw.decode())))
    if rows and all(len(row) == len(rows[0]) for row in rows):
        return {name: [_number(row[i]) for row in rows[1:]] for i, name in enumerate(rows[0])}
    return raw


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def diff(a, b, path: str = "") -> dict:
    """{field: max abs diff, or None where it is not a number} for each
    field of ``a`` and ``b`` (nested dicts and lists) that differs."""
    if isinstance(a, dict) and isinstance(b, dict):
        found = {}
        for key in list(a) + [key for key in b if key not in a]:
            field = f"{path}.{key}" if path else str(key)
            found.update(diff(a[key], b[key], field) if key in a and key in b
                         else {field: None})
        return found
    if _is_number(a) and _is_number(b):
        return {} if a == b else {path: abs(a - b)}
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        if all(map(_is_number, a + b)):  # a column: one max abs diff
            gaps = [abs(x - y) for x, y in zip(a, b) if x != y]
            return {path: max(gaps)} if gaps else {}
        found = {}
        for n, (x, y) in enumerate(zip(a, b)):
            found.update(diff(x, y, f"{path}[{n}]"))
        return found
    if isinstance(a, str) and isinstance(b, str) and a != b and (
            _NUMBER.sub("#", a) == _NUMBER.sub("#", b)):
        # text that differs only in its numbers, say a printed maximum
        return diff(*([float(x) for x in _NUMBER.findall(text)] for text in (a, b)), path)
    return {} if a == b else {path: None}


def _describe(fields: dict) -> str:
    """'field gap, ...' from :func:`diff`, a JSON table's columns named as a CSV's."""
    return ", ".join(field if gap is None else f"{field} {gap:.2g}" for field, gap in sorted(
        (field.removeprefix("columns."), gap) for field, gap in fields.items()))


def compare(base: str, head: str):
    """The number of artifacts, and 'call[/file]: field gap, ...' for each
    call and artifact that differs between the two sides' directories."""
    calls = []
    for side in (base, head):
        with open(os.path.join(side, "calls.json")) as handle:
            calls.append(json.load(handle)["calls"])
    files, found = 0, []
    for name in sorted(calls[0].keys() | calls[1].keys()):
        if name not in calls[0] or name not in calls[1]:
            found.append(f"{name}: ran on one side only")
            continue
        fields = diff(calls[0][name], calls[1][name])
        if "exit" in fields:  # codes, not quantities: named both, not their gap
            del fields["exit"]
            fields[f"exit {calls[0][name]['exit']} -> {calls[1][name]['exit']}"] = None
        if fields:
            found.append(f"{name}: {_describe(fields)}")
        names = [sorted(set(os.listdir(os.path.join(side, name))) - {"cfg.json"})
                 for side in (base, head)]
        files += len(names[0])
        if names[0] != names[1]:
            found.append(f"{name}: files {names[0]} against {names[1]}")
            continue
        for file in names[0]:
            paths = [os.path.join(side, name, file) for side in (base, head)]
            with open(paths[0], "rb") as one, open(paths[1], "rb") as other:
                if one.read() == other.read():
                    continue
            fields = diff(*map(_load, paths)) or {"bytes": None}
            found.append(f"{name}/{file}: {_describe(fields)}")
    return files, found


def run_tree(tree: str, out: str, match: str) -> None:
    """Run the corpus with ``tree``'s package in a fresh interpreter, into ``out``."""
    src = os.path.join(os.path.realpath(tree), "src")
    done = subprocess.run([sys.executable, os.path.abspath(__file__), tree, "--side", out,
                           "--match", match], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"the corpus failed on {tree}:\n{done.stderr}")
    with open(os.path.join(out, "calls.json")) as handle:
        module = json.load(handle)["module"]
    if not os.path.realpath(module).startswith(src + os.sep):
        raise RuntimeError(f"the corpus on {tree} imported {module}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="checkout of the base tree")
    parser.add_argument("head", nargs="?", default=REPO, help="checkout of the changed tree")
    parser.add_argument("--match", default="", help="run only the calls this regex finds")
    parser.add_argument("--side", help=argparse.SUPPRESS)  # a worker's output directory
    args = parser.parse_args(argv)
    if args.side:
        run_side(args.side, args.match)
        return 0
    with tempfile.TemporaryDirectory(prefix="corpus-") as work:
        base, head = (os.path.join(work, side) for side in ("base", "head"))
        try:
            for tree, out in ((args.base, base), (args.head, head)):
                os.makedirs(out)
                run_tree(tree, out, args.match)
        except RuntimeError as exc:
            print(f"corpus: {exc}", file=sys.stderr)
            return 1
        calls = len(os.listdir(base)) - 1  # one directory per call, and calls.json
        files, found = compare(base, head)
    summary = f"corpus: {calls} calls, {files} files"
    if found:
        print(f"{summary}; {len(found)} differ: " + "; ".join(found))
    else:
        print(f"{summary}: identical (files, stdout, stderr and exit codes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
