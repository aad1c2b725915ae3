"""The exit-code contract under single-field mutations of the README's run
config, and under single changes to the command line: every job exits 0, 2
or 3 without a warning; an error exit keeps the contract of the CLI error
tables (``test_series_cli.check_error``: one JSON line carrying its code,
nothing on stdout, no warning, no file left); a ``validate`` or
``spectrum`` FAIL prints nothing on stderr; no temporary ``.tmp-*.part``
file survives; and every call finishes in time.

Each draw takes one job of ``cli._JOBS``, builds its config from the
README's (the sections the job reads, a classical preparation for the
classical engine), and changes one field: sets it to a value of its own
kind, to a value of another type or to an extreme, deletes it, or adds a
section.  The engine runs through every name in ``cli._JOBS`` and the
preparation through every kind in ``cli._KINDS``, with ``fock.n`` up to its
bound of 10000 and lambda up to 10.  Jobs with an ``oracle`` section get
``oracle.dim`` 48 in their config, so a draw that reaches the oracle stays
small: a state the truncation cannot hold fails fast on its tail or leakage
check (exit 3).  A command-line draw runs a job's unmutated config with one
argument dropped or added: no ``--config``, or an unknown or removed flag
(``--dim`` and ``--out`` included, since the config is the whole job).
"""

import copy
import json
import math
import os
import tempfile
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from tc2q import cli
from tc2q.model import BELL_KINDS
from test_readme import fenced_blocks
from test_series_cli import call_cli, check_error

README_CONFIG = json.loads(fenced_blocks("json")[0])
ENGINES = sorted({engine for _, engine in cli._JOBS})
DIM = 48
#: seconds a single in-process call may take; the slowest draws (an oracle
#: validate on 3000 points, a number state at n = 10000) take well under one
TIME_LIMIT = 10.0
DELETE = object()

# a value of the wrong type, or a number at an extreme, for any field
JUNK = st.sampled_from([None, True, "", "x", [], {}, [1.0, 0.5], 0, -1, 2, 0.5, -0.5,
                        5e-324, 1e154, 1e308, -1e308, 10 ** 30, 10 ** 400, math.nan,
                        math.inf])
FLOAT = st.floats(-20.0, 20.0)
POSITIVE = st.one_of(st.floats(1e-3, 10.0), st.sampled_from([1e100, 1e200]))
OSCILLATORS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("thermal"),
                           "mean_n": st.one_of(st.floats(0.0, 10.0), st.just(1e300))}),
    st.fixed_dictionaries({"kind": st.just("coherent"), "alpha0": st.one_of(
        FLOAT, st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2))}),
    st.fixed_dictionaries({"kind": st.just("fock"), "n": st.integers(0, 10000)}),
    st.fixed_dictionaries({"kind": st.just("delta"), "q0": FLOAT, "p0": FLOAT}),
    st.fixed_dictionaries({"kind": st.just("gaussian"), "q_bar": FLOAT, "p_bar": FLOAT,
                           "delta_q": POSITIVE, "delta_p": POSITIVE}),
    st.fixed_dictionaries({"kind": st.just("classical_thermal"), "k_T": POSITIVE}))

# values of each field's own kind; a field not named here takes JUNK only
OWN_KIND = {
    ("engine",): st.sampled_from(ENGINES),
    ("qubit_init",): st.sampled_from(BELL_KINDS),
    ("params", "omega"): st.floats(0.01, 10.0),
    ("params", "lambda"): st.floats(0.0, 10.0),
    ("params", "omega0"): st.floats(0.0, 1.0),
    ("oscillator",): OSCILLATORS,
    ("oscillator", "kind"): st.sampled_from(sorted(cli._KINDS)),
    ("oscillators",): st.lists(OSCILLATORS, min_size=1, max_size=3),
    ("time_grid", "t_start"): FLOAT,
    ("time_grid", "t_end"): st.floats(-20.0, 60.0),
    ("time_grid", "n_points"): st.integers(2, 3000),
    ("beta_grid", "start"): st.floats(0.0, 10.0),
    ("beta_grid", "stop"): st.floats(0.0, 10.0),
    ("beta_grid", "n_points"): st.integers(2, 3000),
    ("output", "path"): st.sampled_from(["out.json", "out.csv", "out", "", ".", "/",
                                         "missing/out.csv"]),
    ("output", "format"): st.sampled_from(["csv", "json", "xml"]),
    # sections a base config lacks
    ("monte_carlo",): st.fixed_dictionaries({"samples": st.integers(2, 20000),
                                             "seed": st.integers(0, 100)}),
    ("validate",): st.fixed_dictionaries({"tolerance": st.floats(1e-16, 1.0)}),
    ("oracle",): st.fixed_dictionaries({"dim": st.integers(2, 60)}),
}


def base_config(command: str, engine: str) -> dict:
    """The README's run config with the sections this job reads."""
    cfg = copy.deepcopy(README_CONFIG)
    cfg["engine"] = engine
    if engine == "classical":
        cfg["oscillator"] = {"kind": "classical_thermal", "k_T": 1.0}
    if command == "validate":
        cfg["output"] = {"path": "report.json"}
    cfg["oscillators"] = [cfg["oscillator"]]
    cfg["beta_grid"] = {"start": 0.0, "stop": 0.5, "n_points": 50}
    cfg["oracle"] = {"dim": DIM}
    sections = {"version", "engine", "output", *cli._JOBS[command, engine][0]}
    return {key: value for key, value in cfg.items() if key in sections}


@st.composite
def mutated_jobs(draw):
    """(command, config) with one field of a job's base config changed."""
    command, engine = draw(st.sampled_from(sorted(cli._JOBS)))
    cfg = base_config(command, engine)
    fields = [(key,) for key in cfg] + [(key, name) for key, value in cfg.items()
                                         if isinstance(value, dict) for name in value]
    fields += [key for key in OWN_KIND if len(key) == 1 and key[0] not in cfg]
    field = draw(st.sampled_from(fields))
    value = draw(st.one_of(OWN_KIND.get(field, JUNK), JUNK, st.just(DELETE)))
    *parents, name = field
    target = cfg[parents[0]] if parents else cfg
    if value is DELETE:
        target.pop(name, None)
    else:
        target[name] = value
    return command, cfg


# what a command-line draw adds: unknown, removed or incomplete flags
FLAGS = st.sampled_from([["--seed", "7"], ["--seed", "-1"], ["--format", "csv"],
                         ["--format", "json"], ["--bogus"], ["extra"], ["--dim"],
                         ["--dim", "48"], ["--out"], ["--out", "out.csv"],
                         ["--config", "missing.json"]])


@st.composite
def mutated_argvs(draw):
    """(command, config, argv): a job's base config with one change to its argv."""
    command, engine = draw(st.sampled_from(sorted(cli._JOBS)))
    argv = [command, "--config", "cfg.json"]
    if draw(st.booleans()):  # drop the command, --config or its path
        index = draw(st.integers(0, len(argv) - 1))
        argv = argv[:index] + argv[index + 1:]
    else:  # add anywhere, the command's position included
        index = draw(st.integers(0, len(argv)))
        argv = argv[:index] + draw(FLAGS) + argv[index:]
    return command, base_config(command, engine), argv


def run_job(command: str, cfg: dict, argv: list | None = None):
    """The ``CliCall`` and seconds of one in-process call (``command --config
    cfg.json`` unless ``argv`` is given)."""
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "cfg.json"), "w") as handle:
            json.dump(cfg, handle)
        start = time.perf_counter()
        call = call_cli(tmp, *([command, "--config", "cfg.json"] if argv is None else argv))
        return call, time.perf_counter() - start


def check_contract(command: str, call, elapsed: float):
    """The exit-code contract of one call (``run_job``'s results)."""
    assert call.code in (0, 2, 3)
    assert call.warnings == []
    assert elapsed < TIME_LIMIT
    assert not [name for name in call.files if os.path.basename(name).startswith(".tmp-")]
    if call.stderr:
        # an error: the contract of the CLI error tables
        assert call.code in (2, 3)
        check_error(call, call.code)
    else:
        # success, or a validate or spectrum FAIL: the artifact is written
        assert call.code == 0 or command in ("validate", "spectrum")
        assert len(call.files) in (2, 3) and "cfg.json" in call.files


class TestExitCodeContract:
    @settings(max_examples=600, deadline=None)
    @given(job=mutated_jobs())
    def test_every_single_field_mutation_keeps_the_contract(self, job):
        command, cfg = job
        check_contract(command, *run_job(command, cfg))

    @settings(max_examples=200, deadline=None)
    @given(job=mutated_argvs())
    def test_every_command_line_change_keeps_the_contract(self, job):
        command, cfg, argv = job
        call, elapsed = run_job(command, cfg, argv)
        check_contract(command, call, elapsed)
        if any(flag in argv for flag in ("--seed", "--format", "--bogus", "extra", "--dim",
                                         "--out")):
            assert call.code == 2  # no job reads these

    def test_the_unmutated_configs_run(self):
        # every base config exits 0, so each mutation is what changes a job
        for command, engine in sorted(cli._JOBS):
            call, _ = run_job(command, base_config(command, engine))
            assert (call.code, call.stderr, call.warnings) == (0, "", []), (command, engine,
                                                                           call.stderr)
            assert set(call.files) <= {"cfg.json", "out.csv", "out.csv.meta.json", "report.json"}
