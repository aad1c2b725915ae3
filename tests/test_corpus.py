"""``tools/corpus.py``, the artifact diff between two checkouts: a subset of
its corpus runs with the working tree on both sides and is identical, a
changed tree is reported field by field, and the report names each field
that differs with its max abs diff."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "tools" / "corpus.py"

#: one call of each job, a Monte Carlo seed, a command-line error and --version
SUBSET = ("^(run-analytic-psi_plus-fock-csv|run-oracle-w0.25-phi_plus-coherent-json"
          "|validate-psi_minus-thermal|run-classical-psi_plus-gaussian-seed7-json"
          "|sweep-beta-list-csv|spectrum-json|argv-flag-0|argv-version)$")


def load_corpus():
    spec = importlib.util.spec_from_file_location("corpus", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def summary(base: Path, head: Path, match: str) -> str:
    done = subprocess.run([sys.executable, str(SCRIPT), str(base), str(head), "--match", match],
                          capture_output=True, text=True, check=True, timeout=60)
    (line,) = done.stdout.splitlines()
    return line


def test_the_working_tree_is_identical_to_itself():
    assert summary(REPO, REPO, SUBSET) == (
        "corpus: 8 calls, 8 files: identical (files, stdout, stderr and exit codes)")


def test_a_changed_tree_is_reported_by_field(tmp_path):
    shutil.copytree(REPO / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    cli = tmp_path / "src" / "tc2q" / "cli.py"
    cli.write_text(cli.read_text().replace("_SPECTRUM_TOL = 1e-8", "_SPECTRUM_TOL = 1e-9"))
    assert summary(tmp_path, REPO, "^spectrum-json$") == (
        "corpus: 1 calls, 1 files; 2 differ: spectrum-json: stdout 9e-09; "
        "spectrum-json/out.json: tolerance 9e-09")


def test_each_differing_field_is_named_with_its_gap(tmp_path):
    corpus = load_corpus()
    sides = tmp_path / "base", tmp_path / "head"
    outputs = [("max 1.5e-15: PASS", {"meta": {"dim": 40, "note": "a"},
                                       "columns": {"C": [1.0, 0.5]}}, "t,C\n0,1\n1,0.5\n"),
               ("max 2e-15: PASS", {"meta": {"dim": 40, "note": "b"},
                                     "columns": {"C": [1.0, 0.25]}}, "t,C\n0,1\n1,0.4\n")]
    for side, (stdout, artifact, table) in zip(sides, outputs):
        (side / "job").mkdir(parents=True)
        (side / "calls.json").write_text(json.dumps(
            {"calls": {"job": {"exit": 0, "stdout": stdout, "stderr": ""}}}))
        (side / "job" / "out.json").write_text(json.dumps(artifact))
        (side / "job" / "out.csv").write_text(table)
    (sides[1] / "job" / "extra.csv").write_text("t\n0\n")
    assert corpus.compare(*sides) == (2, [
        "job: stdout 5e-16", "job: files ['out.csv', 'out.json'] against "
        "['extra.csv', 'out.csv', 'out.json']"])
    (sides[1] / "job" / "extra.csv").unlink()
    assert corpus.compare(*sides) == (2, [
        "job: stdout 5e-16", "job/out.csv: C 0.1", "job/out.json: C 0.25, meta.note"])
    # an exit code is reported as both codes, not as their difference
    for side, code in zip(sides, (3, 2)):
        (side / "calls.json").write_text(json.dumps(
            {"calls": {"job": {"exit": code, "stdout": "", "stderr": ""}}}))
    assert corpus.compare(*sides) == (2, [
        "job: exit 3 -> 2", "job/out.csv: C 0.1", "job/out.json: C 0.25, meta.note"])
