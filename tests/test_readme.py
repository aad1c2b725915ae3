"""The README's examples run as written, so the documentation cannot drift
from the code: the library quick start and the ``run`` config."""

import json
import pathlib
import re

from tc2q import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def fenced_blocks(language: str) -> list:
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.M | re.S)


def test_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    (code,) = fenced_blocks("python")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    # the quick start prints the oracle-versus-closed-form gap, ~1e-14
    assert float(capsys.readouterr().out.split()[-1]) <= 1e-12


def test_run_config_runs(tmp_path, monkeypatch):
    (text,) = fenced_blocks("json")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(text)
    assert cli.main(["run", "--config", "cfg.json"]) == 0
    out = tmp_path / json.loads(text)["output"]["path"]
    assert out.exists() and out.with_name(out.name + ".meta.json").exists()
