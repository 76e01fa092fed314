"""The quick demos run to the end against the current API, and their documented commands work."""

import ast
import os
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def usage_lines(path):
    """The command lines in a demo's docstring."""
    doc = ast.get_docstring(ast.parse(path.read_text()))
    return [line.strip() for line in doc.splitlines() if "python3" in line]


# formulas_vs_simulation.py is left out: it takes about 17 s
@pytest.mark.parametrize("name", ["closed_form_tour.py", "simulator_basics.py", "many_servers.py"])
def test_demo_runs(name, capsys, monkeypatch):
    # each runs with its default arguments, not pytest's
    monkeypatch.setattr(sys, "argv", [name])
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda path: path.name)
def test_demo_usage_lines_run_from_a_checkout(path):
    # without an install, the package is found only through PYTHONPATH=src
    lines = usage_lines(path)
    assert lines
    for line in lines:
        assert line.startswith(f"PYTHONPATH=src python3 demos/{path.name}"), line


def test_documented_demo_command_runs_in_a_fresh_process():
    # the in-process runs above see the suite's own path to src; a fresh interpreter sees only the command's
    words = shlex.split(usage_lines(DEMOS / "closed_form_tour.py")[0])
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    while "=" in words[0]:
        name, _, value = words.pop(0).partition("=")
        env[name] = value
    assert words[0] == "python3"
    done = subprocess.run([sys.executable, *words[1:]], cwd=DEMOS.parent, env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout
