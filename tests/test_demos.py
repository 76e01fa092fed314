"""The quick demos run to the end against the current API."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


# formulas_vs_simulation.py is left out: it takes about 17 s
@pytest.mark.parametrize("name", ["closed_form_tour.py", "simulator_basics.py", "many_servers.py"])
def test_demo_runs(name, capsys, monkeypatch):
    # each runs with its default arguments, not pytest's
    monkeypatch.setattr(sys, "argv", [name])
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
