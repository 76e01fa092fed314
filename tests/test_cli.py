"""Command-line behavior: dispatch, rendering, exit codes, determinism."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mgmprio
from mgmprio import approx_metrics, parse_scenario
from mgmprio.cli import (
    ANALYTIC_CSV_HEADER,
    COMPARE_CSV_HEADER,
    SIMULATE_CSV_HEADER,
    main,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
PAPER_S4_CFG = str(SCENARIO_DIR / "paper_s4.cfg")
MM3_CFG = str(SCENARIO_DIR / "mm3_identical.cfg")
MD1_CFG = str(SCENARIO_DIR / "md1_two_class.cfg")

FAST_SIM = ["--jobs", "2000", "--warmup", "10", "--seed", "7", "--reps", "3"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- analytic


def test_analytic_table_headline_value(capsys):
    code, out, err = run_cli(capsys, "analytic", "--config", PAPER_S4_CFG)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].split() == ["class", "p", "u", "h", "g", "w", "v"]
    row1 = lines[1].split()
    assert row1[0] == "1"
    # two significant digits of the class-1 wait reproduce the headline value
    assert float(f"{float(row1[5]):.1e}") == 0.000084


def test_analytic_table_is_deterministic(capsys):
    first = run_cli(capsys, "analytic", "--config", PAPER_S4_CFG)
    second = run_cli(capsys, "analytic", "--config", PAPER_S4_CFG)
    assert first == second


def test_analytic_csv_round_trips_full_precision(capsys):
    code, out, err = run_cli(capsys, "analytic", "--config", PAPER_S4_CFG, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ANALYTIC_CSV_HEADER
    assert len(lines) == 1 + 4 * 6
    expected = approx_metrics(parse_scenario(Path(PAPER_S4_CFG).read_text()).model)
    for line in lines[1:]:
        cls, metric, value, stable = line.split(",")
        assert stable == "true"
        assert float(value) == getattr(expected[int(cls) - 1], metric)


def test_analytic_modes_reject_out_of_domain_models(capsys):
    code, out, err = run_cli(capsys, "analytic", "--config", PAPER_S4_CFG, "--mode", "exact-mm-identical")
    assert code == 2 and out == "" and "error:" in err
    code, out, err = run_cli(capsys, "analytic", "--config", PAPER_S4_CFG, "--mode", "exact-m1")
    assert code == 2 and out == ""


def test_analytic_exact_modes_accept_their_domains(capsys):
    assert run_cli(capsys, "analytic", "--config", MD1_CFG, "--mode", "exact-m1")[0] == 0
    assert run_cli(capsys, "analytic", "--config", MM3_CFG, "--mode", "exact-mm-identical")[0] == 0


def test_analytic_marks_unstable_classes(capsys, tmp_path):
    cfg = tmp_path / "overload.cfg"
    cfg.write_text("servers 1\nclass lambda=0.5 service=exp(1)\nclass lambda=2 service=exp(1)\n")
    code, out, err = run_cli(capsys, "analytic", "--config", str(cfg))
    assert code == 0
    assert "UNSTABLE" in out
    code, out, err = run_cli(capsys, "analytic", "--config", str(cfg), "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert all(row[3] == "false" and row[2] == "" for row in rows if row[0] == "2")
    assert all(row[3] == "true" and row[2] != "" for row in rows if row[0] == "1")


# ---------------------------------------------------------------- errors


def test_missing_config_file(capsys):
    code, out, err = run_cli(capsys, "analytic", "--config", "/nonexistent/nope.cfg")
    assert code == 1 and "cannot read" in err


def test_scenario_parse_error_reports_file_and_line(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    for bad in ("lambda=zero service=exp(1)", "lambda=nan service=exp(1)", "lambda=1 service=exp(1e-300)"):
        cfg.write_text(f"servers 3\nclass {bad}\n")
        code, out, err = run_cli(capsys, "analytic", "--config", str(cfg))
        assert code == 1, bad
        assert out == "" and err.count("\n") == 1
        assert "bad.cfg" in err and "line 2" in err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["analytic"],
        ["frobnicate", "--config", "x.cfg"],
        ["analytic", "--config"],
        ["simulate", "--config", "x.cfg", "--jobs", "many"],
    ],
)
def test_usage_errors_exit_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert "error:" in err


def test_bad_mode_value_exits_one(capsys):
    code, _, err = run_cli(capsys, "analytic", "--config", PAPER_S4_CFG, "--mode", "exact")
    assert code == 1 and "invalid choice" in err


def test_analytic_does_not_import_scipy_stats():
    # scipy.stats is most of the package's import time and only intervals need it
    code = ("import sys, mgmprio, mgmprio.cli; "
            f"assert mgmprio.cli.main(['analytic', '--config', {MD1_CFG!r}]) == 0; "
            "assert 'scipy.stats' not in sys.modules")
    package_root = Path(mgmprio.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(package_root)})
    assert proc.returncode == 0, proc.stderr


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_nonpositive_reps_rejected(capsys):
    code, _, err = run_cli(capsys, "simulate", "--config", MD1_CFG, "--reps", "0")
    assert code == 1 and "error:" in err


# ---------------------------------------------------------------- simulate


def test_simulate_csv_is_byte_identical_across_invocations(capsys):
    args = ["simulate", "--config", MM3_CFG, "--format", "csv"] + FAST_SIM
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first[0] == 0
    assert first == second
    assert first[1].splitlines()[0] == SIMULATE_CSV_HEADER


def test_simulate_csv_changes_with_seed(capsys):
    base = ["simulate", "--config", MM3_CFG, "--format", "csv", "--jobs", "2000",
            "--warmup", "10", "--reps", "3"]
    out7 = run_cli(capsys, *base, "--seed", "7")[1]
    out8 = run_cli(capsys, *base, "--seed", "8")[1]
    assert out7 != out8


def test_simulate_csv_flags_unobserved_top_class_delay(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--config", MM3_CFG, "--format", "csv", *FAST_SIM)
    assert code == 0
    rows = {tuple(line.split(",")[:2]): line.split(",") for line in out.splitlines()[1:]}
    cls1_u = rows[("1", "u")]
    assert cls1_u[2] == "" and cls1_u[3] == "" and cls1_u[4] == "0"
    cls1_w = rows[("1", "w")]
    assert cls1_w[2] != "" and cls1_w[4] == "3"


def test_simulate_table_reports_run_metadata(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--config", MD1_CFG, *FAST_SIM)
    assert code == 0
    tail = out.splitlines()[-1]
    assert tail.startswith("# reps=3 seed=7")
    assert "completions=6000" in tail
    assert "TRUNCATED" not in tail


def test_simulate_truncation_exits_three(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--config", MM3_CFG, "--jobs", "1000000",
        "--warmup", "0", "--seed", "7", "--reps", "2", "--max-time", "50",
    )
    assert code == 3
    assert "TRUNCATED" in out


def test_simulate_accepts_policy_flags(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--config", PAPER_S4_CFG, "--within-class", "fifo",
        "--strict-preemption", *FAST_SIM,
    )
    assert code == 0 and out


# ---------------------------------------------------------------- compare


def test_compare_csv_header_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "compare", "--config", MM3_CFG, "--mode",
                           "exact-mm-identical", "--format", "csv", *FAST_SIM)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "class,metric,analytic,sim_mean,sim_ci95,abs_err,rel_err,covered"
    assert lines[0] == COMPARE_CSV_HEADER
    assert len(lines) == 1 + 3 * 6
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 8
        assert fields[7] in ("true", "false", "")


def test_compare_table_renders_coverage_words(capsys):
    code, out, _ = run_cli(capsys, "compare", "--config", MM3_CFG, "--mode",
                           "exact-mm-identical", *FAST_SIM)
    assert code == 0
    header = out.splitlines()[0].split()
    assert header == ["class", "metric", "analytic", "sim_mean", "sim_ci95",
                      "abs_err", "rel_err", "covered"]
    assert "yes" in out


def test_compare_rejects_domain_before_simulating(capsys):
    code, out, err = run_cli(capsys, "compare", "--config", PAPER_S4_CFG, "--mode",
                             "exact-mm-identical", "--jobs", "1000000000")
    assert code == 2 and out == "" and "error:" in err


def test_compare_default_mode_is_approx(capsys):
    code, out, _ = run_cli(capsys, "compare", "--config", MD1_CFG, "--format", "csv", *FAST_SIM)
    assert code == 0
    expected = approx_metrics(parse_scenario(Path(MD1_CFG).read_text()).model)
    w_row = next(line for line in out.splitlines()[1:] if line.startswith("1,w,"))
    assert float(w_row.split(",")[2]) == expected[0].w


# ---------------------------------------------------------------- packaging


@pytest.mark.skipif(shutil.which("mgmprio") is None, reason="no mgmprio executable on PATH")
def test_console_script_is_installed():
    exe = shutil.which("mgmprio")
    assert exe, "console script missing; install the package first"
    proc = subprocess.run(
        [exe, "analytic", "--config", MD1_CFG, "--format", "csv"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == ANALYTIC_CSV_HEADER


def test_console_script_target_runs_without_install():
    # what the installed script would call, run from this checkout
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["mgmprio"]
    module, func = target.split(":")
    package_root = Path(mgmprio.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}; {module}.{func}()",
         "analytic", "--config", MD1_CFG, "--format", "csv"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == ANALYTIC_CSV_HEADER
