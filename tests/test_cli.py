"""Command-line behavior: dispatch, rendering, exit codes, determinism."""

import ast
import contextlib
import io
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


PAPER_S4_TABLE = """\
class  p           u          h           g          w            v
1      0           0          0.00116959  0.0714286  8.35422e-05  0.200084
2      0.00116959  0.0892857  0.0469759   0.125      0.00597641   0.405976
3      0.0246575   0.231481   0.349557    0.222222   0.0833871    0.683387
4      0.141176    0.777778   1.21307     0.5        0.71634      1.51634
"""

UNSTABLE_TABLE = """\
class  p         u        h         g         w          v
1      0         0        0.1       0.666667  0.0666667  1.06667
2      0.1       2.66667  0.814286  2         1.89524    2.89524
3      UNSTABLE
"""


def test_analytic_table_layout_is_pinned(capsys, tmp_path):
    assert run_cli(capsys, "analytic", "--config", PAPER_S4_CFG) == (0, PAPER_S4_TABLE, "")
    # the UNSTABLE word widens the p column of every row
    cfg = tmp_path / "overload.cfg"
    cfg.write_text("servers 2\nclass lambda=0.5 service=exp(1)\nclass lambda=1 service=det(1)\n"
                   "class lambda=2 service=exp(1)\n")
    assert run_cli(capsys, "analytic", "--config", str(cfg)) == (0, UNSTABLE_TABLE, "")


# ---------------------------------------------------------------- errors


def test_missing_config_file(capsys):
    code, out, err = run_cli(capsys, "analytic", "--config", "/nonexistent/nope.cfg")
    assert code == 1 and "cannot read" in err


def test_config_file_not_utf8(capsys, tmp_path):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"servers 1\nclass lambda=0.5 service=exp(1.0) # caf\xe9\n")
    code, out, err = run_cli(capsys, "analytic", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot read {cfg}: ") and err.count("\n") == 1


def test_scenario_parse_error_reports_file_and_line(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    for servers, bad, line in (
        (3, "lambda=zero service=exp(1)", 2),
        (3, "lambda=nan service=exp(1)", 2),
        (3, "lambda=1 service=exp(1e-300)", 2),
        (3, "lambda=0.5 service=erlang(100000000,1e8)", 2),
        # a server count this large would hang analytic and overflow simulate
        (100000000, "lambda=1 service=exp(1)", 1),
        (99999999999999999999, "lambda=1 service=exp(1)", 1),
        (3, "lambda=5e-324 service=exp(1)", 2),
    ):
        cfg.write_text(f"servers {servers}\nclass {bad}\n")
        code, out, err = run_cli(capsys, "analytic", "--config", str(cfg))
        assert code == 1, bad
        assert out == "" and err.count("\n") == 1
        assert "bad.cfg" in err and f"line {line}" in err


_NUMBERS = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "True", "False", "0", "-0.0", "-1", "1e308", "1e309",
                     "5e-324", "2.2e-308", "1e-300", "10000", "10001", "99999999999999999999", "1_000",
                     "0x10", "", "1e", "1.0.0"]),
    st.integers(min_value=1, max_value=12).map(str),
    st.floats(min_value=1e-3, max_value=1e3).map(repr),
    st.integers(min_value=-(10**25), max_value=10**25).map(str),
    st.floats().map(repr),
)
_SPECS = st.one_of(
    st.builds("exp({})".format, _NUMBERS),
    st.builds("det({})".format, _NUMBERS),
    st.builds("erlang({},{})".format, _NUMBERS, _NUMBERS),
    st.builds("uniform({},{})".format, _NUMBERS, _NUMBERS),
    st.lists(st.builds("{}:{}".format, _NUMBERS, _NUMBERS), max_size=3).map(",".join).map("hyperexp({})".format),
    st.builds("{}({})".format, st.sampled_from(["gauss", "EXP", "exp ", ""]),
              st.lists(_NUMBERS, max_size=3).map(",".join)),
)
_TOKENS = st.one_of(
    _NUMBERS,
    _SPECS,
    _NUMBERS.map("lambda={}".format),
    _SPECS.map("service={}".format),
    st.sampled_from(["servers", "class", "lambda=", "service=", "=", "rate=1", "#", "lambda=1=2"]),
)
_LINES = st.one_of(
    st.builds("servers {}".format, _NUMBERS),
    st.builds("class lambda={} service={}".format, _NUMBERS, _SPECS),
    st.lists(_TOKENS, max_size=4).map(" ".join),
)
_SHIPPED_LINES = [(SCENARIO_DIR / name).read_text().splitlines()
                  for name in ("paper_s4.cfg", "mm3_identical.cfg", "md1_two_class.cfg")]


@st.composite
def _fuzzed_scenarios(draw):
    """A shipped scenario with lines replaced, inserted, deleted or retokenized."""
    lines = list(draw(st.sampled_from(_SHIPPED_LINES)))
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines)))
        action = draw(st.sampled_from(["replace", "insert", "delete", "token"]))
        if action == "insert" or k == len(lines):
            lines.insert(k, draw(_LINES))
        elif action == "replace":
            lines[k] = draw(_LINES)
        elif action == "delete":
            del lines[k]
        else:
            tokens = lines[k].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_TOKENS)
            lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(text=_fuzzed_scenarios(), mode=st.sampled_from(["approx", "exact-m1", "exact-mm-identical"]))
def test_analytic_survives_fuzzed_scenarios(tmp_path_factory, text, mode):
    # every scenario either evaluates, is refused as a bad value (1) or is
    # outside the mode's domain (2), with one line of explanation
    cfg = tmp_path_factory.getbasetemp() / "fuzzed.cfg"
    cfg.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analytic", "--config", str(cfg), "--mode", mode])
    assert code in (0, 1, 2), (code, err.getvalue())
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")


def _capped_rates(text):
    """``text`` with every arrival rate above 100 lowered to 100."""
    def cap(match):
        try:
            return "lambda=100" if float(match.group(1)) > 100 else match.group(0)
        except ValueError:
            return match.group(0)
    return re.sub(r"lambda=(\S*)", cap, text)


@settings(max_examples=50, deadline=None)
@given(text=_fuzzed_scenarios().map(_capped_rates), command=st.sampled_from(["simulate", "compare"]))
def test_simulators_survive_fuzzed_scenarios(tmp_path_factory, text, command):
    # as for analytic, plus 3 for a run cut at --max-time; the rate cap and
    # --max-time bound each run in events, where --max-time alone would not
    cfg = tmp_path_factory.getbasetemp() / "fuzzed.cfg"
    cfg.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(cfg), "--jobs", "20", "--reps", "2", "--warmup", "1",
                     "--max-time", "10"])
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()
    assert (code in (0, 3)) == (err.getvalue() == "")


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["analytic"],
        ["frobnicate", "--config", "x.cfg"],
        ["analytic", "--config"],
        ["simulate", "--config", "x.cfg", "--jobs", "many"],
        ["analytic", "--config", MD1_CFG, "--warmup", "5"],  # a flag of another subcommand
        ["analytic", "--config", MD1_CFG, "extra"],
        ["compare", "--config", MD1_CFG, "--m", "approx"],  # --mode or --max-time
        ["simulate", "--config", MD1_CFG, "--strict-preemption=yes"],
    ],
)
def test_usage_errors_exit_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["analytic", f"--config={PAPER_S4_CFG}"],
    ["analytic", "--conf", PAPER_S4_CFG],
    ["analytic", "--config", PAPER_S4_CFG, "--format", "csv", "--format", "table"],
], ids=["equals", "prefix", "last-wins"])
def test_accepted_flag_forms(capsys, argv):
    assert run_cli(capsys, *argv) == (0, PAPER_S4_TABLE, "")


def test_bad_mode_value_exits_one(capsys):
    code, _, err = run_cli(capsys, "analytic", "--config", PAPER_S4_CFG, "--mode", "exact")
    assert code == 1 and "invalid choice" in err


def test_analytic_does_not_import_scipy_stats():
    # scipy would cost about a second and 70 MB per process; no subcommand needs it
    sim = ["--jobs", "200", "--reps", "3"]
    runs = [["analytic", "--config", MD1_CFG], ["simulate", "--config", MD1_CFG, *sim],
            ["compare", "--config", MD1_CFG, *sim]]
    code = ("import sys, mgmprio.cli\n"
            f"for argv in {runs!r}:\n"
            "    assert mgmprio.cli.main(argv) == 0, argv\n"
            "loaded = [name for name in sys.modules if name.split('.')[0] == 'scipy']\n"
            "assert not loaded, loaded\n")
    package_root = Path(mgmprio.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(package_root)})
    assert proc.returncode == 0, proc.stderr


def test_analytic_path_does_not_import_numpy():
    # numpy is most of a cold start; only simulating and variates need it
    analytic = ["analytic", "--config", MD1_CFG]
    code = ("import sys\n"
            # the standard modules the package names, which a default start
            # has loaded already; any other module is new
            "import importlib, itertools, math, operator\n"
            "before = set(sys.modules)\n"
            "import mgmprio\n"
            f"md1 = mgmprio.parse_scenario(open({MD1_CFG!r}).read()).model\n"
            f"mm3 = mgmprio.parse_scenario(open({MM3_CFG!r}).read()).model\n"
            "for mode, model in [(mgmprio.approx_metrics, md1), (mgmprio.exact_single_channel, md1),\n"
            "                    (mgmprio.exact_mmm_identical, mm3)]:\n"
            "    mgmprio.check_identities(mode(model), model)\n"
            "mgmprio.loads(md1)\n"
            "mgmprio.erlang_c(3, 0.5)\n"
            "new = sorted(set(sys.modules) - before)\n"
            "assert all(name.split('.')[0] == 'mgmprio' for name in new), new\n"
            "import mgmprio.cli\n"
            f"assert mgmprio.cli.main({analytic!r}) == 0\n"
            f"assert mgmprio.cli.main({analytic + ['--format', 'csv']!r}) == 0\n"
            f"sys.argv = ['mgmprio', *{analytic!r}]\n"
            "try:\n"
            "    mgmprio.cli.entry()\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "assert 'numpy' not in sys.modules\n"
            "assert mgmprio.cli.main(['simulate', '--config', "
            f"{MD1_CFG!r}, '--jobs', '200', '--reps', '2']) == 0\n"
            "assert 'numpy' in sys.modules\n")
    package_root = Path(mgmprio.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    # ``python -m mgmprio``; -X importtime names every module the process imports
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "mgmprio", "analytic", "--config", PAPER_S4_CFG],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")]
    assert "mgmprio.cli" in imported
    assert not [name for name in imported if name.split(".")[0] == "numpy"]
    # dataclasses loads inspect, ast, dis and tokenize, which cost more than the package itself
    assert "dataclasses" not in imported and "inspect" not in imported
    assert "argparse" not in imported


def test_import_and_scenario_parsing_never_load_re():
    # -I -S starts without site and .pth files, which load re in a default start
    package_root = Path(mgmprio.__file__).resolve().parent.parent
    code = ("import sys\n"
            f"sys.path.insert(0, {str(package_root)!r})\n"
            "import mgmprio\n"
            f"for path in {[MD1_CFG, MM3_CFG, PAPER_S4_CFG]!r}:\n"
            "    mgmprio.parse_scenario(open(path).read())\n"
            "assert 're' not in sys.modules, sorted(sys.modules)\n"
            "import mgmprio.cli\n"
            f"assert mgmprio.cli.main(['analytic', '--config', {PAPER_S4_CFG!r}]) == 0\n"
            "unwanted = ('re', 'argparse', 'gettext', 'locale', 'shutil', 'os')\n"
            "loaded = [name for name in unwanted if name in sys.modules]\n"
            "assert not loaded, loaded\n")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_subcommand_help_lists_its_own_flags_with_defaults(capsys):
    code, out, err = run_cli(capsys, "simulate", "--help")
    assert code == 0 and err == ""
    assert "counted completions per replication (default 1000000)" in " ".join(out.split())
    assert "--mode" not in out


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


def assert_no_arrival_run_truncates(capsys, tmp_path, reps):
    # the only class's gaps overflow to inf, so the run ends with no job counted
    cfg = tmp_path / "subnormal.cfg"
    cfg.write_text("servers 1\nclass lambda=5e-324 service=exp(1.0)\n")
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--jobs", "5", "--reps", reps)
    assert code == 3 and err == ""
    assert "nan" not in out
    tail = out.splitlines()[-1]
    assert "completions=0" in tail and tail.endswith(" TRUNCATED")


def test_simulate_exits_three_when_no_class_arrives(capsys, tmp_path):
    assert_no_arrival_run_truncates(capsys, tmp_path, "2")


def test_simulate_exits_three_through_child_lanes(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert_no_arrival_run_truncates(capsys, tmp_path, "3")


def test_simulate_refuses_arrivals_the_clock_cannot_resolve(tmp_path):
    # 1e150 arrivals per unit time put 2**53 mean gaps far inside the warm-up,
    # where a double cannot advance the clock by one gap; without --warmup 0
    # the run would never get past it
    cfg = tmp_path / "huge_rate.cfg"
    cfg.write_text("servers 1\nclass lambda=1e150 service=det(1e-151)\n")
    package_root = Path(mgmprio.__file__).resolve().parent.parent
    argv = [sys.executable, "-m", "mgmprio", "simulate", "--config", str(cfg), "--jobs", "100", "--reps", "1",
            "--max-time", "10"]
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: class 1 arrival rate")
    proc = subprocess.run([*argv, "--warmup", "0"], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr


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


def assert_table_aligned(lines):
    """Every line is right-stripped, and each cell starts at its header's offset, two spaces clear of the next."""
    starts = [m.start() for m in re.finditer(r"\S+", lines[0])]
    for line in lines:
        assert line == line.rstrip()
        for cell in re.finditer(r"\S+", line):
            assert cell.start() in starts, line
            k = starts.index(cell.start())
            assert k + 1 == len(starts) or cell.end() <= starts[k + 1] - 2, line


def test_simulate_and_compare_tables_are_aligned(capsys):
    for cfg in (PAPER_S4_CFG, MD1_CFG):
        code, out, _ = run_cli(capsys, "simulate", "--config", cfg, *FAST_SIM)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["class", "metric", "estimate", "ci95", "reps"]
        assert lines[-1].startswith("# reps=")
        assert_table_aligned(lines[:-1])
        code, out, _ = run_cli(capsys, "compare", "--config", cfg, *FAST_SIM)
        assert code == 0
        assert_table_aligned(out.splitlines())


# ---------------------------------------------------------------- packaging


def test_package_names_resolve_lazily_to_their_definitions():
    code = ("import importlib, sys, mgmprio\n"
            "eager = {n for m in ('analytic', 'distributions', 'model', 'scenario')\n"
            "         for n in sys.modules['mgmprio.' + m].__all__}\n"
            "assert eager <= set(vars(mgmprio)), eager - set(vars(mgmprio))\n"
            "assert not set(mgmprio._LAZY) & set(vars(mgmprio)), set(mgmprio._LAZY) & set(vars(mgmprio))\n"
            "assert len(mgmprio.__all__) == len(set(mgmprio.__all__))\n"
            "listed = set(dir(mgmprio))\n"
            "assert set(mgmprio.__all__) <= listed, set(mgmprio.__all__) - listed\n"
            "try:\n"
            "    mgmprio.no_such_name\n"
            "except AttributeError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('unknown attribute resolved')\n"
            "namespace = {}\n"
            "exec('from mgmprio import *', namespace)\n"
            "assert set(mgmprio.__all__) <= set(namespace)\n"
            "modules = [importlib.import_module('mgmprio.' + m) for m in\n"
            "           ('analytic', 'distributions', 'model', 'scenario', 'simulation', 'replication')]\n"
            "for name in mgmprio.__all__:\n"
            "    homes = [vars(m)[name] for m in modules if name in vars(m)]\n"
            "    assert homes and all(h is getattr(mgmprio, name) is namespace[name] for h in homes), name\n"
            "for m in modules:\n"
            "    assert set(m.__all__) <= set(mgmprio.__all__), (m.__name__, set(m.__all__) - set(mgmprio.__all__))\n")
    package_root = Path(mgmprio.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(package_root)})
    assert proc.returncode == 0, proc.stderr


def test_public_names_are_defined_where_they_are_listed():
    # each name in a module's __all__ is bound there by a def, a class or an
    # assignment, so the package re-exports it from exactly one home
    package_dir = Path(mgmprio.__file__).resolve().parent
    for path in sorted(package_dir.glob("*.py")):
        if path.name.startswith("__"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound, listed = set(), []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    if isinstance(target, ast.Name):
                        bound.add(target.id)
                        if target.id == "__all__":
                            listed = ast.literal_eval(node.value)
        assert listed, path.name
        assert set(listed) <= bound, (path.name, set(listed) - bound)


def test_patched_replication_run_intercepts_replicate(monkeypatch):
    # a tracer wraps replication.run; the lazy package names must not bypass it
    import mgmprio.replication

    calls = []
    inner = mgmprio.replication.run

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(mgmprio.replication, "run", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    model = parse_scenario(Path(MD1_CFG).read_text(encoding="utf-8")).model
    base_cfg = mgmprio.RunConfig(seed=1, target_completions=50)
    mgmprio.replicate(model, mgmprio.PolicyConfig(), base_cfg, 3)
    assert len(calls) == 3
    first = list(calls)
    # with two lanes the calling process runs lane 0's reps, the first two of three, and only those
    calls.clear()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    mgmprio.replicate(model, mgmprio.PolicyConfig(), base_cfg, 3)
    assert [cfg.seed for _, _, cfg in calls] == list(mgmprio.replication.rep_seeds(1, 3)[:2])
    # replicate reads only the per-class reduction: no rep keeps rows, and nothing else changes
    for _, _, cfg in first + calls:
        assert cfg.keep_records is False
        assert replace(cfg, seed=base_cfg.seed, keep_records=base_cfg.keep_records) == base_cfg


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


# the ``mgmprio`` command line, run with two usable CPUs whatever the host has
TWO_LANE_ENTRY = ["-c", "import os; os.sched_getaffinity = lambda pid: {0, 1}; from mgmprio.cli import entry; entry()"]


@pytest.mark.parametrize("entry, command", [
    (["-m", "mgmprio"], "analytic"),
    (["-m", "mgmprio"], "simulate"),
    (["-m", "mgmprio"], "compare"),
    (TWO_LANE_ENTRY, "simulate"),
], ids=["analytic", "simulate", "compare", "simulate-two-lanes"])
def test_closed_stdout_exits_one_without_traceback(entry, command):
    sim = [] if command == "analytic" else ["--jobs", "2000", "--reps", "2"]
    package_root = Path(mgmprio.__file__).resolve().parent.parent
    # stdout buffered, as by default, so the failing write may come as late as the final flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, *entry, command, "--config", PAPER_S4_CFG, *sim],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**env, "PYTHONPATH": str(package_root)},
    )
    proc.stdout.close()  # the child is still starting up, so every write it makes fails
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1, err
    assert "Traceback" not in err


def test_python_dash_m_runs_without_install(capsys):
    package_root = Path(mgmprio.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "mgmprio", "analytic", "--config", PAPER_S4_CFG],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run_cli(capsys, "analytic", "--config", PAPER_S4_CFG)
    assert code == 0
    assert proc.stdout == out


def test_package_has_no_assert_statements():
    # ``python -O`` strips assert statements, so every check must raise explicitly
    package_dir = Path(mgmprio.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package_dir.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found


# -X dev shows warnings a default start hides, unclosed files among them, and -W error makes each one fail
@pytest.mark.parametrize("flags", [["-O"], ["-X", "dev", "-W", "error"]], ids=" ".join)
def test_simulate_runs_under_python_dash_o(flags):
    package_root = Path(mgmprio.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "mgmprio", "simulate", "--config", MD1_CFG, "--jobs", "200", "--reps", "2"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
