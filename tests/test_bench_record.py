"""The paired benchmark record's summary: medians, pair wins, the gain rule and the verdicts."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

DECLARED = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


def _runs(pairs):
    return [({"metrics": {"wall_s": p, "jobs_per_s": 1 / p}}, {"metrics": {"wall_s": c, "jobs_per_s": 1 / c}})
            for p, c in pairs]


def test_a_clear_gain_holds_in_both_directions():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    summary = bench_record.summarize(_runs([(p, p * 0.9) for p in parent]), DECLARED)
    wall = summary["wall_s"]
    assert wall["parent"]["median"] == 1.0 and wall["change"]["median"] == pytest.approx(0.9)
    assert wall["change_wins"] == 10 and wall["ties"] == 0
    assert wall["parent_spread"] == pytest.approx(wall["parent"]["q3"] - wall["parent"]["q1"])
    assert wall["median_gain"] == pytest.approx(0.1) and wall["holds"]
    # a higher-is-better metric counts a win when the change reads higher
    assert summary["jobs_per_s"]["change_wins"] == 10 and summary["jobs_per_s"]["holds"]


@pytest.mark.parametrize("pairs", [
    # 8 wins in 10 is below nine tenths, however large the gain
    [(1.0, 0.5)] * 8 + [(1.0, 1.5)] * 2,
    # every pair won, but by less than the parent's own quartile spread
    [(p, p - 0.01) for p in (0.8, 0.9, 1.0, 1.1, 1.2, 0.8, 0.9, 1.0, 1.1, 1.2)],
    # ties count for neither side
    [(1.0, 1.0)] * 10,
])
def test_a_gain_short_of_the_rule_does_not_hold(pairs):
    assert not bench_record.summarize(_runs(pairs), DECLARED)["wall_s"]["holds"]


TIGHT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
WIDE = [0.6, 1.0, 1.4, 0.6, 1.0, 1.4, 0.6, 1.0, 1.4, 1.0]  # quartile spread 0.8 of the median


@pytest.mark.parametrize("pairs, verdict", [
    # the change's median is 50% worse, beyond the 25% bound (and 1 / 1.5 is 33% worse)
    ([(p, p * 1.5) for p in TIGHT], "worse"),
    # 10% worse on a tight parent: inside the bound
    ([(p, p * 1.1) for p in TIGHT], "within_bound"),
    ([(p, p) for p in TIGHT], "within_bound"),
    # the parent spreads wider than the bound, so no change in the median can be told apart
    ([(p, p * 0.95) for p in WIDE], "unresolved"),
    ([(p, p * 1.2) for p in WIDE], "unresolved"),
    # unless every change run beats every parent run
    ([(p, 0.5) for p in WIDE], "better_every_run"),
    ([(p, p * 0.5) for p in TIGHT], "better_every_run"),
    # a worse median beyond the bound is worse, however wide the parent spreads
    ([(p, 1.5) for p in WIDE], "worse"),
])
def test_each_metric_gets_a_no_regression_verdict(pairs, verdict):
    summary = bench_record.summarize(_runs(pairs), DECLARED)
    assert summary["wall_s"]["bound"] == 0.25
    # jobs_per_s is 1 / wall_s, so it is better in the other direction and gets the same verdict
    assert (summary["wall_s"]["verdict"], summary["jobs_per_s"]["verdict"]) == (verdict, verdict)


def _benchmark_tree(root: Path) -> Path:
    (root / "perfbench" / "yardstick").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text('{"workloads": []}\n')
    (root / "perfbench" / "run.py").write_text("print('run')\n")
    (root / "perfbench" / "yardstick" / "loop.py").write_text("x = 1\n")
    # outside the benchmark: a checkout's own code may differ between the sides
    (root / "src").mkdir()
    (root / "src" / "code.py").write_text(f"side = {root.name!r}\n")
    return root


def test_benchmark_hash_tells_a_changed_benchmark_apart(tmp_path):
    parent, change = _benchmark_tree(tmp_path / "parent"), _benchmark_tree(tmp_path / "change")
    assert bench_record.benchmark_hash(parent) == bench_record.benchmark_hash(change)
    # compiled bytecode is left out, wherever it lies
    (change / "perfbench" / "yardstick" / "__pycache__").mkdir()
    (change / "perfbench" / "yardstick" / "__pycache__" / "loop.cpython-311.pyc").write_bytes(b"\0")
    assert bench_record.benchmark_hash(parent) == bench_record.benchmark_hash(change)
    # one byte changed
    (change / "perfbench" / "yardstick" / "loop.py").write_text("x = 2\n")
    assert bench_record.benchmark_hash(parent) != bench_record.benchmark_hash(change)
    (change / "perfbench" / "yardstick" / "loop.py").write_text("x = 1\n")
    (change / "BENCHMARK.json").write_text('{"workloads": [1]}\n')
    assert bench_record.benchmark_hash(parent) != bench_record.benchmark_hash(change)


def test_source_hash_tells_the_package_sources_apart(tmp_path):
    parent, change = _benchmark_tree(tmp_path / "parent"), _benchmark_tree(tmp_path / "change")
    assert bench_record.source_hash(parent) != bench_record.source_hash(change)
    (change / "src" / "code.py").write_text("side = 'parent'\n")
    assert bench_record.source_hash(parent) == bench_record.source_hash(change)
    # compiled bytecode is left out, and the benchmark's own files are not source
    (change / "src" / "__pycache__").mkdir()
    (change / "src" / "__pycache__" / "code.cpython-311.pyc").write_bytes(b"\0")
    (change / "perfbench" / "run.py").write_text("print('changed')\n")
    assert bench_record.source_hash(parent) == bench_record.source_hash(change)
    assert bench_record.benchmark_hash(parent) != bench_record.benchmark_hash(change)
