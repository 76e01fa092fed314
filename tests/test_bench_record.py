"""The paired benchmark record's summary: medians, pair wins and the gain rule."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

DECLARED = [{"name": "wall_s", "unit": "s", "better": "lower"},
            {"name": "jobs_per_s", "unit": "1/s", "better": "higher"}]


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
