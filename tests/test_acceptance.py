"""Acceptance gate: one test per agreed criterion, at the stated tolerances.

Criteria 4 and 7 judge the implementation against the tabulated reference
values shipped in ``scenarios/paper_s4_expected.json``.  Check 7b compares
the simulated class-3 sojourn with the printed wait plus the class's mean
service time, since under preemptive resume every sojourn is its wait plus
its service and the printed class-3 sojourn contradicts its own row.
Check 4d fails: the printed class-4 sojourn is consistent with its row,
and the closed form implemented here gives a larger one.  Whether the
paper's approximation differs from ``approx_metrics`` stays open until the
paper's full text is in the repository; the ``notes`` array in that file
records where the printed rows part from the closed form.
"""

import json
import time
from decimal import ROUND_DOWN, Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from mgmprio import (
    PolicyConfig,
    RunConfig,
    TraceInput,
    approx_metrics,
    check_identities,
    compare,
    exact_mmm_identical,
    exact_single_channel,
    parse_scenario,
    per_class_raw,
    replicate,
    run,
)
from mgmprio.cli import COMPARE_CSV_HEADER, main as cli_main
from mgmprio.replication import METRIC_NAMES

from modelgen import random_identical_exponential_models, random_single_server_models
from oracles import exp_moments, reference_metrics

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
EXPECTED = json.loads((SCENARIO_DIR / "paper_s4_expected.json").read_text(encoding="utf-8"))

HEAVY_JOBS = 200_000
HEAVY_REPS = 10
WARMUP = 100.0


def scenario_model(name):
    return parse_scenario((SCENARIO_DIR / name).read_text(encoding="utf-8")).model


def truncate_two_significant(x: float) -> float:
    """The rounding family of the tabulated sojourn values (toward zero)."""
    d = Decimal(repr(float(x)))
    quantum = Decimal(1).scaleb(d.adjusted() - 1)
    return float(d.quantize(quantum, rounding=ROUND_DOWN))


def assert_elementwise(actual, expected_list, rel):
    for got, want in zip(actual, expected_list, strict=True):
        for name in METRIC_NAMES:
            x, y = getattr(got, name), getattr(want, name)
            if x == 0.0 or y == 0.0:
                assert x == 0.0 and y == 0.0
            else:
                assert abs(x - y) <= rel * max(abs(x), abs(y)), (name, x, y)


@pytest.fixture(scope="module")
def s4_model():
    return scenario_model("paper_s4.cfg")


@pytest.fixture(scope="module")
def s4_lifo_report(s4_model):
    cfg = RunConfig(seed=1, target_completions=HEAVY_JOBS, warmup_time=WARMUP)
    return replicate(s4_model, PolicyConfig("lifo"), cfg, HEAVY_REPS)


@pytest.fixture(scope="module")
def s4_fifo_report(s4_model):
    cfg = RunConfig(seed=1, target_completions=HEAVY_JOBS, warmup_time=WARMUP)
    return replicate(s4_model, PolicyConfig("fifo"), cfg, HEAVY_REPS)


@pytest.fixture(scope="module")
def mm3_report():
    cfg = RunConfig(seed=1, target_completions=HEAVY_JOBS, warmup_time=WARMUP)
    return replicate(scenario_model("mm3_identical.cfg"), PolicyConfig(), cfg, HEAVY_REPS)


@pytest.fixture(scope="module")
def md1_report():
    cfg = RunConfig(seed=5, target_completions=HEAVY_JOBS, warmup_time=WARMUP)
    return replicate(scenario_model("md1_two_class.cfg"), PolicyConfig(), cfg, HEAVY_REPS)


def test_criterion_01_single_server_reduction_is_exact():
    start = time.perf_counter()
    models = random_single_server_models(seed=101, count=50)
    for model in models:
        assert_elementwise(approx_metrics(model), exact_single_channel(model), rel=1e-10)
    assert time.perf_counter() - start < 1.0


def test_criterion_02_identical_exponential_reduction_is_exact():
    start = time.perf_counter()
    models = random_identical_exponential_models(seed=202, count=50)
    for model in models:
        assert_elementwise(approx_metrics(model), exact_mmm_identical(model), rel=1e-10)
    assert time.perf_counter() - start < 1.0


def test_criterion_03_identity_residuals_below_1e12():
    models = random_single_server_models(seed=101, count=50)
    mm_models = random_identical_exponential_models(seed=202, count=50)
    worst = 0.0
    for model, exact in [(m, exact_single_channel) for m in models] + [
        (m, exact_mmm_identical) for m in mm_models
    ]:
        for metrics in (approx_metrics(model), exact(model)):
            for res in check_identities(metrics, model):
                assert res is not None
                worst = max(worst, abs(res))
    assert worst <= 1e-12


def test_criterion_04a_headline_wait_of_top_class(s4_model):
    w1 = approx_metrics(s4_model)[0].w
    assert abs(w1 - EXPECTED["tabulated"]["analytic"]["w"][0]) <= 2e-6


def test_criterion_04b_printed_sojourns_of_classes_1_and_2(s4_model):
    metrics = approx_metrics(s4_model)
    tabulated_v = EXPECTED["tabulated"]["analytic"]["v"]
    assert truncate_two_significant(metrics[0].v) == tabulated_v[0]
    assert truncate_two_significant(metrics[1].v) == tabulated_v[1]


def test_criterion_04c_waits_match_independent_oracle(s4_model):
    # second route: direct factorial sums and explicit closed forms in
    # exact rational arithmetic, no loss-recurrence shortcut
    oracle = reference_metrics(
        3,
        [
            (1, *exp_moments(5)),
            (1, *exp_moments(Fraction(5, 2))),
            (1, *exp_moments(Fraction(5, 3))),
            (1, *exp_moments(Fraction(5, 4))),
        ],
        mode="approx",
    )
    metrics = approx_metrics(s4_model)
    for i in (1, 2, 3):
        want = float(oracle[i]["w"])
        assert abs(metrics[i].w - want) <= 1e-10 * want


def test_criterion_04d_printed_sojourn_of_class_4(s4_model):
    # fails, an open discrepancy: the full-precision class-4 sojourn is
    # 1.5163..., which truncates to 1.5, not the printed 1.4.  The printed
    # row is consistent with itself (0.65 + 0.8 = 1.45 truncates to 1.4);
    # it parts from the closed form in w (0.716 here), and the simulated
    # class-4 wait (about 0.64) sits nearer the printed 0.65.  See
    # scenarios/paper_s4_expected.json, notes.
    v4 = approx_metrics(s4_model)[3].v
    assert truncate_two_significant(v4) == EXPECTED["tabulated"]["analytic"]["v"][3]


def test_criterion_05_simulation_covers_exact_identical_oracle(mm3_report):
    exact = exact_mmm_identical(scenario_model("mm3_identical.cfg"))
    for cls, metrics in enumerate(exact, start=1):
        for name in ("w", "v"):
            est = mm3_report.classes[cls][name]
            truth = getattr(metrics, name)
            assert abs(est.estimate - truth) <= est.ci_half_width, (cls, name)
            assert abs(est.estimate - truth) <= 0.03 * truth, (cls, name)
    assert mm3_report.metadata.wall_clock_seconds <= 120.0


def test_criterion_06_md1_simulation_within_three_percent(md1_report):
    exact = exact_single_channel(scenario_model("md1_two_class.cfg"))
    for cls, metrics in enumerate(exact, start=1):
        for name in ("w", "h", "v"):
            est = md1_report.classes[cls][name]
            truth = getattr(metrics, name)
            assert abs(est.estimate - truth) <= 0.03 * truth, (cls, name)


def test_criterion_07a_simulated_sojourns_classes_1_and_2(s4_lifo_report):
    tabulated_v = EXPECTED["tabulated"]["simulation"]["v"]
    for cls in (1, 2):
        est = s4_lifo_report.classes[cls]["v"].estimate
        assert abs(est - tabulated_v[cls - 1]) <= 0.05 * tabulated_v[cls - 1]


def test_criterion_07b_simulated_sojourn_class_3(s4_lifo_report):
    # Under preemptive resume no work is lost, so every sojourn is its
    # wait plus its service.  The printed simulation row gives class 3 a
    # wait of 0.075 beside a sojourn of 0.61, which repeats the analytic
    # row and cannot hold with a mean service of 0.6; the row's own wait
    # plus the mean service (0.675) is the sojourn it implies.  The
    # simulator's sojourn estimate is its wait estimate plus the sample
    # mean service (close to 0.6), so the v check follows from the tighter
    # w check through that identity; what this test pins is the wait.
    tabulated = EXPECTED["tabulated"]["simulation"]
    tabulated_w3 = tabulated["w"][2]
    tabulated_v3 = tabulated_w3 + EXPECTED["mean_service_times"][2]
    est_v = s4_lifo_report.classes[3]["v"].estimate
    est_w = s4_lifo_report.classes[3]["w"].estimate
    assert abs(est_v - tabulated_v3) <= 0.05 * tabulated_v3
    assert abs(est_w - tabulated_w3) <= 0.10 * tabulated_w3


def test_criterion_07c_simulated_wait_class_4(s4_lifo_report):
    tabulated_w4 = EXPECTED["tabulated"]["simulation"]["w"][3]
    est = s4_lifo_report.classes[4]["w"].estimate
    assert abs(est - tabulated_w4) <= 0.10 * tabulated_w4


def test_criterion_07d_compare_table_is_emitted(capsys):
    code = cli_main([
        "compare", "--config", str(SCENARIO_DIR / "paper_s4.cfg"), "--format", "csv",
        "--jobs", "5000", "--warmup", "20", "--seed", "3", "--reps", "3",
    ])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == COMPARE_CSV_HEADER
    assert len(lines) == 1 + 4 * len(METRIC_NAMES)


def test_criterion_08_lifo_fifo_sojourns_overlap(s4_lifo_report, s4_fifo_report):
    # common random numbers: both reports share seed 1, and the sampled
    # workload is policy-independent by construction
    for cls in (1, 2, 3, 4):
        lifo = s4_lifo_report.classes[cls]["v"]
        fifo = s4_fifo_report.classes[cls]["v"]
        lifo_lo, lifo_hi = lifo.estimate - lifo.ci_half_width, lifo.estimate + lifo.ci_half_width
        fifo_lo, fifo_hi = fifo.estimate - fifo.ci_half_width, fifo.estimate + fifo.ci_half_width
        assert max(lifo_lo, fifo_lo) <= min(lifo_hi, fifo_hi), cls


def test_criterion_09_simulate_csv_is_byte_identical(capsys):
    argv = [
        "simulate", "--config", str(SCENARIO_DIR / "mm3_identical.cfg"),
        "--format", "csv", "--jobs", "5000", "--warmup", "20", "--seed", "11", "--reps", "3",
    ]
    code_a = cli_main(list(argv))
    out_a = capsys.readouterr().out
    code_b = cli_main(list(argv))
    out_b = capsys.readouterr().out
    assert code_a == code_b == 0
    assert out_a == out_b


def test_criterion_10_hand_traced_lifecycles():
    from mgmprio import ClassSpec, Exponential, SystemModel

    one_class = SystemModel(1, [ClassSpec(1.0, Exponential(1.0))])
    two_class_m1 = SystemModel(1, [ClassSpec(1.0, Exponential(1.0))] * 2)
    two_class_m2 = SystemModel(2, [ClassSpec(1.0, Exponential(1.0))] * 2)
    lifo = PolicyConfig()

    # same-class preemption on one server: the newcomer displaces the
    # in-service job and the victim resumes with its remaining time
    records = run(one_class, lifo, TraceInput([(0.0, 1, 3.0), (1.0, 1, 1.0)])).records
    first = next(r for r in records if r.arrival_time == 0.0)
    second = next(r for r in records if r.arrival_time == 1.0)
    assert (first.first_start_time, first.completion_time) == (0.0, 4.0)
    assert first.interruption_intervals == (1.0,)
    assert (second.first_start_time, second.completion_time) == (1.0, 2.0)
    assert second.preemption_count == 0
    stats = per_class_raw(records, one_class)[1]
    assert (stats.v, stats.w) == (2.5, 0.5)
    assert (stats.p, stats.h, stats.g) == (0.0, 0.5, 1.0)

    # two servers, both busy with the lowest class: the earliest-arrived
    # of the equal-class victims is displaced (first come, first displaced)
    records = run(two_class_m2, lifo, TraceInput([(0.0, 2, 10.0), (0.5, 2, 10.0), (1.0, 1, 1.0)])).records
    victim = next(r for r in records if r.arrival_time == 0.0)
    untouched = next(r for r in records if r.arrival_time == 0.5)
    preemptor = next(r for r in records if r.arrival_time == 1.0)
    assert victim.interruption_intervals == (1.0,) and victim.completion_time == 11.0
    assert untouched.preemption_count == 0 and untouched.completion_time == 10.5
    assert (preemptor.first_start_time, preemptor.completion_time) == (1.0, 2.0)

    # a lower class never displaces a higher one, whichever way the
    # equal-class switch is set
    for policy in (PolicyConfig(equal_class_preemption=True), PolicyConfig(equal_class_preemption=False)):
        records = run(two_class_m1, policy, TraceInput([(0.0, 1, 2.0), (1.0, 2, 0.5)])).records
        low = next(r for r in records if r.class_index == 2)
        high = next(r for r in records if r.class_index == 1)
        assert high.preemption_count == 0 and high.completion_time == 2.0
        assert (low.first_start_time, low.completion_time) == (2.0, 2.5)
