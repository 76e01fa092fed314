"""Engine semantics on scripted traces plus stochastic-run properties."""

import io
import math

import pytest

from mgmprio import (
    ClassSpec,
    Exponential,
    JOB_RECORD_CSV_HEADER,
    PolicyConfig,
    RunConfig,
    SystemModel,
    TraceInput,
    per_class_raw,
    run,
    write_job_records,
)

M1 = SystemModel(1, [ClassSpec(1.0, Exponential(1.0))])
M1_TWO = SystemModel(1, [ClassSpec(1.0, Exponential(1.0)), ClassSpec(1.0, Exponential(1.0))])
M2_TWO = SystemModel(2, [ClassSpec(1.0, Exponential(1.0)), ClassSpec(1.0, Exponential(1.0))])

LIFO = PolicyConfig()
FIFO = PolicyConfig(within_class_order="fifo")
STRICT = PolicyConfig(equal_class_preemption=False)


def by_arrival(result, t):
    matches = [r for r in result.records if r.arrival_time == t]
    assert len(matches) == 1
    return matches[0]


def test_trace_same_class_lifo_preemption():
    trace = TraceInput([(0.0, 1, 3.0), (1.0, 1, 1.0)])
    result = run(M1, LIFO, trace)
    assert not result.truncated
    assert result.counted_completions == 2

    first = by_arrival(result, 0.0)
    assert first.first_start_time == 0.0
    assert first.completion_time == 4.0
    assert first.preemption_count == 1
    assert first.interruption_intervals == (1.0,)
    assert first.total_interruption_time == 1.0

    second = by_arrival(result, 1.0)
    assert second.first_start_time == 1.0
    assert second.completion_time == 2.0
    assert second.preemption_count == 0
    assert second.interruption_intervals == ()


def test_trace_fcfd_picks_earliest_arrived_victim():
    # two class-2 jobs in service; the class-1 arrival displaces the older one
    trace = TraceInput([(0.0, 2, 10.0), (0.5, 2, 10.0), (1.0, 1, 1.0)])
    result = run(M2_TWO, LIFO, trace)

    victim = by_arrival(result, 0.0)
    assert victim.preemption_count == 1
    assert victim.interruption_intervals == (1.0,)
    assert victim.completion_time == 11.0

    untouched = by_arrival(result, 0.5)
    assert untouched.preemption_count == 0
    assert untouched.completion_time == 10.5

    preemptor = by_arrival(result, 1.0)
    assert preemptor.first_start_time == 1.0
    assert preemptor.completion_time == 2.0


@pytest.mark.parametrize("policy", [LIFO, STRICT], ids=["equal-class-on", "equal-class-off"])
def test_trace_lower_priority_waits(policy):
    # class 2 cannot displace a class-1 job under either preemption setting
    trace = TraceInput([(0.0, 1, 2.0), (1.0, 2, 0.5)])
    result = run(M1_TWO, policy, trace)

    low = by_arrival(result, 1.0)
    assert low.first_start_time == 2.0
    assert low.completion_time == 2.5
    assert low.preemption_count == 0
    assert by_arrival(result, 0.0).preemption_count == 0


def test_per_class_raw_on_two_job_trace():
    result = run(M1, LIFO, TraceInput([(0.0, 1, 3.0), (1.0, 1, 1.0)]))
    stats = per_class_raw(result.records, M1)[1]
    assert stats.count == 2
    assert stats.sojourn_mean == 2.5
    assert stats.service_mean == 2.0
    assert stats.wait_mean == 0.5
    assert stats.sojourn_mean - stats.wait_mean - stats.service_mean == 0.0
    assert stats.delayed_fraction == 0.0
    assert stats.delayed_count == 0
    assert stats.initial_delay_mean is None
    assert stats.preemption_mean == 0.5
    assert stats.interruption_count == 1
    assert stats.interruption_mean == 1.0


def test_per_class_raw_single_immediate_job():
    result = run(M1, LIFO, TraceInput([(0.0, 1, 1.0)]))
    stats = per_class_raw(result.records, M1)[1]
    assert stats.count == 1
    assert stats.delayed_fraction == 0.0
    assert stats.initial_delay_mean is None
    assert stats.interruption_mean is None


def test_per_class_raw_flags_empty_class():
    result = run(M1_TWO, LIFO, TraceInput([(0.0, 1, 1.0)]))
    stats = per_class_raw(result.records, M1_TWO)
    assert stats[1].count == 1
    assert stats[2].count == 0
    assert stats[2].sojourn_mean is None


def test_within_class_order_lifo_vs_fifo():
    # a long job holds the server; strict preemption makes same-class arrivals queue
    trace = [(0.0, 1, 5.0), (1.0, 1, 1.0), (2.0, 1, 1.0)]
    lifo = run(M1, PolicyConfig(equal_class_preemption=False), TraceInput(trace))
    assert by_arrival(lifo, 2.0).first_start_time == 5.0
    assert by_arrival(lifo, 1.0).first_start_time == 6.0

    fifo = run(M1, PolicyConfig("fifo", equal_class_preemption=False), TraceInput(trace))
    assert by_arrival(fifo, 1.0).first_start_time == 5.0
    assert by_arrival(fifo, 2.0).first_start_time == 6.0


def test_suspended_jobs_resume_in_lifo_by_original_arrival():
    # X preempted first, Y preempted second; Y (younger) must resume first
    trace = TraceInput([(0.0, 1, 10.0), (1.0, 1, 10.0), (2.0, 1, 10.0)])
    result = run(M1, LIFO, trace)
    assert by_arrival(result, 2.0).completion_time == 12.0
    assert by_arrival(result, 1.0).completion_time == 21.0
    assert by_arrival(result, 0.0).completion_time == 30.0


def test_simultaneous_completion_processed_before_arrival():
    # the server frees at exactly t=1, so the t=1 arrival starts clean
    trace = TraceInput([(0.0, 1, 1.0), (1.0, 1, 1.0)])
    result = run(M1, LIFO, trace)
    assert by_arrival(result, 0.0).preemption_count == 0
    assert by_arrival(result, 1.0).first_start_time == 1.0
    assert by_arrival(result, 1.0).completion_time == 2.0


def test_simultaneous_arrivals_enter_in_trace_order():
    # same timestamp: the class-2 job is first in the trace, takes the server,
    # and is immediately displaced by the class-1 job behind it
    trace = TraceInput([(1.0, 2, 5.0), (1.0, 1, 1.0)])
    result = run(M1_TWO, LIFO, trace)
    records = {r.class_index: r for r in result.records}
    assert records[2].first_start_time == 1.0
    assert records[2].interruption_intervals == (1.0,)
    assert records[2].completion_time == 7.0
    assert records[1].first_start_time == 1.0
    assert records[1].completion_time == 2.0


def test_trace_validation():
    with pytest.raises(ValueError):
        TraceInput([(1.0, 1, 1.0), (0.5, 1, 1.0)])
    with pytest.raises(ValueError):
        TraceInput([(0.0, 1, 0.0)])
    with pytest.raises(ValueError):
        TraceInput([(0.0, 0, 1.0)])
    for bad in [(math.nan, 1, 1.0), (-1.0, 1, 1.0), (math.inf, 1, 1.0), (0.0, 1, math.inf), (0.0, 1, math.nan)]:
        with pytest.raises(ValueError):
            TraceInput([bad])


@pytest.mark.parametrize(
    "kwargs",
    [
        {"target_completions": 0},
        {"target_completions": math.inf},
        {"warmup_time": -1.0},
        {"warmup_time": math.nan},
        {"warmup_time": math.inf},
        {"max_simulated_time": 0.0},
        {"max_simulated_time": math.nan},
    ],
    ids=repr,
)
def test_run_config_rejects_invalid_values(kwargs):
    # a NaN warm-up or cap would otherwise run forever or lift the cap
    with pytest.raises(ValueError):
        RunConfig(**{"seed": 1, "target_completions": 10, **kwargs})


def test_trace_classes_must_fit_model():
    with pytest.raises(ValueError):
        run(M1, LIFO, TraceInput([(0.0, 2, 1.0)]))


def test_class_one_never_preempted_when_strict():
    model = SystemModel(2, [ClassSpec(0.8, Exponential(2.0)), ClassSpec(0.8, Exponential(1.0))])
    result = run(model, STRICT, RunConfig(seed=3, target_completions=5000, warmup_time=10.0))
    top = [r for r in result.records if r.class_index == 1]
    assert top and all(r.preemption_count == 0 for r in top)


def test_equal_class_preemption_hits_class_one():
    model = SystemModel(2, [ClassSpec(0.8, Exponential(2.0)), ClassSpec(0.8, Exponential(1.0))])
    result = run(model, LIFO, RunConfig(seed=3, target_completions=5000, warmup_time=10.0))
    top = [r for r in result.records if r.class_index == 1]
    assert any(r.preemption_count > 0 for r in top)


def test_preemptive_resume_accounting_identity():
    model = SystemModel(
        3,
        [
            ClassSpec(1.0, Exponential(5.0)),
            ClassSpec(1.0, Exponential(2.5)),
            ClassSpec(1.0, Exponential(5.0 / 3.0)),
            ClassSpec(1.0, Exponential(1.25)),
        ],
    )
    result = run(model, LIFO, RunConfig(seed=11, target_completions=10_000, warmup_time=50.0))
    assert result.counted_completions == 10_000
    for r in result.records:
        rebuilt = (
            (r.first_start_time - r.arrival_time)
            + r.service_requirement
            + r.total_interruption_time
        )
        assert abs((r.completion_time - r.arrival_time) - rebuilt) <= 1e-8
        assert r.preemption_count == len(r.interruption_intervals)
        assert r.total_interruption_time == pytest.approx(
            math.fsum(r.interruption_intervals), abs=1e-12
        )
        assert r.first_start_time >= r.arrival_time


def test_runs_are_deterministic():
    cfg = RunConfig(seed=21, target_completions=2000, warmup_time=20.0)
    model = SystemModel(2, [ClassSpec(0.6, Exponential(1.5)), ClassSpec(0.6, Exponential(1.0))])
    a = run(model, LIFO, cfg)
    b = run(model, LIFO, cfg)
    assert a.records == b.records
    assert a.end_time == b.end_time


def test_warmup_excludes_early_arrivals():
    cfg = RunConfig(seed=9, target_completions=500, warmup_time=100.0)
    result = run(SystemModel(1, [ClassSpec(0.5, Exponential(1.0))]), LIFO, cfg)
    assert all(r.arrival_time > 100.0 for r in result.records)


def test_horizon_truncation_reported():
    cfg = RunConfig(seed=9, target_completions=10**6, warmup_time=0.0, max_simulated_time=50.0)
    result = run(SystemModel(1, [ClassSpec(0.5, Exponential(1.0))]), LIFO, cfg)
    assert result.truncated
    assert result.counted_completions < 10**6


def test_job_record_csv_dump():
    result = run(M1, LIFO, TraceInput([(0.0, 1, 3.0), (1.0, 1, 1.0)]))
    buf = io.StringIO()
    write_job_records(result.records, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == JOB_RECORD_CSV_HEADER
    assert lines[0] == "class,arrival,service,first_start,completion,preemptions,interruption_total"
    assert len(lines) == 1 + len(result.records)
    cells = lines[1].split(",")
    assert int(cells[0]) == result.records[0].class_index
    assert float(cells[1]) == result.records[0].arrival_time
    assert float(cells[6]) == result.records[0].total_interruption_time
