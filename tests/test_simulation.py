"""Engine semantics on scripted traces plus stochastic-run properties."""

import functools
import heapq
import io
import math
import statistics
import tracemalloc
import warnings
from dataclasses import fields, replace
from itertools import chain

import numpy as np
import pytest
import scipy.stats as sps
from hypothesis import given, settings
from hypothesis import strategies as st

import mgmprio.simulation
from mgmprio import (
    ClassSpec,
    Deterministic,
    Erlang,
    Exponential,
    HyperExponential,
    JOB_RECORD_CSV_HEADER,
    JobLog,
    PolicyConfig,
    RawClassStats,
    RunConfig,
    ServiceDistribution,
    SystemModel,
    TraceInput,
    per_class_raw,
    run,
    write_job_records,
)
from mgmprio.replication import rep_seeds
from oracles import reference_lifo_trace, reference_per_class_raw, reference_policy_jobs, reference_policy_trace

M1 = SystemModel(1, [ClassSpec(1.0, Exponential(1.0))])
M1_TWO = SystemModel(1, [ClassSpec(1.0, Exponential(1.0)), ClassSpec(1.0, Exponential(1.0))])
M2_TWO = SystemModel(2, [ClassSpec(1.0, Exponential(1.0)), ClassSpec(1.0, Exponential(1.0))])
PAPER_S4 = SystemModel(
    3,
    [
        ClassSpec(1.0, Exponential(5.0)),
        ClassSpec(1.0, Exponential(2.5)),
        ClassSpec(1.0, Exponential(5.0 / 3.0)),
        ClassSpec(1.0, Exponential(1.25)),
    ],
)

LIFO = PolicyConfig()
FIFO = PolicyConfig(within_class_order="fifo")
STRICT = PolicyConfig(equal_class_preemption=False)
FIFO_STRICT = PolicyConfig(within_class_order="fifo", equal_class_preemption=False)
ALL_POLICIES = pytest.mark.parametrize("policy", [LIFO, FIFO, STRICT, FIFO_STRICT],
                                       ids=["lifo", "fifo", "lifo-strict", "fifo-strict"])

# victim lookup by a scan of every busy server's key, the default for up to
# _VICTIM_SCAN_MAX servers, and by the index, which a crossover of 0 forces on
SCAN, INDEX = mgmprio.simulation._VICTIM_SCAN_MAX, 0


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


def test_trace_victim_tie_goes_to_lower_server_index():
    # two class-1 jobs hold both servers, and the one on server 1 ends first,
    # so of the tied class-2 jobs X (first in the trace) resumes on server 1
    # and Y on server 0; the class-1 arrival at 3 displaces Y
    trace = TraceInput([(0.0, 1, 2.0), (0.0, 1, 1.0), (0.5, 2, 10.0), (0.5, 2, 10.0), (3.0, 1, 1.0)])
    result = run(M2_TWO, LIFO, trace)
    x, y = [r for r in result.records if r.class_index == 2]
    assert (x.first_start_time, x.completion_time, x.preemption_count) == (1.0, 11.0, 0)
    assert (y.first_start_time, y.completion_time, y.interruption_intervals) == (2.0, 13.0, (1.0,))
    assert by_arrival(result, 3.0).completion_time == 4.0


def test_trace_simultaneous_completions_leave_in_start_order():
    # classes 1 and 2 both finish at t = 3; class 1 started first, so it
    # leaves first, and class 3 takes its server from the pool
    model = SystemModel(2, [ClassSpec(1.0, Exponential(1.0))] * 3)
    result = run(model, LIFO, TraceInput([(0.0, 1, 3.0), (1.0, 2, 2.0), (2.0, 3, 1.0)]))
    assert [(r.class_index, r.completion_time) for r in result.records] == [(1, 3.0), (2, 3.0), (3, 4.0)]


def test_trace_resumed_job_tied_with_a_started_job_leaves_in_start_order():
    # C (class 1) displaces B at 1.0; at C's completion B resumes on C's server and finishes at 3.0,
    # tied with A, which started at 0, so A leaves first; D then takes A's server from the pool
    model = SystemModel(2, [ClassSpec(1.0, Exponential(1.0))] * 3)
    result = run(model, LIFO, TraceInput([(0.0, 1, 3.0), (0.5, 2, 1.5), (1.0, 1, 1.0), (2.5, 3, 1.0)]))
    assert [(r.arrival_time, r.first_start_time, r.completion_time, r.interruption_intervals)
            for r in result.records] == [
        (1.0, 1.0, 2.0, ()), (0.0, 0.0, 3.0, ()), (0.5, 0.5, 3.0, (1.0,)), (2.5, 3.0, 4.0, ())]


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
    assert stats.v == 2.5
    assert stats.w == 0.5
    assert stats.v - stats.w == 2.0  # the mean service
    assert stats.p == 0.0
    assert stats.u is None
    assert stats.h == 0.5
    assert stats.interruption_count == 1
    assert stats.g == 1.0


def test_per_class_raw_single_immediate_job():
    result = run(M1, LIFO, TraceInput([(0.0, 1, 1.0)]))
    stats = per_class_raw(result.records, M1)[1]
    assert stats.count == 1
    assert stats.p == 0.0
    assert stats.u is None
    assert stats.g is None


def test_per_class_raw_flags_empty_class():
    result = run(M1_TWO, LIFO, TraceInput([(0.0, 1, 1.0)]))
    stats = per_class_raw(result.records, M1_TWO)
    assert stats[1].count == 1
    assert stats[2] == RawClassStats(count=0)
    assert stats[2].v is None and stats[2].interruption_count == 0
    # a model with more classes than the run's gives them empty entries too
    assert per_class_raw(run(M1, LIFO, TraceInput([(0.0, 1, 1.0)])).records, M1_TWO) == stats


def test_a_class_interruption_total_is_the_sum_of_every_interval():
    model = SystemModel(1, [ClassSpec(1.0, Exponential(1.0)), ClassSpec(0.1, Exponential(1.0))])
    trace = TraceInput([(0.0, 2, 0.1), (0.0625, 1, 2**-53), (0.125, 2, 10.0), (0.25, 1, 2**-54), (0.5, 1, 1.0)])
    result = run(model, LIFO, trace)
    jobs = [r for r in result.records if r.class_index == 2]
    assert [r.interruption_intervals for r in jobs] == [(2**-53,), (2**-54, 1.0)]
    assert all(r.first_start_time == r.arrival_time for r in jobs)
    stats = per_class_raw(result.records, model)[2]
    # 1 + 3 * 2**-54 rounds up to 1 + 2**-52; summing each job's rounded total first would give 1
    assert stats.g == math.fsum([2**-53, 2**-54, 1.0]) / 3 == float.fromhex("0x1.5555555555557p-2")
    assert stats.w == 0.5 + 2**-53


def test_job_log_repr_and_comparison_with_another_type():
    result = run(M1, LIFO, TraceInput([(0.0, 1, 3.0), (1.0, 1, 1.0)]))
    assert repr(result.records) == "JobLog(2 jobs)"
    assert (result.records == 0) is False
    assert result.records != None  # noqa: E711


def test_job_log_rows_compare_as_numbers():
    minus, plus = (run(M1, LIFO, TraceInput([(t, 1, 1.0)])).records for t in (-0.0, 0.0))
    # the packed rows differ in the arrival's sign bit, which == on floats ignores
    assert minus._rows != plus._rows
    assert math.copysign(1.0, minus[0].arrival_time) == -1.0
    assert minus == plus and list(minus) == list(plus)


@pytest.mark.parametrize(
    "model, policy, cfg",
    [
        (PAPER_S4, LIFO, RunConfig(seed=5, target_completions=5000, warmup_time=20.0)),
        (PAPER_S4, FIFO, RunConfig(seed=5, target_completions=5000, warmup_time=20.0)),
        (PAPER_S4, STRICT, RunConfig(seed=5, target_completions=5000, warmup_time=20.0)),
        (SystemModel(1, [ClassSpec(0.7, Deterministic(1.0))]), LIFO,
         RunConfig(seed=6, target_completions=3000, warmup_time=20.0)),
        # class 2 arrives so rarely that none of its jobs is counted
        (SystemModel(1, [ClassSpec(0.5, Exponential(1.0)), ClassSpec(1e-9, Exponential(1.0))]), LIFO,
         RunConfig(seed=7, target_completions=500, warmup_time=10.0)),
        (M2_TWO, LIFO, TraceInput([(0.0, 2, 10.0), (0.5, 2, 10.0), (1.0, 1, 1.0), (1.5, 1, 0.5), (1.5, 2, 2.0)])),
    ],
    ids=["s4-lifo", "s4-fifo", "s4-strict", "md1", "empty-class", "trace"],
)
def test_per_class_raw_matches_record_reference(model, policy, cfg):
    result = run(model, policy, cfg)
    n = len(model.classes)
    assert per_class_raw(result.records, model) == reference_per_class_raw(list(result.records), n)


# scenarios/md1_two_class.cfg
MD1_TWO_CLASS = SystemModel(1, [ClassSpec(0.3, Deterministic(1.0)), ClassSpec(0.3, Deterministic(1.0))])
# above _VICTIM_SCAN_MAX servers, so the victim heap runs: at load 0.85, and overloaded at 1.25
M32 = SystemModel(32, [ClassSpec(6.8, Exponential(1.0))] * 4)
M16_OVERLOADED = SystemModel(16, [ClassSpec(5.0, Exponential(1.0))] * 4)
H2_ERLANG_DET = SystemModel(2, [ClassSpec(0.5, HyperExponential(((0.9, 2.0), (0.1, 0.2)))),
                                ClassSpec(0.4, Erlang(3, 3.0)), ClassSpec(0.3, Deterministic(0.8))])


@ALL_POLICIES
@pytest.mark.parametrize(
    "model",
    [
        PAPER_S4,
        MD1_TWO_CLASS,
        M32,
        M16_OVERLOADED,
    ],
    ids=["s4", "md1-two-class", "m32", "m16-overloaded"],
)
@pytest.mark.parametrize("seed", [1, 7919])
@pytest.mark.parametrize("cap", [math.inf, 37.5])
@pytest.mark.parametrize("warmup", [10.0, 0.0])
def test_keeping_records_changes_no_bit_of_the_reduction(model, policy, seed, cap, warmup):
    cfg = RunConfig(seed=seed, target_completions=2000, warmup_time=warmup, max_simulated_time=cap)
    kept = run(model, policy, cfg)
    bare = run(model, policy, replace(cfg, keep_records=False))
    # repr tells every bit of a float apart, -0.0 from 0.0 too
    expected = repr(reference_per_class_raw(list(kept.records), len(model.classes)))
    assert repr(per_class_raw(bare.records, model)) == repr(per_class_raw(kept.records, model)) == expected
    assert (bare.truncated, repr(bare.end_time), bare.counted_completions) == \
        (kept.truncated, repr(kept.end_time), kept.counted_completions)


@ALL_POLICIES
@pytest.mark.parametrize(
    "model",
    [
        PAPER_S4,
        MD1_TWO_CLASS,
        M32,
        M16_OVERLOADED,
        H2_ERLANG_DET,
    ],
    ids=["s4", "md1-two-class", "m32", "m16-overloaded", "h2-erlang-det"],
)
@pytest.mark.parametrize("seed", [1, 7919])
@pytest.mark.parametrize("cap", [math.inf, 37.5])
@pytest.mark.parametrize("keep_records", [True, False], ids=["rows", "rowless"])
def test_folding_the_log_is_not_observable(model, policy, seed, cap, keep_records, monkeypatch):
    cfg = RunConfig(seed=seed, target_completions=3000, warmup_time=10.0, max_simulated_time=cap,
                    keep_records=keep_records)
    # the log is reduced at the end of every arrival window: the default blocks end one every few
    # thousand arrivals, blocks of 128 jobs every few hundred, and a block's size is not observable
    default = run(model, policy, cfg)
    monkeypatch.setattr(mgmprio.simulation, "_BLOCK", 128)
    small = run(model, policy, cfg)
    # repr tells every bit of a float apart
    raw = repr(per_class_raw(small.records, model))
    assert raw == repr(per_class_raw(default.records, model))
    assert (len(small.records), small.truncated, repr(small.end_time)) == \
        (len(default.records), default.truncated, repr(default.end_time))
    assert small.records == default.records
    if keep_records:
        rows = list(small.records)
        assert rows == list(default.records)
        # the reference sums each class's values from the rows, in one fsum each
        assert raw == repr(reference_per_class_raw(rows, len(model.classes)))
    else:
        assert raw == repr(per_class_raw(run(model, policy, replace(cfg, keep_records=True)).records, model))


def test_a_trace_is_one_window_reduced_once_at_its_end(monkeypatch):
    # a few hundred paper_s4 arrivals, without the stream's closing class-0 arrival
    trace = TraceInput(list(chain.from_iterable(mgmprio.simulation._arrival_windows(PAPER_S4, 3, 75.0)))[:-1])
    assert len(trace.arrivals) >= 200
    folded = []
    fold = JobLog._fold

    def counting_fold(log, buffers):
        folded.append(sum(map(len, buffers[0])))
        fold(log, buffers)

    monkeypatch.setattr(JobLog, "_fold", counting_fold)
    result = run(PAPER_S4, LIFO, trace)
    # one reduction, of every job's sojourn
    assert folded == [len(trace.arrivals)]
    rows = list(result.records)
    assert len(rows) == len(trace.arrivals)
    # the rows hold every arrival, its class and its service as the trace gives them
    assert sorted((r.arrival_time, r.class_index, r.service_requirement) for r in rows) == sorted(trace.arrivals)
    assert repr(per_class_raw(result.records, PAPER_S4)) == repr(reference_per_class_raw(rows, len(PAPER_S4.classes)))


def test_job_log_without_rows_refuses_to_be_read():
    cfg = RunConfig(seed=3, target_completions=5000, warmup_time=10.0, max_simulated_time=200.0, keep_records=False)
    result = run(PAPER_S4, LIFO, cfg)
    kept = run(PAPER_S4, LIFO, replace(cfg, keep_records=True))
    assert result.truncated and 0 < result.counted_completions < 5000
    assert len(result.records) == result.counted_completions == len(kept.records)
    buf = io.StringIO()
    reads = [lambda log: log[0], lambda log: log[-1], lambda log: log[2:5], iter, list,
             lambda log: log.index(kept.records[0]), lambda log: write_job_records(log, buf)]
    for read in reads:
        with pytest.raises(ValueError, match="keep_records"):
            read(result.records)
    # the refusal comes before the CSV header
    assert buf.getvalue() == ""
    assert result.records != kept.records


def test_within_class_order_lifo_vs_fifo():
    # a long job holds the server; strict preemption makes same-class arrivals queue
    trace = [(0.0, 1, 5.0), (1.0, 1, 1.0), (2.0, 1, 1.0)]
    lifo = run(M1, PolicyConfig(equal_class_preemption=False), TraceInput(trace))
    assert by_arrival(lifo, 2.0).first_start_time == 5.0
    assert by_arrival(lifo, 1.0).first_start_time == 6.0

    fifo = run(M1, PolicyConfig("fifo", equal_class_preemption=False), TraceInput(trace))
    assert by_arrival(fifo, 1.0).first_start_time == 5.0
    assert by_arrival(fifo, 2.0).first_start_time == 6.0


@pytest.mark.parametrize("policy, completions", [(LIFO, (30.0, 21.0, 12.0)), (FIFO, (21.0, 30.0, 12.0))],
                         ids=["lifo", "fifo"])
def test_suspended_jobs_resume_by_original_arrival(policy, completions):
    # X (arrived 0) preempted first, Y (arrived 1) second; under LIFO the
    # younger Y resumes first, under FIFO the older X
    trace = TraceInput([(0.0, 1, 10.0), (1.0, 1, 10.0), (2.0, 1, 10.0)])
    result = run(M1, policy, trace)
    assert tuple(by_arrival(result, t).completion_time for t in (0.0, 1.0, 2.0)) == completions


@pytest.mark.parametrize("policy", [STRICT, FIFO_STRICT], ids=["lifo", "fifo"])
def test_strict_preemption_displaces_only_lower_classes(policy):
    # two servers: the class-1 arrival at 1.0 displaces the class-2 job, the
    # one at 1.25 finds only class-1 work in service and waits for a server
    trace = TraceInput([(0.0, 2, 4.0), (0.5, 1, 4.0), (1.0, 1, 1.0), (1.25, 1, 1.0)])
    result = run(M2_TWO, policy, trace)
    low = by_arrival(result, 0.0)
    assert (low.completion_time, low.interruption_intervals) == (6.0, (2.0,))
    assert by_arrival(result, 0.5).completion_time == 4.5
    assert by_arrival(result, 1.0).completion_time == 2.0
    waiter = by_arrival(result, 1.25)
    assert (waiter.first_start_time, waiter.completion_time, waiter.preemption_count) == (2.0, 3.0, 0)


def test_equal_arrival_times_resume_in_pool_order():
    # each arrival displaces the job before it; with one arrival time the pool
    # falls back on insertion order, so the first displaced resumes first
    trace = TraceInput([(0.0, 1, 1.0), (0.0, 1, 2.0), (0.0, 1, 3.0)])
    result = run(M1, LIFO, trace)
    completions = [(r.service_requirement, r.completion_time) for r in result.records]
    assert completions == [(3.0, 3.0), (1.0, 4.0), (2.0, 6.0)]


_EIGHTHS = st.integers(min_value=0, max_value=40).map(lambda k: k / 8)


@st.composite
def _lifo_traces(draw):
    servers = draw(st.integers(min_value=1, max_value=4))
    n_classes = draw(st.integers(min_value=1, max_value=4))
    jobs = draw(st.lists(
        st.tuples(_EIGHTHS, st.integers(min_value=1, max_value=n_classes), _EIGHTHS.map(lambda s: s + 0.125)),
        max_size=25, unique_by=lambda job: (job[0], job[1]),
    ))
    # sorted by time alone, so jobs of one instant keep the drawn order across classes
    return servers, n_classes, sorted(jobs, key=lambda job: job[0])


def run_with_victim_lookup(scan_max, model, policy, cfg):
    # a plain context, not the monkeypatch fixture, which Hypothesis would share across examples
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mgmprio.simulation, "_VICTIM_SCAN_MAX", scan_max)
        return run(model, policy, cfg)


@pytest.mark.parametrize("scan_max", [SCAN, INDEX], ids=["scan", "index"])
@settings(max_examples=300, deadline=None)
@given(case=_lifo_traces())
def test_lifo_trace_matches_reference_simulator(scan_max, case):
    # times and services are multiples of 1/8, so both simulators compute exactly
    servers, n_classes, jobs = case
    model = SystemModel(servers, [ClassSpec(1.0, Exponential(1.0))] * n_classes)
    result = run_with_victim_lookup(scan_max, model, LIFO, TraceInput(jobs))
    engine = {
        (r.class_index, r.arrival_time): (r.first_start_time, r.completion_time, r.preemption_count)
        for r in result.records
    }
    assert engine == reference_lifo_trace(servers, jobs)
    # the two references follow different rules and must agree where both apply
    assert reference_policy_trace(servers, jobs, True, True) == engine


@pytest.mark.parametrize(
    "policy, scan_max",
    [(FIFO, SCAN), (STRICT, SCAN), (FIFO_STRICT, SCAN), (FIFO, INDEX), (STRICT, INDEX), (FIFO_STRICT, INDEX)],
    ids=["fifo", "lifo-strict", "fifo-strict", "fifo-index", "lifo-strict-index", "fifo-strict-index"],
)
@settings(max_examples=300, deadline=None)
@given(case=_lifo_traces())
def test_trace_matches_policy_reference_simulator(policy, scan_max, case):
    servers, n_classes, jobs = case
    model = SystemModel(servers, [ClassSpec(1.0, Exponential(1.0))] * n_classes)
    result = run_with_victim_lookup(scan_max, model, policy, TraceInput(jobs))
    engine = {
        (r.class_index, r.arrival_time): (r.first_start_time, r.completion_time, r.preemption_count)
        for r in result.records
    }
    lifo = policy.within_class_order == "lifo"
    assert engine == reference_policy_trace(servers, jobs, lifo, policy.equal_class_preemption)


@ALL_POLICIES
def test_victim_index_on_equal_jobs_displacing_each_other(policy, monkeypatch):
    # five equal class-1 jobs at t = 0 displace each other on two servers.  At t = 1 each
    # server's completed job leaves a stale key in the index that shares (-class, arrival,
    # server) with the key of the job resumed there, and the arrival at t = 1.5 finds its
    # victim past them.  The equal jobs are told apart only by their outcomes, so these are
    # compared as a multiset.
    monkeypatch.setattr(mgmprio.simulation, "_VICTIM_SCAN_MAX", INDEX)
    jobs = [(0.0, 1, 1.0)] * 5 + [(1.5, 1, 1.0)]
    result = run(SystemModel(2, [ClassSpec(1.0, Exponential(1.0))]), policy, TraceInput(jobs))
    engine = [(r.class_index, r.arrival_time, r.first_start_time, r.completion_time, r.preemption_count)
              for r in result.records]
    reference = reference_policy_jobs(2, jobs, policy.within_class_order == "lifo", policy.equal_class_preemption)
    assert sorted(engine) == sorted((c, t, *job) for (t, c, _), job in zip(jobs, reference))


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
    for bad in [(math.nan, 1, 1.0), (-1.0, 1, 1.0), (math.inf, 1, 1.0), (0.0, 1, math.inf), (0.0, 1, math.nan),
                (0.0, True, 1.0), (2**1024, 1, 1.0), (0.0, 1, 2**1024)]:
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
        {"target_completions": 2.5},
        {"target_completions": True},
        {"seed": 1.5},
        {"seed": -1},
        {"seed": True},
        {"keep_records": 1},
        {"keep_records": "no"},
        {"keep_records": None},
        # an int past the largest double is not finite as a double, though it compares < inf
        pytest.param({"warmup_time": 2**1024}, id="{'warmup_time': 2**1024}"),
        pytest.param({"max_simulated_time": 2**1024}, id="{'max_simulated_time': 2**1024}"),
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


def test_policy_rejects_unknown_within_class_order():
    with pytest.raises(ValueError):
        PolicyConfig(within_class_order="random")


@pytest.mark.parametrize("value", ["no", 1, None], ids=repr)
def test_policy_rejects_a_non_bool_equal_class_preemption(value):
    # "no" is truthy, so it would run with equal-class preemption
    with pytest.raises(ValueError, match="equal_class_preemption"):
        PolicyConfig(equal_class_preemption=value)


def test_run_rejects_a_config_of_another_type():
    with pytest.raises(TypeError):
        run(M1, LIFO, object())


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
    # the run ends at the completion that reaches the target
    assert a.end_time == a.records[-1].completion_time
    assert len(a.records) == a.counted_completions
    listed = list(a.records)
    assert a.records[-1] == listed[-1] and a.records[-len(listed)] == listed[0]
    assert a.records[10:20] == tuple(listed[10:20]) and a.records[::-500] == tuple(listed[::-500])
    completions = [r.completion_time for r in a.records]
    assert completions == sorted(completions)
    assert run(model, LIFO, RunConfig(seed=22, target_completions=2000, warmup_time=20.0)).records != a.records


def test_equal_arrival_times_come_out_in_class_order(monkeypatch):
    # every gap is 1.0, so every class arrives at t = 1, 2, 3, ...: each time is tied across the classes
    monkeypatch.setattr(mgmprio.simulation, "_exponentials", lambda uniforms, rate: np.ones_like(uniforms))
    arrivals = list(chain.from_iterable(mgmprio.simulation._arrival_windows(PAPER_S4, 1, 200.0)))
    assert [(t, cls) for t, cls, _ in arrivals[:-1]] == [(float(t), k) for t in range(1, 201) for k in range(1, 5)]
    assert arrivals[-1] == (200.0, 0, 0.0)


class _ShiftedExponential(ServiceDistribution):
    """A law defined outside the package that overrides ``sample`` alone."""

    def mean(self):
        return 0.25 + 1.0 / 4.0

    def second_moment(self):
        return 0.25**2 + 2.0 * 0.25 / 4.0 + 2.0 / 4.0**2

    def sample(self, stream):
        return 0.25 - math.log(1.0 - stream.uniform()) / 4.0

    def spec(self):
        return "shifted-exp(0.25,4)"


@pytest.mark.parametrize(
    "model, policy",
    [
        (PAPER_S4, LIFO),
        (PAPER_S4, PolicyConfig(within_class_order="fifo", equal_class_preemption=False)),
        (SystemModel(1, [ClassSpec(0.7, Deterministic(1.0))]), LIFO),
        (SystemModel(2, [ClassSpec(0.8, _ShiftedExponential()), ClassSpec(1.0, Exponential(1.0))]), LIFO),
        # a window ends with the fast class's block, part-way through the slow one's
        (SystemModel(1, [ClassSpec(0.01, Exponential(1.0)), ClassSpec(10.0, Exponential(20.0))]), LIFO),
    ],
    ids=["s4-lifo", "s4-fifo-strict", "md1", "outside-law", "slow-and-fast"],
)
def test_block_size_is_not_observable(model, policy, monkeypatch):
    cfg = RunConfig(seed=31, target_completions=3000, warmup_time=20.0)
    default = run(model, policy, cfg)
    # blocks of another size also move the window ends, where the log is reduced
    for block in (1, 3):
        monkeypatch.setattr(mgmprio.simulation, "_BLOCK", block)
        assert run(model, policy, cfg).records == default.records


@ALL_POLICIES
@pytest.mark.parametrize(
    "model, min_heapified",
    [
        (SystemModel(2, [ClassSpec(0.8, Exponential(1.0)), ClassSpec(0.8, Exponential(2.0))]), 1),
        (SystemModel(9, [ClassSpec(3.0, Exponential(1.0)), ClassSpec(3.0, Deterministic(1.0)),
                         ClassSpec(3.0, Exponential(2.0))]), 1),
        (SystemModel(32, [ClassSpec(6.8, Exponential(1.0))] * 4), 1),
        # load 1.25: every server stays busy from early on, so the index is built afresh at 2m
        # keys again and again within one all-busy period
        (SystemModel(16, [ClassSpec(5.0, Exponential(1.0))] * 4), 100),
    ],
    ids=["m2", "m9", "m32", "m16-overloaded"],
)
def test_victim_index_is_not_observable(model, min_heapified, policy, monkeypatch):
    cfg = RunConfig(seed=31, target_completions=3000, warmup_time=20.0)
    monkeypatch.setattr(mgmprio.simulation, "_VICTIM_SCAN_MAX", math.inf)
    scanned = run(model, policy, cfg)
    heapified = []
    monkeypatch.setattr(mgmprio.simulation, "heapify", lambda keys: (heapified.append(len(keys)), heapq.heapify(keys)))
    monkeypatch.setattr(mgmprio.simulation, "_VICTIM_SCAN_MAX", INDEX)
    indexed = run(model, policy, cfg)
    assert indexed.records == scanned.records
    assert indexed.end_time == scanned.end_time
    # every index is built from all the servers' keys
    assert len(heapified) >= min_heapified and set(heapified) == {model.servers}


@pytest.mark.parametrize(
    "model",
    # 16 servers is above _VICTIM_SCAN_MAX, so the victim heap runs
    [PAPER_S4, SystemModel(16, [ClassSpec(3.4, Exponential(1.0))] * 4)],
    ids=["s4", "m16"],
)
def test_exponential_service_gives_every_policy_the_same_waits(model):
    # with exponential laws the per-class counts form one CTMC under every policy, so each class's
    # mean wait is the same under all four: the per-seed differences from LIFO must centre on 0
    seeds = rep_seeds(2026, 10)
    t975 = sps.t.ppf(0.975, len(seeds) - 1)

    def waits(policy):
        return [per_class_raw(run(model, policy, RunConfig(seed=seed, target_completions=10_000, warmup_time=20.0,
                                                           keep_records=False)).records, model)
                for seed in seeds]

    lifo = waits(LIFO)
    for policy in (FIFO, STRICT, FIFO_STRICT):
        other = waits(policy)
        for k in range(1, len(model.classes) + 1):
            diffs = [b[k].w - a[k].w for a, b in zip(lifo, other)]
            half_width = t975 * statistics.stdev(diffs) / math.sqrt(len(diffs))
            # differences all exactly 0 pass
            assert abs(statistics.fmean(diffs)) <= 4 * half_width, (policy, k, diffs)


PAPER_S4_DET = SystemModel(3, [ClassSpec(1.0, Deterministic(mean)) for mean in (0.2, 0.4, 0.6, 0.8)])
PREFIX_MODELS = {"s4": PAPER_S4, "s4-det": PAPER_S4_DET, "h2-erlang-det": H2_ERLANG_DET, "m32": M32,
                 "m16-overloaded": M16_OVERLOADED}


@functools.cache
def _capped_raw(model, policy, seed):
    """``per_class_raw`` of one rowless run up to the time cap, which it must reach, and no target."""
    result = run(model, policy, RunConfig(seed=seed, target_completions=10**9, warmup_time=5.0,
                                          max_simulated_time=500.0, keep_records=False))
    assert result.truncated
    return per_class_raw(result.records, model)


@ALL_POLICIES
@pytest.mark.parametrize("seed", [1, 7919])
@pytest.mark.parametrize("name, k", [(name, k) for name, model in PREFIX_MODELS.items()
                                     for k in range(1, len(model.classes))])
def test_a_priority_prefix_runs_as_in_the_full_model(name, k, seed, policy):
    # classes 1..k draw from the same substreams whatever follows them, tied arrivals go in class
    # order, and a lower class never holds a server a higher one needs; so the model cut to them
    # gives each the same sums, bit for bit, when both runs stop at one time cap
    model = PREFIX_MODELS[name]
    full = _capped_raw(model, policy, seed)
    cut = _capped_raw(SystemModel(model.servers, model.classes[:k]), policy, seed)
    # repr tells every bit of a float apart
    assert [repr(cut[c]) for c in range(1, k + 1)] == [repr(full[c]) for c in range(1, k + 1)]


def test_subnormal_arrival_rate_runs_without_warnings():
    # every gap of class 2 overflows to inf, so it never arrives
    model = SystemModel(1, [ClassSpec(1.0, Exponential(2.0)), ClassSpec(5e-324, Exponential(1.0))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run(model, LIFO, RunConfig(seed=3, target_completions=200, warmup_time=1.0))
    assert {r.class_index for r in result.records} == {1}


def test_warmup_excludes_early_arrivals():
    cfg = RunConfig(seed=9, target_completions=500, warmup_time=100.0)
    result = run(SystemModel(1, [ClassSpec(0.5, Exponential(1.0))]), LIFO, cfg)
    assert all(r.arrival_time > 100.0 for r in result.records)


def test_horizon_truncation_reported():
    cfg = RunConfig(seed=9, target_completions=10**6, warmup_time=0.0, max_simulated_time=50.0)
    result = run(SystemModel(1, [ClassSpec(0.5, Exponential(1.0))]), LIFO, cfg)
    assert result.truncated
    assert result.counted_completions < 10**6
    # the run ends at its last event up to the cap
    assert result.records[-1].completion_time <= result.end_time <= 50.0
    assert all(r.completion_time <= 50.0 for r in result.records)


@pytest.mark.parametrize("policy", [LIFO, FIFO_STRICT], ids=["lifo", "fifo-strict"])
@pytest.mark.parametrize("seed", [1, 7919])
def test_time_cap_cuts_the_uncapped_run(seed, policy):
    # with no warm-up, every job arriving by a cap is counted, and the uncapped run outlasts them all
    uncapped = run(PAPER_S4, policy, RunConfig(seed=seed, target_completions=3000, warmup_time=0.0))
    assert not uncapped.truncated
    for cap in [2.5 * k for k in range(1, 41)]:
        capped = run(PAPER_S4, policy, RunConfig(seed=seed, target_completions=3000, warmup_time=0.0,
                                                 max_simulated_time=cap))
        assert list(capped.records) == [r for r in uncapped.records if r.completion_time <= cap]
        assert capped.truncated
        # the stream yields every arrival up to the cap, then one of class 0 at the cap
        stream = list(chain.from_iterable(mgmprio.simulation._arrival_windows(PAPER_S4, seed, cap)))
        assert stream[-1] == (cap, 0, 0.0)
        arrivals = [t for t, _, _ in stream[:-1]]
        assert arrivals == sorted(r.arrival_time for r in uncapped.records if r.arrival_time <= cap)
        # the run's events are those arrivals and its logged completions, and it ends at the last;
        # a displaced job's stale completion event is not one
        assert capped.end_time == max(arrivals + [r.completion_time for r in capped.records]) <= cap


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
    assert len(result.records) == result.counted_completions == 2
    assert result.records[-1] == result.records[1] and result.records[-2] == result.records[0]
    assert result.records[:1] == (result.records[0],) and result.records[5:] == ()
    assert [r.completion_time for r in result.records] == [2.0, 4.0]
    # a trace ends at its last completion
    assert result.end_time == 4.0


def test_integer_trace_gives_float_records():
    trace = TraceInput([(0, 1, 3), (1, 1, 1)])
    assert [tuple(map(type, a)) for a in trace.arrivals] == [(float, int, float)] * 2
    result = run(M1, LIFO, trace)
    # a record holds its row and its intervals, from which its count and total derive
    assert [f.name for f in fields(result.records[0])] == [
        "class_index", "arrival_time", "service_requirement", "first_start_time", "completion_time",
        "interruption_intervals"]
    for r in result.records:
        times = (r.arrival_time, r.service_requirement, r.first_start_time, r.completion_time,
                 r.total_interruption_time, *r.interruption_intervals)
        assert all(type(x) is float for x in times)
        assert type(r.class_index) is int and type(r.preemption_count) is int
    buf = io.StringIO()
    write_job_records(result.records, buf)
    assert buf.getvalue() == (
        "class,arrival,service,first_start,completion,preemptions,interruption_total\n"
        "1,1.0,1.0,1.0,2.0,0,0.0\n"
        "1,0.0,3.0,0.0,4.0,1,1.0\n"
    )


def held_by_run(cfg):
    """The result of ``run(PAPER_S4, LIFO, cfg)`` and the bytes it holds by tracemalloc."""
    # a first run imports numpy.random, which would count as held
    run(PAPER_S4, LIFO, RunConfig(seed=2, target_completions=100, warmup_time=20.0))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run(PAPER_S4, LIFO, cfg)
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_run_result_holds_at_most_100_bytes_per_counted_job():
    result, held = held_by_run(RunConfig(seed=1, target_completions=10_000, warmup_time=20.0))
    assert result.counted_completions == 10_000
    assert held / result.counted_completions <= 100


@pytest.mark.parametrize("jobs", [20_000, 80_000])
def test_rowless_run_result_holds_bounded_memory(jobs):
    result, held = held_by_run(RunConfig(seed=1, target_completions=jobs, warmup_time=20.0, keep_records=False))
    assert result.counted_completions == jobs
    # run folds every window's values into the log, so what the log holds does not grow with the jobs
    assert held <= 500_000
