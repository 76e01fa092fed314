"""Replication seeding, interval estimates, and comparison-table behavior."""

import pytest
import scipy.stats as sps

from mgmprio import (
    ClassEstimate,
    ClassSpec,
    Exponential,
    PolicyConfig,
    ReplicationMetadata,
    RunConfig,
    SimulationReport,
    SystemModel,
    TraceInput,
    approx_metrics,
    compare,
    exact_mmm_identical,
    per_class_raw,
    replicate,
    run,
)
from mgmprio import replication
from mgmprio.replication import METRIC_NAMES, rep_seeds

MM3 = SystemModel(3, [ClassSpec(1.0, Exponential(2.0)) for _ in range(3)])
FOUR_CLASS = SystemModel(
    3,
    [
        ClassSpec(1.0, Exponential(5.0)),
        ClassSpec(1.0, Exponential(2.5)),
        ClassSpec(1.0, Exponential(5.0 / 3.0)),
        ClassSpec(1.0, Exponential(1.25)),
    ],
)
LIFO = PolicyConfig()


def test_rep_seeds_are_prefix_stable_and_distinct():
    four = rep_seeds(5, 4)
    sixteen = rep_seeds(5, 16)
    assert sixteen[:4] == four
    assert len(set(sixteen)) == 16


def test_identical_traces_give_zero_half_width():
    trace = TraceInput([(0.0, 1, 3.0), (1.0, 1, 1.0), (2.5, 2, 0.5)])
    model = SystemModel(1, [ClassSpec(1.0, Exponential(1.0)), ClassSpec(1.0, Exponential(1.0))])
    report = replicate(model, LIFO, trace, 3)
    assert report.metadata.base_seed is None
    for estimates in report.classes.values():
        for est in estimates.values():
            if est.estimate is not None:
                assert est.ci_half_width == 0.0
                assert est.replications == 3
    assert report.classes[1]["v"].estimate == 2.5
    assert report.classes[1]["w"].estimate == 0.5


def test_replicate_validates_inputs():
    with pytest.raises(ValueError):
        replicate(MM3, LIFO, RunConfig(seed=1, target_completions=10), 0)
    with pytest.raises(TypeError):
        replicate(MM3, LIFO, object(), 2)


def test_estimate_structure_and_metadata():
    cfg = RunConfig(seed=6, target_completions=5000, warmup_time=20.0)
    report = replicate(MM3, LIFO, cfg, 4)
    meta = report.metadata
    assert meta.base_seed == 6
    assert meta.rep_seeds == rep_seeds(6, 4)
    assert meta.warmup_time == 20.0
    assert meta.target_completions == 5000
    assert meta.completions_per_rep == (5000,) * 4
    assert meta.wall_clock_seconds > 0
    assert not meta.truncated
    assert sorted(report.classes) == [1, 2, 3]
    for estimates in report.classes.values():
        assert sorted(estimates) == sorted(METRIC_NAMES)
        for est in estimates.values():
            if est.ci_half_width is not None:
                assert est.ci_half_width >= 0.0
                if est.ci_half_width > 0.0:
                    assert est.replications >= 2
            assert est.replications <= 4


def test_top_class_initial_delay_is_unobserved():
    # equal-class preemption means a top-class arrival always starts at once
    cfg = RunConfig(seed=6, target_completions=5000, warmup_time=20.0)
    report = replicate(MM3, LIFO, cfg, 4)
    top_u = report.classes[1]["u"]
    assert top_u.estimate is None
    assert top_u.replications == 0


def test_measured_waiting_identity_is_mechanical():
    # w-bar equals the delay sum plus interruption sum over the same jobs,
    # so the measured form of the waiting identity holds to rounding only
    for seed in rep_seeds(77, 3):
        result = run(FOUR_CLASS, LIFO, RunConfig(seed=seed, target_completions=20_000, warmup_time=50.0))
        for stats in per_class_raw(result.records, FOUR_CLASS).values():
            delay_part = stats.delayed_fraction * (stats.initial_delay_mean or 0.0)
            interruption_part = stats.preemption_mean * (stats.interruption_mean or 0.0)
            assert abs(stats.wait_mean - (delay_part + interruption_part)) <= 1e-12
            assert stats.sojourn_mean - stats.wait_mean - stats.service_mean == 0.0


def test_half_widths_shrink_like_root_n():
    # the half-width carries a t-quantile that changes with n as well; the
    # 1/sqrt(n) scaling applies to the standard-error factor, so divide the
    # quantile out before checking the 4-vs-16 ratio band
    cfg = RunConfig(seed=42, target_completions=20_000, warmup_time=100.0)
    small = replicate(MM3, LIFO, cfg, 4)
    large = replicate(MM3, LIFO, cfg, 16)
    t_small = sps.t.ppf(0.975, 3)
    t_large = sps.t.ppf(0.975, 15)
    for cls in (1, 2, 3):
        hw_small = small.classes[cls]["v"].ci_half_width
        hw_large = large.classes[cls]["v"].ci_half_width
        assert hw_large < hw_small
        ratio = (hw_small / t_small) / (hw_large / t_large)
        assert 1.6 <= ratio <= 2.5


def test_t975_matches_scipy_quantile():
    for df in [*range(1, 1001), 10_000]:
        expected = sps.t.ppf(0.975, df)
        assert abs(replication._t975(df) - expected) <= 1e-12 * expected, df


def test_quantile_evaluated_once_per_distinct_replication_count(monkeypatch):
    calls = []
    t975 = replication._t975

    def counting_t975(df):
        calls.append(df)
        return t975(df)

    monkeypatch.setattr(replication, "_t975", counting_t975)
    # 40 jobs per rep leave some class-metric pairs unobserved in some reps
    report = replicate(FOUR_CLASS, LIFO, RunConfig(seed=3, target_completions=40, warmup_time=0.0), 6)
    counts = [est.replications for row in report.classes.values() for est in row.values()]
    distinct = {n for n in counts if n > 1}
    assert sorted(calls) == sorted(n - 1 for n in distinct)
    assert len(distinct) > 1


def test_exact_oracle_covered_on_identical_exponential_model():
    cfg = RunConfig(seed=8, target_completions=50_000, warmup_time=100.0)
    report = replicate(MM3, LIFO, cfg, 8)
    rows = compare(report, exact_mmm_identical(MM3))
    assert all(row.covered is not False for row in rows)
    observed = [row for row in rows if row.covered is True]
    assert len(observed) == 17  # all class-metric pairs except the absent u of class 1


def test_compare_zero_deviation_when_report_echoes_analytic():
    analytic = exact_mmm_identical(MM3)
    classes = {}
    for cls, metrics in enumerate(analytic, start=1):
        classes[cls] = {
            name: ClassEstimate(
                metric=name,
                estimate=getattr(metrics, name),
                ci_half_width=0.0,
                replications=2,
            )
            for name in METRIC_NAMES
        }
    report = SimulationReport(
        classes=classes,
        metadata=ReplicationMetadata(
            base_seed=0,
            rep_seeds=rep_seeds(0, 2),
            warmup_time=0.0,
            target_completions=1,
            completions_per_rep=(1, 1),
            wall_clock_seconds=0.0,
            truncated=False,
        ),
    )
    for row in compare(report, analytic):
        assert row.abs_error == 0.0
        assert row.covered is True
        if row.analytic != 0.0:
            assert row.rel_error == 0.0
        else:
            assert row.rel_error is None


def test_compare_flags_unstable_and_unobserved():
    model = SystemModel(1, [ClassSpec(0.5, Exponential(1.0)), ClassSpec(0.7, Exponential(1.0))])
    report = replicate(model, LIFO, RunConfig(seed=4, target_completions=2000, warmup_time=10.0), 2)
    rows = compare(report, approx_metrics(model))
    unstable = [r for r in rows if r.class_index == 2]
    assert all(r.analytic is None and r.covered is None for r in unstable)
    top_u = next(r for r in rows if r.class_index == 1 and r.metric == "u")
    assert top_u.sim_mean is None and top_u.covered is None


def test_truncation_propagates_to_metadata():
    cfg = RunConfig(seed=4, target_completions=10**7, warmup_time=0.0, max_simulated_time=30.0)
    report = replicate(MM3, LIFO, cfg, 2)
    assert report.metadata.truncated
    assert all(c < 10**7 for c in report.metadata.completions_per_rep)


def test_common_random_numbers_across_policies():
    # the workload must be a function of the seed only, not of the policy
    cfg = RunConfig(seed=31, target_completions=3000, warmup_time=10.0)
    lifo = run(FOUR_CLASS, PolicyConfig("lifo"), cfg)
    fifo = run(FOUR_CLASS, PolicyConfig("fifo"), cfg)
    lifo_jobs = {(r.class_index, r.arrival_time): r.service_requirement for r in lifo.records}
    fifo_jobs = {(r.class_index, r.arrival_time): r.service_requirement for r in fifo.records}
    shared = set(lifo_jobs) & set(fifo_jobs)
    assert len(shared) > 0.9 * len(lifo_jobs)
    assert all(lifo_jobs[key] == fifo_jobs[key] for key in shared)
