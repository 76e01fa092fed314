"""Replication seeding, interval estimates, and comparison-table behavior."""

import errno
import math
import os
from dataclasses import fields, replace
from fractions import Fraction as F
from pathlib import Path

import pytest
import scipy.stats as sps

from mgmprio import (
    ClassEstimate,
    ClassSpec,
    Erlang,
    Exponential,
    HyperExponential,
    PolicyConfig,
    RawClassStats,
    ReplicationMetadata,
    RunConfig,
    ServiceDistribution,
    SimulationReport,
    SystemModel,
    TraceInput,
    approx_metrics,
    compare,
    exact_mmm_identical,
    parse_distribution,
    per_class_raw,
    replicate,
    run,
)
from mgmprio import replication
from mgmprio.cli import main
from mgmprio.replication import METRIC_NAMES, rep_seeds
from oracles import kleinrock_preemptive_sojourns, mphc_fcfs_wait

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
FIFO_STRICT = PolicyConfig(within_class_order="fifo", equal_class_preemption=False)
MM3_CFG = str(Path(__file__).resolve().parent.parent / "scenarios" / "mm3_identical.cfg")
# mean 0.2 and squared coefficient of variation 4, with balanced means: p_i / r_i = 0.1
_P1 = (1 + math.sqrt(0.6)) / 2
H2_SCV4 = HyperExponential(((_P1, 10 * _P1), (1 - _P1, 10 * (1 - _P1))))


def test_rep_seeds_are_prefix_stable_and_distinct():
    four = rep_seeds(5, 4)
    sixteen = rep_seeds(5, 16)
    assert sixteen[:4] == four
    assert len(set(sixteen)) == 16


def test_equal_values_give_zero_half_width():
    for value in (2.5, 0.5, 0.0):
        for n in (1, 2, 3):
            assert replication._estimate([value] * n).ci_half_width == 0.0


def test_estimate_of_none_or_one_value():
    # compare relies on this: the half-width is None exactly when the estimate is
    assert replication._estimate([]) == ClassEstimate(None, None, 0)
    for x in (2.5, 0.0):
        assert replication._estimate([x]) == ClassEstimate(x, 0.0, 1)


def test_raw_stats_carry_every_metric_name():
    # replicate reads each metric from per_class_raw's result by its name
    assert set(METRIC_NAMES) <= {f.name for f in fields(RawClassStats)}


def test_replicate_validates_inputs():
    for n_reps in (0, 2.5, True):
        with pytest.raises(ValueError):
            replicate(MM3, LIFO, RunConfig(seed=1, target_completions=10), n_reps)
    for cfg in (object(), TraceInput([(0.0, 1, 1.0)])):
        with pytest.raises(TypeError):
            replicate(MM3, LIFO, cfg, 2)


def test_estimate_structure_and_metadata():
    cfg = RunConfig(seed=6, target_completions=5000, warmup_time=20.0)
    report = replicate(MM3, LIFO, cfg, 4)
    meta = report.metadata
    assert meta.base_seed == 6
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
    # w-bar is the delay sum plus the interruption sum over the same jobs,
    # so the measured waiting identity holds exactly and v - w is the mean
    # service up to the rounding of each job's completion - arrival
    for seed in rep_seeds(77, 3):
        result = run(FOUR_CLASS, LIFO, RunConfig(seed=seed, target_completions=20_000, warmup_time=50.0))
        for cls, stats in per_class_raw(result.records, FOUR_CLASS).items():
            jobs = [r for r in result.records if r.class_index == cls]
            delay_sum = math.fsum(r.first_start_time - r.arrival_time for r in jobs)
            interruption_sum = math.fsum(r.total_interruption_time for r in jobs)
            assert stats.w == (delay_sum + interruption_sum) / stats.count
            delay_part = stats.p * (stats.u or 0.0)
            interruption_part = stats.h * (stats.g or 0.0)
            assert abs(stats.w - (delay_part + interruption_part)) <= 1e-12
            mean_service = math.fsum(r.service_requirement for r in jobs) / stats.count
            assert abs((stats.v - stats.w) - mean_service) <= 1e-12 * mean_service


def test_unimpeded_job_waits_exactly_zero():
    # completion - arrival rounds to 0.7 + 0.1 - 0.7 != 0.1, so sojourn minus
    # service would leave a negative wait of about -2.8e-17
    model = SystemModel(1, [ClassSpec(1.0, Exponential(1.0))])
    result = run(model, LIFO, TraceInput([(0.7, 1, 0.1)]))
    stats = per_class_raw(result.records, model)[1]
    assert stats.count == 1 and stats.p == 0.0
    assert stats.w == 0.0


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


def test_exact_oracle_covered_on_identical_exponential_model():
    cfg = RunConfig(seed=8, target_completions=50_000, warmup_time=100.0)
    report = replicate(MM3, LIFO, cfg, 8)
    rows = compare(report, exact_mmm_identical(MM3))
    assert all(row.covered is not False for row in rows)
    observed = [row for row in rows if row.covered is True]
    assert len(observed) == 17  # all class-metric pairs except the absent u of class 1


def test_kleinrock_sojourn_reduces_to_pollaczek_khinchine():
    rate, mean, second = F(3, 10), F(3, 2), F(7, 2)
    load = rate * mean
    assert kleinrock_preemptive_sojourns([(rate, mean, second)]) == [mean + rate * second / (2 * (1 - load))]


@pytest.mark.parametrize("spec", ["det(1)", "erlang(2,2)", "hyperexp(0.887:1.774,0.113:0.226)"])
def test_strict_fifo_preemption_covers_kleinrock_sojourn(spec):
    law = parse_distribution(spec)
    model = SystemModel(1, [ClassSpec(0.3, law), ClassSpec(0.3, law)])
    policy = PolicyConfig(within_class_order="fifo", equal_class_preemption=False)
    report = replicate(model, policy, RunConfig(seed=1, target_completions=20_000, warmup_time=100.0), 8)
    exact = kleinrock_preemptive_sojourns([(F(0.3), F(law.mean()), F(law.second_moment()))] * 2)
    for cls, truth in enumerate(exact, start=1):
        v = report.classes[cls]["v"]
        assert abs(v.estimate - truth) <= 4 * v.ci_half_width, (cls, v, float(truth))


def phase_type(law) -> tuple[list[float], list[list[float]]]:
    """A package law as its phase-type ``(alpha, T)``: initial phase probabilities and sub-generator."""
    if isinstance(law, Exponential):
        return [1.0], [[-law.rate]]
    if isinstance(law, Erlang):
        k, r = law.shape, law.rate
        return [1.0] + [0.0] * (k - 1), [[-r if j == i else r if j == i + 1 else 0.0 for j in range(k)]
                                         for i in range(k)]
    k = len(law.branches)
    return [p for p, _ in law.branches], [[-r if j == i else 0.0 for j in range(k)]
                                          for i, (_, r) in enumerate(law.branches)]


@pytest.mark.parametrize("law, truth", [(Exponential(5.0), 0.3), (Erlang(2, 10.0), 0.225), (H2_SCV4, 0.75)],
                         ids=["exp", "erlang2", "h2_scv4"])
def test_mphc_chain_on_one_server_is_pollaczek_khinchine(law, truth):
    w, at_cap = mphc_fcfs_wait(3.0, 1, *phase_type(law), 400)
    mean = F(law.mean())
    pk = float(kleinrock_preemptive_sojourns([(F(3), mean, F(law.second_moment()))])[0] - mean)
    assert w == pytest.approx(truth, abs=1e-10) and pk == pytest.approx(truth, abs=1e-10)
    assert 0 <= at_cap < 1e-30


@pytest.mark.parametrize("law, truth, cap_mass", [
    (Exponential(5.0), 4 / 45, 1e-70),  # Erlang C
    (Erlang(2, 10.0), 0.068109, 1e-90),
    (H2_SCV4, 0.197876, 1e-16),
], ids=["exp", "erlang2", "h2_scv4"])
def test_mphc_chain_on_three_servers(law, truth, cap_mass):
    w, at_cap = mphc_fcfs_wait(10.0, 3, *phase_type(law), 400)
    assert w == pytest.approx(truth, abs=5e-7) and 0 <= at_cap < cap_mass


@pytest.mark.parametrize("law, approx_error", [(Erlang(2, 10.0), 0.305), (H2_SCV4, -0.551)],
                         ids=["erlang2", "h2_scv4"])
def test_fifo_strict_class_one_covers_the_mphc_chain(law, approx_error):
    # under FIFO with strict preemption class 1 is never displaced, so it is an M/PH/3 first-come queue
    truth = mphc_fcfs_wait(10.0, 3, *phase_type(law), 400)[0]
    model = SystemModel(3, [ClassSpec(10.0, law), ClassSpec(2.0, Exponential(10.0))])
    report = replicate(model, FIFO_STRICT, RunConfig(seed=13, target_completions=40_000, warmup_time=20.0), 8)
    w = report.classes[1]["w"]
    assert abs(w.estimate - truth) <= 4 * w.ci_half_width, (w, truth)
    # approx_metrics gives class 1 the M/M/3 wait whatever its law
    assert round(approx_metrics(model)[0].w / truth - 1, 3) == approx_error


def test_compare_zero_deviation_when_report_echoes_analytic():
    analytic = exact_mmm_identical(MM3)
    classes = {}
    for cls, metrics in enumerate(analytic, start=1):
        classes[cls] = {
            name: ClassEstimate(
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


def test_compare_leaves_coverage_blank_for_a_single_replication():
    # one replication's half-width is 0.0, which is no interval, so an
    # estimate off the analytic value must not read as a coverage failure
    analytic = exact_mmm_identical(MM3)
    metadata = ReplicationMetadata(base_seed=0, completions_per_rep=(1, 1), wall_clock_seconds=0.0,
                                   truncated=False)
    for replications, covered in ((1, None), (2, False)):
        classes = {
            cls: {name: ClassEstimate(estimate=getattr(metrics, name) + 1.0, ci_half_width=0.0,
                                      replications=replications) for name in METRIC_NAMES}
            for cls, metrics in enumerate(analytic, start=1)
        }
        rows = compare(SimulationReport(classes=classes, metadata=metadata), analytic)
        assert all(row.abs_error == pytest.approx(1.0) and row.sim_ci_half_width == 0.0 for row in rows)
        assert all(row.covered is covered for row in rows)


def test_compare_flags_unstable_and_unobserved():
    model = SystemModel(1, [ClassSpec(0.5, Exponential(1.0)), ClassSpec(0.7, Exponential(1.0))])
    report = replicate(model, LIFO, RunConfig(seed=4, target_completions=2000, warmup_time=10.0), 2)
    rows = compare(report, approx_metrics(model))
    unstable = [r for r in rows if r.class_index == 2]
    assert all(r.analytic is None and r.covered is None for r in unstable)
    top_u = next(r for r in rows if r.class_index == 1 and r.metric == "u")
    assert top_u.sim_mean is None and top_u.covered is None


@pytest.mark.parametrize("entries", [2, 5])
def test_compare_refuses_analytic_metrics_for_another_class_count(entries):
    report = replicate(FOUR_CLASS, LIFO, RunConfig(seed=4, target_completions=200), 1)
    analytic = (approx_metrics(FOUR_CLASS) * 2)[:entries]
    with pytest.raises(ValueError, match=f"^analytic metrics for {entries} classes against a report of 4 classes$"):
        compare(report, analytic)


def force_cpus(monkeypatch, cpus: int) -> list[int]:
    """Make ``replicate`` see ``cpus`` usable CPUs; returns the pids of the children it forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forked = []
    fork = os.fork

    def recorded_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded_fork)
    return forked


def test_truncation_propagates_to_metadata():
    cfg = RunConfig(seed=4, target_completions=10**7, warmup_time=0.0, max_simulated_time=30.0)
    report = replicate(MM3, LIFO, cfg, 2)
    assert report.metadata.truncated
    assert all(c < 10**7 for c in report.metadata.completions_per_rep)


def test_truncation_propagates_from_a_child_lane(monkeypatch):
    forked = force_cpus(monkeypatch, 2)
    test_truncation_propagates_to_metadata()
    # a truncation that only the child's rep reports
    child_seed = rep_seeds(4, 2)[1]
    inner = replication.run

    def truncated_on_child_seed(model, policy, cfg):
        return replace(inner(model, policy, cfg), truncated=cfg.seed == child_seed)

    monkeypatch.setattr(replication, "run", truncated_on_child_seed)
    report = replicate(MM3, LIFO, RunConfig(seed=4, target_completions=500), 2)
    assert report.metadata.truncated
    assert len(forked) == 2


@pytest.mark.parametrize("n_reps", [1, 2, 5])
@pytest.mark.parametrize("model", [FOUR_CLASS, MM3], ids=["four_class", "mm3"])
def test_estimates_are_bit_identical_for_any_lane_count(monkeypatch, model, n_reps):
    cfg = RunConfig(seed=23, target_completions=1500, warmup_time=10.0)
    reports = []
    for cpus in (1, 2, 3, 8):
        forked = force_cpus(monkeypatch, cpus)
        reports.append(replicate(model, LIFO, cfg, n_reps))
        assert len(forked) == min(n_reps, cpus) - 1
    for report in reports[1:]:
        assert report.classes == reports[0].classes
        assert report.metadata.completions_per_rep == reports[0].metadata.completions_per_rep
        assert report.metadata.truncated == reports[0].metadata.truncated


@pytest.mark.parametrize("refused", [1, 2], ids=["first-fork", "second-fork"])
def test_a_lane_the_system_will_not_fork_runs_in_the_caller(monkeypatch, capsys, refused):
    cfg = RunConfig(seed=23, target_completions=1500, warmup_time=10.0)
    argv = ["simulate", "--config", MM3_CFG, "--format", "csv", "--jobs", "2000", "--warmup", "10", "--reps", "3"]
    force_cpus(monkeypatch, 1)
    one_lane = replicate(FOUR_CLASS, LIFO, cfg, 5)
    assert main(argv) == 0
    one_lane_out = capsys.readouterr().out
    forked = force_cpus(monkeypatch, 3)
    fork, calls = os.fork, []

    def refusing_fork():
        calls.append(None)
        if len(calls) == refused:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", refusing_fork)
    report = replicate(FOUR_CLASS, LIFO, cfg, 5)
    assert len(calls) == 2 and len(forked) == 1
    assert repr(report.classes) == repr(one_lane.classes)
    assert report.metadata.completions_per_rep == one_lane.metadata.completions_per_rep
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    calls.clear()
    assert main(argv) == 0
    assert capsys.readouterr().out == one_lane_out
    assert len(calls) == 2 and len(forked) == 2


class FailingService(ServiceDistribution):
    """Exponential service whose sampling calls ``fail`` in forked children only, or in its creator only."""

    def __init__(self, fail, in_child: bool):
        self.pid, self.fail, self.in_child = os.getpid(), fail, in_child
        self.law = Exponential(2.0)

    def mean(self) -> float:
        return self.law.mean()

    def second_moment(self) -> float:
        return self.law.second_moment()

    def sample_block(self, stream, n: int):
        if (os.getpid() != self.pid) == self.in_child:
            self.fail()
        return self.law.sample_block(stream, n)

    def spec(self) -> str:
        return self.law.spec()


def boom():
    raise ValueError("boom")


def die():
    os._exit(9)


@pytest.mark.parametrize(
    "fail, in_child, raised, match",
    [
        (boom, True, ValueError, "^boom$"),
        (die, True, RuntimeError, "exit code 9"),
        (boom, False, ValueError, "^boom$"),
    ],
    ids=["child-raises", "child-dies", "caller-raises"],
)
def test_lane_failures_reach_the_caller_and_leave_no_child(monkeypatch, fail, in_child, raised, match):
    # caller-raises: lane 0 fails while the child still runs, so the child is killed, then reaped
    forked = force_cpus(monkeypatch, 2)
    model = SystemModel(1, [ClassSpec(0.5, FailingService(fail, in_child))])
    with pytest.raises(raised, match=match) as info:
        replicate(model, LIFO, RunConfig(seed=3, target_completions=200), 3)
    assert len(forked) == 1
    if raised is RuntimeError:
        # lane 0 runs the first two of three seeds, the child the last
        assert f"[{rep_seeds(3, 3)[2]}]" in str(info.value)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
