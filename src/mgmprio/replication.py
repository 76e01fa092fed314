"""Independent replications, confidence intervals, and formula-vs-simulation tables.

Replication seeds are derived from the base seed through numpy's
SeedSequence, so rep k of a given base seed is always the same workload;
the first n of a larger replication set coincide with a smaller one.
Interval estimates use Student-t quantiles at 95 percent on the
replication means, which is the standard small-sample treatment for
independent replications.  Each replication runs with
``RunConfig.keep_records`` off, as only the per-class sums of
:func:`per_class_raw` are read: ``run`` writes no per-job rows, and those
sums keep every bit that the rows would give.

Replications run in lanes, one per CPU in the process's affinity mask
(``os.sched_getaffinity``, so ``taskset`` limits them) and never more
than there are replications.  Lane 0 runs in the calling process, and
where the replications do not split evenly it is among the lanes given
one more, as a forked lane starts later and runs slower.  On Linux each
other lane is an ``os.fork`` child that pipes back, per replication,
only its truncation flag, counted completions and per-class raw
estimators.  The results are put back in seed order before they are
aggregated, so every estimate, half-width and count is bit-identical for
any lane count.  Where the platform lacks ``os.fork`` or
``os.sched_getaffinity`` there is one lane and no child.  Untested limit:
numpy's OpenBLAS starts a thread at import, and Python 3.12 and later
warn when a multi-threaded process forks.
"""

import math
import os
import pickle
import time
from dataclasses import dataclass, replace

import numpy as np

from .analytic import METRIC_NAMES, ClassMetrics
from .distributions import require_count
from .model import SystemModel
from .simulation import PolicyConfig, RunConfig, per_class_raw, run

__all__ = [
    "ClassEstimate",
    "ReplicationMetadata",
    "SimulationReport",
    "ComparisonRow",
    "replicate",
    "compare",
]


@dataclass(frozen=True)
class ClassEstimate:
    """Point estimate and 95 percent half-width of one class's metric.

    ``replications`` counts the replications in which the metric was
    observable.  The half-width is None exactly when the estimate is None,
    which is when no replication observed the metric, and 0.0 when only one
    did.
    """

    estimate: float | None
    ci_half_width: float | None
    replications: int


@dataclass(frozen=True)
class ReplicationMetadata:
    """How a :func:`replicate` call ran: its seed, counted jobs per replication, time and truncation."""

    base_seed: int
    completions_per_rep: tuple[int, ...]
    wall_clock_seconds: float
    truncated: bool


@dataclass(frozen=True)
class SimulationReport:
    """Per-class, per-metric estimates plus run metadata."""

    classes: dict[int, dict[str, ClassEstimate]]
    metadata: ReplicationMetadata


def _t975(df: int) -> float:
    """The 0.975 quantile of Student's t with ``df`` >= 1 degrees of freedom.

    Newton's method on the two-sided mass A(t) = P(|T| <= t) = 0.95, with A
    in closed form for integer ``df`` (Abramowitz & Stegun 26.7.3-26.7.4).
    A is concave for t > 0 and the start, the normal 0.975 quantile, lies
    below every t quantile, so the iterates rise monotonically; the loop
    ends when they stop rising.
    """
    nu = float(df)
    log_density_scale = math.lgamma((nu + 1) / 2) - math.lgamma(nu / 2) - 0.5 * math.log(nu * math.pi)
    t = 1.9599639845400536
    while True:
        c2 = nu / (nu + t * t)  # cos^2 of atan(t / sqrt(df))
        series, term = 0.0, 1.0
        for j in range(1 + df % 2, df, 2):
            series += term
            term *= c2 * j / (j + 1)
        if df % 2:
            mass = 2 / math.pi * (math.atan(t / math.sqrt(nu)) + t * math.sqrt(nu) / (nu + t * t) * series)
        else:
            mass = t / math.sqrt(nu + t * t) * series
        density = math.exp(log_density_scale - (nu + 1) / 2 * math.log1p(t * t / nu))
        step = (0.95 - mass) / (2 * density)
        if t + step <= t:
            return t
        t += step


def _estimate(values: list[float]) -> ClassEstimate:
    """The :class:`ClassEstimate` of the values that the replications observed."""
    n = len(values)
    if not n:
        return ClassEstimate(None, None, 0)
    half_width = _t975(n - 1) * float(np.std(values, ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    return ClassEstimate(math.fsum(values) / n, half_width, n)


def rep_seeds(base_seed: int, n_reps: int) -> tuple[int, ...]:
    """The deterministic per-replication seeds used by :func:`replicate`."""
    state = np.random.SeedSequence(base_seed).generate_state(n_reps, dtype=np.uint64)
    return tuple(int(s) for s in state)


def _run_reps(model: SystemModel, policy: PolicyConfig, base_cfg: RunConfig, seeds: tuple[int, ...]) -> list[tuple]:
    """Each seed's ``(truncated, counted completions, per_class_raw)``, in seed order, from runs without rows."""
    reps = []
    for seed in seeds:
        result = run(model, policy, replace(base_cfg, seed=seed, keep_records=False))
        reps.append((result.truncated, result.counted_completions, per_class_raw(result.records, model)))
        del result  # free this rep's job log before the next rep builds its own
    return reps


def _fork_lane(model: SystemModel, policy: PolicyConfig, base_cfg: RunConfig, seeds: tuple[int, ...]):
    """Fork a child that runs ``seeds`` with :func:`_run_reps`; returns its pid and the pipe it writes.

    The child pickles ``(True, reps)`` or ``(False, exception)`` into the
    pipe and leaves by ``os._exit``, so it runs no exit handlers and
    flushes none of the stdio buffers it inherited.  Its exit status is 0
    only when the whole message was written.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                message = (True, _run_reps(model, policy, base_cfg, seeds))
            except BaseException as exc:  # the caller re-raises it
                message = (False, exc)
            with open(write_fd, "wb") as pipe:
                pickle.dump(message, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _run_lanes(model: SystemModel, policy: PolicyConfig, base_cfg: RunConfig, seeds: tuple[int, ...]) -> list[tuple]:
    """:func:`_run_reps` over ``seeds``, split into contiguous lanes, one per usable CPU.

    Lane 0 runs here, each other lane in a forked child; where the seeds
    do not split evenly, the lanes first in order take one more.  A child's
    exception is re-raised here; a child that sends no result raises
    RuntimeError.  Every child is reaped before this returns or raises,
    and on an error the ones still running are killed first.
    """
    lanes = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        lanes = min(len(seeds), len(os.sched_getaffinity(0)))
    # cut points rounded up: a forked lane starts late and pays copy-on-write faults, so lane 0,
    # run here, takes the larger share
    cuts = [-(-len(seeds) * k // lanes) for k in range(lanes + 1)]
    chunks = [seeds[a:b] for a, b in zip(cuts, cuts[1:])]
    children = []  # (pid, pipe, seeds) of the children not yet reaped, in lane order
    try:
        for chunk in chunks[1:]:
            children.append((*_fork_lane(model, policy, base_cfg, chunk), chunk))
        reps = _run_reps(model, policy, base_cfg, chunks[0])
        while children:
            pid, pipe, chunk = children[0]
            data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            pipe.close()
            code = os.waitstatus_to_exitcode(status)
            if code != 0 or not data:
                raise RuntimeError(f"the replication lane of seeds {list(chunk)} ended "
                                   f"with exit code {code} and sent no result")
            ok, payload = pickle.loads(data)
            if not ok:
                raise payload
            reps.extend(payload)
        return reps
    finally:
        for pid, _, _ in children:
            os.kill(pid, 9)  # SIGKILL is 9 on every POSIX system; this spares loading the signal module
        for pid, pipe, _ in children:
            os.waitpid(pid, 0)
            pipe.close()


def replicate(model: SystemModel, policy: PolicyConfig, base_cfg, n_reps: int) -> SimulationReport:
    """Run ``n_reps`` independent replications and aggregate the estimates.

    ``base_cfg`` is a RunConfig whose seed anchors the per-rep seeds
    (:func:`rep_seeds`) and whose ``keep_records`` is not read, as every
    rep runs without rows; any other type raises TypeError.
    """
    if not isinstance(base_cfg, RunConfig):
        raise TypeError(f"base_cfg must be a RunConfig, got {type(base_cfg).__name__}")
    require_count("n_reps", n_reps, 1)
    started = time.perf_counter()
    truncated, completions, raws = zip(*_run_lanes(model, policy, base_cfg, rep_seeds(base_cfg.seed, n_reps)))
    # per_class_raw gives every class of the model an entry in every rep
    classes = {
        cls: {name: _estimate([v for raw in raws if (v := getattr(raw[cls], name)) is not None])
              for name in METRIC_NAMES}
        for cls in raws[0]
    }
    metadata = ReplicationMetadata(
        base_seed=base_cfg.seed,
        completions_per_rep=completions,
        wall_clock_seconds=time.perf_counter() - started,
        truncated=any(truncated),
    )
    return SimulationReport(classes=classes, metadata=metadata)


@dataclass(frozen=True)
class ComparisonRow:
    """One class-and-metric line of the formula-vs-simulation table.

    ``sim_mean`` and ``sim_ci_half_width`` are the report's
    :class:`ClassEstimate`, so the half-width is None exactly when the mean
    is.  ``covered`` says whether the analytic value lies inside the
    simulated 95 percent interval; it is None when either side is
    unavailable, and when fewer than two replications observed the metric,
    since then no interval exists (``sim_ci_half_width`` is then 0.0).
    ``rel_error`` is None when the analytic value is zero (or missing).
    """

    class_index: int
    metric: str
    analytic: float | None
    sim_mean: float | None
    sim_ci_half_width: float | None
    abs_error: float | None
    rel_error: float | None
    covered: bool | None


def compare(report: SimulationReport, analytic: list[ClassMetrics]) -> list[ComparisonRow]:
    """Join a simulation report against analytic metrics, class by class."""
    rows = []
    absent = _estimate([])
    for cls, metrics in enumerate(analytic, start=1):
        estimates = report.classes.get(cls, {})
        for name in METRIC_NAMES:
            a = getattr(metrics, name) if metrics.stable else None
            est = estimates.get(name, absent)
            if a is None or est.estimate is None:
                abs_err = rel_err = covered = None
            else:
                abs_err = abs(a - est.estimate)
                rel_err = abs_err / abs(a) if a != 0 else None
                # one replication gives no interval, only a zero half-width
                covered = abs_err <= est.ci_half_width if est.replications >= 2 else None
            rows.append(ComparisonRow(cls, name, a, est.estimate, est.ci_half_width, abs_err, rel_err, covered))
    return rows
