"""Independent replications, confidence intervals, and formula-vs-simulation tables.

Replication seeds are derived from the base seed through numpy's
SeedSequence, so rep k of a given base seed is always the same workload;
the first n of a larger replication set coincide with a smaller one.
Interval estimates use Student-t quantiles at 95 percent on the
replication means, which is the standard small-sample treatment for
independent replications.
"""

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .analytic import METRIC_NAMES, ClassMetrics
from .model import SystemModel
from .simulation import PolicyConfig, RunConfig, per_class_raw, run

__all__ = [
    "METRIC_NAMES",
    "ClassEstimate",
    "ReplicationMetadata",
    "SimulationReport",
    "ComparisonRow",
    "replicate",
    "compare",
]

_RAW_ATTR = {
    "p": "delayed_fraction",
    "u": "initial_delay_mean",
    "h": "preemption_mean",
    "g": "interruption_mean",
    "w": "wait_mean",
    "v": "sojourn_mean",
}


@dataclass(frozen=True)
class ClassEstimate:
    """Point estimate and 95 percent half-width for one class and metric.

    ``replications`` counts the replications in which the metric was
    observable; the half-width is zero when only one contributed and None
    when, like the estimate, no replication observed the metric at all.
    """

    metric: str
    estimate: float | None
    ci_half_width: float | None
    replications: int


@dataclass(frozen=True)
class ReplicationMetadata:
    base_seed: int | None
    rep_seeds: tuple[int, ...]
    warmup_time: float | None
    target_completions: int | None
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


def _t_half_width(values: list[float], quantiles: dict[int, float]) -> float:
    """95 percent half-width of the mean of ``values``.

    ``quantiles`` caches the t quantile by replication count, so a
    ``replicate`` call evaluates it once for each distinct count.
    """
    n = len(values)
    if n < 2:
        return 0.0
    if n not in quantiles:
        quantiles[n] = _t975(n - 1)
    sd = float(np.std(values, ddof=1))
    return quantiles[n] * sd / math.sqrt(n)


def rep_seeds(base_seed: int, n_reps: int) -> tuple[int, ...]:
    """The deterministic per-replication seeds used by :func:`replicate`."""
    state = np.random.SeedSequence(base_seed).generate_state(n_reps, dtype=np.uint64)
    return tuple(int(s) for s in state)


def replicate(model: SystemModel, policy: PolicyConfig, base_cfg, n_reps: int) -> SimulationReport:
    """Run ``n_reps`` independent replications and aggregate the estimates.

    ``base_cfg`` is a RunConfig whose seed anchors the per-rep seeds, or a
    TraceInput, in which case every replication replays the same trace
    (useful for deterministic checks; the spread is then zero).
    """
    if n_reps < 1:
        raise ValueError("n_reps must be at least 1")
    started = time.perf_counter()
    if isinstance(base_cfg, RunConfig):
        seeds = rep_seeds(base_cfg.seed, n_reps)
        cfgs = [replace(base_cfg, seed=s) for s in seeds]
        base_seed = base_cfg.seed
        warmup = base_cfg.warmup_time
        target = base_cfg.target_completions
    else:  # a TraceInput; run rejects any other type
        seeds = ()
        cfgs = [base_cfg] * n_reps
        base_seed = None
        warmup = None
        target = None

    truncated = False
    completions = []
    samples: dict[int, dict[str, list[float]]] = {}
    for cfg in cfgs:
        result = run(model, policy, cfg)
        truncated = truncated or result.truncated
        completions.append(result.counted_completions)
        raw = per_class_raw(result.records, model)
        del result  # free this rep's job log before the next rep builds its own
        for cls, stats_ in raw.items():
            per_metric = samples.setdefault(cls, {name: [] for name in METRIC_NAMES})
            for name in METRIC_NAMES:
                value = getattr(stats_, _RAW_ATTR[name])
                if value is not None:
                    per_metric[name].append(value)

    classes: dict[int, dict[str, ClassEstimate]] = {}
    quantiles: dict[int, float] = {}
    for cls in sorted(samples):
        row = {}
        for name in METRIC_NAMES:
            values = samples[cls][name]
            row[name] = ClassEstimate(
                metric=name,
                estimate=math.fsum(values) / len(values) if values else None,
                ci_half_width=_t_half_width(values, quantiles) if values else None,
                replications=len(values),
            )
        classes[cls] = row

    metadata = ReplicationMetadata(
        base_seed=base_seed,
        rep_seeds=seeds,
        warmup_time=warmup,
        target_completions=target,
        completions_per_rep=tuple(completions),
        wall_clock_seconds=time.perf_counter() - started,
        truncated=truncated,
    )
    return SimulationReport(classes=classes, metadata=metadata)


@dataclass(frozen=True)
class ComparisonRow:
    """One class-and-metric line of the formula-vs-simulation table.

    ``covered`` says whether the analytic value lies inside the simulated
    95 percent interval; it is None when either side is unavailable.
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
    for cls, metrics in enumerate(analytic, start=1):
        estimates = report.classes.get(cls, {})
        for name in METRIC_NAMES:
            a = getattr(metrics, name) if metrics.stable else None
            est = estimates.get(name)
            sim_mean = est.estimate if est is not None else None
            hw = est.ci_half_width if est is not None and est.estimate is not None else None
            if a is None or sim_mean is None:
                abs_err = rel_err = None
                covered = None
            else:
                abs_err = abs(a - sim_mean)
                rel_err = abs_err / abs(a) if a != 0 else None
                covered = abs_err <= hw
            rows.append(
                ComparisonRow(
                    class_index=cls,
                    metric=name,
                    analytic=a,
                    sim_mean=sim_mean,
                    sim_ci_half_width=hw,
                    abs_error=abs_err,
                    rel_error=rel_err,
                    covered=covered,
                )
            )
    return rows
