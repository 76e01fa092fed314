"""Event-driven simulator for the multiserver preemptive-resume priority queue.

Scheduling semantics, in full:

* Arrivals per class form independent Poisson streams.  A job's service
  requirement is drawn when the job is generated, from the class's own
  sub-stream, so the sampled workload depends only on the seed and never on
  the queueing policy (common random numbers across policy comparisons).
* An arrival first takes an idle server (the lowest-indexed one when
  several are idle).  Failing that, if some in-service job has a class
  index >= the arrival's (strictly > when ``equal_class_preemption`` is
  off), the in-service job with the largest class index is suspended and
  the arrival starts at once on that server.  Victim ties go to the
  earliest-arrived job (first come, first displaced), then to the lowest
  server index.  Otherwise the arrival joins the waiting pool.
* Whenever a server frees, the pool (fresh and suspended jobs together)
  yields the job with the smallest class index; within a class the most
  recently arrived job goes first under LIFO order (the earliest under
  FIFO), keyed by original arrival time, with remaining ties broken by
  pool insertion order.  So the first job displaced is the last resumed.
  A suspended job resumes with exactly the service time it had left.
* Simultaneous events are processed completions first, then arrivals in
  generation order.
* No server idles while the pool is nonempty (asserted after every event).

With a :class:`RunConfig`, only jobs arriving strictly after
``warmup_time`` are counted and the run stops once ``target_completions``
counted jobs have finished; jobs still in flight are dropped from the
statistics.  If the clock would pass ``max_simulated_time`` first, the run
stops early and the result is flagged truncated.  With a
:class:`TraceInput`, the scripted arrivals are run to completion and every
job is counted.
"""

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .distributions import _exp_variate, require_finite
from .model import SystemModel
from .streams import substreams

__all__ = [
    "PolicyConfig",
    "RunConfig",
    "TraceInput",
    "JobRecord",
    "RunResult",
    "RawClassStats",
    "run",
    "per_class_raw",
    "JOB_RECORD_CSV_HEADER",
    "write_job_records",
]

_COMPLETION = 0
_ARRIVAL = 1


@dataclass(frozen=True)
class PolicyConfig:
    """Queueing policy knobs.

    ``within_class_order`` is "lifo" (default) or "fifo" and governs the
    waiting pool order inside one class.  ``equal_class_preemption``
    (default True) lets an arrival displace an in-service job of its own
    class; when False only strictly lower-priority jobs are displaced.
    """

    within_class_order: str = "lifo"
    equal_class_preemption: bool = True

    def __post_init__(self):
        if self.within_class_order not in ("lifo", "fifo"):
            raise ValueError(f"within_class_order must be 'lifo' or 'fifo', got {self.within_class_order!r}")


@dataclass(frozen=True)
class RunConfig:
    """Stochastic run: seed, stopping rule and warm-up.

    Jobs arriving at or before ``warmup_time`` are simulated but not
    counted.  ``max_simulated_time`` is a safety cap, infinite by default;
    hitting it flags the result truncated.
    """

    seed: int
    target_completions: int
    warmup_time: float = 100.0
    max_simulated_time: float = math.inf

    def __post_init__(self):
        require_finite("target_completions", self.target_completions)
        require_finite("warmup_time", self.warmup_time, zero_ok=True)
        if self.max_simulated_time != math.inf:
            require_finite("max_simulated_time", self.max_simulated_time)


@dataclass(frozen=True)
class TraceInput:
    """Scripted arrivals: (time, class index, service requirement) triples in time order from 0."""

    arrivals: tuple[tuple[float, int, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "arrivals", tuple(tuple(a) for a in self.arrivals))
        last = -math.inf
        for k, (t, cls, service) in enumerate(self.arrivals):
            require_finite(f"trace entry {k} time", t, zero_ok=True)
            if t < last:
                raise ValueError(f"trace times must be nondecreasing, entry {k} at {t!r} after {last!r}")
            require_finite(f"trace entry {k} service", service)
            if not (isinstance(cls, int) and cls >= 1):
                raise ValueError(f"trace entry {k} has invalid class {cls!r}")
            last = t


@dataclass(frozen=True)
class JobRecord:
    """Lifecycle of one counted, completed job."""

    class_index: int
    arrival_time: float
    service_requirement: float
    first_start_time: float
    completion_time: float
    preemption_count: int
    total_interruption_time: float
    interruption_intervals: tuple[float, ...]


@dataclass(frozen=True)
class RunResult:
    """Counted completed-job records plus how the run ended."""

    records: tuple[JobRecord, ...]
    truncated: bool
    counted_completions: int
    end_time: float


class _Job:
    __slots__ = ("cls", "arrival", "service", "remaining", "first_start",
                 "suspended_at", "interruptions", "counted")

    def __init__(self, cls, arrival, service, counted):
        self.cls = cls
        self.arrival = arrival
        self.service = service
        self.remaining = service
        self.first_start = None
        self.suspended_at = None
        self.interruptions = None
        self.counted = counted


def _record(job: _Job, completion: float) -> JobRecord:
    intervals = tuple(job.interruptions) if job.interruptions else ()
    return JobRecord(
        class_index=job.cls,
        arrival_time=job.arrival,
        service_requirement=job.service,
        first_start_time=job.first_start,
        completion_time=completion,
        preemption_count=len(intervals),
        total_interruption_time=math.fsum(intervals),
        interruption_intervals=intervals,
    )


def run(model: SystemModel, policy: PolicyConfig, cfg) -> RunResult:
    """Simulate one run; ``cfg`` is a RunConfig or a TraceInput."""
    if not isinstance(cfg, (RunConfig, TraceInput)):
        raise TypeError(f"cfg must be RunConfig or TraceInput, got {type(cfg).__name__}")
    stochastic = isinstance(cfg, RunConfig)
    n_classes = len(model.classes)
    m = model.servers
    lifo = policy.within_class_order == "lifo"
    # lowest class index an in-service job must have to be displaceable
    min_victim_delta = 0 if policy.equal_class_preemption else 1

    events: list = []
    pool: list = []
    idle = list(range(m))
    heapify(idle)
    server_job: list = [None] * m
    server_token = [0] * m
    server_start = [0.0] * m
    token = 0
    pool_seq = 0
    records: list[JobRecord] = []
    counted_done = 0
    truncated = False
    now = 0.0

    if stochastic:
        streams = substreams(cfg.seed, 2 * n_classes)
        rates = [c.arrival_rate for c in model.classes]
        services = [c.service for c in model.classes]
        warmup = cfg.warmup_time
        target = cfg.target_completions
        horizon = cfg.max_simulated_time
        arr_seq = 0

        def schedule_arrival(k: int, t_from: float):
            nonlocal arr_seq
            t = t_from + _exp_variate(rates[k], streams[2 * k])
            job = _Job(k + 1, t, services[k].sample(streams[2 * k + 1]), t > warmup)
            heappush(events, (t, _ARRIVAL, arr_seq, job))
            arr_seq += 1

        for k in range(n_classes):
            schedule_arrival(k, 0.0)
    else:
        horizon = math.inf
        target = None
        for seq, (t, cls, service) in enumerate(cfg.arrivals):
            if cls > n_classes:
                raise ValueError(f"trace entry {seq} names class {cls}, model has {n_classes}")
            heappush(events, (t, _ARRIVAL, seq, _Job(cls, t, service, True)))

    def place(job: _Job, sidx: int):
        """Start or resume ``job`` on server ``sidx`` at the current time."""
        nonlocal token
        if job.first_start is None:
            job.first_start = now
        else:
            seg = now - job.suspended_at
            if job.interruptions is None:
                job.interruptions = [seg]
            else:
                job.interruptions.append(seg)
            job.suspended_at = None
        server_job[sidx] = job
        server_start[sidx] = now
        token += 1
        server_token[sidx] = token
        heappush(events, (now + job.remaining, _COMPLETION, token, sidx))

    while events:
        ev = heappop(events)
        now = ev[0]
        if now > horizon:
            truncated = True
            break
        if ev[1] == _COMPLETION:
            sidx = ev[3]
            if server_token[sidx] != ev[2]:
                continue  # stale: that job was displaced
            job = server_job[sidx]
            server_job[sidx] = None
            server_token[sidx] = 0
            if job.counted:
                records.append(_record(job, now))
                counted_done += 1
            if pool:
                place(heappop(pool)[3], sidx)
            else:
                heappush(idle, sidx)
            if target is not None and counted_done >= target:
                break
        else:
            job = ev[3]
            cls = job.cls
            if stochastic:
                schedule_arrival(cls - 1, now)
            if idle:
                place(job, heappop(idle))
            else:
                limit = cls + min_victim_delta
                best = -1
                for s in range(m):
                    cand = server_job[s]
                    if cand.cls < limit:
                        continue
                    if best < 0:
                        best = s
                    else:
                        prev = server_job[best]
                        if cand.cls > prev.cls or (cand.cls == prev.cls and cand.arrival < prev.arrival):
                            best = s
                if best >= 0:
                    victim = server_job[best]
                    victim.remaining -= now - server_start[best]
                    victim.suspended_at = now
                    server_token[best] = 0
                    heappush(pool, (victim.cls, -victim.arrival if lifo else victim.arrival, pool_seq, victim))
                    pool_seq += 1
                    place(job, best)
                else:
                    heappush(pool, (cls, -job.arrival if lifo else job.arrival, pool_seq, job))
                    pool_seq += 1
        assert not pool or not idle, "work conservation violated: idle server with waiting jobs"

    return RunResult(
        records=tuple(records),
        truncated=truncated,
        counted_completions=counted_done,
        end_time=now,
    )


@dataclass(frozen=True)
class RawClassStats:
    """Raw per-class estimators from one run's counted records.

    ``initial_delay_mean`` is None when no job of the class was delayed,
    and ``interruption_mean`` is None when none was preempted (0/0 cases
    are reported absent rather than as zero).  ``interruption_mean`` is the
    ratio of summed interruption time to the total interruption count, so
    long interruptions weigh in proportionally.
    """

    count: int
    sojourn_mean: float
    wait_mean: float
    service_mean: float
    delayed_fraction: float
    delayed_count: int
    initial_delay_mean: float | None
    preemption_mean: float
    interruption_count: int
    interruption_time: float
    interruption_mean: float | None


def per_class_raw(records, model: SystemModel) -> dict[int, RawClassStats]:
    """Aggregate records into the raw estimators, keyed by class index.

    Every class of the model gets an entry; one with no counted jobs is
    flagged by ``count == 0`` and carries no aggregate values.
    """
    by_class: dict[int, list[JobRecord]] = {}
    for r in records:
        by_class.setdefault(r.class_index, []).append(r)
    out: dict[int, RawClassStats] = {}
    for cls in range(1, len(model.classes) + 1):
        jobs = by_class.get(cls)
        if not jobs:
            out[cls] = RawClassStats(
                count=0,
                sojourn_mean=None,
                wait_mean=None,
                service_mean=None,
                delayed_fraction=None,
                delayed_count=0,
                initial_delay_mean=None,
                preemption_mean=None,
                interruption_count=0,
                interruption_time=0.0,
                interruption_mean=None,
            )
            continue
        n = len(jobs)
        sojourn_mean = math.fsum(r.completion_time - r.arrival_time for r in jobs) / n
        service_mean = math.fsum(r.service_requirement for r in jobs) / n
        delays = [r.first_start_time - r.arrival_time for r in jobs if r.first_start_time > r.arrival_time]
        int_count = sum(r.preemption_count for r in jobs)
        int_time = math.fsum(r.total_interruption_time for r in jobs)
        out[cls] = RawClassStats(
            count=n,
            sojourn_mean=sojourn_mean,
            wait_mean=sojourn_mean - service_mean,
            service_mean=service_mean,
            delayed_fraction=len(delays) / n,
            delayed_count=len(delays),
            initial_delay_mean=math.fsum(delays) / len(delays) if delays else None,
            preemption_mean=int_count / n,
            interruption_count=int_count,
            interruption_time=int_time,
            interruption_mean=int_time / int_count if int_count else None,
        )
    return out


JOB_RECORD_CSV_HEADER = "class,arrival,service,first_start,completion,preemptions,interruption_total"


def write_job_records(records, file) -> None:
    """Dump job records as CSV, one row per counted job, full precision."""
    file.write(JOB_RECORD_CSV_HEADER + "\n")
    for r in records:
        file.write(
            f"{r.class_index},{r.arrival_time!r},{r.service_requirement!r},"
            f"{r.first_start_time!r},{r.completion_time!r},{r.preemption_count},"
            f"{r.total_interruption_time!r}\n"
        )
