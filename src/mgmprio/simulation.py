"""Event-driven simulator for the multiserver preemptive-resume priority queue.

Scheduling semantics, in full:

* Arrivals per class form independent Poisson streams.  Each class draws
  its inter-arrival gaps and its service requirements from two sub-streams
  of its own, so the sampled workload depends only on the seed and never on
  the queueing policy (common random numbers across policy comparisons).
  Both are drawn ahead in blocks of ``_BLOCK`` jobs; since every stream
  feeds one class and one purpose in order, the block size is not
  observable.  All classes' drawn arrivals are merged into one stream in
  time order, so the event heap holds only completions.
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
  pool insertion order.  So under LIFO, among jobs of one class with
  distinct arrival times, the first displaced is the last resumed; jobs
  with equal arrival times resume in the order they entered the pool.  A suspended job
  resumes with exactly the service time it had left.
* Simultaneous events are processed completions first, then arrivals:
  a trace's in trace order, a stochastic run's in class order.
* No server idles while the pool is nonempty (checked after every event).

With a :class:`RunConfig`, only jobs arriving strictly after
``warmup_time`` are counted and the run stops once ``target_completions``
counted jobs have finished; jobs still in flight are dropped from the
statistics.  If the clock would pass ``max_simulated_time`` first, or no
class arrives any more (every next arrival lies at t = inf, as a subnormal
arrival rate gives), the run stops early and the result is flagged
truncated.  With a
:class:`TraceInput`, the scripted arrivals are run to completion and every
job is counted.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain

import numpy as np

from .distributions import _exponentials, require_finite
from .model import SystemModel
from .streams import substreams

__all__ = [
    "PolicyConfig",
    "RunConfig",
    "TraceInput",
    "JobRecord",
    "JobLog",
    "RunResult",
    "RawClassStats",
    "run",
    "per_class_raw",
    "JOB_RECORD_CSV_HEADER",
    "write_job_records",
]

# jobs per class whose arrival times and service requirements are drawn at once
_BLOCK = 1024


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


class JobLog(Sequence):
    """The counted completed jobs of one run, in completion order, stored by column.

    A read-only sequence: indexing and iteration build each job's
    :class:`JobRecord` on demand, and a slice gives a tuple of them.  Two
    logs are equal when every column is.
    """

    __slots__ = ("_columns",)

    def __init__(self):
        # one list per field: class index, arrival, service, first start,
        # completion, and the job's list of interruption intervals (None
        # when it was never preempted)
        self._columns = ([], [], [], [], [], [])

    def __len__(self):
        return len(self._columns[0])

    def __getitem__(self, key):
        fields = (column[key] for column in self._columns)
        if isinstance(key, slice):
            return tuple(map(_record, *fields))
        return _record(*fields)

    def __iter__(self):
        return map(_record, *self._columns)

    def __eq__(self, other):
        if not isinstance(other, JobLog):
            return NotImplemented
        return self._columns == other._columns

    def __repr__(self):
        return f"JobLog({len(self)} jobs)"


def _record(class_index, arrival, service, first_start, completion, intervals) -> JobRecord:
    intervals = tuple(intervals) if intervals else ()
    return JobRecord(
        class_index=class_index,
        arrival_time=arrival,
        service_requirement=service,
        first_start_time=first_start,
        completion_time=completion,
        preemption_count=len(intervals),
        total_interruption_time=math.fsum(intervals),
        interruption_intervals=intervals,
    )


@dataclass(frozen=True)
class RunResult:
    """Counted completed-job log plus how the run ended."""

    records: JobLog
    truncated: bool
    counted_completions: int
    end_time: float


class _Job:
    # since: when the job was last started, resumed or suspended
    __slots__ = ("cls", "arrival", "service", "remaining", "first_start",
                 "since", "interruptions", "counted")

    def __init__(self, cls, arrival, service, counted):
        self.cls = cls
        self.arrival = arrival
        self.service = service
        self.remaining = service
        self.first_start = None
        self.since = None
        self.interruptions = None
        self.counted = counted


def _arrival_windows(model: SystemModel, seed: int):
    """Yield all classes' arrivals in time order, as one zip of (time, class, service) per window.

    Each class draws its gaps and services in blocks of ``_BLOCK`` jobs,
    arrival times being the running sum of the gaps carried from one block
    to the next.  A window ends at the smallest last-drawn time over the
    classes, so every arrival up to it is known, and takes those arrivals
    in time order, equal times in class order.
    """
    n_classes = len(model.classes)
    streams = substreams(seed, 2 * n_classes)
    times = [np.empty(0)] * n_classes
    services = [None] * n_classes
    start = [0] * n_classes
    last = [0.0] * n_classes
    while True:
        for k, c in enumerate(model.classes):
            if start[k] == len(times[k]):
                # a subnormal rate overflows a gap to inf: the class stops arriving
                with np.errstate(over="ignore"):
                    gaps = _exponentials(streams[2 * k].uniforms(_BLOCK), c.arrival_rate)
                gaps[0] += last[k]
                times[k] = np.cumsum(gaps)
                last[k] = times[k][-1]
                services[k] = c.service.sample_block(streams[2 * k + 1], _BLOCK)
                start[k] = 0
        end = min(last)
        t_parts, c_parts, s_parts = [], [], []
        for k in range(n_classes):
            stop = int(np.searchsorted(times[k], end, side="right"))
            t_parts.append(times[k][start[k]:stop])
            s_parts.append(services[k][start[k]:stop])
            c_parts.append(np.full(stop - start[k], k + 1))
            start[k] = stop
        t = np.concatenate(t_parts)
        c = np.concatenate(c_parts)
        order = np.lexsort((c, t))
        yield zip(t[order].tolist(), c[order].tolist(), np.concatenate(s_parts)[order].tolist())


def run(model: SystemModel, policy: PolicyConfig, cfg) -> RunResult:
    """Simulate one run; ``cfg`` is a RunConfig or a TraceInput."""
    if not isinstance(cfg, (RunConfig, TraceInput)):
        raise TypeError(f"cfg must be RunConfig or TraceInput, got {type(cfg).__name__}")
    n_classes = len(model.classes)
    m = model.servers
    lifo = policy.within_class_order == "lifo"
    # lowest class index an in-service job must have to be displaceable
    min_victim_delta = 0 if policy.equal_class_preemption else 1

    # completions only, as (time, token, server)
    events: list = []
    pool: list = []
    idle = list(range(m))  # already a heap
    server_job: list = [None] * m
    # (-class, arrival, server) of each busy server's job: min() of them is the preferred victim
    server_key: list = [None] * m
    server_token = [0] * m
    token = 0
    pool_seq = 0
    log = JobLog()
    log_class, log_arrival, log_service, log_first_start, log_completion, log_intervals = (
        column.append for column in log._columns
    )
    counted_done = 0
    truncated = False
    now = 0.0

    if isinstance(cfg, RunConfig):
        arrivals = chain.from_iterable(_arrival_windows(model, cfg.seed))
        warmup = cfg.warmup_time
        target = cfg.target_completions
        horizon = cfg.max_simulated_time
    else:
        for seq, (t, cls, service) in enumerate(cfg.arrivals):
            if cls > n_classes:
                raise ValueError(f"trace entry {seq} names class {cls}, model has {n_classes}")
        # an arrival at inf marks the end of the trace
        arrivals = chain(cfg.arrivals, [(math.inf, 0, 0.0)])
        warmup = -math.inf
        target = None
        horizon = math.inf

    def place(job: _Job, sidx: int):
        """Start or resume ``job`` on server ``sidx`` at the current time."""
        nonlocal token
        if job.first_start is None:
            job.first_start = now
        else:
            seg = now - job.since
            if job.interruptions is None:
                job.interruptions = [seg]
            else:
                job.interruptions.append(seg)
        job.since = now
        server_job[sidx] = job
        server_key[sidx] = (-job.cls, job.arrival, sidx)
        token += 1
        server_token[sidx] = token
        heappush(events, (now + job.remaining, token, sidx))

    t_next, cls_next, service_next = next(arrivals)
    while True:
        # a completion goes before an arrival at the same time
        if events and events[0][0] <= t_next:
            now, tok, sidx = heappop(events)
            if now > horizon:
                truncated = True
                break
            if server_token[sidx] != tok:
                continue  # stale: that job was displaced
            job = server_job[sidx]
            server_job[sidx] = None
            server_token[sidx] = 0
            if job.counted:
                log_class(job.cls)
                log_arrival(job.arrival)
                log_service(job.service)
                log_first_start(job.first_start)
                log_completion(now)
                log_intervals(job.interruptions)
                counted_done += 1
            if pool:
                place(heappop(pool)[3], sidx)
            else:
                heappush(idle, sidx)
            if target is not None and counted_done >= target:
                break
        else:
            if t_next == math.inf:
                # every job has completed: the trace is over, or no class arrives any more
                truncated = target is not None
                break
            now = t_next
            if now > horizon:
                truncated = True
                break
            job = _Job(cls_next, now, service_next, now > warmup)
            if idle:
                place(job, heappop(idle))
            else:
                # every server is busy, so every key is current
                key = min(server_key)
                if -key[0] >= cls_next + min_victim_delta:
                    best = key[2]
                    victim = server_job[best]
                    victim.remaining -= now - victim.since
                    victim.since = now
                    server_token[best] = 0
                    place(job, best)
                    job = victim
                # the displaced victim, or the arrival that found no server
                heappush(pool, (job.cls, -job.arrival if lifo else job.arrival, pool_seq, job))
                pool_seq += 1
            t_next, cls_next, service_next = next(arrivals)
        if pool and idle:
            raise RuntimeError("work conservation violated: idle server with waiting jobs")

    return RunResult(
        records=log,
        truncated=truncated,
        counted_completions=counted_done,
        end_time=now,
    )


@dataclass(frozen=True)
class RawClassStats:
    """One run's estimators of a class's metrics, under the names of :class:`ClassMetrics`.

    ``p`` delayed fraction, ``u`` mean initial delay of the delayed jobs,
    ``h`` preemptions per job, ``g`` mean interruption (summed interruption
    time over the interruption count, so long interruptions weigh in
    proportionally), ``w`` mean wait (sojourn minus service) and ``v`` mean
    sojourn.  A metric the run did not observe is None: ``u`` when no job
    was delayed, ``g`` when none was preempted, and all six when the class
    counted no job.
    """

    count: int
    p: float | None = None
    u: float | None = None
    h: float | None = None
    g: float | None = None
    w: float | None = None
    v: float | None = None
    interruption_count: int = 0


def per_class_raw(log: JobLog, model: SystemModel) -> dict[int, RawClassStats]:
    """Reduce a run's job log into the raw estimators, keyed by class index.

    One pass over the log's columns gathers each class's terms, each class's
    sums then go through ``math.fsum``.  Every class of the model gets an
    entry; one with no counted jobs is ``RawClassStats(count=0)``.
    """
    n_classes = len(model.classes)
    sojourns = [[] for _ in range(n_classes + 1)]
    services = [[] for _ in range(n_classes + 1)]
    delays = [[] for _ in range(n_classes + 1)]
    int_totals = [[] for _ in range(n_classes + 1)]
    int_counts = [0] * (n_classes + 1)
    for cls, arrival, service, first_start, completion, intervals in zip(*log._columns):
        sojourns[cls].append(completion - arrival)
        services[cls].append(service)
        if first_start > arrival:
            delays[cls].append(first_start - arrival)
        if intervals:
            int_counts[cls] += len(intervals)
            # a job never preempted adds an exact zero, so leaving it out keeps the sum
            int_totals[cls].append(math.fsum(intervals))
    out: dict[int, RawClassStats] = {}
    for cls in range(1, n_classes + 1):
        n = len(sojourns[cls])
        if not n:
            out[cls] = RawClassStats(count=0)
            continue
        v = math.fsum(sojourns[cls]) / n
        n_delayed = len(delays[cls])
        int_count = int_counts[cls]
        out[cls] = RawClassStats(
            count=n,
            p=n_delayed / n,
            u=math.fsum(delays[cls]) / n_delayed if n_delayed else None,
            h=int_count / n,
            g=math.fsum(int_totals[cls]) / int_count if int_count else None,
            w=v - math.fsum(services[cls]) / n,
            v=v,
            interruption_count=int_count,
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
