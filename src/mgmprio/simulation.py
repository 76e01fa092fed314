"""Event-driven simulator for the multiserver preemptive-resume priority queue.

Scheduling semantics, in full:

* Arrivals per class form independent Poisson streams.  Each class draws
  its inter-arrival gaps and its service requirements from two sub-streams
  of its own, numpy Generators from :func:`substreams`, so the sampled
  workload depends only on the seed and never on the queueing policy
  (common random numbers across policy comparisons).
  Both are drawn ahead in blocks of ``_BLOCK`` jobs; since every stream
  feeds one class and one purpose in order, the block size is not
  observable.  All classes' drawn arrivals are merged into one stream in
  time order, so the event heap holds only completions: the run loops over
  the arrivals and, before each, drains the completions due by its time.
  Each job's state is a plain list record.  Each busy server holds one
  key, ``(-class, arrival, server, job)``, and each completion event
  carries the key it was scheduled under; the event is stale, its job
  displaced, once the server holds another key object.
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
  Simultaneous completions go in the order their jobs last started
  service.
* No server idles while the pool is nonempty (checked after every event).

With a :class:`RunConfig`, only jobs arriving strictly after
``warmup_time`` are counted and the run stops once ``target_completions``
counted jobs have finished; jobs still in flight are dropped from the
statistics.  If the clock would pass ``max_simulated_time`` first, or no
class arrives any more (every next arrival lies at t = inf, as a subnormal
arrival rate gives), the run stops early and the result is flagged
truncated.  With a
:class:`TraceInput`, the scripted arrivals are run to completion and every
job is counted; its times and services are taken as doubles.

Each counted job is logged on completion as one 40-byte packed row of the
run's :class:`JobLog` (class index, arrival, service, first start and
completion) plus its interruption intervals, kept only for a job that was
preempted.  :func:`per_class_raw` reduces the rows through a zero-copy
numpy view; :class:`JobRecord` objects are built only when the log is read.
"""

import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain, compress

import numpy as np

from .distributions import _exponentials, require_count, require_finite
from .model import SystemModel

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
    "substreams",
]

# jobs per class whose arrival times and service requirements are drawn at once
_BLOCK = 1024

# one counted job in a JobLog: class index, arrival, service, first start, completion
_ROW = struct.Struct("<qdddd")
_ROW_DTYPE = np.dtype([("cls", "<i8"), ("arrival", "<f8"), ("service", "<f8"),
                       ("first_start", "<f8"), ("completion", "<f8")])


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
        require_count("seed", self.seed, 0)
        require_count("target_completions", self.target_completions, 1)
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
            require_count(f"trace entry {k} class", cls, 1)
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
    """The counted completed jobs of one run, in completion order, packed in rows.

    Each job is one 40-byte row of a single ``bytearray`` (class index,
    arrival, service, first start and completion, as ``_ROW``), beside a
    list of each job's interruption intervals (None for a job never
    preempted).  A read-only sequence: indexing and iteration build each
    job's :class:`JobRecord` on demand, and a slice gives a tuple of them.
    Two logs are equal when every job's fields are.
    """

    __slots__ = ("_rows", "_intervals")

    def __init__(self):
        self._rows = bytearray()
        self._intervals = []

    def __len__(self):
        return len(self._intervals)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return tuple(map(self.__getitem__, range(*key.indices(len(self)))))
        # the list raises IndexError and takes negative indices
        intervals = self._intervals[key]
        return _record(_ROW.unpack_from(self._rows, _ROW.size * (key % len(self))), intervals)

    def __iter__(self):
        return map(_record, _ROW.iter_unpack(self._rows), self._intervals)

    def __eq__(self, other):
        if not isinstance(other, JobLog):
            return NotImplemented
        # compared as numbers, not as bytes, so that 0.0 equals -0.0
        return (self._intervals == other._intervals
                and list(_ROW.iter_unpack(self._rows)) == list(_ROW.iter_unpack(other._rows)))

    def __repr__(self):
        return f"JobLog({len(self)} jobs)"


def _record(row, intervals) -> JobRecord:
    class_index, arrival, service, first_start, completion = row
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


def substreams(seed: int, n: int) -> "list[np.random.Generator]":
    """Derive ``n`` independent numpy Generators from one integer seed.

    Stream k of seed s is PCG64 seeded with child k of
    ``SeedSequence(s)``, whose children are collision-resistant by
    construction, so the derivation is stable across runs and platforms.
    """
    return [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(n)]


# slots of a job record, one list per job: class index, arrival, service
# requirement, remaining service, first start, when the job was last
# started, resumed or suspended, and its interruption intervals (None until
# it is first preempted)
_CLS, _ARRIVAL, _SERVICE, _REMAINING, _FIRST_START, _SINCE, _INTERVALS = range(7)


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
    # times[k][-1] is class k's last drawn time; the initial 0 is where its sum of gaps starts,
    # not an arrival, so start[k] = 1 skips it
    times = [np.zeros(1)] * n_classes
    services = [None] * n_classes
    start = [1] * n_classes
    while True:
        for k, c in enumerate(model.classes):
            if start[k] == len(times[k]):
                # a subnormal rate overflows a gap to inf: the class stops arriving
                with np.errstate(over="ignore"):
                    gaps = _exponentials(streams[2 * k].random(_BLOCK), c.arrival_rate)
                gaps[0] += times[k][-1]
                times[k] = np.cumsum(gaps)
                services[k] = c.service.sample_block(streams[2 * k + 1], _BLOCK)
                start[k] = 0
        end = min(t[-1] for t in times)
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

    # completions only, as (time, token, key); the token orders completions at one instant by start
    events: list = []
    pool: list = []
    idle = list(range(m))  # already a heap
    # (-class, arrival, server, job) of each busy server's job: min() of them is the preferred victim
    server_key: list = [None] * m
    token = 0
    pool_seq = 0
    log = JobLog()
    log_row = log._rows.extend
    log_intervals = log._intervals.append
    pack_row = _ROW.pack
    counted_done = 0
    truncated = False
    now = 0.0

    if isinstance(cfg, RunConfig):
        # from 2**53 mean gaps on, a double cannot place arrivals one mean gap
        # apart, so the clock would never get past the warm-up or the cap
        span = min(cfg.warmup_time, cfg.max_simulated_time)
        for k, spec in enumerate(model.classes, start=1):
            if spec.arrival_rate * span >= 2**53:
                raise ValueError(f"class {k} arrival rate {spec.arrival_rate!r} times {span!r}, the lesser of "
                                 f"warm-up and time cap, reaches 2**53: the clock cannot resolve its arrival gaps")
        arrivals = chain.from_iterable(_arrival_windows(model, cfg.seed))
        warmup = cfg.warmup_time
        target = cfg.target_completions
        horizon = cfg.max_simulated_time
    else:
        for seq, (t, cls, service) in enumerate(cfg.arrivals):
            if cls > n_classes:
                raise ValueError(f"trace entry {seq} names class {cls}, model has {n_classes}")
        # the clock runs on doubles, as the log stores them; an arrival at inf marks the end of the trace
        arrivals = chain([(float(t), cls, float(service)) for t, cls, service in cfg.arrivals],
                         [(math.inf, 0, 0.0)])
        warmup = -math.inf
        target = math.inf
        horizon = math.inf

    for t_next, cls_next, service_next in arrivals:
        # a completion goes before an arrival at the same time
        while events and events[0][0] <= t_next:
            now, _, key = heappop(events)
            if now > horizon:
                truncated = True
                break
            sidx = key[2]
            if server_key[sidx] is not key:
                continue  # stale: that job was displaced
            job = key[3]
            if job[_ARRIVAL] > warmup:
                log_row(pack_row(job[_CLS], job[_ARRIVAL], job[_SERVICE], job[_FIRST_START], now))
                log_intervals(job[_INTERVALS])
                counted_done += 1
                if counted_done >= target:
                    break
            if pool:
                job = heappop(pool)[3]
                if job[_FIRST_START] is None:
                    job[_FIRST_START] = now
                elif job[_INTERVALS] is None:
                    job[_INTERVALS] = [now - job[_SINCE]]
                else:
                    job[_INTERVALS].append(now - job[_SINCE])
                job[_SINCE] = now
                key = server_key[sidx] = (-job[_CLS], job[_ARRIVAL], sidx, job)
                token += 1
                heappush(events, (now + job[_REMAINING], token, key))
            else:
                heappush(idle, sidx)
            if pool and idle:
                raise RuntimeError("work conservation violated: idle server with waiting jobs")
        else:
            if t_next == math.inf:
                # every job has completed: the trace is over, or no class arrives any more
                truncated = target != math.inf
                break
            now = t_next
            if now > horizon:
                truncated = True
                break
            job = [cls_next, now, service_next, service_next, now, now, None]
            if idle:
                sidx = heappop(idle)
            else:
                # every server is busy, so every key is current
                key = min(server_key)
                if -key[0] < cls_next + min_victim_delta:
                    # no server for the arrival: it waits, not yet started
                    job[_FIRST_START] = None
                    heappush(pool, (cls_next, -now if lifo else now, pool_seq, job))
                    pool_seq += 1
                    continue
                # the victim joins the pool and the arrival takes its server
                sidx = key[2]
                victim = key[3]
                victim[_REMAINING] -= now - victim[_SINCE]
                victim[_SINCE] = now
                heappush(pool, (victim[_CLS], -victim[_ARRIVAL] if lifo else victim[_ARRIVAL], pool_seq, victim))
                pool_seq += 1
            # the arrival starts at once
            key = server_key[sidx] = (-cls_next, now, sidx, job)
            token += 1
            heappush(events, (now + service_next, token, key))
            if pool and idle:
                raise RuntimeError("work conservation violated: idle server with waiting jobs")
            continue
        # the horizon or the target was reached
        break

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
    proportionally), ``w`` mean wait (initial delay plus interruptions, so
    sojourn minus service up to rounding) and ``v`` mean sojourn.  A metric
    the run did not observe is None: ``u`` when no job was delayed, ``g``
    when none was preempted, and all six when the class counted no job.
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

    The log's rows are read through a zero-copy numpy view, and each class
    is picked out by a mask on its class column.  Its sojourns, delays and
    per-job interruption totals (each job's intervals summed with
    ``math.fsum``) are then summed with ``math.fsum``, which is correctly
    rounded.  Every class of the model gets an entry; one with no counted
    jobs is ``RawClassStats(count=0)``.
    """
    n_classes = len(model.classes)
    rows = np.frombuffer(log._rows, _ROW_DTYPE)
    cls = rows["cls"]
    sojourns = rows["completion"] - rows["arrival"]
    delays = rows["first_start"] - rows["arrival"]
    # only preempted jobs carry intervals: a job never preempted adds an
    # exact zero, so leaving it out keeps the sums
    held = list(filter(None, log._intervals))
    held_cls = cls[np.fromiter(compress(range(len(cls)), log._intervals), np.intp, len(held))]
    int_counts = np.fromiter(map(len, held), np.int64, len(held))
    int_totals = np.fromiter(map(math.fsum, held), np.float64, len(held))
    out: dict[int, RawClassStats] = {}
    for k in range(1, n_classes + 1):
        mine = cls == k
        n = int(np.count_nonzero(mine))
        if not n:
            out[k] = RawClassStats(count=0)
            continue
        # first start > arrival exactly when their difference is > 0
        delayed = delays[mine]
        delayed = delayed[delayed > 0.0]
        n_delayed = len(delayed)
        delay_sum = math.fsum(delayed.tolist())
        held_mine = held_cls == k
        int_count = int(int_counts[held_mine].sum())
        int_sum = math.fsum(int_totals[held_mine].tolist())
        out[k] = RawClassStats(
            count=n,
            p=n_delayed / n,
            u=delay_sum / n_delayed if n_delayed else None,
            h=int_count / n,
            g=int_sum / int_count if int_count else None,
            # a job waits while delayed or interrupted, so one never held up adds an exact 0
            w=(delay_sum + int_sum) / n,
            v=math.fsum(sojourns[mine].tolist()) / n,
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
