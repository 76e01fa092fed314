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
  time order, window by window, so the event heap holds only completions:
  before each arrival, the run drains the completions due by its time.
  Each job's state is a plain list record.  Each busy server holds one
  key, ``(-class, arrival, server, token, job)``, the token being that of
  the job's start, and each completion event carries the key it was
  scheduled under; the event is stale, its job displaced, once the server
  holds another key object.  The least key names the preferred victim.
  Up to ``_VICTIM_SCAN_MAX`` servers it is found by ``min()`` over every
  key.  Above that, an arrival that finds every server busy builds a heap
  of the keys, kept while every server stays busy: each new key joins it,
  stale keys at its top are dropped by the same identity test, and once
  it holds ``2 * servers`` keys it is dropped, to be built afresh from the
  current keys at the next lookup.  It is also dropped when a server
  idles.  The crossover is measured: below
  it, the heap's upkeep costs more than the scan saves.
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
``warmup_time`` are counted and the run returns at the completion of the
``target_completions``-th counted job; jobs still in flight are dropped from
the statistics.  The time cap lives in the arrival stream alone: it yields
no arrival past ``max_simulated_time`` and none at t = inf (as a subnormal
arrival rate gives), and ends in one arrival of class 0 at the cap, inf
when uncapped.  That arrival ends the run, its one early stop: the cap
came first, or no class arrives any more, and the result is flagged
truncated.  With a :class:`TraceInput`, the scripted arrivals form one
window, run to completion, the trace ending in a class-0 arrival at inf,
and every job is counted; its times and services are taken as doubles.
Either way ``end_time`` is the time of the last event processed.

Each counted job adds, on completion, to three lists of its class in the
run's :class:`JobLog`: its sojourn, its initial delay if that is > 0, and
each of its interruption intervals.  Before each arrival window, once
those lists hold ``_FOLD_AT`` sojourns, the run folds the log: it adds
their lengths to per-class counts, replaces each list and the expansion
it joins by an exact expansion of their sum (a short list of floats from
repeated ``math.fsum``) and clears it, so a stochastic run's reduction
state stays bounded whatever its job count; a trace, one window, never
folds.  :func:`per_class_raw` sums expansions and lists with
``math.fsum``, which is correctly rounded and so independent of order
and of where folds fell; that is the only reduction.  With
``RunConfig.keep_records`` (the default) and for every trace, each
counted job is also logged as one 40-byte packed row (class index,
arrival, service, first start and completion) beside its intervals, and
:class:`JobRecord` objects are built from the rows only when the log is
read; those rows grow with the run by design.
:func:`replicate` runs without rows, as it reads only the sums.
"""

import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from itertools import chain

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

# the most servers at which the victim is found by min() over every busy
# server's key; above it, by a heap of the keys built while all are busy.
# Measured per job of run: at 2 to 8 servers the heap costs 2-4% more than
# the scan, at 12 the two are even, and at 32 the heap saves 7-8%
_VICTIM_SCAN_MAX = 12

# unfolded sojourns at which a JobLog's tail lists are folded, between arrival windows: folding
# costs each value about two more fsum passes, so a run of a few thousand jobs never folds
_FOLD_AT = 4096

# one counted job in a JobLog: class index, arrival, service, first start, completion
_ROW = struct.Struct("<qdddd")


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
    hitting it flags the result truncated.  ``keep_records`` (a bool)
    keeps a row per counted job, so that the result's :class:`JobLog` can
    be read job by job; without it the log holds only what
    :func:`per_class_raw` reduces.
    """

    seed: int
    target_completions: int
    warmup_time: float = 100.0
    max_simulated_time: float = math.inf
    keep_records: bool = True

    def __post_init__(self):
        require_count("seed", self.seed, 0)
        require_count("target_completions", self.target_completions, 1)
        require_finite("warmup_time", self.warmup_time, zero_ok=True)
        if self.max_simulated_time != math.inf:
            require_finite("max_simulated_time", self.max_simulated_time)
        if not isinstance(self.keep_records, bool):
            raise ValueError(f"keep_records must be True or False, got {self.keep_records!r}")


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
    """The counted completed jobs of one run, in completion order.

    For each class, indexed by class index (slot 0 stays empty), it holds
    three counts: jobs, delayed jobs and interruptions.  Beside them sit
    three expansions, short lists of floats whose exact sum is that of
    every sojourn, every initial delay and every interruption interval
    folded so far.  ``run`` adds each counted job to three tail lists of
    its class: its sojourn, its initial delay if the job was first started
    after its arrival, and each of its interruption intervals.  Before each
    arrival window, once the tails hold ``_FOLD_AT`` sojourns, ``run``
    folds them into the counts and expansions, so a rowless stochastic log
    stays bounded; a trace, one window, never folds.
    :func:`per_class_raw` reduces expansions and tails together.

    A log with rows also holds each job as one 40-byte row of a single
    ``bytearray`` (class index, arrival, service, first start and
    completion, as ``_ROW``), beside a list of each job's interruption
    intervals (None for a job never preempted).  It is then a read-only
    sequence: indexing and iteration build each job's :class:`JobRecord`
    on demand, and a slice gives a tuple of them.  A log without rows
    answers ``len()`` alone; reading its jobs raises ValueError.  Two logs
    are equal when they hold the same rows, counts and sums, wherever
    their folds fell.
    """

    __slots__ = ("_counts", "_parts", "_tails", "_rows", "_intervals")

    def __init__(self, n_classes: int, keep_rows: bool):
        self._counts = [[0, 0, 0] for _ in range(n_classes + 1)]
        self._parts = [([], [], []) for _ in range(n_classes + 1)]
        # sojourns, initial delays and interruption intervals, each one list per class
        self._tails = tuple([[] for _ in range(n_classes + 1)] for _ in range(3))
        self._rows = bytearray() if keep_rows else None
        self._intervals = [] if keep_rows else None

    def __len__(self):
        return sum(c[0] for c in self._counts) + sum(map(len, self._tails[0]))

    def _fold(self):
        """Fold every class's tail lists into its counts and expansions, and clear them."""
        for counts, parts, *tails in zip(self._counts, self._parts, *self._tails):
            for j, tail in enumerate(tails):
                counts[j] += len(tail)
                _fold_into(parts[j], tail)

    def _class_sums(self, k: int):
        """Class ``k``'s jobs, delayed jobs and interruptions, then its sojourn, delay and interruption sums."""
        tails = [by_class[k] for by_class in self._tails]
        return (*(n + len(tail) for n, tail in zip(self._counts[k], tails)),
                *(math.fsum(chain(parts, tail)) for parts, tail in zip(self._parts[k], tails)))

    def _require_rows(self):
        if self._rows is None:
            raise ValueError("this job log keeps no per-job rows: run with RunConfig(keep_records=True) "
                             "to read its jobs")

    def __getitem__(self, key):
        self._require_rows()
        if isinstance(key, slice):
            return tuple(map(self.__getitem__, range(*key.indices(len(self)))))
        # the list raises IndexError and takes negative indices
        intervals = self._intervals[key]
        return _record(_ROW.unpack_from(self._rows, _ROW.size * (key % len(self))), intervals)

    def __iter__(self):
        self._require_rows()
        return map(_record, _ROW.iter_unpack(self._rows), self._intervals)

    def __eq__(self, other):
        if not isinstance(other, JobLog):
            return NotImplemented
        return self._numbers() == other._numbers()

    def _numbers(self):
        # rows compared as numbers, not as bytes, so that 0.0 equals -0.0
        rows = None if self._rows is None else list(_ROW.iter_unpack(self._rows))
        return list(map(self._class_sums, range(len(self._counts)))), rows, self._intervals

    def __repr__(self):
        return f"JobLog({len(self)} jobs)"


def _fold_into(parts: list, tail: list) -> None:
    """Make ``parts`` a short list of floats whose exact sum is that of ``parts`` and ``tail``; clear ``tail``.

    ``math.fsum`` is correctly rounded, so each of its sums that joins
    ``parts`` leaves a rest of less than half its last place, and an exact
    rest of 0 is summed to 0 (Shewchuk's expansions, DCG 18, 1997).  The
    values are a run's finite times, whose ``fsum`` is finite or raises
    OverflowError.
    """
    tail += parts
    parts.clear()
    while s := math.fsum(tail):
        parts.append(s)
        tail.append(-s)
    tail.clear()


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
    end_time: float

    @property
    def counted_completions(self) -> int:
        """How many jobs the run counted: the length of ``records``."""
        return len(self.records)


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
_SLOTS = _CLS, _ARRIVAL, _SERVICE, _REMAINING, _FIRST_START, _SINCE, _INTERVALS = range(7)


def _arrival_windows(model: SystemModel, seed: int, cap: float):
    """Yield all classes' arrivals up to ``cap`` in time order, one iterable of (time, class, service) per window.

    Each class draws its gaps and services in blocks of ``_BLOCK`` jobs,
    arrival times being the running sum of the gaps carried from one block
    to the next.  A window ends at the smallest last-drawn time over the
    classes, or at ``cap`` if that is less, so every arrival up to it is
    known, and takes those arrivals in time order: one stable sort of
    their times, concatenated class by class, keeps equal times in class
    order.  No arrival at t = inf is yielded: the stream ends in one
    arrival of class 0 at ``cap``, inf when uncapped, as a window of its
    own.  ``run`` folds its log between windows and stops at that arrival.
    """
    n_classes = len(model.classes)
    streams = substreams(seed, 2 * n_classes)
    classes = np.arange(1, n_classes + 1)
    # times[k][-1] is class k's last drawn time; the initial 0 is where its sum of gaps starts,
    # not an arrival, so start[k] = 1 skips it
    times = [np.zeros(1)] * n_classes
    services = [None] * n_classes
    start = [1] * n_classes
    end = -math.inf
    while end < cap:
        for k, c in enumerate(model.classes):
            if start[k] == len(times[k]):
                # a subnormal rate overflows a gap to inf: the class stops arriving
                with np.errstate(over="ignore"):
                    gaps = _exponentials(streams[2 * k].random(_BLOCK), c.arrival_rate)
                gaps[0] += times[k][-1]
                times[k] = np.cumsum(gaps)
                services[k] = c.service.sample_block(streams[2 * k + 1], _BLOCK)
                start[k] = 0
        end = min(cap, *(t[-1] for t in times))
        # every arrival up to the end, but none at t = inf
        side = "right" if end < math.inf else "left"
        t_parts, s_parts, counts = [], [], []
        for k in range(n_classes):
            stop = int(np.searchsorted(times[k], end, side=side))
            t_parts.append(times[k][start[k]:stop])
            s_parts.append(services[k][start[k]:stop])
            counts.append(stop - start[k])
            start[k] = stop
        t = np.concatenate(t_parts)
        # the parts are concatenated in class order, so a stable sort keeps equal times in class order
        order = t.argsort(kind="stable")
        yield zip(t[order].tolist(), np.repeat(classes, counts)[order].tolist(),
                  np.concatenate(s_parts)[order].tolist())
    yield ((cap, 0, 0.0),)


def run(model: SystemModel, policy: PolicyConfig, cfg) -> RunResult:
    """Simulate one run; ``cfg`` is a RunConfig or a TraceInput.

    Before each arrival the run drains the completions due by its time,
    reading the event heap's top in place: a stale event or a completion
    whose server idles is popped, and one whose server resumes a pooled
    job gives its heap slot to the resumed job's completion event, one
    sift instead of a pop and a push.
    """
    if not isinstance(cfg, (RunConfig, TraceInput)):
        raise TypeError(f"cfg must be RunConfig or TraceInput, got {type(cfg).__name__}")
    # the job slots as locals, which the loop reads faster than globals
    _CLS, _ARRIVAL, _SERVICE, _REMAINING, _FIRST_START, _SINCE, _INTERVALS = _SLOTS
    n_classes = len(model.classes)
    m = model.servers
    lifo = policy.within_class_order == "lifo"
    # lowest class index an in-service job must have to be displaceable
    min_victim_delta = 0 if policy.equal_class_preemption else 1

    # completions only, as (time, token, key); the token orders completions at one instant by start
    events: list = []
    pool: list = []
    idle = list(range(m))  # already a heap
    # (-class, arrival, server, token, job) of each busy server's job: the least is the preferred
    # victim.  The token, unique to the job's start, orders keys that share (-class, arrival,
    # server), as a completed job's stale key and its server's next key can, before their jobs.
    server_key: list = [None] * m
    # the victim index above _VICTIM_SCAN_MAX servers: while every server is busy, a heap of
    # every current key among at most 2m keys; None once a server idles, as that server's
    # last key would still look current, and None until the next lookup once it holds 2m
    scan = m <= _VICTIM_SCAN_MAX
    busy = None
    token = 0  # counts starts and pool insertions alike: only the order of its values is compared
    # a trace keeps its rows: it is run to be read job by job
    keep = not isinstance(cfg, RunConfig) or cfg.keep_records
    log = JobLog(n_classes, keep)
    sojourns, delays, interruptions = log._tails
    if keep:
        log_row = log._rows.extend
        log_intervals = log._intervals.append
        pack_row = _ROW.pack
    counted_done = 0
    now = 0.0

    if isinstance(cfg, RunConfig):
        # from 2**53 mean gaps on, a double cannot place arrivals one mean gap
        # apart, so the clock would never get past the warm-up or the cap
        span = min(cfg.warmup_time, cfg.max_simulated_time)
        for k, spec in enumerate(model.classes, start=1):
            if spec.arrival_rate * span >= 2**53:
                raise ValueError(f"class {k} arrival rate {spec.arrival_rate!r} times {span!r}, the lesser of "
                                 f"warm-up and time cap, reaches 2**53: the clock cannot resolve its arrival gaps")
        windows = _arrival_windows(model, cfg.seed, cfg.max_simulated_time)
        warmup = cfg.warmup_time
        target = cfg.target_completions
    else:
        for seq, (t, cls, service) in enumerate(cfg.arrivals):
            if cls > n_classes:
                raise ValueError(f"trace entry {seq} names class {cls}, model has {n_classes}")
        # the clock runs on doubles, as the log stores them.  A trace is one window, so its log never
        # folds, and like the stochastic stream it ends in an arrival of class 0, at inf
        windows = [[(float(t), cls, float(service)) for t, cls, service in cfg.arrivals] + [(math.inf, 0, 0.0)]]
        warmup = -math.inf
        target = math.inf

    for window in windows:
        if sum(map(len, sojourns)) >= _FOLD_AT:
            log._fold()
        for t_next, cls_next, service_next in window:
            # a completion goes before an arrival at the same time
            while events and events[0][0] <= t_next:
                t_done, _, key = events[0]
                sidx = key[2]
                if server_key[sidx] is not key:
                    heappop(events)
                    continue  # stale: that job was displaced, so nothing happens at t_done
                now = t_done
                job = key[4]
                arrival = job[_ARRIVAL]
                if arrival > warmup:
                    cls = job[_CLS]
                    sojourns[cls].append(now - arrival)
                    # the first start is > the arrival exactly when their difference is > 0
                    delay = job[_FIRST_START] - arrival
                    if delay > 0.0:
                        delays[cls].append(delay)
                    if job[_INTERVALS] is not None:
                        interruptions[cls].extend(job[_INTERVALS])
                    if keep:
                        log_row(pack_row(cls, arrival, job[_SERVICE], job[_FIRST_START], now))
                        log_intervals(job[_INTERVALS])
                    counted_done += 1
                    if counted_done >= target:
                        return RunResult(records=log, truncated=False, end_time=now)
                if pool:
                    job = heappop(pool)[3]
                    if job[_FIRST_START] is None:
                        job[_FIRST_START] = now
                    elif job[_INTERVALS] is None:
                        job[_INTERVALS] = [now - job[_SINCE]]
                    else:
                        job[_INTERVALS].append(now - job[_SINCE])
                    job[_SINCE] = now
                    token += 1
                    key = server_key[sidx] = (-job[_CLS], job[_ARRIVAL], sidx, token, job)
                    # the resumed job's completion takes the completed job's place: one sift
                    heapreplace(events, (now + job[_REMAINING], token, key))
                    # a heap at 2m keys is dropped, to be built afresh at the next lookup, so that
                    # stale keys neither pile up nor keep finished jobs alive
                    if busy is not None and len(busy) < 2 * m:
                        heappush(busy, key)
                    else:
                        busy = None
                else:
                    heappop(events)
                    heappush(idle, sidx)
                    busy = None
                if pool and idle:
                    raise RuntimeError("work conservation violated: idle server with waiting jobs")
            if not cls_next:
                # the stream is over: the time cap, the end of the trace, or no class arrives any more
                break
            now = t_next
            job = [cls_next, now, service_next, service_next, now, now, None]
            if idle:
                sidx = heappop(idle)
            else:
                # every server is busy, so every key in server_key is current
                if scan:
                    key = min(server_key)
                else:
                    if busy is None:
                        busy = server_key[:]
                        heapify(busy)
                    key = busy[0]
                    # a stale key at the top is dropped as a stale completion is
                    while server_key[key[2]] is not key:
                        heappop(busy)
                        key = busy[0]
                if -key[0] < cls_next + min_victim_delta:
                    # no server for the arrival: it waits, not yet started
                    job[_FIRST_START] = None
                    token += 1
                    heappush(pool, (cls_next, -now if lifo else now, token, job))
                    continue
                # the victim joins the pool and the arrival takes its server
                sidx = key[2]
                victim = key[4]
                victim[_REMAINING] -= now - victim[_SINCE]
                victim[_SINCE] = now
                token += 1
                heappush(pool, (victim[_CLS], -victim[_ARRIVAL] if lifo else victim[_ARRIVAL], token, victim))
            # the arrival starts at once
            token += 1
            key = server_key[sidx] = (-cls_next, now, sidx, token, job)
            heappush(events, (now + service_next, token, key))
            if busy is not None:
                # the victim's key is at the top
                heapreplace(busy, key)
            if pool and idle:
                raise RuntimeError("work conservation violated: idle server with waiting jobs")

    # the stream is over; a run to a target was cut short
    return RunResult(records=log, truncated=target != math.inf, end_time=now)


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

    Each class's sojourns, its delays and its interruption intervals are
    summed with ``math.fsum``, a folded part of the log entering each sum
    as its exact expansion.  As ``fsum`` is correctly rounded, the sums do
    not depend on the order of the jobs or on where the log was folded, so
    they are the same with and without the log's rows.  Every class of the
    model gets an entry; one with no counted jobs is
    ``RawClassStats(count=0)``.
    """
    out: dict[int, RawClassStats] = {}
    for k in range(1, len(model.classes) + 1):
        # a class beyond the run's model counted no job
        n, delayed, int_count, sojourn_sum, delay_sum, int_sum = \
            log._class_sums(k) if k < len(log._counts) else (0,) * 6
        if not n:
            out[k] = RawClassStats(count=0)
            continue
        out[k] = RawClassStats(
            count=n,
            p=delayed / n,
            u=delay_sum / delayed if delayed else None,
            h=int_count / n,
            g=int_sum / int_count if int_count else None,
            # a job waits while delayed or interrupted, so one never held up adds an exact 0
            w=(delay_sum + int_sum) / n,
            v=sojourn_sum / n,
            interruption_count=int_count,
        )
    return out


JOB_RECORD_CSV_HEADER = "class,arrival,service,first_start,completion,preemptions,interruption_total"


def write_job_records(records, file) -> None:
    """Dump job records as CSV, one row per counted job, full precision."""
    # a job log without rows refuses here, before the header is written
    records = iter(records)
    file.write(JOB_RECORD_CSV_HEADER + "\n")
    for r in records:
        file.write(
            f"{r.class_index},{r.arrival_time!r},{r.service_requirement!r},"
            f"{r.first_start_time!r},{r.completion_time!r},{r.preemption_count},"
            f"{r.total_interruption_time!r}\n"
        )
