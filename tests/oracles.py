"""Reference values computed by a second, independent route.

The package evaluates all-servers-busy probabilities through the loss
recurrence and assembles waiting times from the structural identity
``w = p*u + h*g``.  This module deliberately avoids both shortcuts:
Erlang quantities come from the direct factorial sum, waiting and
sojourn times from their explicit closed forms, and every step is exact
rational arithmetic on ``fractions.Fraction``.  Tests freeze values
produced here and require the float implementation to reproduce them.
:func:`kleinrock_preemptive_sojourns` gives the exact one-server sojourns
that simulated strict preemption with first-come order must cover.

It also keeps the record-by-record per-class reduction,
:func:`reference_per_class_raw`, that the simulator's columnar
``per_class_raw`` must match exactly, and two simulators that share no
scheduling code with the package's: :func:`reference_lifo_trace` for LIFO
with equal-class preemption and :func:`reference_policy_trace` for every
policy.
"""

import math
from fractions import Fraction
from math import factorial, inf

from mgmprio import RawClassStats

Rational = Fraction | int


def erlang_b_direct(servers: int, offered: Rational) -> Fraction:
    """Erlang loss probability via the plain factorial sum."""
    a = Fraction(offered)
    top = a**servers / factorial(servers)
    total = sum(a**k / factorial(k) for k in range(servers + 1))
    return top / total


def erlang_c_direct(servers: int, load: Rational) -> Fraction:
    """Erlang delay probability from the loss sum, no recurrence."""
    r = Fraction(load)
    if not 0 <= r < 1:
        raise ValueError(f"load must lie in [0, 1), got {r}")
    b = erlang_b_direct(servers, servers * r)
    return b / (1 - r * (1 - b))


def _prefixes(classes):
    """Cumulative rates, per-server loads and second-moment sums, index 0 empty."""
    lam = [Fraction(c[0]) for c in classes]
    b1 = [Fraction(c[1]) for c in classes]
    b2 = [Fraction(c[2]) for c in classes]
    cum = [Fraction(0)]
    for x in lam:
        cum.append(cum[-1] + x)
    return lam, b1, b2, cum


def reference_metrics(servers: int, classes, mode: str = "approx"):
    """Per-class dicts of the six exact rational metrics.

    ``classes`` is a sequence of ``(rate, mean, second_moment)`` triples,
    highest priority first.  ``mode`` selects the closed forms: "approx"
    for the general approximation, "m1" for the single-channel exact
    ones, "mmm" for the identical-exponential exact ones.  Every class
    prefix must be stable; rational arithmetic has no room for an
    unstable branch.
    """
    if mode not in ("approx", "m1", "mmm"):
        raise ValueError(f"unknown mode {mode!r}")
    m = servers
    lam, b1, b2, cum = _prefixes(classes)
    load = [Fraction(0)]
    moment_sum = [Fraction(0)]
    for rate, mean, second in zip(lam, b1, b2):
        load.append(load[-1] + Fraction(rate * mean, m))
        moment_sum.append(moment_sum[-1] + rate * second)
    if load[-1] >= 1:
        raise ValueError("reference formulas need a fully stable model")

    if mode == "m1":
        if m != 1:
            raise ValueError("mode 'm1' needs servers == 1")
        c = list(load)
    else:
        c = [erlang_c_direct(m, r) for r in load]
    if mode == "mmm":
        if any(x != b1[0] for x in b1):
            raise ValueError("mode 'mmm' needs one common service mean")
        b = b1[0]

    out = []
    for i in range(1, len(classes) + 1):
        li, ri, rp = lam[i - 1], load[i], load[i - 1]
        if mode == "approx":
            p = c[i - 1]
            if i == 1:
                u = Fraction(0)  # null event: the top class never waits
            else:
                u = moment_sum[i - 1] / (2 * m * m * rp * (1 - rp) * (1 - ri))
            g = ri / (cum[i] * (1 - ri))
            h = cum[i] * (c[i] - c[i - 1]) / li
            w = p * u + ri * (c[i] - c[i - 1]) / (li * (1 - ri))
            v = w + b1[i - 1]
        elif mode == "m1":
            p = rp
            if i == 1:
                u = Fraction(0)
                spill = Fraction(0)
            else:
                spill = moment_sum[i - 1] / (2 * (1 - rp) * (1 - ri))
                u = spill / rp
            g = ri / (cum[i] * (1 - ri))
            h = cum[i] * b1[i - 1]
            w = spill + ri * b1[i - 1] / (1 - ri)
            v = spill + b1[i - 1] / (1 - ri)
        else:
            p = c[i - 1]
            u = Fraction(0) if i == 1 else b / (m * (1 - rp) * (1 - ri))
            g = ri / (cum[i] * (1 - ri))
            h = cum[i] * (c[i] - c[i - 1]) / li
            w = c[i - 1] * b / (m * (1 - rp) * (1 - ri)) + ri * (c[i] - c[i - 1]) / (li * (1 - ri))
            v = w + b
        out.append({"p": p, "u": u, "h": h, "g": g, "w": w, "v": v})
    return out


def exp_moments(service_rate: Rational) -> tuple[Fraction, Fraction]:
    """(mean, second moment) of an exponential service law."""
    r = Fraction(service_rate)
    return (1 / r, 2 / r**2)


def kleinrock_preemptive_sojourns(classes) -> list[Fraction]:
    """Mean sojourn of each class on one server under preemptive-resume priority.

    Kleinrock's form, with ``s_i`` the load of classes 1..i:
    ``T_i = b_i / (1 - s_{i-1}) + sum_{j<=i} lambda_j E[S_j^2] / (2 (1 - s_{i-1}) (1 - s_i))``.
    It holds when a job is interrupted only by higher classes and each
    class is served in arrival order.  ``classes`` holds ``(rate, mean,
    second_moment)`` triples as in :func:`reference_metrics`, every
    prefix stable.
    """
    lam, b1, b2, _ = _prefixes(classes)
    out = []
    above = moment_sum = Fraction(0)
    for rate, mean, second in zip(lam, b1, b2):
        load = above + rate * mean
        moment_sum += rate * second
        if load >= 1:
            raise ValueError("the sojourn formula needs a fully stable model")
        out.append(mean / (1 - above) + moment_sum / (2 * (1 - above) * (1 - load)))
        above = load
    return out


def reference_per_class_raw(records, n_classes: int) -> dict[int, RawClassStats]:
    """Group any iterable of JobRecord by class and sum each group with ``math.fsum``."""
    by_class = {}
    for r in records:
        by_class.setdefault(r.class_index, []).append(r)
    out = {}
    for cls in range(1, n_classes + 1):
        jobs = by_class.get(cls)
        if not jobs:
            out[cls] = RawClassStats(count=0)
            continue
        n = len(jobs)
        v = math.fsum(r.completion_time - r.arrival_time for r in jobs) / n
        delays = [r.first_start_time - r.arrival_time for r in jobs if r.first_start_time > r.arrival_time]
        int_count = sum(r.preemption_count for r in jobs)
        int_sum = math.fsum(x for r in jobs for x in r.interruption_intervals)
        out[cls] = RawClassStats(
            count=n,
            p=len(delays) / n,
            u=math.fsum(delays) / len(delays) if delays else None,
            h=int_count / n,
            g=int_sum / int_count if int_count else None,
            w=(math.fsum(delays) + int_sum) / n,
            v=v,
            interruption_count=int_count,
        )
    return out


def reference_lifo_trace(servers: int, trace) -> dict[tuple[int, float], tuple[float, float, int]]:
    """(first start, completion, preemption count) of each job of a trace, keyed by (class, arrival).

    Under LIFO with equal-class preemption the jobs in service are always
    the ``servers`` best jobs in the system by ``(class, -arrival)``, so no
    victim or resume rule is needed: after every event this recomputes
    that set and charges a preemption to each job that left it unfinished.
    Completions at one instant go before its arrivals, and arrivals enter
    one at a time in trace order.  ``trace`` holds (time, class, service)
    triples in time order with distinct (class, time) pairs; exact results
    need exact arithmetic, such as multiples of a power of two.
    """
    remaining = [service for _, _, service in trace]
    first = [None] * len(trace)
    done = [None] * len(trace)
    preemptions = [0] * len(trace)
    present, serving = [], set()
    now, arrived = 0.0, 0
    while arrived < len(trace) or present:
        next_done = min((now + remaining[j] for j in serving), default=inf)
        next_arrival = trace[arrived][0] if arrived < len(trace) else inf
        t = min(next_done, next_arrival)
        for j in serving:
            remaining[j] -= t - now
        now = t
        finished = [j for j in serving if remaining[j] == 0]
        for j in finished:
            done[j] = now
            present.remove(j)
            serving.remove(j)
        if not finished:
            present.append(arrived)
            arrived += 1
        best = set(sorted(present, key=lambda j: (trace[j][1], -trace[j][0]))[:servers])
        for j in serving - best:
            preemptions[j] += 1
        for j in best - serving:
            if first[j] is None:
                first[j] = now
        serving = best
    return {(c, t): (first[j], done[j], preemptions[j]) for j, (t, c, _) in enumerate(trace)}


def reference_policy_trace(
    servers: int, trace, lifo: bool, equal_class_preemption: bool
) -> dict[tuple[int, float], tuple[float, float, int]]:
    """:func:`reference_policy_jobs`, keyed by each job's (class, arrival)."""
    jobs = reference_policy_jobs(servers, trace, lifo, equal_class_preemption)
    return {(c, t): job for (t, c, _), job in zip(trace, jobs)}


def reference_policy_jobs(
    servers: int, trace, lifo: bool, equal_class_preemption: bool
) -> list[tuple[float, float, int]]:
    """(first start, completion, preemption count) of each job of a trace, in trace order.

    An event-by-event simulator built from lists, sorts and scans.  An
    arrival takes a free server, or else displaces the in-service job of the
    largest class, the earliest arrived among equals, if that class is
    lower than its own (or equal, with ``equal_class_preemption``), or else
    waits.  Freed servers take the waiting jobs of the smallest class, the
    latest arrived first under ``lifo`` and the earliest otherwise.
    Completions at one instant go before its arrivals, and arrivals enter
    one at a time in trace order.  The same trace conditions as
    :func:`reference_lifo_trace` apply: distinct (class, time) pairs, so no
    tie needs a server index or a pool order, and exact arithmetic.  Jobs
    that share class, time and service may break the first condition where
    every tie falls between jobs in equal states, so that only which job is
    which is left open: then the outcomes agree as a multiset.
    """
    remaining = [service for _, _, service in trace]
    first = [None] * len(trace)
    done = [None] * len(trace)
    preemptions = [0] * len(trace)
    serving, waiting = [], []
    now, arrived = 0.0, 0

    def start(j):
        serving.append(j)
        if first[j] is None:
            first[j] = now

    while arrived < len(trace) or serving:
        next_done = min((now + remaining[j] for j in serving), default=inf)
        next_arrival = trace[arrived][0] if arrived < len(trace) else inf
        t = min(next_done, next_arrival)
        for j in serving:
            remaining[j] -= t - now
        now = t
        finished = [j for j in serving if remaining[j] == 0]
        if finished:
            for j in finished:
                done[j] = now
                serving.remove(j)
            waiting.sort(key=lambda j: (trace[j][1], -trace[j][0] if lifo else trace[j][0]))
            while waiting and len(serving) < servers:
                start(waiting.pop(0))
            continue
        j = arrived
        arrived += 1
        if len(serving) < servers:
            start(j)
            continue
        victim = max(serving, key=lambda k: (trace[k][1], -trace[k][0]))
        gap = trace[victim][1] - trace[j][1]
        if gap > 0 or (gap == 0 and equal_class_preemption):
            serving.remove(victim)
            preemptions[victim] += 1
            waiting.append(victim)
            start(j)
        else:
            waiting.append(j)
    return list(zip(first, done, preemptions))
