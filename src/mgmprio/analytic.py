"""Closed-form per-class metrics for the preemptive-resume priority queue.

Three evaluation modes share one metric vocabulary:

* :func:`approx_metrics` - approximation valid for any service law and any
  number of servers,
* :func:`exact_single_channel` - exact result on one server,
* :func:`exact_mmm_identical` - exact result when every class is exponential
  with one common rate.

The six per-class quantities (classes ordered highest priority first):

=====  ==============================================================
``p``  probability that service does not start at the arrival instant
``u``  mean initial delay, given that it is positive
``h``  mean number of service interruptions (preemptions) per job
``g``  mean duration of a single interruption
``w``  mean total waiting time: initial delay plus all interruptions
``v``  mean sojourn time, ``w`` plus the mean service time
=====  ==============================================================

They are tied together by structural identities that hold in every mode:
``w = p*u + h*g`` and ``v = w + mean service``, from which every mode
builds ``w`` and ``v``.  The number of interruptions satisfies
``h = L_i * (c_i - c_{i-1}) / lambda_i`` where ``L_i`` is the arrival
rate of classes 1..i and ``c_j`` is the probability that the subsystem of
classes 1..j keeps all servers busy (``c_j`` is also class j+1's ``p``).
:func:`check_identities` reports that identity's residual.

Stability is by priority prefix: classes whose cumulative per-server load
reaches 1 are returned with the ``stable`` flag cleared and no values,
while every higher-priority class is unaffected (the discipline is
preemptive, so lower classes are invisible to higher ones).
"""

from __future__ import annotations

import numbers
from itertools import accumulate
from typing import TYPE_CHECKING

from .distributions import Exponential, _Frozen, _setattr
from .model import DomainError, SystemModel

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "METRIC_NAMES",
    "LoadProfile",
    "ClassMetrics",
    "IdentityResiduals",
    "erlang_c",
    "loads",
    "approx_metrics",
    "exact_single_channel",
    "exact_mmm_identical",
    "check_identities",
]

METRIC_NAMES = ("p", "u", "h", "g", "w", "v")

_RATE_MATCH_RTOL = 1e-12


def erlang_c(servers: int, load: float) -> float:
    """Probability that an arrival must wait in an M/M/c queue (Erlang C).

    ``load`` is the per-server utilization, so the offered traffic is
    ``a = servers * load``.  Evaluated through the loss-probability
    recurrence B(0) = 1, B(k) = a B(k-1) / (k + a B(k-1)), followed by
    C = B(servers) / (1 - load * (1 - B(servers))); the recurrence avoids
    the overflow-prone factorial sum.

    Raises DomainError unless ``servers`` is an integer (not a bool) at
    least 1 and ``0 <= load < 1``.
    """
    # numpy integers register as Integral; int comes first because the ABC
    # check costs about 0.7 us, on a path that runs once per class; a bool
    # is an int but no server count
    if isinstance(servers, bool) or not (isinstance(servers, (int, numbers.Integral)) and servers >= 1):
        raise DomainError(f"server count must be a positive integer, got {servers!r}")
    if not 0.0 <= load < 1.0:
        raise DomainError(f"per-server load must lie in [0, 1), got {load!r}")
    a = servers * load
    b = 1.0
    for k in range(1, servers + 1):
        ab = a * b
        b = ab / (k + ab)
    return b / (1.0 - load * (1.0 - b))


class LoadProfile(_Frozen):
    """Cumulative arrival rates and per-server loads by priority prefix.

    Both arrays have length ``N + 1``; index i covers classes 1..i and
    index 0 is the empty prefix (both entries zero).
    """

    __slots__ = ("cumulative_rate", "load")
    # arrays have no single truth value to compare by, so equality is identity
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, cumulative_rate: np.ndarray, load: np.ndarray):
        _setattr(self, "cumulative_rate", cumulative_rate)
        _setattr(self, "load", load)


def loads(model: SystemModel) -> LoadProfile:
    """Cumulative rates ``sum(lambda_j)`` and loads ``sum(lambda_j b_j) / m``."""
    import numpy as np  # only this function needs numpy; the closed forms never do

    load, cum_rate, _, _ = _components(model)
    return LoadProfile(cumulative_rate=np.array(cum_rate), load=np.array(load))


class ClassMetrics(_Frozen):
    """The six metrics for one class; all None when the class is unstable."""

    __slots__ = ("p", "u", "h", "g", "w", "v", "stable")

    def __init__(self, p: float | None, u: float | None, h: float | None, g: float | None,
                 w: float | None, v: float | None, stable: bool):
        _setattr(self, "p", p)
        _setattr(self, "u", u)
        _setattr(self, "h", h)
        _setattr(self, "g", g)
        _setattr(self, "w", w)
        _setattr(self, "v", v)
        _setattr(self, "stable", stable)

    @classmethod
    def unstable(cls) -> "ClassMetrics":
        return cls(p=None, u=None, h=None, g=None, w=None, v=None, stable=False)


def _components(model: SystemModel):
    """Shared per-class inputs: loads, cumulative rates, moments, prefix sums."""
    work = accumulate((c.arrival_rate * c.service.mean() for c in model.classes), initial=0.0)
    load = [x / model.servers for x in work]
    cum_rate = list(accumulate((c.arrival_rate for c in model.classes), initial=0.0))
    b1 = [c.service.mean() for c in model.classes]
    b2 = [c.service.second_moment() for c in model.classes]
    # prefix[i] = sum over classes 1..i of lambda_j * second moment_j
    prefix = [0.0]
    for c, m2 in zip(model.classes, b2):
        prefix.append(prefix[-1] + c.arrival_rate * m2)
    return load, cum_rate, b1, prefix


def _delay_probabilities(servers: int, load: list[float]) -> list[float | None]:
    """Erlang C of each stable priority prefix; None once the load hits 1."""
    return [erlang_c(servers, r) if r < 1.0 else None for r in load]


def _assemble(p, u, h, g, b_i):
    # building w from the identity keeps the residuals at machine zero
    w = p * u + h * g
    return ClassMetrics(p=p, u=u, h=h, g=g, w=w, v=w + b_i, stable=True)


def approx_metrics(model: SystemModel) -> list[ClassMetrics]:
    """Approximate metrics for every class under any service law.

    The blocking probability seen by class i is approximated by the Erlang C
    value of the classes-above-it subsystem, and the conditional initial
    delay by the delay of an M/G/m queue fed with that subsystem's work.
    The approximation collapses to the exact results of
    :func:`exact_single_channel` when ``servers == 1`` and of
    :func:`exact_mmm_identical` when all classes share one exponential law.
    """
    load, cum_rate, b1, prefix = _components(model)
    m = model.servers
    c = _delay_probabilities(m, load)
    out = []
    for i in range(1, len(model.classes) + 1):
        if c[i] is None:
            out.append(ClassMetrics.unstable())
            continue
        lam_i = model.classes[i - 1].arrival_rate
        p = c[i - 1]
        if i == 1:
            # no class outranks the first, so it never waits (p = 0) and its
            # conditional delay is a null event; reported as 0 in every mode
            u = 0.0
        else:
            u = prefix[i - 1] / (2.0 * m * m * load[i - 1] * (1.0 - load[i - 1]) * (1.0 - load[i]))
        g = load[i] / (cum_rate[i] * (1.0 - load[i]))
        h = cum_rate[i] * (c[i] - c[i - 1]) / lam_i
        out.append(_assemble(p, u, h, g, b1[i - 1]))
    return out


def exact_single_channel(model: SystemModel) -> list[ClassMetrics]:
    """Exact metrics on one server for arbitrary service laws.

    On a single channel the blocking probability of class i is exactly the
    load of classes 1..i-1, the conditional initial delay is the normalized
    residual work of those classes, and each job is interrupted once per
    same-or-higher-priority arrival during its service.

    Raises DomainError unless ``model.servers == 1``.
    """
    if model.servers != 1:
        raise DomainError(f"single-channel formulas need servers == 1, got {model.servers}")
    load, cum_rate, b1, prefix = _components(model)
    out = []
    for i in range(1, len(model.classes) + 1):
        if load[i] >= 1.0:
            out.append(ClassMetrics.unstable())
            continue
        p = load[i - 1]
        if i == 1:
            u = 0.0
        else:
            u = prefix[i - 1] / (2.0 * load[i - 1] * (1.0 - load[i - 1]) * (1.0 - load[i]))
        g = load[i] / (cum_rate[i] * (1.0 - load[i]))
        h = cum_rate[i] * b1[i - 1]
        out.append(_assemble(p, u, h, g, b1[i - 1]))
    return out


def exact_mmm_identical(model: SystemModel) -> list[ClassMetrics]:
    """Exact metrics when every class is exponential with one common rate.

    Raises DomainError if any class is not exponential or the rates differ
    by more than a relative 1e-12.
    """
    first = model.classes[0].service
    for c in model.classes:
        if not isinstance(c.service, Exponential):
            raise DomainError("identical-exponential formulas need exponential service in every class")
        if abs(c.service.rate - first.rate) > _RATE_MATCH_RTOL * abs(first.rate):
            raise DomainError(
                f"identical-exponential formulas need one common rate, got {c.service.rate!r} vs {first.rate!r}"
            )
    b = first.mean()
    load, cum_rate, _, _ = _components(model)
    m = model.servers
    c = _delay_probabilities(m, load)
    out = []
    for i in range(1, len(model.classes) + 1):
        if c[i] is None:
            out.append(ClassMetrics.unstable())
            continue
        lam_i = model.classes[i - 1].arrival_rate
        p = c[i - 1]
        # i == 1 follows the same null-event convention as the other modes
        u = 0.0 if i == 1 else b / (m * (1.0 - load[i - 1]) * (1.0 - load[i]))
        g = load[i] / (cum_rate[i] * (1.0 - load[i]))
        h = cum_rate[i] * (c[i] - c[i - 1]) / lam_i
        out.append(_assemble(p, u, h, g, b))
    return out


class IdentityResiduals(_Frozen):
    """Residual of the preemption identity for one stable class."""

    __slots__ = ("preemptions",)  # h - L_i * (c_i - c_{i-1}) / lambda_i

    def __init__(self, preemptions: float):
        _setattr(self, "preemptions", preemptions)


def check_identities(
    metrics: list[ClassMetrics], model: SystemModel
) -> list[IdentityResiduals | None]:
    """Residuals of the preemption identity, one entry per class.

    ``c_j`` in the identity is the all-servers-busy probability of the
    classes-1..j subsystem as each mode defines it: the prefix load itself
    on a single channel, the Erlang C value otherwise.  Unstable classes
    yield None.  The identities for ``w`` and ``v`` have no residual here:
    every mode builds ``w`` and ``v`` from them (``_assemble``).
    """
    load, cum_rate, _, _ = _components(model)
    if model.servers == 1:
        c = [r if r < 1.0 else None for r in load]
    else:
        c = _delay_probabilities(model.servers, load)
    out = []
    for i, mtr in enumerate(metrics, start=1):
        if not mtr.stable:
            out.append(None)
            continue
        lam_i = model.classes[i - 1].arrival_rate
        out.append(IdentityResiduals(mtr.h - cum_rate[i] * (c[i] - c[i - 1]) / lam_i))
    return out
