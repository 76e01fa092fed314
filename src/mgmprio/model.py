"""System description shared by the formula and simulation sides."""

from dataclasses import dataclass

from .distributions import ServiceDistribution, require_finite

# erlang_c loops once per server for every class, and the simulator keeps a
# list entry per server: far larger counts hang the one and overflow the other
_MAX_SERVERS = 10_000


class DomainError(ValueError):
    """An operation's mathematical preconditions do not hold."""


@dataclass(frozen=True)
class ClassSpec:
    """One priority class: Poisson arrival rate plus its service-time law."""

    arrival_rate: float
    service: ServiceDistribution

    def __post_init__(self):
        require_finite("arrival rate", self.arrival_rate)
        self.service.check_moments()


@dataclass(frozen=True)
class SystemModel:
    """Identical parallel servers and priority classes, highest priority first.

    Class indices are 1-based throughout the package: class 1 preempts
    everything below it, class ``len(classes)`` yields to everything above.
    """

    servers: int
    classes: tuple[ClassSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        if not (isinstance(self.servers, int) and 1 <= self.servers <= _MAX_SERVERS):
            raise ValueError(f"server count must be an integer from 1 to {_MAX_SERVERS}, got {self.servers!r}")
        if not self.classes:
            raise ValueError("a model needs at least one class")
