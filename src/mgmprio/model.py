"""System description shared by the formula and simulation sides."""

from .distributions import ServiceDistribution, _Frozen, _setattr, require_count, require_finite

__all__ = ["ClassSpec", "DomainError", "SystemModel"]

# erlang_c loops once per server for every class, and the simulator keeps a
# list entry per server: far larger counts hang the one and overflow the other
_MAX_SERVERS = 10_000


class DomainError(ValueError):
    """An operation's mathematical preconditions do not hold."""


class _ClassError(ValueError):
    """A model input that class ``index`` (1-based) gets wrong, so a scenario can name its line."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(f"class {index} {message}")


class ClassSpec(_Frozen):
    """One priority class: Poisson arrival rate plus its service-time law."""

    __slots__ = ("arrival_rate", "service")

    def __init__(self, arrival_rate: float, service: ServiceDistribution):
        _setattr(self, "arrival_rate", arrival_rate)
        _setattr(self, "service", service)
        require_finite("arrival rate", arrival_rate)
        service.check_moments()


class SystemModel(_Frozen):
    """Identical parallel servers and priority classes, highest priority first.

    Class indices are 1-based throughout the package: class 1 preempts
    everything below it, class ``len(classes)`` yields to everything above.
    """

    __slots__ = ("servers", "classes")

    def __init__(self, servers: int, classes: tuple[ClassSpec, ...]):
        _setattr(self, "servers", servers)
        _setattr(self, "classes", tuple(classes))
        require_count("server count", servers, 1, _MAX_SERVERS)
        if not self.classes:
            raise ValueError("a model needs at least one class")
        for k, spec in enumerate(self.classes, start=1):
            # the closed forms divide by the load of the classes above a class,
            # which a subnormal arrival rate rounds to 0
            if not spec.arrival_rate * spec.service.mean() / servers > 0:
                raise _ClassError(k, "load per server underflows to 0")
