"""Service-time distributions: exact first two moments plus reproducible sampling.

The closed-form side of the package only needs the mean and the second raw
moment of each class's service law; the simulator needs variates drawn from
the same law.  Both live here so they cannot drift apart.  The variant set
covers squared coefficients of variation below one (Deterministic, Erlang,
Uniform), equal to one (Exponential) and above one (HyperExponential).

Sampling is inverse-transform on uniforms read in blocks from a stream, a
numpy ``Generator``, with ``stream.random(n)``.  Each law has one sampling
path, ``sample_block``; ``sample`` is a block of one, and a block of ``n``
consumes the stream exactly as ``n`` single draws would and gives the same
bits, so seeded runs reproduce bit-identical variate sequences however the
draws are split into blocks.
Each law declares its text form once, in ``_spec``: the spec name, then the
type that parses each field in ``__slots__`` order.  ``spec()`` and
:func:`parse_distribution` both read it, so a new law needs only its class,
named in ``_LAWS`` beside ``__all__``.  HyperExponential's ``p:r`` list is
rendered by its ``spec()``, parsed by a branch of :func:`parse_distribution`.
Each law checks when built that its parameters and moments pass
:func:`require_finite`, the validity rule shared by all model and run inputs
(:func:`require_count` is its rule for counts).
numpy is imported inside the sampling functions only, so building laws and
reading their moments, all the closed-form side does, never loads it.  The
laws, like the other value types of the closed-form side, are immutable
slotted :class:`_Frozen` classes rather than dataclasses, whose import and
generated methods would cost that side most of its import time.
"""

import math
import sys
from itertools import accumulate

# true for type checkers only, without loading ``typing``
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ServiceDistribution",
    "Exponential",
    "Deterministic",
    "Erlang",
    "HyperExponential",
    "Uniform",
    "parse_distribution",
]

_PROB_SUM_TOL = 1e-12
# each Erlang variate costs ``shape`` uniforms; the squared coefficient of
# variation is 1/shape, so at this cap it is already <= 0.001, and det()
# covers the limit
_MAX_ERLANG_SHAPE = 1000


def require_finite(what: str, value, *, zero_ok: bool = False) -> None:
    """Raise ValueError unless ``value`` is > 0 (>= 0 with ``zero_ok``) and at most the largest double.

    ``value`` must be an int or a float, not a bool: any other real, such as
    ``True`` or ``Fraction(1, 3)``, would render as a spec no parser reads back.
    """
    if not (isinstance(value, (int, float)) and not isinstance(value, bool)
            and (value >= 0 if zero_ok else value > 0) and value <= sys.float_info.max):
        sign = "nonnegative" if zero_ok else "positive"
        raise ValueError(f"{what} must be {sign} and finite, got {value!r}")


def _real_text(value) -> str:
    """A checked real's text: the ``repr`` of the plain int or float it equals, never ``np.float64(2.0)``."""
    return float.__repr__(value) if isinstance(value, float) else int.__repr__(value)


def require_count(what: str, value, low: int, high: int | None = None) -> None:
    """Raise ValueError unless ``value`` is an int, not a bool, from ``low`` to ``high`` (no cap if None)."""
    # bool is an int, but True would render as a count no parser reads back
    if not (isinstance(value, int) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high)):
        bounds = f"at least {low}" if high is None else f"from {low} to {high}"
        raise ValueError(f"{what} must be an integer {bounds}, got {value!r}")


# writes a field past _Frozen's refusing __setattr__; a global is cheaper
# to reach than the attribute, on the path that builds every metric
_setattr = object.__setattr__


class _Frozen:
    """Immutable slotted value type: the frozen-dataclass behaviour, built without ``dataclasses``.

    A subclass lists its fields in ``__slots__`` and writes each one in its
    ``__init__`` with ``_setattr``, then checks them.  Instances refuse
    assignment and deletion, compare equal when of the same class with equal
    field tuples, hash by that tuple, print as ``Name(field=value, ...)``,
    and pickle and copy by calling the constructor again.

    Only the closed-form side (laws, model, metrics, scenario) uses it,
    because ``dataclasses``, the ``inspect`` it loads and the methods it
    generates were most of ``import mgmprio``.  The simulation and
    replication types stay dataclasses: callers use ``dataclasses.replace``
    and ``fields`` on them, and that side loads numpy, which costs far more.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


def _quotient(num: float, den: float) -> float:
    # moments overflow to inf, also when a product of small rates underflows to 0
    return num / den if den else math.inf


class ServiceDistribution:
    """Base type for service laws; construct one of the concrete variants."""

    # empty, so that the slotted variants carry no instance dict
    __slots__ = ()
    _spec: tuple = ()

    def check_moments(self) -> None:
        """Raise ValueError unless the mean and second moment are finite and positive."""
        name = type(self).__name__
        require_finite(f"mean of {name}", self.mean())
        require_finite(f"second moment of {name}", self.second_moment())

    def mean(self) -> float:
        raise NotImplementedError

    def second_moment(self) -> float:
        raise NotImplementedError

    def sample(self, stream) -> float:
        """Draw one variate, consuming uniforms from ``stream``."""
        return float(self.sample_block(stream, 1)[0])

    def sample_block(self, stream, n: int) -> "np.ndarray":
        """Draw ``n`` variates as a float64 array, as ``n`` calls of :meth:`sample` would.

        The package's laws override this; a law defined elsewhere may
        override :meth:`sample` alone and inherit this loop over it.
        """
        import numpy as np

        if type(self).sample is ServiceDistribution.sample:
            raise NotImplementedError(f"{type(self).__name__} defines neither sample nor sample_block")
        return np.array([self.sample(stream) for _ in range(n)], dtype=np.float64)

    def spec(self) -> str:
        """Text accepted by :func:`parse_distribution`: the ``_spec`` name, then each field as a plain int or float."""
        if not self._spec:
            raise NotImplementedError
        fields = ",".join(_real_text(getattr(self, name)) for name in self.__slots__)
        return f"{self._spec[0]}({fields})"


def _exponentials(uniforms: "np.ndarray", rate) -> "np.ndarray":
    """Exponential variates of ``rate`` (a number or an array) by inverse transform."""
    import numpy as np

    # 1 - u lies in (0, 1] so the log stays finite
    return np.log(1.0 - uniforms) / -rate


class Exponential(_Frozen, ServiceDistribution):
    __slots__ = ("rate",)
    _spec = ("exp", float)

    def __init__(self, rate: float):
        _setattr(self, "rate", rate)
        require_finite("exponential rate", rate)
        self.check_moments()

    def mean(self) -> float:
        return 1.0 / self.rate

    def second_moment(self) -> float:
        return _quotient(2.0, self.rate * self.rate)

    def sample_block(self, stream, n: int) -> "np.ndarray":
        return _exponentials(stream.random(n), self.rate)


class Deterministic(_Frozen, ServiceDistribution):
    __slots__ = ("value",)
    _spec = ("det", float)

    def __init__(self, value: float):
        _setattr(self, "value", value)
        require_finite("deterministic value", value)
        self.check_moments()

    def mean(self) -> float:
        return self.value

    def second_moment(self) -> float:
        return self.value * self.value

    def sample_block(self, stream, n: int) -> "np.ndarray":
        import numpy as np

        # consumes no uniforms
        return np.full(n, self.value)


class Erlang(_Frozen, ServiceDistribution):
    """Sum of ``shape`` independent exponential stages of the given rate."""

    __slots__ = ("shape", "rate")
    _spec = ("erlang", int, float)

    def __init__(self, shape: int, rate: float):
        _setattr(self, "shape", shape)
        _setattr(self, "rate", rate)
        require_count("erlang shape", shape, 1, _MAX_ERLANG_SHAPE)
        require_finite("erlang rate", rate)
        self.check_moments()

    def mean(self) -> float:
        return self.shape / self.rate

    def second_moment(self) -> float:
        return _quotient(self.shape * (self.shape + 1), self.rate * self.rate)

    def sample_block(self, stream, n: int) -> "np.ndarray":
        import numpy as np

        # row j holds variate j's stages; summing column by column from zero
        # adds each variate's stages in draw order
        stages = _exponentials(stream.random(n * self.shape).reshape(n, self.shape), self.rate)
        total = np.zeros(n)
        for column in stages.T:
            total += column
        return total


class HyperExponential(_Frozen, ServiceDistribution):
    """Probabilistic mixture of exponentials: branches of (probability, rate)."""

    __slots__ = ("branches",)
    _spec = ("hyperexp",)

    def __init__(self, branches: tuple[tuple[float, float], ...]):
        _setattr(self, "branches", tuple(tuple(b) for b in branches))
        if not self.branches:
            raise ValueError("hyperexponential needs at least one branch")
        for prob, rate in self.branches:
            require_finite("branch probability", prob)
            if prob > 1:
                raise ValueError(f"branch probability must be at most 1, got {prob!r}")
            require_finite("branch rate", rate)
        total = math.fsum(p for p, _ in self.branches)
        if abs(total - 1.0) > _PROB_SUM_TOL:
            raise ValueError(f"branch probabilities sum to {total!r}, not 1")
        self.check_moments()

    def mean(self) -> float:
        return math.fsum(p / r for p, r in self.branches)

    def second_moment(self) -> float:
        return math.fsum(_quotient(p * 2.0, r * r) for p, r in self.branches)

    def sample_block(self, stream, n: int) -> "np.ndarray":
        import numpy as np

        # each variate takes a branch uniform, then its exponential's uniform
        u = stream.random(2 * n).reshape(n, 2)
        bounds = list(accumulate(p for p, _ in self.branches))
        # the first branch whose running probability exceeds u; the last
        # one when rounding leaves the total below u
        branch = np.minimum(np.searchsorted(bounds, u[:, 0], side="right"), len(self.branches) - 1)
        rates = np.array([r for _, r in self.branches])[branch]
        return _exponentials(u[:, 1], rates)

    def spec(self) -> str:
        inner = ",".join(f"{_real_text(p)}:{_real_text(r)}" for p, r in self.branches)
        return f"hyperexp({inner})"


class Uniform(_Frozen, ServiceDistribution):
    __slots__ = ("lo", "hi")
    _spec = ("uniform", float, float)

    def __init__(self, lo: float, hi: float):
        _setattr(self, "lo", lo)
        _setattr(self, "hi", hi)
        require_finite("uniform lower bound", lo, zero_ok=True)
        require_finite("uniform upper bound", hi)
        if not lo < hi:
            raise ValueError(f"uniform bounds need lo < hi, got {lo!r}, {hi!r}")
        self.check_moments()

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def second_moment(self) -> float:
        return (self.lo * self.lo + self.lo * self.hi + self.hi * self.hi) / 3.0

    def sample_block(self, stream, n: int) -> "np.ndarray":
        return self.lo + (self.hi - self.lo) * stream.random(n)


def _number(kind: type, token: str, what: str):
    """``kind(token)``, or a ValueError naming ``what`` when ``token`` is no such number."""
    try:
        return kind(token)
    except ValueError:
        raise ValueError(f"malformed {what} {token!r}") from None


_LAWS = {law._spec[0]: law for law in (Exponential, Deterministic, Erlang, HyperExponential, Uniform)}


def parse_distribution(text: str) -> ServiceDistribution:
    """Parse a distribution spec string.

    Accepted forms: ``exp(rate)``, ``det(value)``, ``erlang(shape,rate)``,
    ``hyperexp(p1:r1,p2:r2,...)``, ``uniform(lo,hi)``.  Raises ValueError
    on any malformed spec or out-of-domain parameter.
    """
    # an ASCII lower-case name, then a body in parentheses on one line
    name, paren, rest = text.strip().partition("(")
    if not (paren and name.isascii() and name.isalpha() and name.islower()
            and rest.endswith(")") and "\n" not in rest):
        raise ValueError(f"malformed distribution spec {text!r}")
    body = rest[:-1]
    args = [a.strip() for a in body.split(",")] if body.strip() else []
    law = _LAWS.get(name)
    if law is None:
        raise ValueError(f"unknown distribution {name!r}")
    if law is HyperExponential:
        branches = []
        for part in args:
            if ":" not in part:
                raise ValueError(f"malformed hyperexp branch {part!r}")
            p, r = part.split(":", 1)
            branches.append((_number(float, p, "probability"), _number(float, r, "rate")))
        return HyperExponential(tuple(branches))
    n = len(law.__slots__)
    if len(args) != n:
        raise ValueError(f"{name}() takes {n} argument{'s' * (n > 1)}, got {text!r}")
    return law(*(_number(kind, token, f"{name} {field}")
                 for kind, token, field in zip(law._spec[1:], args, law.__slots__)))
