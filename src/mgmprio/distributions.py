"""Service-time distributions: exact first two moments plus reproducible sampling.

The closed-form side of the package only needs the mean and the second raw
moment of each class's service law; the simulator needs variates drawn from
the same law.  Both live here so they cannot drift apart.  The variant set
covers squared coefficients of variation below one (Deterministic, Erlang,
Uniform), equal to one (Exponential) and above one (HyperExponential).

Sampling is inverse-transform on uniforms pulled one at a time from a
RandomStream, so seeded runs reproduce bit-identical variate sequences.
Each law checks when built that its parameters and moments pass
:func:`require_finite`, the validity rule shared by all model and run inputs.
"""

import math
import re
from dataclasses import dataclass

_PROB_SUM_TOL = 1e-12


def require_finite(what: str, value, *, zero_ok: bool = False) -> None:
    """Raise ValueError unless ``value`` is finite and > 0 (>= 0 with ``zero_ok``)."""
    if not ((value >= 0 if zero_ok else value > 0) and value < math.inf):
        sign = "nonnegative" if zero_ok else "positive"
        raise ValueError(f"{what} must be {sign} and finite, got {value!r}")


def _quotient(num: float, den: float) -> float:
    # moments overflow to inf, also when a product of small rates underflows to 0
    return num / den if den else math.inf


class ServiceDistribution:
    """Base type for service laws; construct one of the concrete variants."""

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
        raise NotImplementedError

    def spec(self) -> str:
        """Textual form accepted by :func:`parse_distribution`."""
        raise NotImplementedError


def _exp_variate(rate: float, stream) -> float:
    # inverse transform; 1 - u lies in (0, 1] so the log stays finite
    return -math.log(1.0 - stream.uniform()) / rate


@dataclass(frozen=True)
class Exponential(ServiceDistribution):
    rate: float

    def __post_init__(self):
        require_finite("exponential rate", self.rate)
        self.check_moments()

    def mean(self) -> float:
        return 1.0 / self.rate

    def second_moment(self) -> float:
        return _quotient(2.0, self.rate * self.rate)

    def sample(self, stream) -> float:
        return _exp_variate(self.rate, stream)

    def spec(self) -> str:
        return f"exp({self.rate!r})"


@dataclass(frozen=True)
class Deterministic(ServiceDistribution):
    value: float

    def __post_init__(self):
        require_finite("deterministic value", self.value)
        self.check_moments()

    def mean(self) -> float:
        return self.value

    def second_moment(self) -> float:
        return self.value * self.value

    def sample(self, stream) -> float:
        # consumes no uniforms
        return self.value

    def spec(self) -> str:
        return f"det({self.value!r})"


@dataclass(frozen=True)
class Erlang(ServiceDistribution):
    """Sum of ``shape`` independent exponential stages of the given rate."""

    shape: int
    rate: float

    def __post_init__(self):
        if not (isinstance(self.shape, int) and self.shape >= 1):
            raise ValueError(f"erlang shape must be a positive integer, got {self.shape!r}")
        require_finite("erlang rate", self.rate)
        self.check_moments()

    def mean(self) -> float:
        return self.shape / self.rate

    def second_moment(self) -> float:
        return _quotient(self.shape * (self.shape + 1), self.rate * self.rate)

    def sample(self, stream) -> float:
        total = 0.0
        for _ in range(self.shape):
            total += _exp_variate(self.rate, stream)
        return total

    def spec(self) -> str:
        return f"erlang({self.shape},{self.rate!r})"


@dataclass(frozen=True)
class HyperExponential(ServiceDistribution):
    """Probabilistic mixture of exponentials: branches of (probability, rate)."""

    branches: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(tuple(b) for b in self.branches))
        if not self.branches:
            raise ValueError("hyperexponential needs at least one branch")
        for prob, rate in self.branches:
            if not 0 < prob <= 1:
                raise ValueError(f"branch probability must be in (0, 1], got {prob!r}")
            require_finite("branch rate", rate)
        total = math.fsum(p for p, _ in self.branches)
        if abs(total - 1.0) > _PROB_SUM_TOL:
            raise ValueError(f"branch probabilities sum to {total!r}, not 1")
        self.check_moments()

    def mean(self) -> float:
        return math.fsum(p / r for p, r in self.branches)

    def second_moment(self) -> float:
        return math.fsum(_quotient(p * 2.0, r * r) for p, r in self.branches)

    def sample(self, stream) -> float:
        u = stream.uniform()
        acc = 0.0
        rate = self.branches[-1][1]  # guards against acc < 1 from rounding
        for p, r in self.branches:
            acc += p
            if u < acc:
                rate = r
                break
        return _exp_variate(rate, stream)

    def spec(self) -> str:
        inner = ",".join(f"{p!r}:{r!r}" for p, r in self.branches)
        return f"hyperexp({inner})"


@dataclass(frozen=True)
class Uniform(ServiceDistribution):
    lo: float
    hi: float

    def __post_init__(self):
        require_finite("uniform lower bound", self.lo, zero_ok=True)
        require_finite("uniform upper bound", self.hi)
        if not self.lo < self.hi:
            raise ValueError(f"uniform bounds need lo < hi, got {self.lo!r}, {self.hi!r}")
        self.check_moments()

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def second_moment(self) -> float:
        return (self.lo * self.lo + self.lo * self.hi + self.hi * self.hi) / 3.0

    def sample(self, stream) -> float:
        return self.lo + (self.hi - self.lo) * stream.uniform()

    def spec(self) -> str:
        return f"uniform({self.lo!r},{self.hi!r})"


_SPEC_RE = re.compile(r"([a-z]+)\((.*)\)\Z")


def _parse_float(token: str, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"malformed {what} {token!r}") from None


def parse_distribution(text: str) -> ServiceDistribution:
    """Parse a distribution spec string.

    Accepted forms: ``exp(rate)``, ``det(value)``, ``erlang(shape,rate)``,
    ``hyperexp(p1:r1,p2:r2,...)``, ``uniform(lo,hi)``.  Raises ValueError
    on any malformed spec or out-of-domain parameter.
    """
    m = _SPEC_RE.match(text.strip())
    if m is None:
        raise ValueError(f"malformed distribution spec {text!r}")
    name, body = m.group(1), m.group(2)
    args = [a.strip() for a in body.split(",")] if body.strip() else []
    if name == "exp":
        if len(args) != 1:
            raise ValueError(f"exp() takes one argument, got {text!r}")
        return Exponential(_parse_float(args[0], "rate"))
    if name == "det":
        if len(args) != 1:
            raise ValueError(f"det() takes one argument, got {text!r}")
        return Deterministic(_parse_float(args[0], "value"))
    if name == "erlang":
        if len(args) != 2:
            raise ValueError(f"erlang() takes two arguments, got {text!r}")
        try:
            shape = int(args[0])
        except ValueError:
            raise ValueError(f"malformed erlang shape {args[0]!r}") from None
        return Erlang(shape, _parse_float(args[1], "rate"))
    if name == "hyperexp":
        branches = []
        for part in args:
            if ":" not in part:
                raise ValueError(f"malformed hyperexp branch {part!r}")
            p, r = part.split(":", 1)
            branches.append((_parse_float(p, "probability"), _parse_float(r, "rate")))
        return HyperExponential(tuple(branches))
    if name == "uniform":
        if len(args) != 2:
            raise ValueError(f"uniform() takes two arguments, got {text!r}")
        return Uniform(_parse_float(args[0], "lower bound"), _parse_float(args[1], "upper bound"))
    raise ValueError(f"unknown distribution {name!r}")
