"""Moment exactness, sampling convergence and parsing for every service law."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mgmprio import (
    ClassSpec,
    Deterministic,
    Erlang,
    Exponential,
    HyperExponential,
    ServiceDistribution,
    SystemModel,
    Uniform,
    parse_distribution,
    substreams,
)

VARIANTS = [
    Exponential(5.0),
    Exponential(0.4),
    Deterministic(0.5),
    Erlang(2, 4.0),
    Erlang(7, 2.5),
    HyperExponential(((0.5, 1.0), (0.5, 2.0))),
    HyperExponential(((0.1, 0.5), (0.3, 2.0), (0.6, 8.0))),
    Uniform(0.0, 1.0),
    Uniform(0.25, 4.0),
]


def draw(dist, seed, n):
    # one block; test_block_equals_repeated_single_draws ties it to n single draws
    return dist.sample_block(substreams(seed, 1)[0], n)


def test_exponential_moments():
    d = Exponential(5)
    assert d.mean() == pytest.approx(0.2, abs=1e-15)
    assert d.second_moment() == pytest.approx(0.08, abs=1e-15)


def test_deterministic_moments():
    d = Deterministic(0.5)
    assert d.mean() == 0.5
    assert d.second_moment() == 0.25


def test_erlang_moments():
    d = Erlang(2, 4)
    assert d.mean() == pytest.approx(0.5, abs=1e-15)
    assert d.second_moment() == pytest.approx(0.375, abs=1e-15)


def test_hyperexponential_moments():
    d = HyperExponential(((0.5, 1.0), (0.5, 2.0)))
    assert d.mean() == pytest.approx(0.75, abs=1e-15)
    assert d.second_moment() == pytest.approx(1.25, abs=1e-15)


def test_uniform_moments():
    d = Uniform(1.0, 2.0)
    assert d.mean() == pytest.approx(1.5, abs=1e-15)
    assert d.second_moment() == pytest.approx(7.0 / 3.0, rel=1e-15)


@pytest.mark.parametrize("dist", VARIANTS, ids=lambda d: d.spec())
def test_second_moment_dominates_squared_mean(dist):
    assert dist.second_moment() >= dist.mean() ** 2


def test_exponential_sample_mean_million():
    samples = draw(Exponential(5), seed=2024, n=1_000_000)
    assert abs(samples.mean() - 0.2) <= 0.002


def test_erlang_sample_second_moment_million():
    samples = draw(Erlang(2, 4), seed=2025, n=1_000_000)
    m2 = float(np.mean(samples * samples))
    assert abs(m2 - 0.375) <= 0.01 * 0.375


@pytest.mark.parametrize("dist", VARIANTS, ids=lambda d: d.spec())
def test_moments_converge_within_three_standard_errors(dist):
    n = 1_000_000
    samples = draw(dist, seed=90210, n=n)
    squares = samples * samples
    se_mean = samples.std(ddof=1) / math.sqrt(n)
    se_m2 = squares.std(ddof=1) / math.sqrt(n)
    assert abs(samples.mean() - dist.mean()) <= 3.0 * se_mean + 1e-15
    assert abs(squares.mean() - dist.second_moment()) <= 3.0 * se_m2 + 1e-15


def test_deterministic_sample_is_exact_any_seed():
    for seed in (0, 1, 12345):
        stream = substreams(seed, 1)[0]
        assert Deterministic(0.5).sample(stream) == 0.5


def test_deterministic_consumes_no_uniforms():
    a, b = substreams(7, 2)[0], substreams(7, 2)[0]
    d = Deterministic(2.5)
    for _ in range(3):
        d.sample(a)
    assert a.uniform() == b.uniform()


@pytest.mark.parametrize("dist", VARIANTS, ids=lambda d: d.spec())
def test_identical_seed_identical_sequence(dist):
    first = [dist.sample(s) for s in [substreams(99, 1)[0]] for _ in range(1000)]
    second = [dist.sample(s) for s in [substreams(99, 1)[0]] for _ in range(1000)]
    assert first == second


def test_substreams_are_mutually_distinct():
    streams = substreams(4, 3)
    seqs = [[s.uniform() for _ in range(64)] for s in streams]
    assert seqs[0] != seqs[1] and seqs[0] != seqs[2] and seqs[1] != seqs[2]


def test_stream_follows_documented_derivation():
    # sub-stream k of seed s is PCG64 seeded with child k of SeedSequence(s),
    # read in one sequence however single uniform() and block random(k) reads are mixed
    child = np.random.SeedSequence(42).spawn(3)[1]
    expected = np.random.Generator(np.random.PCG64(child)).random(10_000)
    stream = substreams(42, 3)[1]
    got = [stream.uniform() for _ in range(5000)]
    for k in (1, 0, 7, 1024, 3, 2000):
        got.append(stream.uniform())
        got.extend(stream.random(k).tolist())
    got.extend(stream.uniform() for _ in range(10_000 - len(got)))
    assert got == expected.tolist()


class _Pareto(ServiceDistribution):
    """A law defined outside the package that overrides ``sample`` alone."""

    shape = 3.0

    def mean(self):
        return self.shape / (self.shape - 1.0)

    def second_moment(self):
        return self.shape / (self.shape - 2.0)

    def sample(self, stream):
        return (1.0 - stream.uniform()) ** (-1.0 / self.shape)

    def spec(self):
        return "pareto(3)"


@pytest.mark.parametrize("n", [1, 5, 1500])
@pytest.mark.parametrize("dist", [*VARIANTS, _Pareto()], ids=lambda d: d.spec())
def test_block_equals_repeated_single_draws(dist, n):
    a, b = substreams(17, 1)[0], substreams(17, 1)[0]
    block = dist.sample_block(a, n)
    assert block.dtype == np.float64 and block.shape == (n,)
    assert block.tolist() == [dist.sample(b) for _ in range(n)]
    # both streams consumed the same uniforms
    assert a.uniform() == b.uniform()


class _InfiniteSecondMoment(ServiceDistribution):
    """A law defined outside the package, such as a Pareto of shape 2."""

    def mean(self):
        return 2.0

    def second_moment(self):
        return math.inf

    def spec(self):
        return "pareto(2)"


def test_law_defining_no_sampling_path_refuses_to_sample():
    with pytest.raises(NotImplementedError):
        _InfiniteSecondMoment().sample(substreams(1, 1)[0])


@pytest.mark.parametrize(
    "build",
    [
        lambda: Exponential(0.0),
        lambda: Exponential(-1.0),
        lambda: Deterministic(0.0),
        lambda: Deterministic(-0.5),
        lambda: Erlang(0, 1.0),
        lambda: Erlang(2, 0.0),
        lambda: HyperExponential(()),
        lambda: HyperExponential(((0.5, 1.0),)),
        lambda: HyperExponential(((1.2, 1.0),)),
        lambda: HyperExponential(((0.5, 1.0), (0.5, -2.0))),
        lambda: Uniform(1.0, 1.0),
        lambda: Uniform(-0.5, 1.0),
        lambda: Uniform(2.0, 1.0),
        lambda: Exponential(math.inf),
        lambda: Exponential(math.nan),
        lambda: Exponential(1e-300),  # second moment overflows
        lambda: Deterministic(math.inf),
        lambda: Uniform(0.0, math.inf),
        lambda: HyperExponential(((1.0, math.inf),)),
        lambda: ClassSpec(1.0, _InfiniteSecondMoment()),
        lambda: Erlang(100_000_000, 1e8),  # each variate would draw 10^8 uniforms
        # bool is an int, but a count of True renders as text no parser reads back
        lambda: Erlang(True, 2.0),
        lambda: SystemModel(True, (ClassSpec(1.0, Exponential(1.0)),)),
        lambda: SystemModel(2, (ClassSpec(1.0, Erlang(True, 2.0)),)),
        lambda: SystemModel(1, []),
        # an int past the largest double is not finite as a double, though it compares < inf
        lambda: Exponential(2**1024),
        lambda: Uniform(0, 2**1024),
        lambda: HyperExponential(((1.0, 2**1024),)),
        lambda: Deterministic(2**1024),
        lambda: Deterministic(10**300),  # its second moment, 10**600, fits no double
        lambda: ClassSpec(2**1024, Exponential(1.0)),
        # a real that is neither an int nor a float renders as a spec no parser reads back
        lambda: Exponential(True),
        lambda: Uniform(0, True),
        lambda: Deterministic(Fraction(1, 3)),
        lambda: ClassSpec(True, Exponential(1.0)),
        lambda: HyperExponential(((True, 2.0),)),
        lambda: HyperExponential(((Fraction(1, 2), 1.0), (0.5, 2.0))),
    ],
)
def test_invalid_parameters_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_erlang_shape_must_be_integer():
    with pytest.raises(ValueError):
        Erlang(1.5, 1.0)


@pytest.mark.parametrize("dist", [
    *VARIANTS,
    Uniform(0, 2),
    HyperExponential(((1, 2.0),)),
    # a float subclass renders as the plain float it equals, not as np.float64(...)
    Exponential(np.float64(2.0)),
    Erlang(3, np.float64(1.5)),
    HyperExponential(((np.float64(0.25), np.float64(1.0)), (0.75, 2.0))),
    Uniform(np.float64(-0.0), np.float64(0.1)),
], ids=lambda d: d.spec())
def test_spec_string_round_trips(dist):
    assert parse_distribution(dist.spec()) == dist


def test_every_package_law_parses_by_its_spec_name():
    # a law exported without an entry in the parser's table, or without an
    # instance here, fails
    import mgmprio.distributions as module

    laws = {law for law in map(module.__dict__.get, module.__all__)
            if isinstance(law, type) and issubclass(law, ServiceDistribution) and law is not ServiceDistribution}
    assert laws == {type(dist) for dist in VARIANTS}
    for dist in VARIANTS:
        assert parse_distribution(dist.spec()) == dist
        name = dist.spec().partition("(")[0]
        if type(dist) is not HyperExponential:
            n = len(type(dist).__slots__)
            with pytest.raises(ValueError, match=rf"^{name}\(\) takes {n} argument"):
                parse_distribution(f"{name}({','.join(['1'] * (n + 1))})")


def test_parse_accepts_interior_whitespace():
    assert parse_distribution(" exp( 2.5 ) ") == Exponential(2.5)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "exp",
        "exp()",
        "exp(1,2)",
        "exp(fast)",
        "gauss(1)",
        "det(-2)",
        "erlang(2)",
        "erlang(x,1)",
        "erlang(2,0)",
        "hyperexp(0.5:1.0)",
        "hyperexp(0.5;1.0)",
        "uniform(2,1)",
        "uniform(1)",
        "exp(inf)",
        "exp(nan)",
        "exp(1e-300)",
        "det(inf)",
        "uniform(0,inf)",
        "hyperexp(1:inf)",
        "erlang(100000000,1e8)",
    ],
)
def test_parse_rejects_malformed_specs(text):
    with pytest.raises(ValueError):
        parse_distribution(text)
