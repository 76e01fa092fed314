"""Value semantics of the closed-form side's immutable types.

The laws, the model, the metrics and the scenario are compared, hashed,
printed, pickled and copied by their fields; these tests pin that contract
independently of how the types are built.
"""

import copy
import pickle
from pathlib import Path

import pytest

from mgmprio import (
    ClassMetrics,
    ClassSpec,
    Deterministic,
    Erlang,
    Exponential,
    HyperExponential,
    IdentityResiduals,
    Scenario,
    SystemModel,
    Uniform,
    approx_metrics,
    loads,
    parse_scenario,
)

PAPER_S4_CFG = Path(__file__).resolve().parent.parent / "scenarios" / "paper_s4.cfg"


def _s4():
    return parse_scenario(PAPER_S4_CFG.read_text())


# (build, field names in declaration order, pinned repr); each build returns
# a fresh instance, so two calls give equal values that are distinct objects
VALUES = [
    (lambda: Exponential(2.0), ("rate",), "Exponential(rate=2.0)"),
    (lambda: Deterministic(1.5), ("value",), "Deterministic(value=1.5)"),
    (lambda: Erlang(3, 2.0), ("shape", "rate"), "Erlang(shape=3, rate=2.0)"),
    (lambda: HyperExponential([[0.25, 1.0], (0.75, 3.0)]), ("branches",),
     "HyperExponential(branches=((0.25, 1.0), (0.75, 3.0)))"),
    (lambda: Uniform(0.5, 1.5), ("lo", "hi"), "Uniform(lo=0.5, hi=1.5)"),
    (lambda: ClassSpec(0.5, Erlang(2, 4.0)), ("arrival_rate", "service"),
     "ClassSpec(arrival_rate=0.5, service=Erlang(shape=2, rate=4.0))"),
    (lambda: _s4().model, ("servers", "classes"),
     "SystemModel(servers=3, classes=("
     "ClassSpec(arrival_rate=1.0, service=Exponential(rate=5.0)), "
     "ClassSpec(arrival_rate=1.0, service=Exponential(rate=2.5)), "
     "ClassSpec(arrival_rate=1.0, service=Exponential(rate=1.6666666666666667)), "
     "ClassSpec(arrival_rate=1.0, service=Exponential(rate=1.25))))"),
    (lambda: approx_metrics(_s4().model)[0], ("p", "u", "h", "g", "w", "v", "stable"),
     "ClassMetrics(p=0.0, u=0.0, h=0.0011695906432748543, g=0.07142857142857142, "
     "w=8.354218880534673e-05, v=0.20008354218880536, stable=True)"),
    (ClassMetrics.unstable, ("p", "u", "h", "g", "w", "v", "stable"),
     "ClassMetrics(p=None, u=None, h=None, g=None, w=None, v=None, stable=False)"),
    (lambda: IdentityResiduals(-2.5e-16), ("preemptions",), "IdentityResiduals(preemptions=-2.5e-16)"),
    (lambda: Scenario(SystemModel(1, [ClassSpec(0.5, Deterministic(1.0))])), ("model",),
     "Scenario(model=SystemModel(servers=1, classes=(ClassSpec(arrival_rate=0.5, service=Deterministic(value=1.0)),)))"),
]
IDS = [r.split("(", 1)[0] for _, _, r in VALUES]


@pytest.mark.parametrize("build, names, text", VALUES, ids=IDS)
def test_equal_fields_give_equal_values(build, names, text):
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != tuple(getattr(a, n) for n in names)


@pytest.mark.parametrize("build, names, text", VALUES, ids=IDS)
def test_repr_names_every_field(build, names, text):
    assert repr(build()) == text


@pytest.mark.parametrize("build, names, text", VALUES, ids=IDS)
def test_fields_are_read_only(build, names, text):
    value = build()
    for name in names:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("build, names, text", VALUES, ids=IDS)
def test_keyword_construction(build, names, text):
    value = build()
    assert type(value)(**{n: getattr(value, n) for n in names}) == value


@pytest.mark.parametrize("build, names, text", VALUES, ids=IDS)
def test_pickle_and_copy_round_trip(build, names, text):
    value = build()
    for other in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(other) is type(value) and other == value and hash(other) == hash(value)


def test_values_of_different_types_differ():
    assert Exponential(1.0) != Deterministic(1.0)
    assert Erlang(1, 1.0) != Exponential(1.0)
    assert Uniform(0.0, 2.0) != Deterministic(1.0)
    assert ClassMetrics.unstable() != IdentityResiduals(0.0)


def test_load_profile_compares_by_identity():
    model = _s4().model
    a, b = loads(model), loads(model)
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert repr(a).startswith("LoadProfile(cumulative_rate=array([")
    with pytest.raises(AttributeError):
        a.load = b.load
    for other in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert other != a
        assert other.cumulative_rate.tolist() == a.cumulative_rate.tolist()
        assert other.load.tolist() == a.load.tolist()
