"""Closed-form metric checks against an independent rational-arithmetic route.

The frozen tables below were produced by ``oracles.reference_metrics``,
which evaluates the explicit closed forms with ``fractions.Fraction`` and
computes Erlang quantities by direct factorial summation.  The package
must reproduce every entry in double precision.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from mgmprio import (
    ClassSpec,
    Deterministic,
    DomainError,
    Exponential,
    SystemModel,
    approx_metrics,
    check_identities,
    erlang_c,
    exact_mmm_identical,
    exact_single_channel,
    loads,
)
from modelgen import random_identical_exponential_models, random_single_server_models

METRICS = ("p", "u", "h", "g", "w", "v")

FOUR_CLASS_MODEL = SystemModel(
    3,
    [
        ClassSpec(1.0, Exponential(5.0)),
        ClassSpec(1.0, Exponential(2.5)),
        ClassSpec(1.0, Exponential(5.0 / 3.0)),
        ClassSpec(1.0, Exponential(1.25)),
    ],
)

# four classes at unit rate on three servers, service means 0.2/0.4/0.6/0.8
FOUR_CLASS_REFERENCE = [
    {"p": F(0), "u": F(0), "h": F(1, 855), "g": F(1, 14), "w": F(1, 11970), "v": F(479, 2394)},
    {"p": F(1, 855), "u": F(5, 56), "h": F(2932, 62415), "g": F(1, 8), "w": F(2321, 388360), "v": F(31533, 77672)},
    {"p": F(9, 365), "u": F(25, 108), "h": F(2169, 6205), "g": F(2, 9), "w": F(6209, 74460), "v": F(10177, 14892)},
    {"p": F(12, 85), "u": F(7, 9), "h": F(928, 765), "g": F(1, 2), "w": F(548, 765), "v": F(232, 153)},
]

MM3_MODEL = SystemModel(3, [ClassSpec(1.0, Exponential(2.0)) for _ in range(3)])

MM3_REFERENCE = [
    {"p": F(0), "u": F(0), "h": F(1, 66), "g": F(1, 5), "w": F(1, 330), "v": F(83, 165)},
    {"p": F(1, 66), "u": F(3, 10), "h": F(5, 33), "g": F(1, 4), "w": F(7, 165), "v": F(179, 330)},
    {"p": F(1, 11), "u": F(1, 2), "h": F(183, 418), "g": F(1, 3), "w": F(40, 209), "v": F(289, 418)},
]

MD1_MODEL = SystemModel(1, [ClassSpec(0.3, Deterministic(1.0)) for _ in range(2)])

MD1_REFERENCE = [
    {"p": F(0), "u": F(0), "h": F(3, 10), "g": F(10, 7), "w": F(3, 7), "v": F(10, 7)},
    {"p": F(3, 10), "u": F(25, 14), "h": F(3, 5), "g": F(5, 2), "w": F(57, 28), "v": F(85, 28)},
]

TWO_EXP_MODEL = SystemModel(1, [ClassSpec(0.25, Exponential(1.0)) for _ in range(2)])

TWO_EXP_REFERENCE = [
    {"p": F(0), "u": F(0), "h": F(1, 4), "g": F(4, 3), "w": F(1, 3), "v": F(4, 3)},
    {"p": F(1, 4), "u": F(8, 3), "h": F(1, 2), "g": F(2), "w": F(5, 3), "v": F(8, 3)},
]


def assert_matches_reference(metrics, reference, rel=1e-12):
    assert len(metrics) == len(reference)
    for got, row in zip(metrics, reference):
        assert got.stable
        for name in METRICS:
            value = getattr(got, name)
            target = float(row[name])
            assert value == pytest.approx(target, rel=rel, abs=1e-15), name


def assert_elementwise_equal(lhs, rhs, rel=1e-10):
    assert len(lhs) == len(rhs)
    for a, b in zip(lhs, rhs):
        assert a.stable == b.stable
        if not a.stable:
            continue
        for name in METRICS:
            assert getattr(a, name) == pytest.approx(getattr(b, name), rel=rel, abs=1e-15), name


# erlang_c


def test_erlang_c_empty_system():
    for servers in (1, 2, 7):
        assert erlang_c(servers, 0.0) == 0.0


def test_erlang_c_single_server_equals_load():
    for load in (0.0, 0.1, 0.5, 0.93, 0.999):
        assert erlang_c(1, load) == pytest.approx(load, rel=1e-14, abs=1e-15)


def test_erlang_c_three_servers_two_thirds():
    assert erlang_c(3, 2.0 / 3.0) == pytest.approx(4.0 / 9.0, rel=1e-12)


def test_erlang_c_strictly_increasing_in_load():
    grid = [i / 50 for i in range(1, 50)]
    for servers in (1, 2, 5, 8):
        values = [erlang_c(servers, r) for r in grid]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_erlang_c_rejects_out_of_domain():
    for servers, load in [(1, 1.0), (3, 1.5), (2, -0.1), (0, 0.5), (-3, 0.5), (True, 0.5), (False, 0.5)]:
        with pytest.raises(DomainError):
            erlang_c(servers, load)
    for servers in (2.5, 3.0):
        with pytest.raises(DomainError):
            erlang_c(servers, 0.5)


def test_erlang_c_accepts_numpy_integer_servers():
    assert erlang_c(np.int64(3), 2.0 / 3.0) == erlang_c(3, 2.0 / 3.0)


# loads


def test_loads_four_class_model():
    prof = loads(FOUR_CLASS_MODEL)
    expected_rates = [0.0, 1.0, 2.0, 3.0, 4.0]
    expected_loads = [0.0, 1 / 15, 1 / 5, 2 / 5, 2 / 3]
    assert prof.cumulative_rate.tolist() == pytest.approx(expected_rates, rel=1e-12)
    assert prof.load.tolist() == pytest.approx(expected_loads, rel=1e-12)


def test_loads_single_class():
    prof = loads(SystemModel(1, [ClassSpec(1.0, Deterministic(0.5))]))
    assert prof.cumulative_rate.tolist() == [0.0, 1.0]
    assert prof.load.tolist() == [0.0, 0.5]


def test_loads_strictly_increasing():
    for model in random_single_server_models(3, 5):
        prof = loads(model)
        for arr in (prof.cumulative_rate, prof.load):
            assert all(a < b for a, b in zip(arr, arr[1:]))


# frozen reference tables


def test_approx_matches_reference_on_four_class_model():
    assert_matches_reference(approx_metrics(FOUR_CLASS_MODEL), FOUR_CLASS_REFERENCE)


def test_mmm_matches_reference_table():
    assert_matches_reference(exact_mmm_identical(MM3_MODEL), MM3_REFERENCE)


def test_single_channel_matches_deterministic_reference():
    assert_matches_reference(exact_single_channel(MD1_MODEL), MD1_REFERENCE)


def test_single_channel_matches_two_exp_reference():
    assert_matches_reference(exact_single_channel(TWO_EXP_MODEL), TWO_EXP_REFERENCE)


def test_four_class_headline_values():
    metrics = approx_metrics(FOUR_CLASS_MODEL)
    assert metrics[0].w == pytest.approx(0.000084, abs=2e-6)
    assert metrics[0].v == pytest.approx(0.20, abs=5e-4)
    assert metrics[3].w == pytest.approx(0.716, abs=5e-4)


def test_two_exp_classes_average_sojourn_cross_check():
    # class-blind mean sojourn must equal the classless M/M/1 value b/(1-R)
    metrics = exact_single_channel(TWO_EXP_MODEL)
    pooled = 0.5 * (metrics[0].v + metrics[1].v)
    assert pooled == pytest.approx(2.0, rel=1e-12)


def test_single_class_mm1():
    model = SystemModel(1, [ClassSpec(1.0, Exponential(2.0))])
    got = approx_metrics(model)[0]
    assert got.p == 0.0
    assert got.w == pytest.approx(0.5, rel=1e-12)
    assert got.v == pytest.approx(1.0, rel=1e-12)
    assert_elementwise_equal(approx_metrics(model), exact_single_channel(model))


def test_mmm_two_class_example():
    model = SystemModel(3, [ClassSpec(1.0, Exponential(2.0)) for _ in range(2)])
    metrics = exact_mmm_identical(model)
    assert metrics[0].w == pytest.approx(float(F(1, 330)), rel=1e-12)
    assert metrics[1].w == pytest.approx(float(F(7, 165)), rel=1e-12)


# mode domain checks


def test_single_channel_rejects_multiserver():
    with pytest.raises(DomainError):
        exact_single_channel(MM3_MODEL)


def test_mmm_rejects_non_exponential():
    # the first class fails in one model, only a lower class in the other
    exp_then_det = SystemModel(2, [ClassSpec(0.5, Exponential(1.0)), ClassSpec(0.5, Deterministic(1.0))])
    for model in (MD1_MODEL, exp_then_det):
        with pytest.raises(DomainError, match="exponential service in every class"):
            exact_mmm_identical(model)


def test_mmm_rejects_mismatched_rates():
    model = SystemModel(2, [ClassSpec(0.5, Exponential(2.0)), ClassSpec(0.5, Exponential(2.000001))])
    with pytest.raises(DomainError):
        exact_mmm_identical(model)


def test_mmm_accepts_rate_match_within_tolerance():
    model = SystemModel(2, [ClassSpec(0.5, Exponential(2.0)), ClassSpec(0.5, Exponential(2.0 + 1e-14))])
    assert exact_mmm_identical(model)[0].stable


def test_mmm_agrees_with_single_channel_on_intersection():
    model = SystemModel(1, [ClassSpec(1.5, Exponential(3.0))])
    assert_elementwise_equal(exact_mmm_identical(model), exact_single_channel(model))


# algebraic reductions on randomized models


def test_reduction_to_single_channel_randomized():
    for model in random_single_server_models(11, 10):
        assert_elementwise_equal(approx_metrics(model), exact_single_channel(model))


def test_reduction_to_identical_exponential_randomized():
    for model in random_identical_exponential_models(13, 10):
        assert_elementwise_equal(approx_metrics(model), exact_mmm_identical(model))


# structural identities


@pytest.mark.parametrize(
    "model,mode",
    [
        (FOUR_CLASS_MODEL, approx_metrics),
        (MM3_MODEL, exact_mmm_identical),
        (MM3_MODEL, approx_metrics),
        (MD1_MODEL, exact_single_channel),
        (TWO_EXP_MODEL, exact_single_channel),
    ],
    ids=["four-class-approx", "mm3-exact", "mm3-approx", "md1-exact", "two-exp-exact"],
)
def test_identity_residuals_vanish(model, mode):
    metrics = mode(model)
    for res in check_identities(metrics, model):
        assert abs(res.preemptions) <= 1e-12


def test_identity_residuals_on_randomized_models():
    for model in random_single_server_models(17, 5):
        for res in check_identities(exact_single_channel(model), model):
            assert abs(res.preemptions) <= 1e-12
    for model in random_identical_exponential_models(19, 5):
        for res in check_identities(exact_mmm_identical(model), model):
            assert abs(res.preemptions) <= 1e-12


def test_sojourn_identity_exact_single_class():
    model = SystemModel(1, [ClassSpec(0.4, Exponential(1.0))])
    got = approx_metrics(model)[0]
    assert got.v - got.w - 1.0 == 0.0


# qualitative structure


def test_blocking_probability_nondecreasing_and_bounded():
    models = random_single_server_models(23, 5) + random_identical_exponential_models(29, 5)
    for model in models:
        metrics = approx_metrics(model)
        ps = [m.p for m in metrics]
        assert all(0.0 <= p <= 1.0 for p in ps)
        assert all(a <= b + 1e-15 for a, b in zip(ps, ps[1:]))
        for m in metrics:
            assert m.u >= 0 and m.h >= 0 and m.g >= 0 and m.w >= 0 and m.v > 0


def test_waiting_monotone_under_load_scaling():
    for model in random_identical_exponential_models(31, 5):
        base = approx_metrics(model)
        for factor in (0.25, 0.5, 0.75, 1.0):
            scaled = SystemModel(
                model.servers,
                [ClassSpec(c.arrival_rate * factor, c.service) for c in model.classes],
            )
            for lo, hi in zip(approx_metrics(scaled), base):
                assert lo.w <= hi.w + 1e-12


# instability handling


def test_unstable_suffix_is_flagged_not_fatal():
    model = SystemModel(1, [ClassSpec(0.5, Exponential(1.0)), ClassSpec(0.6, Exponential(1.0))])
    for mode in (approx_metrics, exact_single_channel):
        metrics = mode(model)
        assert metrics[0].stable
        assert metrics[0].w == pytest.approx(1.0, rel=1e-12)
        assert not metrics[1].stable
        assert metrics[1].w is None and metrics[1].v is None and metrics[1].p is None
        residuals = check_identities(metrics, model)
        assert residuals[0] is not None and residuals[1] is None


def test_fully_unstable_model():
    model = SystemModel(1, [ClassSpec(2.0, Exponential(1.0))])
    metrics = approx_metrics(model)
    assert not metrics[0].stable
