"""Scenario-file grammar: parsing, rendering, and error locations."""

from pathlib import Path

import pytest

from mgmprio import (
    ClassSpec,
    Deterministic,
    Erlang,
    Exponential,
    HyperExponential,
    Scenario,
    ScenarioError,
    SystemModel,
    Uniform,
    parse_scenario,
    render_scenario,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

FOUR_CLASS_TEXT = (
    "servers 3\n"
    "class lambda=1 service=exp(5)\n"
    "class lambda=1 service=exp(2.5)\n"
    "class lambda=1 service=exp(1.6666666667)\n"
    "class lambda=1 service=exp(1.25)\n"
)


def test_parse_four_class_model():
    scenario = parse_scenario(FOUR_CLASS_TEXT)
    model = scenario.model
    assert model.servers == 3
    assert len(model.classes) == 4
    assert [c.arrival_rate for c in model.classes] == [1.0] * 4
    assert [c.service for c in model.classes] == [
        Exponential(5.0),
        Exponential(2.5),
        Exponential(1.6666666667),
        Exponential(1.25),
    ]


def test_parse_single_class_md1():
    scenario = parse_scenario("servers 1\nclass lambda=0.5 service=det(1)\n")
    assert scenario.model == SystemModel(1, (ClassSpec(0.5, Deterministic(1.0)),))


def test_comments_and_blank_lines_are_ignored():
    text = (
        "# leading comment\n"
        "\n"
        "servers 2   # trailing comment\n"
        "   \n"
        "class lambda=0.4 service=exp(1)  # another\n"
    )
    model = parse_scenario(text).model
    assert model.servers == 2
    assert model.classes == (ClassSpec(0.4, Exponential(1.0)),)


@pytest.mark.parametrize(
    "text, bad_line, fragment",
    [
        ("servers 0\nclass lambda=1 service=exp(1)", 1, "server count"),
        ("servers -2\nclass lambda=1 service=exp(1)", 1, "server count"),
        ("servers three\nclass lambda=1 service=exp(1)", 1, "malformed"),
        ("servers 1 2\nclass lambda=1 service=exp(1)", 1, "exactly one"),
        ("servers 1\nservers 2\nclass lambda=1 service=exp(1)", 2, "duplicate"),
        ("servers 1\nqueue lambda=1 service=exp(1)", 2, "unknown directive"),
        ("servers 1\nclass lambda=1 service=exp(1)\nclass lambda=oops service=exp(1)", 3, "malformed rate"),
        ("servers 1\nclass lambda=0 service=exp(1)", 2, "positive"),
        ("servers 1\nclass lambda=-1 service=exp(1)", 2, "positive"),
        ("servers 1\nclass lambda=nan service=exp(1)", 2, "finite"),
        ("servers 1\nclass lambda=inf service=exp(1)", 2, "finite"),
        ("servers 1\nclass lambda=1 service=exp(0)", 2, "rate"),
        ("servers 1\nclass lambda=1 service=gamma(1)", 2, "unknown distribution"),
        ("servers 1\nclass lambda=1", 2, "missing service="),
        ("servers 1\nclass service=exp(1)", 2, "missing lambda="),
        ("servers 1\nclass lambda=1 service=exp(1) weight=2", 2, "unknown key"),
        ("servers 1\nclass lambda=1 service exp(1)", 2, "key=value"),
    ],
)
def test_parse_errors_carry_line_numbers(text, bad_line, fragment):
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario(text)
    assert excinfo.value.line == bad_line
    assert f"line {bad_line}:" in str(excinfo.value)
    assert fragment in str(excinfo.value)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("class lambda=1 service=exp(1)", "missing servers"),
        ("servers 2", "no classes"),
        ("", "missing servers"),
        ("# only a comment\n", "missing servers"),
    ],
)
def test_file_level_errors_have_no_line(text, fragment):
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario(text)
    assert excinfo.value.line is None
    assert fragment in str(excinfo.value)


def test_render_round_trip_covers_every_distribution():
    scenario = Scenario(
        model=SystemModel(
            4,
            (
                ClassSpec(0.25, Exponential(1.5)),
                ClassSpec(0.5, Deterministic(0.75)),
                ClassSpec(0.125, Erlang(3, 2.0)),
                ClassSpec(0.2, HyperExponential(((0.3, 4.0), (0.7, 0.5)))),
                ClassSpec(0.1, Uniform(0.5, 1.5)),
            ),
        )
    )
    assert parse_scenario(render_scenario(scenario)) == scenario


def test_render_then_parse_preserves_full_float_precision():
    scenario = parse_scenario("servers 3\nclass lambda=1 service=exp(1.6666666666666667)")
    again = parse_scenario(render_scenario(scenario))
    assert again.model.classes[0].service.rate == 1.6666666666666667


@pytest.mark.parametrize(
    "name, servers, n_classes",
    [
        ("paper_s4.cfg", 3, 4),
        ("mm3_identical.cfg", 3, 3),
        ("md1_two_class.cfg", 1, 2),
    ],
)
def test_bundled_scenarios_parse(name, servers, n_classes):
    scenario = parse_scenario((SCENARIO_DIR / name).read_text(encoding="utf-8"))
    assert scenario.model.servers == servers
    assert len(scenario.model.classes) == n_classes


def test_bundled_four_class_scenario_has_documented_means():
    scenario = parse_scenario((SCENARIO_DIR / "paper_s4.cfg").read_text(encoding="utf-8"))
    means = [c.service.mean() for c in scenario.model.classes]
    assert means == pytest.approx([0.2, 0.4, 0.6, 0.8], rel=1e-15)
    assert all(c.arrival_rate == 1.0 for c in scenario.model.classes)
