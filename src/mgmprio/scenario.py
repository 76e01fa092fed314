"""Plain-text scenario files describing a system model.

Grammar, one directive per line::

    servers <m>
    class lambda=<rate> service=<dist-spec>

Each key appears exactly once on a class line.  Classes are listed in
priority order, highest first.  Blank lines are skipped and ``#`` starts a
comment (full-line or trailing).  Distribution specs follow
:func:`mgmprio.distributions.parse_distribution` and must not contain
whitespace.  Parse errors carry the 1-based line number.
"""

from .distributions import _Frozen, _number, _real_text, _setattr, parse_distribution
from .model import ClassSpec, SystemModel, _ClassError

__all__ = ["Scenario", "ScenarioError", "parse_scenario", "render_scenario"]


class ScenarioError(ValueError):
    """Scenario text that does not parse; ``line`` is 1-based or None."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class Scenario(_Frozen):
    """A parsed model."""

    __slots__ = ("model",)

    def __init__(self, model: SystemModel):
        _setattr(self, "model", model)


def _class_spec(tokens: list[str]) -> ClassSpec:
    """The class built from a class directive's ``key=value`` tokens."""
    values = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"expected key=value, got {token!r}")
        if key not in ("lambda", "service"):
            raise ValueError(f"unknown key {key!r}")
        if key in values:
            raise ValueError(f"repeated key {key}=")
        values[key] = value
    for key in ("lambda", "service"):
        if key not in values:
            raise ValueError(f"class line is missing {key}=")
    return ClassSpec(arrival_rate=_number(float, values["lambda"], "rate"),
                     service=parse_distribution(values["service"]))


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; raises ScenarioError with a line number on failure.

    Values are checked by the constructors of the objects they become; a
    ValueError is reported against the line of the directive or class it is about.
    """
    servers: int | None = None
    servers_line: int | None = None
    classes: list[ClassSpec] = []
    class_lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, *args = line.split()
        try:
            if keyword == "servers":
                if servers is not None:
                    raise ValueError("duplicate servers directive")
                if len(args) != 1:
                    raise ValueError("servers takes exactly one value")
                servers, servers_line = _number(int, args[0], "server count"), lineno
            elif keyword == "class":
                classes.append(_class_spec(args))
                class_lines.append(lineno)
            else:
                raise ValueError(f"unknown directive {keyword!r}")
        except ValueError as exc:
            raise ScenarioError(str(exc), lineno) from None
    if servers is None:
        raise ScenarioError("missing servers directive")
    if not classes:
        raise ScenarioError("scenario defines no classes")
    try:
        return Scenario(model=SystemModel(servers=servers, classes=tuple(classes)))
    except _ClassError as exc:
        raise ScenarioError(str(exc), class_lines[exc.index - 1]) from None
    except ValueError as exc:
        raise ScenarioError(str(exc), servers_line) from None


def render_scenario(scenario: Scenario) -> str:
    """Render a scenario back to text; parse(render(s)) == s."""
    lines = [f"servers {scenario.model.servers}"]
    for spec in scenario.model.classes:
        lines.append(f"class lambda={_real_text(spec.arrival_rate)} service={spec.service.spec()}")
    return "\n".join(lines) + "\n"
