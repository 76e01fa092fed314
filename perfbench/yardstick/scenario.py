"""Plain-text scenario files describing a system model.

Grammar, one directive per line::

    servers <m>
    class lambda=<rate> service=<dist-spec>

Classes are listed in priority order, highest first.  Blank lines are
skipped and ``#`` starts a comment (full-line or trailing).  Distribution
specs follow :func:`mgmprio.distributions.parse_distribution` and must not
contain whitespace.  Parse errors carry the 1-based line number.
"""

from dataclasses import dataclass

from .distributions import parse_distribution
from .model import ClassSpec, SystemModel
from .simulation import PolicyConfig, RunConfig

__all__ = ["Scenario", "ScenarioError", "parse_scenario", "render_scenario"]


class ScenarioError(ValueError):
    """Scenario text that does not parse; ``line`` is 1-based or None."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class Scenario:
    """A parsed model plus optional policy/run overrides.

    The file grammar itself only defines the model; the override slots are
    for callers that bundle a scenario with non-default settings.
    """

    model: SystemModel
    policy: PolicyConfig | None = None
    run_defaults: RunConfig | None = None


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; raises ScenarioError with a line number on failure."""
    servers: int | None = None
    classes: list[ClassSpec] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]
        if keyword == "servers":
            if servers is not None:
                raise ScenarioError("duplicate servers directive", lineno)
            if len(tokens) != 2:
                raise ScenarioError("servers takes exactly one value", lineno)
            try:
                servers = int(tokens[1])
            except ValueError:
                raise ScenarioError(f"malformed server count {tokens[1]!r}", lineno) from None
            if servers < 1:
                raise ScenarioError(f"server count must be positive, got {servers}", lineno)
        elif keyword == "class":
            rate = None
            service = None
            for token in tokens[1:]:
                key, sep, value = token.partition("=")
                if not sep:
                    raise ScenarioError(f"expected key=value, got {token!r}", lineno)
                if key == "lambda":
                    try:
                        rate = float(value)
                    except ValueError:
                        raise ScenarioError(f"malformed rate {value!r}", lineno) from None
                elif key == "service":
                    try:
                        service = parse_distribution(value)
                    except ValueError as exc:
                        raise ScenarioError(str(exc), lineno) from None
                else:
                    raise ScenarioError(f"unknown key {key!r}", lineno)
            if rate is None:
                raise ScenarioError("class line is missing lambda=", lineno)
            if service is None:
                raise ScenarioError("class line is missing service=", lineno)
            if rate <= 0:
                raise ScenarioError(f"arrival rate must be positive, got {rate!r}", lineno)
            classes.append(ClassSpec(arrival_rate=rate, service=service))
        else:
            raise ScenarioError(f"unknown directive {keyword!r}", lineno)
    if servers is None:
        raise ScenarioError("missing servers directive")
    if not classes:
        raise ScenarioError("scenario defines no classes")
    return Scenario(model=SystemModel(servers=servers, classes=tuple(classes)))


def render_scenario(scenario: Scenario) -> str:
    """Render a scenario back to text; parse(render(s)) == s."""
    lines = [f"servers {scenario.model.servers}"]
    for spec in scenario.model.classes:
        lines.append(f"class lambda={spec.arrival_rate!r} service={spec.service.spec()}")
    return "\n".join(lines) + "\n"
