"""Workload definitions for the mgmprio benchmark.

Plain data only: importing this module does not import mgmprio, so the orchestrating
process stays light and the set-up probes time nothing but the package
itself.  Every model reaches the package as scenario text through
``parse_scenario``; the workload seed only becomes ``RunConfig.seed`` (or,
for ``analytic_cold``, the order of the calls).
"""

from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1
# Never used while writing a change: a speed claim is re-checked on it.
HELD_OUT_SEED = 7919

# Nominal seconds of the yardstick's set-up probe (a fresh interpreter that
# imports the package and parses the workload's scenarios).  Every reported
# time is rescaled to the host speed at which the yardstick takes its nominal
# seconds; see "Host-speed yardstick" in README.md.  Fixed once: changing it
# rescales every figure the benchmark has reported.
YARDSTICK_SETUP_S = 1.3

# An estimate passes when it lies within CI_MULTIPLE Student-t 95% half-widths
# of the exact value, or within ABS_FLOOR time units of it.  The floor covers
# truths that are zero to the precision a run can see: under strict priority
# on 32 servers, classes 1 and 2 have w of 1e-13 and 2e-6, so a run sees no
# delayed job and reports w = sojourn_mean - service_mean = +-1e-16 with a
# half-width of the same size.
CI_MULTIPLE = 4.0
ABS_FLOOR = 1e-4
# approx_metrics is an approximation off the exact domains; the paper's own
# table puts simulated class-4 sojourn on paper_s4 about 8% below it.
APPROX_BAND = 0.15

SHIPPED_SCENARIOS = (
    "scenarios/paper_s4.cfg",
    "scenarios/mm3_identical.cfg",
    "scenarios/md1_two_class.cfg",
)

MM32_TEXT = "servers 32\n" + "class lambda=6.8 service=exp(1.0)\n" * 4


@dataclass(frozen=True)
class Workload:
    name: str
    # scenario file paths relative to the checkout root; ``text`` replaces
    # them for a generated model
    scenarios: tuple[str, ...] = ()
    text: str | None = None
    # simulation settings; ``reps == 0`` marks the CLI-only workload
    within_class: str = "lifo"
    equal_class_preemption: bool = True
    jobs: int = 0
    reps: int = 0
    warmup: float = 0.0
    # "approx", "exact-m1" or "exact-mm-identical", and the metrics gated on it
    truth: str = "approx"
    gated: tuple[str, ...] = ()
    # nominal seconds of the yardstick's main call, fixed like YARDSTICK_SETUP_S
    yardstick_s: float = 1.0

    @property
    def simulates(self) -> bool:
        return self.reps > 0

    def scenario_texts(self, root: Path) -> list[tuple[str, str]]:
        """(label, text) for each model of the workload."""
        if self.text is not None:
            return [(self.name, self.text)]
        return [(p, (root / p).read_text(encoding="utf-8")) for p in self.scenarios]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="s4_long",
            scenarios=("scenarios/paper_s4.cfg",),
            jobs=40_000,
            reps=2,
            warmup=100.0,
            truth="approx",
            gated=("v",),
            yardstick_s=0.9,
        ),
        Workload(
            name="mm32_fifo_strict",
            text=MM32_TEXT,
            within_class="fifo",
            equal_class_preemption=False,
            jobs=10_000,
            reps=4,
            warmup=100.0,
            truth="exact-mm-identical",
            gated=("w", "v"),
            yardstick_s=0.55,
        ),
        Workload(
            name="md1_short_reps",
            scenarios=("scenarios/md1_two_class.cfg",),
            jobs=2_000,
            reps=25,
            warmup=50.0,
            truth="exact-m1",
            gated=("w", "h", "v"),
            yardstick_s=0.45,
        ),
        Workload(
            name="analytic_cold",
            scenarios=SHIPPED_SCENARIOS,
            yardstick_s=1.3,
        ),
    )
}
