"""Tour of the closed-form metrics.

Three stops: a single-server system where the general approximation is
exact, an identical-exponential multiserver system where it is exact
again, and the bundled four-class scenario where it is genuinely an
approximation.  Run from the repository root:

    python3 demos/closed_form_tour.py
"""

from pathlib import Path

from mgmprio import (
    ClassSpec,
    Deterministic,
    Exponential,
    SystemModel,
    approx_metrics,
    check_identities,
    erlang_c,
    exact_mmm_identical,
    exact_single_channel,
    loads,
    parse_scenario,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
METRICS = ("p", "u", "h", "g", "w", "v")


def show(title, metrics):
    print(f"\n{title}")
    print("  class  " + "".join(f"{name:>12}" for name in METRICS))
    for cls, m in enumerate(metrics, start=1):
        if not m.stable:
            print(f"  {cls:>5}  UNSTABLE (cumulative load >= 1)")
            continue
        print(f"  {cls:>5}  " + "".join(f"{getattr(m, name):>12.6g}" for name in METRICS))


def main():
    print("Columns: p = probability the job has to wait, u = mean initial delay")
    print("given a wait, h = mean number of preemptions, g = mean length of one")
    print("interruption, w = mean total waiting time, v = mean sojourn time.")

    # one server, constant unit service: heavy-tail-free and fully exact
    md1 = SystemModel(1, [ClassSpec(0.3, Deterministic(1.0)), ClassSpec(0.3, Deterministic(1.0))])
    show("M/D/1, two classes at rate 0.3 (exact single-channel forms)", exact_single_channel(md1))
    show("... and the general approximation on the same model", approx_metrics(md1))
    print("  -> identical columns: with one server the approximation is exact.")

    mm3 = SystemModel(3, [ClassSpec(1.0, Exponential(2.0)) for _ in range(3)])
    show("M/M/3, three classes sharing mean 0.5 (exact identical-exp forms)", exact_mmm_identical(mm3))
    show("... and the general approximation again", approx_metrics(mm3))
    print("  -> exact a second time: identical exponential service laws.")
    total_load = loads(mm3).load[-1]
    print(f"  Erlang C at the full load {total_load:.4g} on 3 servers: {erlang_c(3, total_load):.6g}")
    print("  (equals p of the lowest class above: it waits behind everyone).")

    scenario = parse_scenario((SCENARIOS / "paper_s4.cfg").read_text())
    metrics = approx_metrics(scenario.model)
    show("Bundled four-class scenario, 3 servers, exponential means .2/.4/.6/.8", metrics)
    worst = max(abs(r) for r in check_identities(metrics, scenario.model))
    print(f"  The preemption identity (h from the Erlang C values) holds to {worst:.2e}.")
    print("  No exact form applies here; see demos/formulas_vs_simulation.py")
    print("  for how close the approximation is to a simulated truth value.")

    overload = SystemModel(1, [ClassSpec(0.5, Exponential(1.0)), ClassSpec(0.8, Exponential(1.0))])
    show("Overloaded tail: one server, rates 0.5 + 0.8 at mean 1", approx_metrics(overload))
    print("  Classes stay usable down to the last stable prefix; the rest is flagged.")


if __name__ == "__main__":
    main()
