"""The simulator on scripted traces, then on a stochastic run.

Scripted traces make the preemption rules visible job by job; the
stochastic run shows the raw per-class aggregates the statistics layer
consumes.  Run from the repository root:

    PYTHONPATH=src python3 demos/simulator_basics.py
"""

import sys

from mgmprio import (
    ClassSpec,
    Exponential,
    PolicyConfig,
    RunConfig,
    SystemModel,
    TraceInput,
    per_class_raw,
    run,
    write_job_records,
)


def describe(records):
    for r in sorted(records, key=lambda r: r.arrival_time):
        line = (
            f"  class {r.class_index}: arrived {r.arrival_time:g}, "
            f"started {r.first_start_time:g}, done {r.completion_time:g}"
        )
        if r.preemption_count:
            pauses = ", ".join(f"{d:g}" for d in r.interruption_intervals)
            line += f", preempted {r.preemption_count}x (paused {pauses})"
        print(line)


def main():
    lifo = PolicyConfig()  # most-recent-first within a class, equal-class preemption on

    one = SystemModel(1, [ClassSpec(1.0, Exponential(1.0))])
    print("One server; a 3-time-unit job, then a same-class 1-unit job at t=1.")
    print("The newcomer displaces the running job, which later resumes:")
    describe(run(one, lifo, TraceInput([(0.0, 1, 3.0), (1.0, 1, 1.0)])).records)

    two = SystemModel(2, [ClassSpec(1.0, Exponential(1.0)), ClassSpec(1.0, Exponential(1.0))])
    print("\nTwo servers full of class-2 work; a class-1 job arrives at t=1.")
    print("The victim is the class-2 job that has been in service longest:")
    describe(run(two, lifo, TraceInput([(0.0, 2, 10.0), (0.5, 2, 10.0), (1.0, 1, 1.0)])).records)

    print("\nThe first trace again, strict preemption (equal classes never displace):")
    strict = PolicyConfig(equal_class_preemption=False)
    describe(run(one, strict, TraceInput([(0.0, 1, 3.0), (1.0, 1, 1.0)])).records)
    print("  -> the second job now waits instead of preempting.")

    model = SystemModel(
        3,
        [
            ClassSpec(1.0, Exponential(5.0)),
            ClassSpec(1.0, Exponential(2.5)),
            ClassSpec(1.0, Exponential(5.0 / 3.0)),
            ClassSpec(1.0, Exponential(1.25)),
        ],
    )
    cfg = RunConfig(seed=7, target_completions=20_000, warmup_time=50.0)
    result = run(model, lifo, cfg)
    print(f"\nStochastic run: {len(result.records)} counted jobs after warm-up (seed 7).")
    print("Raw per-class aggregates (None = the event never occurred):")
    for cls, st in sorted(per_class_raw(result.records, model).items()):
        print(
            f"  class {cls}: jobs {st.count}, sojourn v {st.v:.4f}, "
            f"wait w {st.w:.4f}, delayed p {st.p:.3f}, "
            f"preemptions/job h {st.h:.3f}"
        )

    print("\nFirst counted jobs as CSV (write_job_records dumps them all):")
    write_job_records(result.records[:5], sys.stdout)


if __name__ == "__main__":
    main()
