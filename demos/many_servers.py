"""The simulator's cost per job, and the approximation's error, as servers grow.

The model family keeps the four exponential service laws of
`scenarios/paper_s4.cfg` (rates 5, 2.5, 5/3 and 1.25), gives the classes
equal arrival rates, and sets the load per server to 1 - 0.5/sqrt(m).  At
that load the chance that an arrival finds every server busy stays of one
size as m grows: the Halfin-Whitt heavy-traffic regime, where the
Erlang C based approximation degrades.

For each server count it prints:

* `run`'s wall time per counted job, the best of `--repeat` runs of
  `--jobs` counted jobs (LIFO, equal-class preemption, warm-up 20),
  timed as `replicate` calls it: with `keep_records=False`, so no per-job
  rows are written;
* the lowest class's mean wait `w` from `approx_metrics` and from
  `replicate` (`--reps` replications of `--rep-jobs` jobs, 95% CI), and
  `rel_err` = |analytic - simulated| / analytic as `compare` reports it,
  with the range of it that the CI allows.

Run from the repository root (a few seconds with the defaults):

    PYTHONPATH=src python3 demos/many_servers.py
    PYTHONPATH=src python3 demos/many_servers.py --servers 16 64 256 1024 --reps 6 --rep-jobs 200000
"""

import argparse
import math
import time

from mgmprio import (
    ClassSpec,
    Exponential,
    PolicyConfig,
    RunConfig,
    SystemModel,
    approx_metrics,
    compare,
    replicate,
    run,
)

RATES = (5.0, 2.5, 5.0 / 3.0, 1.25)
WARMUP = 20.0


def family(m: int) -> SystemModel:
    load = 1.0 - 0.5 / math.sqrt(m)
    lam = load * m / sum(1.0 / r for r in RATES)
    return SystemModel(m, [ClassSpec(lam, Exponential(r)) for r in RATES])


def us_per_job(model: SystemModel, jobs: int, repeat: int, seed: int) -> float:
    cfg = RunConfig(seed=seed, target_completions=jobs, warmup_time=WARMUP, keep_records=False)
    best = math.inf
    for _ in range(repeat):
        started = time.perf_counter()
        run(model, PolicyConfig(), cfg)
        best = min(best, time.perf_counter() - started)
    return best / jobs * 1e6


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--servers", type=int, nargs="+", default=[4, 16, 64])
    parser.add_argument("--jobs", type=int, default=20000, help="counted jobs per timed run")
    parser.add_argument("--repeat", type=int, default=3, help="timed runs per server count, best kept")
    parser.add_argument("--reps", type=int, default=4, help="replications behind the error")
    parser.add_argument("--rep-jobs", type=int, default=20000, help="counted jobs per replication")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    print(f"{'m':>5} {'load':>6} {'us/job':>7} {'analytic w':>11} {'sim w':>10} {'ci95':>9} "
          f"{'rel_err':>8} {'rel_err range':>17}")
    for m in args.servers:
        model = family(m)
        cost = us_per_job(model, args.jobs, args.repeat, args.seed)
        report = replicate(model, PolicyConfig(),
                           RunConfig(seed=args.seed, target_completions=args.rep_jobs, warmup_time=WARMUP),
                           args.reps)
        row = next(r for r in compare(report, approx_metrics(model))
                   if r.class_index == len(RATES) and r.metric == "w")
        a, sim, hw = row.analytic, row.sim_mean, row.sim_ci_half_width
        ends = [abs(a - (sim - hw)) / a, abs(a - (sim + hw)) / a]
        low = 0.0 if row.covered else min(ends)
        print(f"{m:>5} {1.0 - 0.5 / math.sqrt(m):>6.3f} {cost:>7.2f} {a:>11.5g} {sim:>10.5g} {hw:>9.2g} "
              f"{row.rel_error:>8.1%} {f'{low:.1%} to {max(ends):.1%}':>17}")


if __name__ == "__main__":
    main()
