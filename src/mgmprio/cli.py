"""Command-line front end.

Subcommands::

    mgmprio analytic --config FILE [--mode approx|exact-m1|exact-mm-identical]
    mgmprio simulate --config FILE [simulation flags]
    mgmprio compare  --config FILE [--mode ...] [simulation flags]

Exit status: 0 on success, 1 on usage or scenario-parse errors and on
invalid values, non-finite ones included, 2 when the model is outside the
requested mode's domain, 3 when a simulation was truncated (by the time
cap, or as no class arrives any more).  Tables round to 6 significant digits; CSV output keeps full double
precision and, for a fixed seed, is byte-stable across invocations.
"""

import argparse
import math
import os
import sys

from .analytic import METRIC_NAMES, approx_metrics, exact_mmm_identical, exact_single_channel
from .model import DomainError
from .scenario import ScenarioError, parse_scenario

__all__ = ["main", "entry"]

_MODES = {
    "approx": approx_metrics,
    "exact-m1": exact_single_channel,
    "exact-mm-identical": exact_mmm_identical,
}

COMPARE_CSV_HEADER = "class,metric,analytic,sim_mean,sim_ci95,abs_err,rel_err,covered"
SIMULATE_CSV_HEADER = "class,metric,sim_mean,sim_ci95,reps"
ANALYTIC_CSV_HEADER = "class,metric,value,stable"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; this tool reserves 2 for
    # domain errors, so usage problems are rerouted to status 1
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mgmprio", description="Preemptive priority queue metrics")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="scenario file")
        p.add_argument("--format", choices=("table", "csv"), default="table")

    def add_sim_flags(p):
        p.add_argument("--jobs", type=int, default=1_000_000,
                       help="counted completions per replication (default 1000000)")
        p.add_argument("--warmup", type=float, default=100.0,
                       help="warm-up time; earlier arrivals are not counted (default 100)")
        p.add_argument("--seed", type=int, default=1, help="base seed (default 1)")
        p.add_argument("--reps", type=int, default=10, help="replications (default 10)")
        p.add_argument("--within-class", choices=("lifo", "fifo"), default="lifo",
                       help="order within one class (default lifo)")
        p.add_argument("--strict-preemption", action="store_true",
                       help="only displace strictly lower-priority jobs")
        p.add_argument("--max-time", type=float, default=math.inf,
                       help="simulated-time safety cap; hitting it exits 3")

    p_analytic = sub.add_parser("analytic", help="closed-form metrics")
    add_common(p_analytic)
    p_analytic.add_argument("--mode", choices=sorted(_MODES), default="approx")

    p_sim = sub.add_parser("simulate", help="replicated simulation estimates")
    add_common(p_sim)
    add_sim_flags(p_sim)

    p_cmp = sub.add_parser("compare", help="analytic values against simulation")
    add_common(p_cmp)
    p_cmp.add_argument("--mode", choices=sorted(_MODES), default="approx")
    add_sim_flags(p_cmp)

    return parser


def _sig6(x) -> str:
    return "" if x is None else format(x, ".6g")


def _full(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _analytic_lines(metrics, fmt):
    if fmt == "csv":
        yield ANALYTIC_CSV_HEADER
        for cls, m in enumerate(metrics, start=1):
            for name in METRIC_NAMES:
                yield f"{cls},{name},{_full(getattr(m, name))},{_full(m.stable)}"
        return
    header = ("class",) + tuple(METRIC_NAMES)
    rows = []
    for cls, m in enumerate(metrics, start=1):
        if m.stable:
            rows.append((str(cls),) + tuple(_sig6(getattr(m, name)) for name in METRIC_NAMES))
        else:
            rows.append((str(cls), "UNSTABLE", "", "", "", "", ""))
    yield from _tabulate(header, rows)


def _report_lines(report, fmt):
    if fmt == "csv":
        yield SIMULATE_CSV_HEADER
        for cls in sorted(report.classes):
            for name in METRIC_NAMES:
                est = report.classes[cls][name]
                yield f"{cls},{name},{_full(est.estimate)},{_full(est.ci_half_width)},{est.replications}"
        return
    header = ("class", "metric", "estimate", "ci95", "reps")
    rows = []
    for cls in sorted(report.classes):
        for name in METRIC_NAMES:
            est = report.classes[cls][name]
            rows.append((str(cls), name, _sig6(est.estimate), _sig6(est.ci_half_width), str(est.replications)))
    yield from _tabulate(header, rows)
    md = report.metadata
    yield (f"# reps={len(md.completions_per_rep)} seed={md.base_seed}"
           f" completions={sum(md.completions_per_rep)} wall={md.wall_clock_seconds:.2f}s"
           + (" TRUNCATED" if md.truncated else ""))


def _compare_lines(rows, fmt):
    if fmt == "csv":
        yield COMPARE_CSV_HEADER
        for r in rows:
            yield (f"{r.class_index},{r.metric},{_full(r.analytic)},{_full(r.sim_mean)},"
                   f"{_full(r.sim_ci_half_width)},{_full(r.abs_error)},{_full(r.rel_error)},"
                   f"{_full(r.covered)}")
        return
    header = ("class", "metric", "analytic", "sim_mean", "sim_ci95", "abs_err", "rel_err", "covered")
    table = []
    for r in rows:
        covered = "" if r.covered is None else ("yes" if r.covered else "NO")
        table.append((str(r.class_index), r.metric, _sig6(r.analytic), _sig6(r.sim_mean),
                      _sig6(r.sim_ci_half_width), _sig6(r.abs_error), _sig6(r.rel_error), covered))
    yield from _tabulate(header, table)


def _tabulate(header, rows):
    widths = [len(h) for h in header]
    for row in rows:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))
    def fmt_row(row):
        return "  ".join(cell.ljust(widths[k]) for k, cell in enumerate(row)).rstrip()
    yield fmt_row(header)
    for row in rows:
        yield fmt_row(row)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return 0 if exc.code in (0, None) else 1

    try:
        with open(args.config, encoding="utf-8") as fh:
            scenario = parse_scenario(fh.read())
    except OSError as exc:
        print(f"error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 1
    except ScenarioError as exc:
        print(f"error: {args.config}: {exc}", file=sys.stderr)
        return 1

    if args.command != "simulate":
        # compare rejects an out-of-domain model before it simulates
        try:
            metrics = _MODES[args.mode](scenario.model)
        except DomainError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.command == "analytic":
            for line in _analytic_lines(metrics, args.format):
                print(line)
            return 0

    # the simulator loads numpy; the analytic subcommand never needs it
    from .replication import compare, replicate
    from .simulation import PolicyConfig, RunConfig

    try:
        cfg = RunConfig(seed=args.seed, target_completions=args.jobs, warmup_time=args.warmup,
                        max_simulated_time=args.max_time)
        policy = PolicyConfig(within_class_order=args.within_class,
                              equal_class_preemption=not args.strict_preemption)
        report = replicate(scenario.model, policy, cfg, args.reps)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command == "simulate":
        lines = _report_lines(report, args.format)
    else:
        lines = _compare_lines(compare(report, metrics), args.format)
    for line in lines:
        print(line)
    return 3 if report.metadata.truncated else 0


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe; point stdout at devnull so that the
        # flush at interpreter shutdown does not raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
