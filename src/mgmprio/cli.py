"""Command-line front end.

Subcommands::

    mgmprio analytic --config FILE [--mode approx|exact-m1|exact-mm-identical]
    mgmprio simulate --config FILE [simulation flags]
    mgmprio compare  --config FILE [--mode ...] [simulation flags]

Exit status: 0 on success, 1 on usage or scenario-parse errors and on
invalid values, non-finite ones included, 2 when the model is outside the
requested mode's domain, 3 when a simulation was truncated (by the time
cap, or as no class arrives any more).  Each subcommand builds its rows
once for one emitter: tables round to 6 significant digits, CSV keeps full
double precision and, for a fixed seed, is byte-stable across invocations.
``compare`` leaves ``covered`` blank when fewer than 2 replications
observed the metric.
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


def _full(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "yes" if x else "NO"
    if isinstance(x, float):
        return format(x, ".6g")
    return str(x)


def _lines(fmt, csv_header, rows, table_header=None, table_rows=None):
    """Render ``rows`` as CSV under ``csv_header``, or as an aligned table.

    The table takes its header from the CSV header unless ``table_header``
    is given, and its rows from ``rows`` unless ``table_rows`` is.
    """
    if fmt == "csv":
        return [csv_header, *(",".join(map(_full, row)) for row in rows)]
    cells = [table_header or csv_header.split(","),
             *([_cell(x) for x in row] for row in table_rows or rows)]
    widths = [max(map(len, column)) for column in zip(*cells)]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in cells]


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
    except (OSError, UnicodeDecodeError) as exc:
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
            rows = [(cls, name, getattr(m, name), m.stable)
                    for cls, m in enumerate(metrics, start=1) for name in METRIC_NAMES]
            # the table is wide, one row per class; an unstable class has no metrics
            wide = [(cls, *(getattr(m, name) for name in METRIC_NAMES)) if m.stable
                    else (cls, "UNSTABLE") + (None,) * (len(METRIC_NAMES) - 1)
                    for cls, m in enumerate(metrics, start=1)]
            print("\n".join(_lines(args.format, ANALYTIC_CSV_HEADER, rows, ("class", *METRIC_NAMES), wide)))
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
        rows = [(cls, name, est[name].estimate, est[name].ci_half_width, est[name].replications)
                for cls, est in sorted(report.classes.items()) for name in METRIC_NAMES]
        lines = _lines(args.format, SIMULATE_CSV_HEADER, rows, ("class", "metric", "estimate", "ci95", "reps"))
        if args.format == "table":
            md = report.metadata
            lines.append(f"# reps={len(md.completions_per_rep)} seed={md.base_seed}"
                         f" completions={sum(md.completions_per_rep)} wall={md.wall_clock_seconds:.2f}s"
                         + (" TRUNCATED" if md.truncated else ""))
    else:
        rows = [(r.class_index, r.metric, r.analytic, r.sim_mean, r.sim_ci_half_width, r.abs_error,
                 r.rel_error, r.covered) for r in compare(report, metrics)]
        lines = _lines(args.format, COMPARE_CSV_HEADER, rows)
    print("\n".join(lines))
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
