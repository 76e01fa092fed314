"""Command-line front end.

Subcommands::

    mgmprio analytic --config FILE [--mode approx|exact-m1|exact-mm-identical]
    mgmprio simulate --config FILE [simulation flags]
    mgmprio compare  --config FILE [--mode ...] [simulation flags]

A flag is given as ``--flag value`` or ``--flag=value``; a unique prefix
names it (``--conf``), a repeated flag keeps its last value, and
``--help`` or ``-h`` prints the subcommands, or after one its flags with
their defaults.  Each flag, its default and its help are declared once, in
``_COMMANDS``.  The parser is this module's own, not ``argparse``, whose
import and parser build cost a cold ``analytic`` process about 5 ms and
load ``re``, ``gettext``, ``locale`` and ``shutil``, none of which
``analytic`` needs otherwise.  Its usage errors keep argparse's wording.

Exit status: 0 on success, 1 on usage or scenario-parse errors and on
invalid values, non-finite ones included, 2 when the model is outside the
requested mode's domain, 3 when a simulation was truncated: a
replication's arrivals ran out, at the time cap or as no class arrives
any more, before it counted its jobs.  Each subcommand builds its rows
once for one emitter: tables round to 6 significant digits, CSV keeps full
double precision and, for a fixed seed, is byte-stable across invocations.
``compare`` leaves ``covered`` blank when fewer than 2 replications
observed the metric.
"""

import math
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


# Each subcommand's flags: flag -> (converter, default, help).  A default of
# None marks a required flag, a converter of None a switch, and a tuple
# converter the choices a value must be one of.
_COMMON = {
    "--config": (str, None, "scenario file"),
    "--format": (("table", "csv"), "table", "output format"),
}
_MODE = {"--mode": (tuple(sorted(_MODES)), "approx", "closed-form route")}
_SIMULATION = {
    "--jobs": (int, 1_000_000, "counted completions per replication"),
    "--warmup": (float, 100.0, "warm-up time; earlier arrivals are not counted"),
    "--seed": (int, 1, "base seed"),
    "--reps": (int, 10, "replications"),
    "--within-class": (("lifo", "fifo"), "lifo", "order within one class"),
    "--strict-preemption": (None, False, "only displace strictly lower-priority jobs"),
    "--max-time": (float, math.inf, "simulated-time safety cap; hitting it exits 3"),
}
_COMMANDS = {
    "analytic": ("closed-form metrics", {**_COMMON, **_MODE}),
    "simulate": ("replicated simulation estimates", {**_COMMON, **_SIMULATION}),
    "compare": ("analytic values against simulation", {**_COMMON, **_MODE, **_SIMULATION}),
}


def _help(command) -> str:
    """The subcommands (``command`` None), or the flags of one, with their defaults."""
    if command is None:
        return "\n".join(["usage: mgmprio {analytic,simulate,compare} --config CONFIG [flags]", "",
                          "Preemptive priority queue metrics", "",
                          *(f"  {name:<10}{about}" for name, (about, _) in _COMMANDS.items()), "",
                          "mgmprio COMMAND --help lists the flags of one subcommand."])
    about, flags = _COMMANDS[command]
    rows = []
    for flag, (convert, default, text) in flags.items():
        if isinstance(convert, tuple):
            flag += " {" + ",".join(convert) + "}"
        elif convert is not None:
            flag += " " + flag[2:].upper().replace("-", "_")
        if default is None:
            text += " (required)"
        elif convert is not None:
            text += f" (default {_cell(default)})"
        rows.append((flag, text))
    width = max(len(flag) for flag, _ in rows) + 2
    return "\n".join([f"usage: mgmprio {command} --config CONFIG [flags]", "", about, "",
                      *(f"  {flag:<{width}}{text}" for flag, text in rows)])


def _parse(argv: list) -> tuple:
    """``(command, values)`` from ``argv``, with ``values`` None when help was asked for.

    ``values`` maps each flag of the command to its value or default.  A
    flag is given as ``--flag value`` or ``--flag=value``, a unique prefix
    names it, and a repeated flag keeps its last value.  Raises
    ``_UsageError`` with argparse's wording.
    """
    if not argv:
        raise _UsageError("the following arguments are required: command")
    command, *rest = argv
    if command in ("-h", "--help"):
        return None, None
    if command not in _COMMANDS:
        raise _UsageError(f"argument command: invalid choice: {command!r} "
                          f"(choose from {', '.join(map(repr, _COMMANDS))})")
    flags = _COMMANDS[command][1]
    values = {}
    tokens = iter(rest)
    for token in tokens:
        name, given, text = ("--help" if token == "-h" else token).partition("=")
        names = [f for f in (*flags, "--help") if f.startswith(name)] if name[:2] == "--" and name[2:] else []
        if len(names) != 1:
            raise _UsageError(f"ambiguous option: {name} could match {', '.join(names)}" if names
                              else f"unrecognized arguments: {token}")
        flag = names[0]
        convert = flags[flag][0] if flag in flags else None
        if convert is None:  # a switch, or --help
            if given:
                raise _UsageError(f"argument {flag}: ignored explicit argument {text!r}")
            if flag == "--help":
                return command, None
            values[flag] = True
            continue
        if not given:
            text = next(tokens, None)
            # the value may be a negative number, but not a flag
            if text is None or (text[:1] == "-" and not text[1:].replace(".", "", 1).isdigit()):
                raise _UsageError(f"argument {flag}: expected one argument")
        if isinstance(convert, tuple):
            if text not in convert:
                raise _UsageError(f"argument {flag}: invalid choice: {text!r} "
                                  f"(choose from {', '.join(map(repr, convert))})")
            values[flag] = text
            continue
        try:
            values[flag] = convert(text)
        except ValueError:
            raise _UsageError(f"argument {flag}: invalid {convert.__name__} value: {text!r}") from None
    missing = [flag for flag, (_, default, _) in flags.items() if default is None and flag not in values]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    return command, {flag: values.get(flag, default) for flag, (_, default, _) in flags.items()}


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
    try:
        command, args = _parse(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args is None:
        print(_help(command))
        return 0
    config, fmt = args["--config"], args["--format"]

    try:
        with open(config, encoding="utf-8") as fh:
            scenario = parse_scenario(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {config}: {exc}", file=sys.stderr)
        return 1
    except ScenarioError as exc:
        print(f"error: {config}: {exc}", file=sys.stderr)
        return 1

    if command != "simulate":
        # compare rejects an out-of-domain model before it simulates
        try:
            metrics = _MODES[args["--mode"]](scenario.model)
        except DomainError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if command == "analytic":
            rows = [(cls, name, getattr(m, name), m.stable)
                    for cls, m in enumerate(metrics, start=1) for name in METRIC_NAMES]
            # the table is wide, one row per class; an unstable class has no metrics
            wide = [(cls, *(getattr(m, name) for name in METRIC_NAMES)) if m.stable
                    else (cls, "UNSTABLE") + (None,) * (len(METRIC_NAMES) - 1)
                    for cls, m in enumerate(metrics, start=1)]
            print("\n".join(_lines(fmt, ANALYTIC_CSV_HEADER, rows, ("class", *METRIC_NAMES), wide)))
            return 0

    # the simulator loads numpy; the analytic subcommand never needs it
    from .replication import compare, replicate
    from .simulation import PolicyConfig, RunConfig

    try:
        cfg = RunConfig(seed=args["--seed"], target_completions=args["--jobs"], warmup_time=args["--warmup"],
                        max_simulated_time=args["--max-time"])
        policy = PolicyConfig(within_class_order=args["--within-class"],
                              equal_class_preemption=not args["--strict-preemption"])
        report = replicate(scenario.model, policy, cfg, args["--reps"])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if command == "simulate":
        rows = [(cls, name, est[name].estimate, est[name].ci_half_width, est[name].replications)
                for cls, est in sorted(report.classes.items()) for name in METRIC_NAMES]
        lines = _lines(fmt, SIMULATE_CSV_HEADER, rows, ("class", "metric", "estimate", "ci95", "reps"))
        if fmt == "table":
            md = report.metadata
            lines.append(f"# reps={len(md.completions_per_rep)} seed={md.base_seed}"
                         f" completions={sum(md.completions_per_rep)} wall={md.wall_clock_seconds:.2f}s"
                         + (" TRUNCATED" if md.truncated else ""))
    else:
        rows = [(r.class_index, r.metric, r.analytic, r.sim_mean, r.sim_ci_half_width, r.abs_error,
                 r.rel_error, r.covered) for r in compare(report, metrics)]
        lines = _lines(fmt, COMPARE_CSV_HEADER, rows)
    print("\n".join(lines))
    return 3 if report.metadata.truncated else 0


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe; point stdout at devnull so that the
        # flush at interpreter shutdown does not raise a second time.  Only
        # this path needs os, which a -I -S start has not loaded
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
