"""Closed-loop client for one benchmark workload.

``run.py`` starts this file in a fresh interpreter with the checkout's
``src`` first on PYTHONPATH, which the processes it starts inherit.  One
process makes back-to-back calls through mgmprio's public API, with no
threads and no pool.  With ``--trace 0`` each main call sits between two
calls of the frozen ``yardstick`` package, whose times give the host's speed
around it.  It checks every result, and prints one JSON object as its last
stdout line.  With ``--trace 1`` it also measures each layer and dumps the
spans it recorded as one JSON line on stderr.

    PYTHONPATH=src python3 perfbench/client.py --workload s4_long --seed 1 --seconds 10 --trace 0
"""

import argparse
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager, redirect_stdout
from dataclasses import replace
from pathlib import Path
from statistics import median

import numpy
import scipy

import mgmprio
import mgmprio.cli
import mgmprio.replication
from mgmprio import (
    ClassSpec,
    Deterministic,
    Erlang,
    Exponential,
    HyperExponential,
    PolicyConfig,
    RunConfig,
    ServiceDistribution,
    SystemModel,
    Uniform,
    approx_metrics,
    compare,
    exact_mmm_identical,
    exact_single_channel,
    parse_scenario,
    replicate,
    run,
    substreams,
)
from workloads import ABS_FLOOR, APPROX_BAND, CI_MULTIPLE, SHIPPED_SCENARIOS, WORKLOADS

ROOT = Path.cwd()
TRUTH = {"approx": approx_metrics, "exact-m1": exact_single_channel, "exact-mm-identical": exact_mmm_identical}
# The calls a run makes at the least, however short ``--seconds`` is: a
# median needs more than one sample.
MIN_CALLS = 3
IMPORT_PROBES = 3
# Simulation layers on analytic_cold, which never calls the simulator, are
# measured on this small fixed run so every traced run reports every layer.
SIM_PROBE = replace(WORKLOADS["s4_long"], jobs=20_000, reps=2)
LAWS = {
    "exp": Exponential(1.0),
    "det": Deterministic(1.0),
    "erlang": Erlang(3, 3.0),
    "hyperexp": HyperExponential(((0.4, 0.5), (0.6, 2.0))),
    "uniform": Uniform(0.0, 2.0),
}
# A fresh process running the CLI exactly as the console script would; it
# reports its own peak RSS on stderr.  argv[1] names the package, mgmprio or
# yardstick.  With argv[2] == "1" it also reports its import and main() spans.
CLI_BOOT = """\
import sys, time
t0 = time.perf_counter()
main = __import__(sys.argv[1] + ".cli", fromlist=["main"]).main
t1 = time.perf_counter()
rc = main(sys.argv[3:])
t2 = time.perf_counter()
sys.stdout.flush()
import resource
extra = f" import_s={t1 - t0!r} main_s={t2 - t1!r}" if sys.argv[2] == "1" else ""
print(f"maxrss_kb={resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}{extra}", file=sys.stderr)
sys.exit(rc)
"""


class Gate:
    """Correctness checks, counted as failed out of attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


class Tracer:
    """Spans kept in memory: name, start, end, parent span and main-call id."""

    def __init__(self):
        self.spans: list[dict] = []
        self.call = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
               "call": self.call, "name": name}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def installed(self):
        """Route replicate's calls to run and per_class_raw through spans.

        replicate resolves both names in mgmprio.replication at call time,
        so the child spans nest under the replicate span.
        """
        inner_run = mgmprio.replication.run
        inner_raw = mgmprio.replication.per_class_raw

        def traced_run(model, policy, cfg):
            with self.span("simulation.run") as rec:
                result = inner_run(model, policy, cfg)
            rec["completions"] = result.counted_completions
            rec["records"] = len(result.records)
            rec["end_time"] = result.end_time
            return result

        def traced_raw(records, model):
            with self.span("per_class_raw") as rec:
                raw = inner_raw(records, model)
            rec["records"] = len(records)
            rec["preemptions"] = sum(s.interruption_count for s in raw.values())
            return raw

        mgmprio.replication.run = traced_run
        mgmprio.replication.per_class_raw = traced_raw
        try:
            yield
        finally:
            mgmprio.replication.run = inner_run
            mgmprio.replication.per_class_raw = inner_raw

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self, name: str) -> list[float]:
        child = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
        return [s["end"] - s["start"] - child.get(s["id"], 0.0) for s in self.spans if s["name"] == name]


class CountingDistribution(ServiceDistribution):
    """Delegates to a service law and counts the variates drawn from it."""

    def __init__(self, inner: ServiceDistribution):
        self.inner = inner
        self.draws = 0

    def mean(self) -> float:
        return self.inner.mean()

    def second_moment(self) -> float:
        return self.inner.second_moment()

    def sample(self, stream) -> float:
        self.draws += 1
        return self.inner.sample(stream)

    def spec(self) -> str:
        return self.inner.spec()


def p90(values):
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-9 * len(ordered) // 10) - 1)]


def env_stamp() -> dict:
    origin = Path(mgmprio.__file__).resolve()
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "mgmprio_from": "src" if origin.is_relative_to((ROOT / "src").resolve()) else f"install:{origin}",
    }


# ---------------------------------------------------------------- simulation


class SimWorkload:
    def __init__(self, wl, seed: int):
        self.wl = wl
        self.seed = seed
        self.model = parse_scenario(wl.scenario_texts(ROOT)[0][1]).model
        self.policy = PolicyConfig(wl.within_class, equal_class_preemption=wl.equal_class_preemption)
        self.cfg = RunConfig(seed=seed, target_completions=wl.jobs, warmup_time=wl.warmup)
        self.truth = TRUTH[wl.truth](self.model)
        self.digest = None
        self.ref = None

    def yardstick_call(self, gate: Gate) -> float:
        """The same main call on the frozen yardstick package; returns its wall s."""
        if self.ref is None:
            import yardstick

            model = yardstick.parse_scenario(self.wl.scenario_texts(ROOT)[0][1]).model
            truth = {"approx": yardstick.approx_metrics, "exact-m1": yardstick.exact_single_channel,
                     "exact-mm-identical": yardstick.exact_mmm_identical}[self.wl.truth](model)
            self.ref = (yardstick, model, truth,
                        yardstick.PolicyConfig(self.wl.within_class,
                                               equal_class_preemption=self.wl.equal_class_preemption),
                        yardstick.RunConfig(seed=self.seed, target_completions=self.wl.jobs,
                                            warmup_time=self.wl.warmup))
        pkg, model, truth, policy, cfg = self.ref
        t0 = time.perf_counter()
        report = pkg.replicate(model, policy, cfg, self.wl.reps)
        pkg.compare(report, truth)
        wall = time.perf_counter() - t0
        gate.check(list(report.metadata.completions_per_rep) == [self.wl.jobs] * self.wl.reps,
                   f"yardstick reps counted {report.metadata.completions_per_rep}, target {self.wl.jobs}")
        return wall

    def call(self, gate: Gate, model=None, tracer: Tracer | None = None) -> tuple[float, int, float]:
        """One main call, replicate + compare; returns (wall s, completions, replicate s)."""
        model = model or self.model
        if tracer is None:
            t0 = time.perf_counter()
            report = replicate(model, self.policy, self.cfg, self.wl.reps)
            t1 = time.perf_counter()
            rows = compare(report, self.truth)
            t2 = time.perf_counter()
        else:
            with tracer.installed():
                t0 = time.perf_counter()
                with tracer.span("replication.replicate"):
                    report = replicate(model, self.policy, self.cfg, self.wl.reps)
                t1 = time.perf_counter()
                with tracer.span("replication.compare"):
                    rows = compare(report, self.truth)
                t2 = time.perf_counter()
        self.check(gate, report, rows)
        return t2 - t0, sum(report.metadata.completions_per_rep), t1 - t0

    def check(self, gate: Gate, report, rows) -> None:
        md = report.metadata
        for k, done in enumerate(md.completions_per_rep):
            gate.check(done == self.wl.jobs, f"rep {k}: {done} counted completions, target {self.wl.jobs}")
        gate.check(not md.truncated, "a replication was truncated")
        for r in rows:
            if r.metric not in self.wl.gated:
                continue
            if r.analytic is None or r.sim_mean is None:
                gate.check(False, f"class {r.class_index} {r.metric}: no estimate or no truth")
            elif self.wl.truth == "approx":
                gate.check(r.abs_error <= max(APPROX_BAND * abs(r.analytic), ABS_FLOOR),
                           f"class {r.class_index} {r.metric}: {r.sim_mean!r} outside "
                           f"{APPROX_BAND:.0%} of approx {r.analytic!r}")
            else:
                gate.check(r.abs_error <= max(CI_MULTIPLE * r.sim_ci_half_width, ABS_FLOOR),
                           f"class {r.class_index} {r.metric}: {r.sim_mean!r} +- {r.sim_ci_half_width!r} "
                           f"is {r.abs_error!r} from exact {r.analytic!r}")
        digest = estimates_digest(report)
        if self.digest is None:
            self.digest = digest
        else:
            gate.check(digest == self.digest, f"estimates digest {digest} differs from {self.digest} on a repeat")

    def counting_model(self):
        counters = [CountingDistribution(c.service) for c in self.model.classes]
        model = SystemModel(self.model.servers, tuple(
            ClassSpec(c.arrival_rate, d) for c, d in zip(self.model.classes, counters)))
        return model, counters


def estimates_digest(report) -> str:
    rows = [[cls, name, repr(e.estimate), repr(e.ci_half_width), e.replications]
            for cls, per in sorted(report.classes.items()) for name, e in per.items()]
    rows.append(list(report.metadata.completions_per_rep))
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


# ----------------------------------------------------------------- fresh CLI


class CliWorkload:
    def __init__(self, wl, seed: int):
        self.order = list(wl.scenarios)
        random.Random(seed).shuffle(self.order)
        self.expected = {}
        for path in self.order:
            metrics = approx_metrics(parse_scenario((ROOT / path).read_text(encoding="utf-8")).model)
            self.expected[path] = [[str(cls)] + [format(getattr(m, n), ".6g") for n in mgmprio.METRIC_NAMES]
                                   for cls, m in enumerate(metrics, start=1)]
        self.outputs: dict[str, str] = {}
        self.rss_mb: list[float] = []
        self.spans: list[dict] = []
        self.n = 0

    def fresh_cli(self, pkg: str, path: str, traced: bool = False) -> tuple[subprocess.CompletedProcess, float]:
        env = None
        if pkg == "yardstick":
            env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent))
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", CLI_BOOT, pkg, "1" if traced else "0", "analytic", "--config", path],
            capture_output=True, text=True, timeout=120, env=env,
        )
        return proc, time.perf_counter() - t0

    def yardstick_call(self, gate: Gate) -> float:
        """The next call's scenario through the frozen yardstick CLI; returns its wall s."""
        path = self.order[self.n % len(self.order)]
        proc, wall = self.fresh_cli("yardstick", path)
        gate.check(proc.returncode == 0, f"yardstick analytic {path} exited {proc.returncode}: {proc.stderr[-300:]}")
        return wall

    def call(self, gate: Gate, traced: bool = False) -> tuple[float, int, float]:
        """One fresh-process ``analytic`` call, one job; returns (wall s, 1, wall s)."""
        path = self.order[self.n % len(self.order)]
        self.n += 1
        proc, wall = self.fresh_cli("mgmprio", path, traced)
        gate.check(proc.returncode == 0, f"analytic {path} exited {proc.returncode}: {proc.stderr[-300:]}")
        stamp = dict(kv.split("=") for kv in proc.stderr.strip().splitlines()[-1].split())
        self.rss_mb.append(int(stamp["maxrss_kb"]) * 1024 / 1e6)
        if traced:
            self.spans.append({"path": path, "wall_s": wall, "import_s": float(stamp["import_s"]),
                               "main_s": float(stamp["main_s"])})
        rows = [line.split() for line in proc.stdout.splitlines()[1:]]
        gate.check(rows == self.expected[path], f"analytic {path} printed {rows}, expected {self.expected[path]}")
        first = self.outputs.setdefault(path, proc.stdout)
        gate.check(proc.stdout == first, f"analytic {path} output changed between calls")
        return wall, 1, wall

    def digest(self) -> str:
        text = "".join(self.outputs[p] for p in sorted(self.outputs))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# ------------------------------------------------------------- layer probes


def timed_rate(fn, n: int, batches: int = 3) -> float:
    """Median calls per second of ``fn`` over ``batches`` batches of ``n``."""
    rates = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        rates.append(n / (time.perf_counter() - t0))
    return median(rates)


def import_layer() -> dict:
    """Cumulative import times from ``-X importtime``, median over fresh processes.

    scipy loads ``scipy.stats`` lazily, so no line names it; its figure is
    the cumulative time of every scipy module whose importer is outside
    scipy, which is scipy.stats and the scipy core it pulls in.
    """
    found = {"mgmprio": [], "scipy": []}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mgmprio"],
                              capture_output=True, text=True, timeout=120)
        tree = []  # (depth, name, cumulative s), children before their parent
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                name = parts[2].rstrip()
                tree.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1]) / 1e6))
        scipy_s = 0.0
        for k, (depth, name, cum) in enumerate(tree):
            importer = next((n for d, n, _ in tree[k + 1:] if d < depth), "")
            if name == "mgmprio":
                found["mgmprio"].append(cum)
            if name.split(".")[0] == "scipy" and importer.split(".")[0] != "scipy":
                scipy_s += cum
        found["scipy"].append(scipy_s)
    return {"import.mgmprio_s": median(found["mgmprio"]), "import.scipy_stats_s": median(found["scipy"])}


def front_layers(texts: list[str], seed: int, n_classes: int) -> dict:
    out = {}
    parses = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(100):
            for text in texts:
                parse_scenario(text)
        parses.append((time.perf_counter() - t0) / (100 * len(texts)))
    out["scenario.parse_s"] = median(parses)
    models = [parse_scenario(t).model for t in texts]
    out["analytic.evals_per_s"] = timed_rate(lambda: [approx_metrics(m) for m in models], 500) * len(models)
    mains = []
    for _ in range(10):
        for path in SHIPPED_SCENARIOS:
            sink = io.StringIO()
            t0 = time.perf_counter()
            with redirect_stdout(sink):
                mgmprio.cli.main(["analytic", "--config", path])
            mains.append(time.perf_counter() - t0)
    out["cli.main_s"] = median(mains)
    stream = substreams(seed, 1)[0]
    out["streams.uniforms_per_s"] = timed_rate(stream.uniform, 300_000)
    spawns = []
    for k in range(5):
        t0 = time.perf_counter()
        for j in range(50):
            substreams(seed + 50 * k + j, 2 * n_classes)
        spawns.append((time.perf_counter() - t0) / 50)
    out["streams.substreams_s"] = median(spawns)
    for name, law in LAWS.items():
        out[f"distributions.{name}.variates_per_s"] = timed_rate(lambda: law.sample(stream), 40_000)
    return out


def sim_layers(tracer: Tracer, draws: dict[str, int], layers: dict) -> dict:
    """Per-layer figures from the traced main calls' spans.

    ``draws`` maps each service law to its variates drawn in the first
    traced call.
    """
    runs = [s for s in tracer.spans if s["name"] == "simulation.run"]
    raws = [s for s in tracer.spans if s["name"] == "per_class_raw"]
    first = [s for s in runs if s["call"] == runs[0]["call"]]
    first_raw = [s for s in raws if s["call"] == raws[0]["call"]]
    run_s = [s["end"] - s["start"] for s in runs]
    n_draws = sum(draws.values())
    # each generated job also takes one exponential inter-arrival variate
    draw_s = sum(n / layers[f"distributions.{law}.variates_per_s"] for law, n in draws.items())
    draw_s += n_draws / layers["distributions.exp.variates_per_s"]
    return {
        "distributions.draws": n_draws,
        "distributions.share": draw_s / sum(s["end"] - s["start"] for s in first),
        "simulation.run_s": median(run_s),
        "simulation.run_s_p90": p90(run_s),
        "simulation.sim_time_per_s": median([s["end_time"] / (s["end"] - s["start"]) for s in runs]),
        "simulation.preemptions": sum(s["preemptions"] for s in first_raw),
        "simulation.completions": sum(s["completions"] for s in first),
        "per_class_raw.s": median([s["end"] - s["start"] for s in raws]),
        "per_class_raw.records_per_s": median([s["records"] / (s["end"] - s["start"]) for s in raws]),
        "replication.self_s": median(tracer.self_times("replication.replicate")),
        "replication.compare_s": median(tracer.durations("replication.compare")),
    }


def records_mb(sim: SimWorkload) -> float:
    """Memory the first replication's RunResult holds, by tracemalloc."""
    cfg = replace(sim.cfg, seed=mgmprio.replication.rep_seeds(sim.cfg.seed, 1)[0])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run(sim.model, sim.policy, cfg)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del result
    return held / 1e6


def traced_sim_calls(sim: SimWorkload, gate: Gate, tracer: Tracer, until: float, samples: dict) -> dict[str, int]:
    """Alternate untraced and traced main calls until ``until``; returns draws by law."""
    model, counters = sim.counting_model()
    draws = {}
    k = 0
    while k < 2 * MIN_CALLS or time.perf_counter() < until:
        if k % 2 == 0:
            samples["wall_s"].append(sim.call(gate)[0])
        else:
            tracer.call = k // 2
            wall = sim.call(gate, model=model, tracer=tracer)[0]
            samples["traced_wall_s"].append(wall)
            if not draws:
                for c in counters:
                    law = next(name for name, v in LAWS.items() if type(v) is type(c.inner))
                    draws[law] = draws.get(law, 0) + c.draws
        k += 1
    return draws


def closed_loop(call, yardstick_call, nominal_s: float, min_calls: int, until: float, samples: dict) -> None:
    """Back-to-back calls, each between two yardstick calls: y0 c0 y1 c1 ... yn.

    ``call`` returns (wall s, jobs, seconds the jobs took), ``yardstick_call``
    its wall s.  The host factor of call i is the mean of yi and yi+1 over
    ``nominal_s``; wall and jobs/s are divided and multiplied by it.  Calls
    go on, at least ``min_calls`` of them, while one more pair fits before
    ``until``.
    """
    refs = samples["yardstick_s"]
    refs.append(yardstick_call())
    while True:
        t0 = time.perf_counter()
        wall, jobs, busy = call()
        refs.append(yardstick_call())
        host = (refs[-2] + refs[-1]) / 2 / nominal_s
        samples["raw_wall_s"].append(wall)
        samples["wall_s"].append(wall / host)
        samples["jobs_per_s"].append(jobs * host / busy)
        now = time.perf_counter()
        if len(samples["wall_s"]) >= min_calls and now + (now - t0) > until:
            break


# --------------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    until = time.perf_counter() + args.seconds
    wl = WORKLOADS[args.workload]
    gate = Gate()
    samples = {"wall_s": [], "jobs_per_s": [], "raw_wall_s": [], "yardstick_s": [], "traced_wall_s": []}
    out = {"env": env_stamp(), "workload": wl.name, "seed": args.seed}
    tracer = Tracer()
    layers = {}

    if args.trace:
        texts = [t for _, t in wl.scenario_texts(ROOT)]
        layers.update(import_layer())
        layers.update(front_layers(texts, args.seed, len(parse_scenario(texts[0]).model.classes)))

    if wl.simulates:
        sim = SimWorkload(wl, args.seed)
        if args.trace:
            layers["simulation.records_mb"] = records_mb(sim)
            draws = traced_sim_calls(sim, gate, tracer, until, samples)
            layers.update(sim_layers(tracer, draws, layers))
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        else:
            # warm-up; the peak is read before the yardstick adds its own memory
            sim.call(gate)
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            sim.yardstick_call(gate)
            closed_loop(lambda: sim.call(gate), lambda: sim.yardstick_call(gate), wl.yardstick_s,
                        MIN_CALLS, until, samples)
        out["digest"] = sim.digest
    else:
        cli = CliWorkload(wl, args.seed)
        if args.trace:
            for k in range(MIN_CALLS * len(cli.order)):
                samples["traced_wall_s" if k % 2 else "wall_s"].append(cli.call(gate, traced=bool(k % 2))[0])
        else:
            closed_loop(lambda: cli.call(gate), lambda: cli.yardstick_call(gate), wl.yardstick_s,
                        MIN_CALLS, until, samples)
        out["digest"] = cli.digest()
        out["peak_rss_mb"] = median(cli.rss_mb)
        if args.trace:
            probe = SimWorkload(SIM_PROBE, args.seed)
            layers["simulation.records_mb"] = records_mb(probe)
            draws = traced_sim_calls(probe, gate, tracer, 0.0, {"wall_s": [], "traced_wall_s": []})
            layers.update(sim_layers(tracer, draws, layers))
            tracer.spans.extend({"name": "cli.fresh_process", **s} for s in cli.spans)

    if args.trace:
        layers["trace.overhead_s"] = median(samples["traced_wall_s"]) - median(samples["wall_s"])
        print(json.dumps({"spans": tracer.spans}), file=sys.stderr)
    out.update(samples=samples, layers=layers, attempted=gate.attempted, failed=gate.failed,
               failures=gate.failures)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
