"""mgmprio benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload s4_long --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics
(``setup_s``, ``wall_s``, ``jobs_per_s``, ``peak_rss_mb``), with
``--trace 1`` the per-layer ones, each a median over the run's calls.  The
line before the result holds the details: environment stamp, estimates
digest, every sample behind the medians and the first failed checks.  See perfbench/README.md
for the workloads and what each metric should move.

This process never imports mgmprio.  It times fresh set-up processes, then
hands the closed loop to ``client.py`` in a fresh interpreter.  Every time
behind an end-to-end metric is rescaled by the speed of the frozen
``yardstick`` package measured just before and just after it.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, YARDSTICK_SETUP_S  # noqa: E402

# Set-up is timed this many times, each probe between two yardstick probes,
# and reported as the median; the run's remaining seconds go to the closed loop.
SETUP_PROBES = 3
DEADLINE_S = 170.0
# argv[1] names the package, mgmprio or yardstick
SETUP_BOOT = """\
import sys
pkg = __import__(sys.argv[1])
for text in sys.argv[2:]:
    pkg.parse_scenario(text)
print(len(sys.argv) - 2)
"""


class BenchError(Exception):
    pass


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env(path: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(path)
    return env


def run_child(cmd: list[str], path: Path, deadline: float) -> subprocess.CompletedProcess:
    """Run ``cmd`` with ``path`` as its PYTHONPATH; raise BenchError unless it exits 0."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before " + " ".join(cmd[:3]))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(path), timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(cmd[:3])}") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:3])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def setup_times(texts: list[str], root: Path, deadline: float) -> tuple[list[float], list[float], list[float]]:
    """Fresh interpreters that import the package and parse the models.

    Probes alternate yardstick, mgmprio, yardstick, ... yardstick.  Returns
    the mgmprio probes' wall seconds rescaled by their two neighbouring
    yardstick probes, the raw mgmprio seconds and the yardstick seconds.
    """
    # a user's installed package has its bytecode cached; so does the checkout's
    compileall.compile_dir(root / "src", quiet=1)
    compileall.compile_dir(HERE / "yardstick", quiet=1)

    def probe(pkg: str, path: Path) -> float:
        t0 = time.perf_counter()
        proc = run_child([sys.executable, "-c", SETUP_BOOT, pkg, *texts], path, deadline)
        wall = time.perf_counter() - t0
        if proc.stdout.strip() != str(len(texts)):
            raise BenchError(f"{pkg} set-up probe printed {proc.stdout!r}")
        return wall

    refs = [probe("yardstick", HERE)]
    walls, scaled = [], []
    for _ in range(SETUP_PROBES):
        walls.append(probe("mgmprio", root / "src"))
        refs.append(probe("yardstick", HERE))
        scaled.append(walls[-1] * YARDSTICK_SETUP_S / ((refs[-2] + refs[-1]) / 2))
    return scaled, walls, refs


def recorded_digest(workload: str, seed: int):
    digests = json.loads((HERE / "digests.json").read_text())
    return digests.get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="mgmprio benchmark, one run of one workload")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out for re-checks)")
    ap.add_argument("--seconds", type=int, default=30, help="measuring time of the run, set-up probes included")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run instead of end-to-end ones")
    args = ap.parse_args(argv)
    started = time.monotonic()
    deadline = started + DEADLINE_S
    root = Path.cwd()
    wl = WORKLOADS[args.workload]

    try:
        missing = [p for p in ("src/mgmprio/__init__.py", *wl.scenarios) if not (root / p).is_file()]
        if missing:
            raise BenchError(f"not the root of an mgmprio checkout, missing: {', '.join(missing)}")
        setup, setup_raw, setup_ref = [], [], []
        if not args.trace:
            setup, setup_raw, setup_ref = setup_times([t for _, t in wl.scenario_texts(root)], root, deadline)
        seconds_left = max(0.0, args.seconds - (time.monotonic() - started))
        proc = run_child([sys.executable, str(HERE / "client.py"), "--workload", wl.name, "--seed", str(args.seed),
                          "--seconds", str(seconds_left), "--trace", str(args.trace)], root / "src", deadline)
        client = json.loads(proc.stdout.strip().splitlines()[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        # the client's span dump, written out at the end of the run
        sys.stderr.write(proc.stderr)

    samples = client["samples"]
    if args.trace:
        values = client["layers"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(samples["wall_s"]),
            "jobs_per_s": statistics.median(samples["jobs_per_s"]),
            "peak_rss_mb": client["peak_rss_mb"],
        }
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    # setup probes and the client's own checks both count toward the gate
    attempted = client["attempted"] + len(setup_raw) + len(setup_ref)
    failed = client["failed"]
    recorded = recorded_digest(wl.name, args.seed)
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "env": {**client["env"], "commit": git_commit(root)},
        "digest": client["digest"],
        "digest_recorded": recorded,
        "bits_changed": None if recorded is None else client["digest"] != recorded,
        "samples": {k: v for k, v in samples.items() if v}
        | ({"setup_s": setup, "raw_setup_s": setup_raw, "yardstick_setup_s": setup_ref} if setup else {}),
        "failures": client["failures"],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
