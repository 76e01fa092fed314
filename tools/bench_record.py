"""Paired benchmark record: a parent checkout against a change, one workload, one seed.

    python3 tools/bench_record.py --parent DIR --change DIR --workload analytic_cold \\
        [--pairs 10] [--seed 1] --out BENCH_<label>.json

Each side's own ``perfbench/run.py`` runs unchanged with ``--trace 0`` and
the parent's ``BENCHMARK.json`` ``run_seconds``, from the root of its
checkout, one process at a time.  Pair k runs the parent first when k is
even and the change first when k is odd.  The record holds every run
(end-to-end metrics, ``attempted``, ``failed``, digest) and, per side and
metric, the median and quartiles (``statistics.quantiles``, inclusive
method), with the pairs the change won, ties counting for neither side,
and the parent's quartile spread.  A metric's gain ``holds`` when the
change won at least nine pairs in ten and its median is better by more
than that spread.  Its ``verdict``, against the metric's ``BENCHMARK.json``
bound as a share of the parent's median, is ``worse`` when the change's
median is worse by more than the bound, ``better_every_run`` when every
change run beats every parent run, ``unresolved`` when the parent's
quartile spread is wider than the bound, and ``within_bound`` otherwise.
The stamp names both commits, the Python, numpy and ``nproc`` that
perfbench reported, each side's benchmark hash (SHA-256 over
``BENCHMARK.json`` and every file under ``perfbench/``) and each side's
source hash (SHA-256 over every file under ``src/``), ``__pycache__`` left
out, path by path; the source hash names a checkout that has no ``.git``.

Exits 1 when a run fails (non-zero exit or a failed check), the two
sides' digests differ or their benchmark hashes differ, after writing the
record: a pair is only a comparison when both sides run the same benchmark.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def tree_hash(root: Path, *names: str) -> str:
    """SHA-256 of the named files and directory trees of checkout ``root``: each file's relative path and bytes.

    Files go in the order of ``names``, each tree's in path order, and no
    file under a ``__pycache__`` directory is read.
    """
    files = []
    for name in names:
        path = root / name
        if path.is_dir():
            files += sorted(p for p in path.rglob("*")
                            if p.is_file() and "__pycache__" not in p.relative_to(root).parts)
        else:
            files.append(path)
    h = hashlib.sha256()
    for path in files:
        data = path.read_bytes()
        h.update(b"%s\0%d\0" % (path.relative_to(root).as_posix().encode(), len(data)))
        h.update(data)
    return h.hexdigest()


def benchmark_hash(root: Path) -> str:
    """SHA-256 of the benchmark in checkout ``root``: ``BENCHMARK.json`` and ``perfbench/``."""
    return tree_hash(root, "BENCHMARK.json", "perfbench")


def source_hash(root: Path) -> str:
    """SHA-256 of the package source in checkout ``root``: ``src/``."""
    return tree_hash(root, "src")


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py`` run in ``root``: its metrics, counts, digest and stamp."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"exit": proc.returncode, "error": proc.stderr[-2000:]}
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "exit": proc.returncode,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "digest": detail["digest"],
        "env": detail["env"],
    }


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list, declared: list) -> dict:
    """Per metric: each side's median and quartiles, the change's pair wins, whether its gain holds, its verdict."""
    out = {}
    for metric in declared:
        name, lower, bound = metric["name"], metric["better"] == "lower", metric["bound"]
        pairs = [(p["metrics"][name], c["metrics"][name]) for p, c in runs]
        parents, changes = [p for p, _ in pairs], [c for _, c in pairs]
        parent, change = quartiles(parents), quartiles(changes)
        wins = sum(c < p if lower else c > p for p, c in pairs)
        ties = sum(c == p for p, c in pairs)
        gain = parent["median"] - change["median"] if lower else change["median"] - parent["median"]
        spread = parent["q3"] - parent["q1"]
        if -gain > bound * abs(parent["median"]):
            verdict = "worse"
        elif (max(changes) < min(parents)) if lower else (min(changes) > max(parents)):
            verdict = "better_every_run"
        elif spread > bound * abs(parent["median"]):
            verdict = "unresolved"
        else:
            verdict = "within_bound"
        out[name] = {
            "unit": metric["unit"], "better": metric["better"], "parent": parent, "change": change,
            "change_wins": wins, "ties": ties, "pairs": len(pairs),
            "median_gain": gain, "parent_spread": spread,
            "relative_gain": gain / parent["median"] if parent["median"] else None,
            "holds": wins >= 0.9 * len(pairs) and gain > spread,
            "bound": bound, "verdict": verdict,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="paired perfbench runs of a parent and a change")
    ap.add_argument("--parent", required=True, type=Path, help="root of the parent's checkout")
    ap.add_argument("--change", required=True, type=Path, help="root of the change's checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", required=True, type=Path, help="record to write, BENCH_<label>.json")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    hashes = {side: benchmark_hash(root) for side, root in roots.items()}
    benchmark = json.loads((roots["parent"] / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    runs, log = [], []
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            started = time.time()
            pair[side] = run_once(roots[side], args.workload, args.seed, seconds)
            log.append({"pair": k, "side": side, "started": started, **pair[side]})
            shown = pair[side].get("metrics") or pair[side].get("error", "")[-200:]
            print(f"pair {k} {side}: {shown}", file=sys.stderr)
        runs.append((pair["parent"], pair["change"]))

    bad = [r for r in log if r["exit"] != 0 or r.get("failed", 1) != 0]
    digests = {side: sorted({r["digest"] for r in log if r["side"] == side and "digest" in r})
               for side in roots}
    stamps = {side: next((r["env"] for r in log if r["side"] == side and "env" in r), {}) for side in roots}
    record = {
        "stamp": {
            "workload": args.workload, "seed": args.seed, "seconds": seconds, "pairs": args.pairs,
            **{f"{side}_commit": stamps[side].get("commit", "unknown") for side in roots},
            **{f"{side}_source_sha256": source_hash(root) for side, root in roots.items()},
            **{key: stamps["change"].get(key) for key in ("python", "numpy", "nproc")},
            **{f"{side}_benchmark_sha256": hashes[side] for side in roots},
        },
        "digests": digests,
        "digests_equal": digests["parent"] == digests["change"] and len(digests["change"]) == 1,
        "failed_runs": len(bad),
        "summary": None if bad else summarize(runs, benchmark["end_to_end"]),
        "runs": [{k: v for k, v in r.items() if k != "env"} for r in log],
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    if bad:
        print(f"error: {len(bad)} run(s) failed", file=sys.stderr)
        return 1
    if not record["digests_equal"]:
        print(f"error: digests differ: {digests}", file=sys.stderr)
        return 1
    if hashes["parent"] != hashes["change"]:
        print(f"error: the two checkouts' benchmarks differ: {hashes}", file=sys.stderr)
        return 1
    for name, s in record["summary"].items():
        print(f"{name}: parent {s['parent']['median']:.6g} change {s['change']['median']:.6g} "
              f"wins {s['change_wins']}/{s['pairs']} gain {s['median_gain']:.3g} "
              f"spread {s['parent_spread']:.3g} holds {s['holds']} verdict {s['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
