"""Paired benchmark record: a parent checkout against a change, one workload, one seed.

    python3 tools/bench_record.py --parent DIR --change DIR --workload analytic_cold \\
        [--pairs 10] [--seconds 8] [--seed 1] --out BENCH_<label>.json

Each side's own ``perfbench/run.py`` runs unchanged with ``--trace 0``, from
the root of its checkout, one process at a time.  Pair k runs the parent
first when k is even and the change first when k is odd.  The record holds
every run (end-to-end metrics, ``attempted``, ``failed``, digest) and, per
side and metric, the median and quartiles (``statistics.quantiles``,
inclusive method), with the pairs the change won, ties counting for
neither side, and the parent's quartile spread.  A metric's gain ``holds``
when the change won at least nine pairs in ten and its median is better by
more than that spread.  The stamp names both commits, the Python, numpy
and ``nproc`` that perfbench reported, and each side's benchmark hash:
SHA-256 over ``BENCHMARK.json`` and every file under ``perfbench/``,
``__pycache__`` left out, path by path.

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


def benchmark_hash(root: Path) -> str:
    """SHA-256 of the benchmark in checkout ``root``: each file's relative path and bytes, in path order."""
    files = [root / "BENCHMARK.json"]
    files += sorted(p for p in (root / "perfbench").rglob("*")
                    if p.is_file() and "__pycache__" not in p.relative_to(root).parts)
    h = hashlib.sha256()
    for path in files:
        data = path.read_bytes()
        h.update(b"%s\0%d\0" % (path.relative_to(root).as_posix().encode(), len(data)))
        h.update(data)
    return h.hexdigest()


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
    """Per metric: each side's median and quartiles, the change's pair wins and whether its gain holds."""
    out = {}
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [(p["metrics"][name], c["metrics"][name]) for p, c in runs]
        parent = quartiles([p for p, _ in pairs])
        change = quartiles([c for _, c in pairs])
        wins = sum(c < p if lower else c > p for p, c in pairs)
        ties = sum(c == p for p, c in pairs)
        gain = parent["median"] - change["median"] if lower else change["median"] - parent["median"]
        spread = parent["q3"] - parent["q1"]
        out[name] = {
            "unit": metric["unit"], "better": metric["better"], "parent": parent, "change": change,
            "change_wins": wins, "ties": ties, "pairs": len(pairs),
            "median_gain": gain, "parent_spread": spread,
            "relative_gain": gain / parent["median"] if parent["median"] else None,
            "holds": wins >= 0.9 * len(pairs) and gain > spread,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="paired perfbench runs of a parent and a change")
    ap.add_argument("--parent", required=True, type=Path, help="root of the parent's checkout")
    ap.add_argument("--change", required=True, type=Path, help="root of the change's checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=8, help="perfbench --seconds of every run")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", required=True, type=Path, help="record to write, BENCH_<label>.json")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    hashes = {side: benchmark_hash(root) for side, root in roots.items()}
    runs, log = [], []
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            started = time.time()
            pair[side] = run_once(roots[side], args.workload, args.seed, args.seconds)
            log.append({"pair": k, "side": side, "started": started, **pair[side]})
            shown = pair[side].get("metrics") or pair[side].get("error", "")[-200:]
            print(f"pair {k} {side}: {shown}", file=sys.stderr)
        runs.append((pair["parent"], pair["change"]))

    bad = [r for r in log if r["exit"] != 0 or r.get("failed", 1) != 0]
    digests = {side: sorted({r["digest"] for r in log if r["side"] == side and "digest" in r})
               for side in roots}
    stamps = {side: next((r["env"] for r in log if r["side"] == side and "env" in r), {}) for side in roots}
    declared = json.loads((roots["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
    record = {
        "stamp": {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "pairs": args.pairs,
            **{f"{side}_commit": stamps[side].get("commit", "unknown") for side in roots},
            **{key: stamps["change"].get(key) for key in ("python", "numpy", "nproc")},
            **{f"{side}_benchmark_sha256": hashes[side] for side in roots},
        },
        "digests": digests,
        "digests_equal": digests["parent"] == digests["change"] and len(digests["change"]) == 1,
        "failed_runs": len(bad),
        "summary": None if bad else summarize(runs, declared),
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
              f"spread {s['parent_spread']:.3g} holds {s['holds']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
