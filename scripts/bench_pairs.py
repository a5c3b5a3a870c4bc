#!/usr/bin/env python3
"""Before/after benchmark pairs of two checkouts, written as one JSON file.

Each pair runs ``perfbench/run.py`` once from the parent checkout and once
from the change checkout, alternating which side goes first (the parent
in even pairs, the change in odd ones). Each run is a new process with
the checkout as its working directory, so it imports that checkout's
``src/``. For every workload and every end-to-end metric that
BENCHMARK.json declares, the output holds each side's runs, median and
quartiles, and the number of pairs the change won (ties count for
neither side). A run that exits non-zero or reports a failed check is
recorded under "failed_runs" and its metrics are left out.

Run from the root of a checkout, with two checkouts made by git archive
or git clone:

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload normalize-bridge --pairs 10 --seconds 25 --out BENCH.json
"""
import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path


def src_digest(root: Path) -> str:
    """A short hash of the checkout's package sources, naming the code run."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One benchmark run; its metric values, or None if it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0] if values else None
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def compare(metric: dict, parent: list[dict | None], change: list[dict | None]) -> dict:
    name, higher = metric["name"], metric["better"] == "higher"
    pairs = [(p[name], c[name]) for p, c in zip(parent, change) if p and c]
    wins = sum((c > p) if higher else (c < p) for p, c in pairs)
    ps = summary([p[name] for p in parent if p])
    cs = summary([c[name] for c in change if c])
    out = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
           "parent": ps, "change": cs, "change_wins": wins, "pairs": len(pairs)}
    if ps["median"] and cs["median"] is not None:
        gap = cs["median"] - ps["median"]
        out["median_change"] = gap / ps["median"]
        out["beyond_parent_iqr"] = abs(gap) > ps["q3"] - ps["q1"]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, type=Path, help="parent checkout")
    ap.add_argument("--change", required=True, type=Path, help="change checkout")
    ap.add_argument("--workload", action="append",
                    help="workload to run, repeatable (default: all in BENCHMARK.json)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", required=True, type=Path, help="JSON file to write")
    args = ap.parse_args()

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    report = {
        "command": "perfbench/run.py", "seed": args.seed, "seconds": args.seconds,
        "pairs": args.pairs,
        "src": {"parent": src_digest(args.parent), "change": src_digest(args.change)},
        "workloads": {},
    }
    for workload in workloads:
        runs: dict[str, list] = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(getattr(args, side), workload, args.seed, args.seconds))
            print(f"{workload} pair {i + 1}/{args.pairs} done", file=sys.stderr)
        entry = {m["name"]: compare(m, runs["parent"], runs["change"]) for m in spec["end_to_end"]}
        entry["failed_runs"] = {side: sum(r is None for r in rs) for side, rs in runs.items()}
        report["workloads"][workload] = entry
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
