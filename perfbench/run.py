"""treecuts benchmark: one workload per process, closed loop, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload oracle-corpus --seed 1 --seconds 25 --trace 0

The program is imported from the checkout's own ``src/``. Set-up (a fresh
import, seeded input generation and a fixed warm-up) is repeated seven
times and its median reported. With ``--trace 0`` the items of the pool
run one after another (the next starts when the previous one returns),
pass after pass, until ``--seconds`` have passed and the pool has run at
least twice; every output is then checked and the end-to-end
metrics of BENCHMARK.json are printed, each item counted at its median
over the passes. Every end-to-end time is scaled to a fixed machine
speed by a reference kernel run between items (see refspeed.py). With ``--trace 1`` each item of a fixed prefix of the pool runs
untraced and traced back to back, pass after pass, until ``--seconds``
have passed; the per-layer metrics are reported per pass and the spans
of the first traced pass are written to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a summary goes to
standard error. The exit code is 0 when every check passed, 1 when a
check or the output digest failed, and 2 when the program cannot be run.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

DEFAULT_SEED = 1  # the seed whose output digests are recorded in digests.json
SETUP_REPEATS = 7
SETUP_REFS = 15  # reference samples taken before and after each set-up
MIN_ITEMS = 100  # distinct items per pool, so that ten lie beyond p90
MIN_PASSES = 2

sys.path.insert(0, str(HERE))
import refspeed  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def fresh_import():
    """Import treecuts from scratch, dropping any earlier import."""
    for name in [k for k in sys.modules if k == "treecuts" or k.startswith("treecuts.")]:
        del sys.modules[name]
    tc = importlib.import_module("treecuts")
    if not Path(tc.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"treecuts was imported from {tc.__file__}, not from {SRC}")
    return tc


def setup(wl, seed: int):
    """One set-up: its measured duration, that duration scaled to the
    reference speed, the fresh package and the seeded items."""
    refs = [refspeed.sample() for _ in range(SETUP_REFS)]
    t0 = perf_counter()
    tc = fresh_import()
    items = wl.generate(tc, random.Random(seed))
    for item in wl.warmup(tc):
        wl.run(tc, item)
    dt = perf_counter() - t0
    refs += [refspeed.sample() for _ in range(SETUP_REFS)]
    return dt, dt * refspeed.REF_NOMINAL_S / statistics.median(refs), tc, items


def time_item(wl, tc, item, errors: dict, key, tracer=None):
    """One library call and its duration, inside an item span when a
    tracer is given. An exception is recorded against key, and the output
    is then None."""
    if tracer is not None:
        tracer.install()
    t0 = perf_counter()
    try:
        out = tracer.item(wl.run, tc, item) if tracer else wl.run(tc, item)
    except Exception as e:  # the loop must go on and report the failure
        out = None
        if not errors:
            traceback.print_exc()
        errors[key] = f"{item.label}: {type(e).__name__}: {e}"
    finally:
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    return out, dt


def check_pass(wl, tc, items, outs, errors: dict) -> dict[int, str]:
    """Problems per pool index for one pass: exceptions plus failed checks."""
    ok = [i for i in range(len(items)) if i not in errors]
    bad = wl.check(tc, [items[i] for i in ok], [outs[i] for i in ok])
    out = {ok[j]: msg for j, msg in bad.items()}
    out.update(errors)
    return out


def timed_run(wl, args, spec) -> dict:
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        raw, s, tc, items = setup(wl, args.seed)
        setups.append(s)
        raw_setups.append(raw)
    n = len(items)
    if n < MIN_ITEMS:
        raise ValueError(f"{wl.name} generated {n} items, fewer than {MIN_ITEMS}")
    order: list[int] = []  # pool index of each timed call, in run order
    durations: list[float] = []
    refs: list[float] = []  # a reference sample after each call
    first: list = [None] * n
    canon: list = [None] * n
    changed: set[int] = set()
    errors: dict[tuple[int, int], str] = {}
    k = 0
    t_start = perf_counter()
    while k < MIN_PASSES * n or perf_counter() - t_start < args.seconds:
        p, i = divmod(k, n)
        out, dt = time_item(wl, tc, items[i], errors, (p, i))
        order.append(i)
        durations.append(dt)
        refs.append(refspeed.sample())
        if (p, i) not in errors:
            text = wl.canonical(tc, items[i], out)
            if p == 0:
                first[i], canon[i] = out, text
            elif text != canon[i]:
                changed.add(i)
        k += 1
    wall = perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = check_pass(wl, tc, items, first, {i: m for (p, i), m in errors.items() if p == 0})
    for i in changed:
        problems.setdefault(i, "output changed between passes")
    for (p, i), msg in errors.items():
        problems.setdefault(i, f"pass {p}: {msg}")
    digest = hashlib.sha256("\n".join(map(str, canon)).encode()).hexdigest()
    digest_ok = check_digest(args, digest)

    # each call is scaled to the reference speed of its moment, and each
    # item counts once, at its median over the passes
    samples: list[list[float]] = [[] for _ in range(n)]
    for i, dt in zip(order, refspeed.scale(durations, refs)):
        samples[i].append(dt)
    per_item = [statistics.median(s) for s in samples]
    p90 = statistics.quantiles(per_item, n=10)[8]
    values = {
        "items_per_s": (n - len(problems)) / sum(per_item),
        "item_ms_p50": statistics.median(per_item) * 1000,
        "item_ms_p90": p90 * 1000,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    attempted = k
    failed = sum(len(samples[i]) for i in problems)
    summary = {
        "distinct_items": n,
        "passes": round(k / n, 2),
        "items_beyond_p90": sum(1 for x in per_item if x > p90),
        "failed_frac": failed / attempted,
        "wall_items_per_s": round(attempted / wall, 4),
        "unscaled_call_ms_p50": round(statistics.median(durations) * 1000, 4),
        "ref_ms_quartiles": [round(q * 1000, 4) for q in statistics.quantiles(refs, n=4)],
        "digest": digest,
        "setup_runs_s": [round(s, 4) for s in setups],
        "unscaled_setup_runs_s": [round(s, 4) for s in raw_setups],
    }
    if wl.name == "edp-dp":
        summary["yes_frac"] = sum(1 for o in first if o is True) / n
    report_problems(items, problems)
    return finish(spec["end_to_end"], values, summary, not problems and digest_ok,
                  attempted, failed, args)


def check_digest(args, digest: str) -> bool:
    if args.seed != DEFAULT_SEED:
        return True
    recorded = json.loads((HERE / "digests.json").read_text())
    want = recorded.get(args.workload)
    if want is None:
        print(f"no digest recorded for {args.workload}; computed {digest}", file=sys.stderr)
        return True
    if want != digest:
        print(f"output digest mismatch for {args.workload} seed {args.seed}: "
              f"recorded {want}, computed {digest}", file=sys.stderr)
        return False
    return True


def traced_run(wl, args, spec) -> dict:
    setup_s, _, tc, items = setup(wl, args.seed)
    batch = items[: wl.trace_items]
    tracer = Tracer()
    tracer.prepare(tc)
    errors: dict = {}
    spent = {False: 0.0, True: 0.0}  # seconds in items, untraced and traced
    passes = 0
    plain_outs: list = []
    problems: dict[int, str] = {}
    t_start = perf_counter()
    while passes == 0 or perf_counter() - t_start < args.seconds:
        outs: dict[bool, list] = {False: [], True: []}
        for i, it in enumerate(batch):
            # each item runs untraced and traced back to back, in alternating
            # order, so drifts in machine speed cancel out of the overhead
            for traced in (False, True) if i % 2 == 0 else (True, False):
                out, dt = time_item(wl, tc, it, errors, (passes, i, traced),
                                    tracer if traced else None)
                spent[traced] += dt
                outs[traced].append(out)
        tracer.collect(keep=passes == 0)
        if passes == 0:
            plain_outs = outs[False]
            first_errors = {i: m for (p, i, tr), m in errors.items() if not tr}
            problems = check_pass(wl, tc, batch, plain_outs, first_errors)
            canon = [None if i in problems else wl.canonical(tc, it, plain_outs[i])
                     for i, it in enumerate(batch)]
        for pass_outs in outs.values():
            for i, (it, out) in enumerate(zip(batch, pass_outs)):
                if i not in problems and (out is None or wl.canonical(tc, it, out) != canon[i]):
                    problems[i] = "output differs between passes or under tracing"
        passes += 1

    for it, rec in zip(batch * passes, tracer.items):
        rec["label"] = it.label
    path = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.json.gz"
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "passes": passes,
                        "items_per_pass": len(batch), "spans_written": "first traced pass"})

    calls, self_s = tracer.calls, tracer.self_s
    values = {}
    for m in spec["per_layer"]:
        name = m["name"]
        head, _, kind = name.rpartition(".")
        if name == "trace.overhead_frac":
            v = spent[True] / spent[False] - 1
        elif name == "trace.items_per_pass":
            v = len(batch)
        elif name == "edp.yes_frac":
            v = sum(1 for o in plain_outs if o is True) / len(batch) if wl.name == "edp-dp" else 0.0
        elif name == "ecw.exact_ecw.trees_per_call":
            c = calls.get("ecw.exact_ecw", 0)
            v = tracer.trees / c if c else 0.0
        elif kind == "self_s" and head in MODULES:
            v = sum(t for f, t in self_s.items() if f.startswith(head + ".")) / passes
        elif kind == "self_s":
            v = self_s.get(head, 0.0) / passes
        elif kind == "calls":
            v = calls.get(head, 0) / passes
            v = int(v) if v == int(v) else v
        else:
            raise ValueError(f"no rule computes per-layer metric {name}")
        values[name] = v
    attempted = passes * len(batch) * 2
    failed = 2 * passes * len(problems)
    summary = {"items_per_pass": len(batch), "passes": passes, "setup_s": round(setup_s, 4),
               "untraced_s": round(spent[False], 4), "traced_s": round(spent[True], 4),
               "spans_per_pass": sum(calls.values()) // passes,
               "spans_file": str(path.relative_to(ROOT))}
    report_problems(batch, problems)
    return finish(spec["per_layer"], values, summary, not problems, attempted, failed, args)


def report_problems(items, problems: dict) -> None:
    for i in sorted(problems)[:10]:
        print(f"FAILED {items[i].label}: {problems[i]}", file=sys.stderr)
    if len(problems) > 10:
        print(f"... and {len(problems) - 10} more failed items", file=sys.stderr)


def finish(metric_specs, values, summary, correct, attempted, failed, args) -> dict:
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    print(f"{args.workload} seed={args.seed} trace={args.trace} correct={correct}", file=sys.stderr)
    for key, val in summary.items():
        print(f"  {key}: {val}", file=sys.stderr)
    for name, m in metrics.items():
        v = m["value"]
        shown = f"{v:.6g}" if isinstance(v, float) else v
        print(f"  {name}: {shown} {m['unit']}", file=sys.stderr)
    return {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "treecuts" / "__init__.py").is_file():
        print(f"cannot run: no treecuts sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]
    result = (traced_run if args.trace else timed_run)(wl, args, spec)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
