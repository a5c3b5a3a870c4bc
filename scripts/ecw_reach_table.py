#!/usr/bin/env python3
"""Reach table of exact_ecw's two phases.

For each graph, print the vertices left in the DP's cores by the pendant
peel alone and by the peel and series reduction that `ForestOracle`
alternates, the edge-cut width found by the charge DP, the time of the
DP, the time of the find phase that then asks the DP about
each pair in lex order for the lex-least forest reaching that value, the
number of DP queries it made, the peak memory of the two phases, and
the time of the branch-and-bound of tests/reference.py, which has to
prove optimality by itself. Wherever the reference finishes, its (value,
forest) must equal the found one; the script exits 1 otherwise. Each
time is the median of three runs (RUNS); the DP and the find phase run
in turn, as each find phase asks the DP of its own run. Each run of a
phase is cut after --limit seconds (SIGALRM, so POSIX only), and a cut
phase shows as '-', as does the find phase of a cut DP. The peak
memory comes from one more run of both phases under tracemalloc, cut
after --limit seconds as a whole, so the times are taken untraced.

The graphs are ladders, walls and seeded random multigraphs: a random
spanning tree plus n/2 random extra pairs, parallels allowed.
"""
import argparse
import random
import signal
import sys
import time
import tracemalloc
from pathlib import Path
from statistics import median

from treecuts.chargedp import ForestOracle
from treecuts.ecw import _cores, _indexed, _least_forest, spanning_tree_count
from treecuts.families import ladder, wall
from treecuts.multigraph import MultiGraph

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from reference import least_forest  # noqa: E402

LADDERS = (8, 10, 12, 16, 20, 30, 40, 60, 80)
WALLS = (3, 4, 5, 6, 7, 8, 9, 10)
RANDOM_SIZES = (14, 16, 18, 20, 22, 24, 26, 28, 30, 40, 44, 50)
# a single run of a phase above about 0.05 s varies too much between
# runs on a shared machine to show a change
RUNS = 3


class PhaseTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise PhaseTimeout


def timed(limit: float, fn, *args):
    """(result, seconds), or (None, None) once limit seconds pass."""
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except PhaseTimeout:
        return None, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return out, time.perf_counter() - t0


def median_timed(limit: float, fn, *args):
    """(result of the last run, median seconds) of RUNS runs, or
    (None, None) once a run passes limit seconds."""
    out, times = None, []
    for _ in range(RUNS):
        out, t = timed(limit, fn, *args)
        if out is None:
            return None, None
        times.append(t)
    return out, median(times)


def dp_and_find(limit: float, loops, pairs):
    """(oracle, (value, forest), median DP s, median find s) of RUNS
    runs, each find phase asking the DP of its own run. A cut DP gives
    all None; a cut find phase gives None for the forest and its time."""
    dp, find = [], []
    for _ in range(RUNS):
        oracle, t = timed(limit, ForestOracle, loops, pairs)
        if oracle is None:
            return None, None, None, None
        dp.append(t)
        chosen, t = timed(limit, _least_forest, len(loops), pairs, oracle)
        if chosen is None:
            return oracle, None, median(dp), None
        find.append(t)
    return oracle, (oracle.value, tuple(chosen)), median(dp), median(find)


def peak_mb(limit: float, loops, pairs):
    """The tracemalloc peak in MB of the DP and find phases run again,
    or None once limit seconds pass."""
    def phases():
        return _least_forest(len(loops), pairs, ForestOracle(loops, pairs))

    tracemalloc.start()
    try:
        out, _ = timed(limit, phases)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return None if out is None else peak / 2**20


def random_multigraph(seed: int, n: int) -> MultiGraph:
    rng = random.Random(seed)
    g = MultiGraph(range(n))
    vs = list(range(n))
    rng.shuffle(vs)
    for i in range(1, n):
        g.add_edge(vs[i], rng.choice(vs[:i]))
    for _ in range(n // 2):
        u, v = rng.sample(vs, 2)
        g.add_edge(u, v)
    return g


def graphs(seed: int):
    for r in LADDERS:
        yield f"ladder({r})", ladder(r)
    for r in WALLS:
        yield f"wall({r})", wall(r)
    for n in RANDOM_SIZES:
        yield f"random(n={n}, seed={seed + n})", random_multigraph(seed + n, n)


def secs(t) -> str:
    return "-" if t is None else f"{t:.3f}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--limit", type=float, default=30.0,
                    help="seconds allowed to each run of each phase of each graph")
    ap.add_argument("--seed", type=int, default=0,
                    help="offset of the random graphs' seeds")
    args = ap.parse_args()
    signal.signal(signal.SIGALRM, _alarm)

    print("| graph | n | copies | spanning trees | core n | ecw | DP s | find s | DP queries "
          "| peak MB | reference search s | same forest |")
    print("|---|---|---|---|---|---|---|---|---|---|---|---|")
    failed = False
    for name, g in graphs(args.seed):
        _, loops, pairs = _indexed(g)
        peeled = sum(len(core) for core, _ in _cores(len(loops), pairs)[1])
        oracle, found, dp_s, find_s = dp_and_find(args.limit, loops, pairs)
        queries = "-" if oracle is None else oracle.queries
        reduced = "-" if oracle is None else sum(len(core) for core, _ in oracle.dps)
        peak = None if found is None else peak_mb(args.limit, loops, pairs)
        mb = "-" if peak is None else f"{peak:.1f}"
        plain, plain_s = median_timed(args.limit, least_forest, loops, pairs)
        if found is None or plain is None:
            same = "-"
        else:
            same = "yes" if found == plain else "NO"
            failed |= found != plain
        value = "-" if oracle is None else oracle.value
        print(f"| {name} | {g.num_vertices()} | {g.num_edges()} "
              f"| {spanning_tree_count(g)} | {peeled} → {reduced} | {value} | {secs(dp_s)} "
              f"| {secs(find_s)} | {queries} | {mb} | {secs(plain_s)} | {same} |", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
