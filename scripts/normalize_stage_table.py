#!/usr/bin/env python3
"""Per-stage times and kernel calls of the normalize-and-bridge pipeline
on a seeded pool.

Each graph starts from its star decomposition (an empty root with one
singleton leaf per vertex) and goes through the stages the
normalize-bridge benchmark times: make_very_nice, width_report on its
output and again on the round trip's decomposition (the benchmark calls
it twice per item), decomposition_to_witness on the output, the JSON
writers and parsers for both, and witness_to_decomposition. The table
gives each stage's median time over --repeats runs, the calls it made to
the center kernel (decomposition._center_size, which peels torso centers
for the tree pass and the oracle), and the number of states make_nice's
verified DFS evaluated, counted as calls of the pass's width-pair check
(one per state). Both counts come from thin wrappers that stay in place
while every stage is timed. The pool runs past the benchmark's 12-20
vertices: seeded random multigraphs of 12-60 vertices (a random spanning
tree plus extra random pairs, parallels and loops allowed), wall(4..8)
and ladder(6..20).

Run from the root of a checkout:

    PYTHONPATH=src python3 scripts/normalize_stage_table.py --seed 1
"""
import argparse
import random
import statistics
import time

from treecuts import decomposition
from treecuts.decomposition import TreeCutDecomposition, _TreePass, width_report
from treecuts.families import ladder, wall
from treecuts.formats import (
    decomposition_to_json,
    parse_decomposition_json,
    parse_witness_json,
    witness_to_json,
)
from treecuts.multigraph import MultiGraph
from treecuts.transform import (
    decomposition_to_witness,
    make_very_nice,
    witness_to_decomposition,
)

RANDOM_SIZES = (12, 20, 30, 40, 50, 60)
WALLS = (4, 5, 6, 7, 8)
LADDERS = (6, 10, 14, 20)
STAGES = ("make_very_nice", "width_report", "to_witness", "json", "to_decomposition")


def random_multigraph(rng: random.Random, n: int, extra: int) -> MultiGraph:
    g = MultiGraph(range(n))
    vs = list(range(n))
    rng.shuffle(vs)
    for i in range(1, n):
        g.add_edge(vs[i], rng.choice(vs[:i]))
    for _ in range(extra):
        g.add_edge(rng.choice(vs), rng.choice(vs))
    return g


def star_decomposition(g: MultiGraph) -> TreeCutDecomposition:
    parent: dict[int, int | None] = {0: None}
    bags = {0: set()}
    for i, v in enumerate(g.sorted_vertices(), start=1):
        parent[i] = 0
        bags[i] = {v}
    return TreeCutDecomposition(0, parent, bags)


def pool(seed: int) -> list[tuple[str, MultiGraph]]:
    rng = random.Random(seed)
    out = []
    for n in RANDOM_SIZES:
        for extra in (n // 5, n // 2):
            out.append((f"random(n={n}, x={extra})", random_multigraph(rng, n, extra)))
    out += [(f"wall({r})", wall(r)) for r in WALLS]
    out += [(f"ladder({r})", ladder(r)) for r in LADDERS]
    return out


def run_once(g: MultiGraph) -> tuple[dict[str, float], dict[str, int], int]:
    """One pass of the pipeline over g: each stage's time and kernel
    calls, and the DFS states make_very_nice evaluated."""
    times = dict.fromkeys(STAGES, 0.0)
    calls = dict.fromkeys(STAGES, 0)
    counts = {"states": 0, "kernel": 0}
    within, kernel = _TreePass.within, decomposition._center_size

    def counted_within(tp, *args):
        counts["states"] += 1
        return within(tp, *args)

    def counted_kernel(*args):
        counts["kernel"] += 1
        return kernel(*args)

    def stage(name, run):
        before = counts["kernel"]
        t0 = time.perf_counter()
        out = run()
        times[name] += time.perf_counter() - t0
        calls[name] += counts["kernel"] - before
        return out

    def round_trip(w):
        parse_decomposition_json(decomposition_to_json(vn))
        return parse_witness_json(witness_to_json(w))

    _TreePass.within, decomposition._center_size = counted_within, counted_kernel
    try:
        vn = stage("make_very_nice", lambda: make_very_nice(star_decomposition(g), g))
        stage("width_report", lambda: width_report(vn, g))
        w = stage("to_witness", lambda: decomposition_to_witness(g, vn))
        w = stage("json", lambda: round_trip(w))
        back = stage("to_decomposition", lambda: witness_to_decomposition(w))
        stage("width_report", lambda: width_report(back, g))
    finally:
        _TreePass.within, decomposition._center_size = within, kernel
    return times, calls, counts["states"]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    heads = [f"{s} {unit}" for s in STAGES for unit in ("ms", "kernel")]
    print("| graph | n | m | DFS states | " + " | ".join(heads) + " |")
    print("|---|---|---|---|" + "---|" * len(heads))
    totals = dict.fromkeys(STAGES, 0.0)
    all_calls = dict.fromkeys(STAGES, 0)
    all_states = 0
    for name, g in pool(args.seed):
        runs = [run_once(g) for _ in range(args.repeats)]
        _, calls, states = runs[0]
        all_states += states
        cells = []
        for s in STAGES:
            ms = 1000 * statistics.median(times[s] for times, _, _ in runs)
            totals[s] += ms
            all_calls[s] += calls[s]
            cells += [f"{ms:.2f}", str(calls[s])]
        print(f"| {name} | {g.num_vertices()} | {g.num_edges()} | {states} | " + " | ".join(cells) + " |")
    cells = [cell for s in STAGES for cell in (f"{totals[s]:.1f}", str(all_calls[s]))]
    print(f"| total | | | {all_states} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
