#!/usr/bin/env python3
"""Per-stage times of the normalize-and-bridge pipeline on a seeded pool.

Each graph starts from its star decomposition (an empty root with one
singleton leaf per vertex) and goes through the stages the
normalize-bridge benchmark times: make_very_nice, decomposition_to_witness
on its output, the JSON writers and parsers for both, and
witness_to_decomposition. The table gives each stage's median time over
--repeats runs and the number of states make_nice's verified DFS
evaluated, counted as calls of the pass's width-pair check (one per
state). The pool runs past the benchmark's 12-20 vertices: seeded random
multigraphs of 12-60 vertices (a random spanning tree plus extra random
pairs, parallels and loops allowed), wall(4..8) and ladder(6..20).

Run from the root of a checkout:

    PYTHONPATH=src python3 scripts/normalize_stage_table.py --seed 1
"""
import argparse
import random
import statistics
import time

from treecuts.decomposition import TreeCutDecomposition, _TreePass
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
STAGES = ("make_very_nice", "to_witness", "json", "to_decomposition")


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


def run_once(g: MultiGraph) -> tuple[dict[str, float], int]:
    times = {}
    states = 0
    within = _TreePass.within

    def counted(tp, *args):
        nonlocal states
        states += 1
        return within(tp, *args)

    _TreePass.within = counted
    try:
        t0 = time.perf_counter()
        vn = make_very_nice(star_decomposition(g), g)
        times["make_very_nice"] = time.perf_counter() - t0
    finally:
        _TreePass.within = within
    t0 = time.perf_counter()
    w = decomposition_to_witness(g, vn)
    times["to_witness"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    parse_decomposition_json(decomposition_to_json(vn))
    w = parse_witness_json(witness_to_json(w))
    times["json"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    witness_to_decomposition(w)
    times["to_decomposition"] = time.perf_counter() - t0
    return times, states


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    print("| graph | n | m | DFS states | " + " | ".join(f"{s} ms" for s in STAGES) + " |")
    print("|---|---|---|---|" + "---|" * len(STAGES))
    totals = dict.fromkeys(STAGES, 0.0)
    all_states = 0
    for name, g in pool(args.seed):
        runs = [run_once(g) for _ in range(args.repeats)]
        states = runs[0][1]
        all_states += states
        cells = []
        for s in STAGES:
            ms = 1000 * statistics.median(times[s] for times, _ in runs)
            totals[s] += ms
            cells.append(f"{ms:.2f}")
        print(f"| {name} | {g.num_vertices()} | {g.num_edges()} | {states} | " + " | ".join(cells) + " |")
    print(f"| total | | | {all_states} | " + " | ".join(f"{totals[s]:.1f}" for s in STAGES) + " |")


if __name__ == "__main__":
    main()
