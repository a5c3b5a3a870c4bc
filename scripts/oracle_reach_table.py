#!/usr/bin/env python3
"""Reach table of the exhaustive width oracle.

For seeded random multigraphs of 6 to 13 vertices (a random spanning
tree plus n//2 random extra pairs, parallels allowed) and each variant,
print the exact width, the median time of --repeats calls of
exact_width, the tracemalloc peak of one more call made on its own, and
a short digest of the returned decomposition's JSON. Two builds that
return the same first optima print the same digests. The oracle shares
its bag lists between the searches of graphs with at most 9 vertices:
there the timed calls have built them before the traced one, and the
peak leaves them out. A larger graph's search builds its own lists, so
from n = 10 on the peak includes them.

Run from the root of a checkout:

    PYTHONPATH=src python3 scripts/oracle_reach_table.py --repeats 3
"""
import argparse
import hashlib
import random
import statistics
import sys
import time
import tracemalloc

from treecuts.formats import decomposition_to_json
from treecuts.multigraph import MultiGraph
from treecuts.oracle import exact_width

VARIANTS = ("tcw", "stcw", "tcw0")


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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=list(range(6, 14)),
                    help="vertex counts (default 6..13)")
    ap.add_argument("--repeats", type=int, default=3, help="timed calls per cell")
    ap.add_argument("--seed", type=int, default=0,
                    help="offset of the graphs' seeds; graph n uses seed + n")
    args = ap.parse_args()

    print("| graph | n | copies | variant | value | median s | peak MB | digest |")
    print("|---|---|---|---|---|---|---|---|")
    for n in args.sizes:
        g = random_multigraph(args.seed + n, n)
        for var in VARIANTS:
            times = []
            for _ in range(args.repeats):
                t0 = time.perf_counter()
                value, d = exact_width(g, var, max_vertices=n)
                times.append(time.perf_counter() - t0)
            tracemalloc.start()
            exact_width(g, var, max_vertices=n)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            digest = hashlib.sha256(decomposition_to_json(d).encode()).hexdigest()[:12]
            print(f"| random(n={n}, seed={args.seed + n}) | {n} | {g.num_edges()} | {var} "
                  f"| {value} | {statistics.median(times):.3f} | {peak / 2**20:.1f} "
                  f"| {digest} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
