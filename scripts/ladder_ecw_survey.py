#!/usr/bin/env python3
"""Survey edge-cut width on ladders.

For each rung count, compare the rail-and-rungs spanning tree against
the exact optimum, which exact_ecw's charge DP decides. The budget only
caps the spanning tree count that exact_ecw checks up front; a ladder
with more trees shows '-'. The distinguished tree is conjectured
optimal here; the survey makes that concrete for small ladders.
"""
import argparse
import time

from treecuts.ecw import BudgetExceededError, ecw_value, exact_ecw, spanning_tree_count
from treecuts.families import ladder


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-r", type=int, default=2)
    ap.add_argument("--max-r", type=int, default=9)
    ap.add_argument("--budget", type=int, default=10**6,
                    help="most spanning trees a ladder may have for exact_ecw")
    args = ap.parse_args()

    print(f"{'r':>3} {'n':>4} {'m':>4} {'trees':>10} {'rails':>6} {'exact':>6} {'time':>7}")
    for r in range(args.min_r, args.max_r + 1):
        g = ladder(r)
        rails = ecw_value(g, frozenset(g.meta["spanning_tree"]))
        trees = spanning_tree_count(g)
        t0 = time.perf_counter()
        try:
            best, _ = exact_ecw(g, budget=args.budget)
            exact = str(best)
        except BudgetExceededError:
            exact = "-"
        dt = time.perf_counter() - t0
        print(f"{r:>3} {g.num_vertices():>4} {g.num_edges():>4} "
              f"{trees:>10} {rails:>6} {exact:>6} {dt:>6.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
