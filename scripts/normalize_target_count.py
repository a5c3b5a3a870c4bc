#!/usr/bin/env python3
"""Which stage of make_nice's search seeded random decompositions need,
for each of the two targets the normalization can keep.

The pair target keeps the input's width and slim width, as make_nice,
make_very_nice and decomposition_to_witness do; the width target keeps
the width alone, as approximate_stcw does when no nice tree keeps the
pair. Each sample is a random multigraph on 3-10 vertices (3..2n
random pairs, parallels and loops allowed) with a random decomposition:
a random tree of 3-8 nodes rooted at node 0 and each vertex in a random
node's bag. Both targets normalize the same samples. A sample's stage
is the first of these that holds:

- nice: no search runs;
- dfs: the verified DFS from the input's root succeeds, every state it
  evaluated within the target;
- dfs-rejected: the same DFS succeeds after rejecting a state;
- re-root: a verified DFS from another root succeeds;
- best-first: the best-first search succeeds;
- fail: every search runs out of budget (TransformError).

The stages are told apart by counting calls of transform._verified_dfs
and transform._relaxed_best_first, and the False answers of the pass's
width-pair check _TreePass.within, one per rejected state.

Run from the root of a checkout, with the sample count per seed and
then the seeds:

    PYTHONPATH=src python3 scripts/normalize_target_count.py 20000 3 4
"""
import random
import sys
from collections import Counter

from treecuts import transform
from treecuts.decomposition import TreeCutDecomposition, _TreePass
from treecuts.multigraph import MultiGraph

STAGES = ("nice", "dfs", "dfs-rejected", "re-root", "best-first", "fail")
TARGETS = {"pair": True, "width": False}  # the _nice_pass slim flag of each


def sample(rng: random.Random) -> tuple[MultiGraph, TreeCutDecomposition]:
    n = rng.randint(3, 10)
    g = MultiGraph(range(n))
    for _ in range(rng.randint(3, 2 * n)):
        g.add_edge(rng.randrange(n), rng.randrange(n))
    k = rng.randint(3, 8)
    parent = {0: None, **{i: rng.randrange(i) for i in range(1, k)}}
    bags = {i: set() for i in range(k)}
    for v in range(n):
        bags[rng.randrange(k)].add(v)
    return g, TreeCutDecomposition(0, parent, bags)


def stage(g: MultiGraph, d: TreeCutDecomposition, slim: bool) -> str:
    """The stage _nice_pass needs on d, keeping the pair when slim."""
    counts = Counter()
    dfs, best_first, within = (
        transform._verified_dfs, transform._relaxed_best_first, _TreePass.within,
    )

    def counted(name, run):
        def wrapped(*args):
            counts[name] += 1
            return run(*args)
        return wrapped

    def counted_within(tp, *args):
        ok = within(tp, *args)
        counts["rejected"] += not ok
        return ok

    transform._verified_dfs = counted("dfs", dfs)
    transform._relaxed_best_first = counted("best-first", best_first)
    _TreePass.within = counted_within
    try:
        transform._nice_pass(_TreePass(d.copy(), g), slim=slim)
    except transform.TransformError:
        return "fail"
    finally:
        transform._verified_dfs, transform._relaxed_best_first = dfs, best_first
        _TreePass.within = within
    if counts["best-first"]:
        return "best-first"
    if counts["dfs"] > 1:
        return "re-root"
    if counts["dfs"]:
        return "dfs-rejected" if counts["rejected"] else "dfs"
    return "nice"


def count_stages(seed: int, samples: int) -> dict[str, Counter]:
    """Per target, how many of the seed's samples need each stage."""
    rng = random.Random(seed)
    out = {target: Counter() for target in TARGETS}
    for _ in range(samples):
        g, d = sample(rng)
        for target, slim in TARGETS.items():
            out[target][stage(g, d, slim)] += 1
    return out


def main() -> None:
    if len(sys.argv) < 3:
        sys.exit(f"usage: {sys.argv[0]} SAMPLES SEED [SEED ...]")
    samples, seeds = int(sys.argv[1]), [int(s) for s in sys.argv[2:]]
    print("| seed | target | " + " | ".join(STAGES) + " |")
    print("|---|---|" + "---|" * len(STAGES))
    totals = {target: Counter() for target in TARGETS}
    for seed in seeds:
        for target, counts in count_stages(seed, samples).items():
            totals[target] += counts
            print(f"| {seed} | {target} | " + " | ".join(str(counts[s]) for s in STAGES) + " |")
    for target, counts in totals.items():
        print(f"| all | {target} | " + " | ".join(str(counts[s]) for s in STAGES) + " |")


if __name__ == "__main__":
    main()
