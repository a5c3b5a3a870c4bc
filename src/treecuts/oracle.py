"""Exhaustive exact width computation on tiny graphs.

The ground-truth engine behind every property test and every audit of the
approximation pipeline. Feasibility of a width bound is decided by a
memoized recursion over vertex subsets: a subtree of the decomposition is
determined, up to everything the width cares about, by the set of
vertices it covers, so subtrees can be searched independently of the tree
shape around them.
"""
from __future__ import annotations

import math
from itertools import combinations

from .decomposition import TreeCutDecomposition, _center_size as _center_kernel
from .multigraph import MultiGraph

VARIANT_LEVEL = {"tcw": 3, "stcw": 2, "tcw0": 1}

INF = math.inf


class SizeLimitError(ValueError):
    """The graph is too large for exhaustive search."""


def exact_width(
    g: MultiGraph,
    variant: str,
    max_vertices: int = 6,
) -> tuple[int, TreeCutDecomposition]:
    """Exact tcw / stcw / tcw0 with an achieving decomposition.

    Searches all rooted decompositions after two harmless normalizations:
    leaves always have non-empty bags, and no empty-bag node has exactly
    one child (contracting such a node onto its child never increases any
    width). Among the optima it prefers fewest empty bags, and it returns
    the first such decomposition in a fixed deterministic enumeration
    order (bags by size then lexicographic order, child parts
    smallest-first).
    """
    if variant not in VARIANT_LEVEL:
        raise ValueError(f"variant must be one of {sorted(VARIANT_LEVEL)}")
    n = g.num_vertices()
    if n > max_vertices:
        raise SizeLimitError(f"{n} vertices exceed the search limit {max_vertices}")
    if n == 0:
        return 0, TreeCutDecomposition(0, {0: None}, {0: set()})
    search = _Search(g, VARIANT_LEVEL[variant])
    for w in range(1, n + 1):
        plan = search.run(w)
        if plan is not None:
            return w, plan
    raise AssertionError("single-node decomposition must succeed at w = n")


class _Search:
    """Feasibility search over vertex subsets encoded as int bit masks.

    Bit i stands for the i-th smallest vertex. The cut table and the two
    enumeration orders depend only on the graph, so they are built once
    and shared by every width bound tried; run(w) then searches one bound.

    _min_empties(y) is the least number of empty bags any valid subtree
    covering exactly y can use, or infinity; the subtree's top node is
    charged its torso-center size and every node below is checked
    recursively. Adhesion of the top node is the caller's responsibility
    (the root has adhesion 0 by definition, matching its empty cut).
    """

    def __init__(self, g: MultiGraph, level: int):
        self.vertices = g.sorted_vertices()
        self.level = level
        # Every empty node has two or more children and every leaf holds
        # a vertex, so a (sub)tree has fewer empty nodes than leaves, that
        # is fewer than the vertices it covers: this cap prunes nothing.
        self.cap = len(self.vertices) - 1
        self.all = (1 << len(self.vertices)) - 1
        self.cut = _cut_table(g)
        self.bags_of: dict[int, list[int]] = {}
        self.pieces_of: dict[int, list[int]] = {}

    def run(self, wmax: int) -> TreeCutDecomposition | None:
        self.wmax = wmax
        self.memo: dict[int, float] = {}
        self.choice: dict[int, tuple[int, tuple[int, ...]]] = {}
        if self._min_empties(self.all) > self.cap:
            return None
        parent: dict[int, int | None] = {}
        bags: dict[int, set[int]] = {}
        counter = 0

        def build(y: int, par: int | None) -> None:
            nonlocal counter
            me = counter
            counter += 1
            x, parts = self.choice[y]
            parent[me] = par
            bags[me] = {v for i, v in enumerate(self.vertices) if x >> i & 1}
            for p in parts:
                build(p, me)

        build(self.all, None)
        return TreeCutDecomposition(0, parent, bags)

    def _bags(self, y: int) -> list[int]:
        """Subsets of y by size, then lexicographically by sorted vertices."""
        if y not in self.bags_of:
            bits = [1 << i for i in range(y.bit_length()) if y >> i & 1]
            self.bags_of[y] = [
                sum(c) for r in range(len(bits) + 1) for c in combinations(bits, r)
            ]
        return self.bags_of[y]

    def _pieces(self, remaining: int) -> list[int]:
        """Subsets of remaining holding its lowest vertex, in the order of
        counting over the other vertices: ascending as integers."""
        if remaining not in self.pieces_of:
            pivot = remaining & -remaining
            others = remaining ^ pivot
            self.pieces_of[remaining] = [
                pivot | s for s in range(others + 1) if s & others == s
            ]
        return self.pieces_of[remaining]

    def _torso_ok(self, y: int, x: int, parts: tuple[int, ...]) -> bool:
        groups = list(parts)
        up = self.all ^ y
        if up:
            groups.append(up)
        nbag = x.bit_count()
        if nbag + len(groups) <= self.wmax:
            return True  # even a center keeping every group fits
        return _center_size(self.cut, nbag, groups, self.level) <= self.wmax

    def _min_empties(self, y: int) -> float:
        if y in self.memo:
            return self.memo[y]
        # in-progress marker; prunes the degenerate partition whose single
        # part is y itself (only reachable via an empty bag, disallowed anyway)
        self.memo[y] = INF
        best: float = INF
        best_choice = None
        for x in self._bags(y):
            if x.bit_count() > self.wmax:
                # the center keeps every bag vertex, and later bags are no smaller
                break
            own = 0 if x else 1
            rest = y ^ x
            if not rest:
                if x and self._torso_ok(y, x, ()):
                    best, best_choice = 0, (x, ())
                    break
                continue
            for parts, cost in self._partitions(rest, self.cap - own):
                if not x and len(parts) < 2:
                    continue
                total = own + cost
                if total < best and self._torso_ok(y, x, parts):
                    best, best_choice = total, (x, parts)
                    if best == 0:
                        break
            if best == 0:
                break
        self.memo[y] = best
        if best_choice is not None:
            self.choice[y] = best_choice
        return best

    def _partitions(self, rest: int, cap: float):
        """Partitions of rest whose every part respects the adhesion bound
        and is itself feasible; yields (parts, summed empty-bag cost)."""

        def grow(remaining: int, acc: tuple, cost: int):
            if not remaining:
                yield acc, cost
                return
            for part in self._pieces(remaining):
                if self.cut[part] > self.wmax:
                    continue
                c = self._min_empties(part)
                if cost + c > cap:
                    continue
                yield from grow(remaining ^ part, acc + (part,), int(cost + c))

        yield from grow(rest, (), 0)


def _cut_table(g: MultiGraph) -> list[int]:
    """cut[m] is the number of edge copies leaving the vertex set m, bit i
    of m standing for the i-th smallest vertex of g."""
    bit = {v: 1 << i for i, v in enumerate(g.sorted_vertices())}
    pairs = [(bit[u], bit[v], m) for u, v, m in g.edge_pairs() if u != v]
    return [
        sum(m for a, b, m in pairs if bool(s & a) != bool(s & b))
        for s in range(1 << len(bit))
    ]


def _center_size(cut: list[int], nbag: int, groups: list[int], level: int) -> int:
    """Vertex count of center(consolidate(g, x, groups), x, level), from
    g's cut table alone, when x and the disjoint non-empty groups cover
    V(g) and groups is in consolidation order. A group's degree is its
    cut; edges between groups a and b number (cut a + cut b - cut a|b)/2.
    """
    deg = [cut[a] for a in groups]
    if level == 1:
        return _center_kernel(nbag, deg, [], level)
    mult = [
        [0 if i == j else (cut[a] + cut[b] - cut[a | b]) // 2 for j, b in enumerate(groups)]
        for i, a in enumerate(groups)
    ]
    return _center_kernel(nbag, deg, mult, level)


def exact_treewidth(g: MultiGraph, max_vertices: int = 14) -> int:
    """Minimum over elimination orderings of the maximum back-degree.

    Parallel edges and loops are irrelevant to treewidth and ignored.
    Returns 0 for graphs with at most one vertex.
    """
    n = g.num_vertices()
    if n > max_vertices:
        raise SizeLimitError(f"{n} vertices exceed the search limit {max_vertices}")
    if n <= 1:
        return 0
    idx = {v: i for i, v in enumerate(g.sorted_vertices())}
    nbr = [0] * n  # neighbour masks, loops dropped
    for u, v, _ in g.edge_pairs():
        if u != v:
            nbr[idx[u]] |= 1 << idx[v]
            nbr[idx[v]] |= 1 << idx[u]

    def backdeg(x: int, through: int) -> int:
        """Vertices outside through reached from x along paths inside it."""
        seen = front = 1 << x
        while front:
            low = front & -front
            front ^= low
            new = nbr[low.bit_length() - 1] & ~seen
            seen |= new
            front |= new & through
        return (seen & ~through).bit_count() - 1  # x itself is not counted

    # best[s] over vertex masks; a subset is numerically below its
    # supersets, so ascending order fills it first
    best = [0] * (1 << n)
    for s in range(1, 1 << n):
        best[s] = min(
            max(best[s ^ (1 << i)], backdeg(i, s ^ (1 << i)))
            for i in range(n)
            if s >> i & 1
        )
    return best[-1]
