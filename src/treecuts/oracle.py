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
import sys
from itertools import combinations, islice

from .decomposition import TreeCutDecomposition, _center_size as _center_kernel
from .ecw import _indexed
from .multigraph import MultiGraph

VARIANT_LEVEL = {"tcw": 3, "stcw": 2, "tcw0": 1}

INF = math.inf

# Tables that depend only on the mask, so one serves every search;
# bit i is the i-th smallest vertex of whichever graph is searched.
# _BAGS maps a mask to (its bits, its subsets as _Search._bags orders
# them) and _PIECES a mask to its _Search._pieces list. Only searches of
# at most _PROVIDER_MAX_VERTICES vertices, the most approx.oracle_provider
# searches, share them, and only for masks of their own graph, so each
# holds at most 3^9 subsets in all (every subset of every 9-bit mask); a
# larger graph's search keeps its own lists.
_BAGS: dict[int, tuple[list[int], list[int]]] = {}
_PIECES: dict[int, list[int]] = {}
_PROVIDER_MAX_VERTICES = 9


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
    found = _width_at_most(g, variant, max_vertices, g.num_vertices())
    if found is None:
        raise AssertionError("single-node decomposition must succeed at w = n")
    return found


def _width_at_most(
    g: MultiGraph, variant: str, max_vertices: int, bound: int
) -> tuple[int, TreeCutDecomposition] | None:
    """exact_width(g, variant, max_vertices) if its value is at most
    bound, else None; no width bound above bound is searched, and none
    below the search's floor(), which no decomposition goes under."""
    if variant not in VARIANT_LEVEL:
        raise ValueError(f"variant must be one of {sorted(VARIANT_LEVEL)}")
    n = g.num_vertices()
    _check_size(n, max_vertices)
    if n == 0:
        return (0, TreeCutDecomposition(0, {0: None}, {0: set()})) if bound >= 0 else None
    search = _Search(g, VARIANT_LEVEL[variant])
    for w in range(search.floor(), min(n, bound) + 1):
        plan = search.run(w)
        if plan is not None:
            return w, plan
    return None


def _check_size(n: int, max_vertices: int) -> None:
    """Refuse n vertices above max_vertices, or too many to index a table
    of 2^n entries on this platform."""
    if n > max_vertices:
        raise SizeLimitError(f"{n} vertices exceed the search limit {max_vertices}")
    if n >= sys.maxsize.bit_length():
        raise SizeLimitError(f"{n} vertices need a table of 2^{n} entries, "
                             "more than this platform can index")


class _Search:
    """Feasibility search over vertex subsets encoded as int bit masks.

    Bit i stands for the i-th smallest vertex. The cut table and the
    torso scores depend only on the graph, so they are built once and
    shared by every width bound tried; run(w) then searches one bound,
    and the bounds go upward from floor(), below which edge connectivity
    alone rules every width out. Bag and pieces lists depend only on the
    mask, so on graphs of at most _PROVIDER_MAX_VERTICES vertices the
    module tables _BAGS and _PIECES serve every search, and a bag list
    holds the bags of at most the largest bound searched yet in the
    process. A larger graph's lists are built for its search alone and go
    with it. A pieces list of a mask outside the graph, which only a
    direct call can ask for, is not kept at all.

    _min_empties(y) is the least number of empty bags any valid subtree
    covering exactly y can use, or infinity; the subtree's top node is
    charged its torso-center size and every node below is checked
    recursively. Adhesion of the top node is the caller's responsibility
    (the root has adhesion 0 by definition, matching its empty cut). The
    count needs no cap: every empty node has two or more children and
    every leaf holds a vertex, so a subtree has fewer empty nodes than
    the vertices it covers. It scans the empty bag last: it can never
    reach the zero that ends a scan, and its list, the partitions of all
    of y, is the longest, so the other bags often spare it. The choice is
    the first (bag, parts) in bag order that reaches the least total all
    the same, and as a memo value depends only on y and the bound, the
    order decides only which subsets get evaluated.

    _partitions(rest) lists, once per run, every partition of rest into
    parts within the adhesion bound and of finite cost, so the many
    (y, bag) pairs that leave the same rest share one list. Each entry
    carries the sum of its parts' scores. score[m] is 1 if group m's
    degree cut[m] reaches the level, plus flag = n + 1 if the level is 2
    or 3 and cut[m] is 1; flag exceeds every width bound and every sum
    of unflagged scores. When neither a part nor the group outside y is
    flagged, no removal lowers another group's degree, so the center is
    |x| plus the scored groups and the torso is decided inline; so is a
    leaf's, whose bag is all of y, never empty as n > 0. Flagged torsos,
    with a group of cut 1 at level 2 or 3, go to _torso_ok to be peeled.
    """

    def __init__(self, g: MultiGraph, level: int):
        self.vertices = g.sorted_vertices()
        self.level = level
        self.all = (1 << len(self.vertices)) - 1
        self.cut = _cut_table(g)
        self.flag = flag = len(self.vertices) + 1  # above every width bound
        self.score = [(c >= level) + (flag if c == 1 < level else 0) for c in self.cut]
        shared = len(self.vertices) <= _PROVIDER_MAX_VERTICES
        self.bag_lists = _BAGS if shared else {}
        self.pieces_of = _PIECES if shared else {}

    def run(self, wmax: int) -> TreeCutDecomposition | None:
        self.wmax = wmax
        self.memo: dict[int, float] = {}
        self.choice: dict[int, tuple[int, tuple[int, ...]]] = {}
        self.parts_of: dict[int, list[tuple[tuple[int, ...], float, int]]] = {}
        self.active: set[int] = set()  # sets whose _min_empties is running
        if self._min_empties(self.all) == INF:
            return None
        # nodes in preorder, parts in order, numbered as visited; a loop,
        # since a closure calling itself is a reference cycle that would
        # keep the whole search alive until the cyclic collector runs
        parent: dict[int, int | None] = {}
        bags: dict[int, set[int]] = {}
        todo: list[tuple[int, int | None]] = [(self.all, None)]
        while todo:
            y, par = todo.pop()
            me = len(parent)
            x, parts = self.choice[y]
            parent[me] = par
            bags[me] = {v for i, v in enumerate(self.vertices) if x >> i & 1}
            todo.extend((p, me) for p in reversed(parts))
        return TreeCutDecomposition(0, parent, bags)

    def floor(self) -> int:
        """The least w >= 1 that edge connectivity does not rule out as
        a width: run(w) is None for every w below it.

        Call u and v w-linked when no vertex set of cut at most w holds
        one and not the other, that is, lambda(u, v) > w. This is an
        equivalence, and its classes are V refined by every set of cut at
        most w. In a decomposition of width w every non-root node t has
        adhesion cut(Y_t) <= w, so Y_t holds all of a class C or none of
        it. The deepest node t whose Y_t holds C (the root at worst) has
        no child holding C, so C lies in its bag; the center of a torso
        keeps every bag vertex, so w >= |C|. Suppose also that every
        nonempty proper vertex set has cut at least the level and C is
        not V. If t's bag is C, the rest of V lies in t's torso groups
        (its children's Y and the vertices outside Y_t), so it has a
        group; a group's degree is its cut, so no peel removes it, and
        w >= |C| + 1, as it is when the bag is larger than C. The classes
        only split as w grows, so every bound from the floor up meets
        both conditions.
        """
        cut, n, whole = self.cut, len(self.vertices), self.all
        group = min(cut[1:whole], default=self.level) >= self.level
        # splits[w] holds the sets first of cut at most w; a set and its
        # complement split alike, so those without the highest vertex
        # stand for both, and cuts of n or more never matter
        splits: list[list[int]] = [[] for _ in range(n)]
        for m in range(1, (whole >> 1) + 1):
            c = cut[m]
            if c < n:
                splits[c or 1].append(m)
        classes = [whole]
        for w in range(1, n):
            for m in splits[w]:
                split = []
                for c in classes:
                    inside = c & m
                    if inside and inside != c:
                        split += (inside, c ^ inside)
                    else:
                        split.append(c)
                classes = split
            # a second class means C is not V
            if max(c.bit_count() for c in classes) + (group and len(classes) > 1) <= w:
                return w
        return n

    def _bags(self, y: int) -> list[int]:
        """Subsets of y by size, then lexicographically by sorted
        vertices, up to at least wmax vertices; callers stop at the first
        bag above wmax, as the center of a torso keeps every bag vertex.
        The list lives in bag_lists and is extended in place."""
        kept = self.bag_lists.get(y)
        if kept is None:
            bits = [1 << i for i in range(y.bit_length()) if y >> i & 1]
            kept = self.bag_lists[y] = bits, [0]
        bits, bags = kept
        have = bags[-1].bit_count()
        if have < self.wmax and have < len(bits):
            bags += [sum(c) for r in range(have + 1, self.wmax + 1)
                     for c in combinations(bits, r)]
        return bags

    def _pieces(self, remaining: int) -> list[int]:
        """Subsets of remaining holding its lowest vertex, ascending as
        integers: the order of counting over the other vertices."""
        subs = self.pieces_of.get(remaining)
        if subs is None:
            pivot = remaining & -remaining
            others = remaining ^ pivot
            subs = [pivot | others]
            s = others
            while s:  # the submasks of others, descending
                s = (s - 1) & others
                subs.append(pivot | s)
            subs.reverse()
            if remaining <= self.all:
                self.pieces_of[remaining] = subs
        return subs

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
        """Callers look y up in the memo first. The empty bag leads y's
        bag list but is scanned last, and only while the best total is
        above zero; it wins ties with the other bags, and within its own
        list the first partition reaching its least total wins."""
        # in-progress marker: the empty bag's partitions of y then lack
        # the single part y, an empty node with one child, ruled out anyway
        self.memo[y] = INF
        self.active.add(y)
        best: float = INF
        best_choice = None
        wmax, flag, up_score = self.wmax, self.flag, self.score[self.all ^ y]
        parts_of = self.parts_of
        for x in islice(self._bags(y), 1, None):
            nbag = x.bit_count()
            if nbag > wmax:
                break
            rest = y ^ x
            if not rest:
                if nbag + (self.cut[self.all ^ y] >= self.level) <= wmax:
                    best, best_choice = 0, (x, ())
                    break
                continue
            fixed = nbag + up_score
            listed = parts_of.get(rest)
            if listed is None:
                listed = self._partitions(rest)
            for parts, cost, score in listed:
                if cost < best:
                    size = fixed + score  # the center's size unless flagged
                    if size <= wmax or (size >= flag and self._torso_ok(y, x, parts)):
                        best, best_choice = cost, (x, parts)
                        if best == 0:
                            break
            if best == 0:
                break
        if best:
            # the empty bag costs one and leads the bag order, so it wins
            # at 1 + cost <= best, and each later entry must cost less
            # than the last one taken. parts_of holds no list of y: one
            # built before this call would have evaluated y, its own
            # piece, unless y's cut is above the bound, and no such y is
            # ever evaluated
            limit = best
            for parts, cost, score in self._partitions(y):
                if cost < limit:
                    size = up_score + score
                    if size <= wmax or (size >= flag and self._torso_ok(y, 0, parts)):
                        limit = cost
                        best, best_choice = cost + 1, (0, parts)
                        if not cost:
                            break
        self.memo[y] = best
        self.active.discard(y)
        if best_choice is not None:
            self.choice[y] = best_choice
        return best

    def _partitions(self, rest: int) -> list[tuple[tuple[int, ...], float, int]]:
        """Partitions of rest whose every part respects the adhesion bound
        and is itself feasible, as (parts, summed empty-bag cost, summed
        score), parts ascending and partitions in lexicographic order. A
        list built while _min_empties(rest) runs lacks the part rest and
        is not kept. Callers look rest up in parts_of first, but for
        the empty bag's scan, which knows rest is not there."""
        memo = self.memo
        out = []
        for piece in self.pieces_of.get(rest) or self._pieces(rest):
            if self.cut[piece] > self.wmax:
                continue
            c = memo[piece] if piece in memo else self._min_empties(piece)
            if c == INF:
                continue
            s = self.score[piece]
            if piece == rest:
                out.append(((piece,), c, s))
                continue
            tail = self.parts_of.get(rest ^ piece)
            if tail is None:
                tail = self._partitions(rest ^ piece)
            out += [((piece,) + parts, c + cost, s + score) for parts, cost, score in tail]
        if rest not in self.active:
            self.parts_of[rest] = out
        return out


def _cut_table(g: MultiGraph) -> list[int]:
    """cut[m] is the number of edge copies leaving the vertex set m, bit i
    of m standing for the i-th smallest vertex of g. A set with highest
    vertex i and rest r has cut = cut[r] + deg(i) - 2 copies(i, r); the
    last two terms are built for every r below bit i by doubling, one step
    per set and no neighbour loop."""
    vs, _, pairs = _indexed(g)
    deg = [0] * len(vs)
    copies = [[0] * len(vs) for _ in vs]
    for a, b, m in pairs:
        deg[a] += m
        deg[b] += m
        copies[a][b] = copies[b][a] = m
    cut = [0]
    for i, row in enumerate(copies):
        gain = [deg[i]]  # gain[r] = cut[r | 1 << i] - cut[r] for r below bit i
        for j in range(i):
            c = 2 * row[j]
            gain += [x - c for x in gain] if c else gain
        cut += [c + x for c, x in zip(cut, gain)]
    return cut


def _center_size(cut: list[int], nbag: int, groups: list[int], level: int) -> int:
    """Vertex count of center(consolidate(g, x, groups), x, level), from
    g's cut table alone, when x and the disjoint non-empty groups cover
    V(g) and groups is in consolidation order. A group's degree is its
    cut; edges between groups a and b number (cut a + cut b - cut a|b)/2,
    and the kernel takes them as sparse rows, one per group. The search
    calls this only for flagged torsos, which always need the peel.
    """
    deg = [cut[a] for a in groups]
    rows: list[dict[int, int] | None] = [{} for _ in groups]
    for i, a in enumerate(groups):
        for j in range(i):
            m = (deg[i] + deg[j] - cut[a | groups[j]]) // 2
            if m:
                rows[i][j] = rows[j][i] = m
    return _center_kernel(nbag, deg, rows, level)


def exact_treewidth(g: MultiGraph, max_vertices: int = 14) -> int:
    """Minimum over elimination orderings of the maximum back-degree.

    Parallel edges and loops are irrelevant to treewidth and ignored.
    Returns 0 for graphs with at most one vertex.
    """
    n = g.num_vertices()
    _check_size(n, max_vertices)
    if n <= 1:
        return 0
    nbr = [0] * n  # neighbour masks, loops dropped
    for a, b, _ in _indexed(g)[2]:
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a

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
