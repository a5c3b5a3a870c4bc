"""Edge-cut width: charges, exact search, sec upper bounds.

A spanning witness is a host multigraph H containing the base graph
together with a maximal spanning forest T of H. Each non-forest edge
charges every vertex on its forest path (endpoints included); the
edge-cut width of (H, T) is one plus the largest charge. Host elements
absent from the base graph are ghosts.

exact_ecw runs in two phases. The charge DP of `treecuts.chargedp` finds
the optimum value and a witness forest. Then the pairs are taken in
lexicographic order, and each is kept exactly when the DP says an
optimal forest holds it, the pairs kept so far and none of those
dropped. That walk gives the lex-least optimal forest, the one exact_ecw
has always returned, with no search. The DP is checked against brute
force, with and without such constraints, and against the
branch-and-bound of tests/reference.py. One charge walk, `_top_charge`,
gives every charge; the per-token local feedback sets that check it are
in tests/reference.py too.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from .multigraph import MultiGraph, _norm

EdgePair = tuple[int, int]


class BudgetExceededError(RuntimeError):
    """The graph has more spanning forests than the budget allows;
    exact_ecw refuses it before the charge DP runs."""


@dataclass
class SpanningWitness:
    base_graph: MultiGraph
    host: MultiGraph
    forest: frozenset[EdgePair]

    def ghost_vertices(self) -> set[int]:
        return self.host.vertices() - self.base_graph.vertices()

    def ghost_edge_count(self, u: int, v: int) -> int:
        """How many copies of host edge (u, v) are not base edges."""
        return self.host.multiplicity(u, v) - self.base_graph.multiplicity(u, v)


def validate_witness(w: SpanningWitness) -> list[str]:
    return _rooted_witness(w)[0]


def _rooted_witness(
    w: SpanningWitness,
) -> tuple[list[str], dict[int, int | None], dict[int, int]]:
    """validate_witness's problems and the parent and depth maps that
    `_forest_paths` gives the forest over the ascending host vertices,
    empty when a problem stops the check before the rooting. Consumers
    of a witness read this one rooting rather than root it again."""
    out = []
    if not w.base_graph.vertices() <= w.host.vertices():
        missing = sorted(w.base_graph.vertices() - w.host.vertices())
        out.append(f"host misses base vertices {missing}")
    for u, v, m in w.base_graph.edge_pairs():
        if w.host.multiplicity(u, v) < m:
            out.append(f"host carries fewer copies of edge ({u},{v}) than the base")
    for u, v in sorted(w.forest):
        if u == v:
            out.append(f"forest contains loop ({u},{v})")
        elif u > v:
            out.append(f"forest edge ({u},{v}) is not written as (min, max)")
        elif w.host.multiplicity(u, v) == 0:
            out.append(f"forest edge ({u},{v}) is not a host edge")
    if out:
        return out, {}, {}
    # a forest with c trees has n - c edges; it is maximal iff c is the
    # host's component count
    parent, depth = _forest_paths(w.host.sorted_vertices(), w.forest)
    trees = sum(p is None for p in parent.values())
    if len(w.forest) != len(parent) - trees or trees != len(w.host.components()):
        out.append("forest is not a maximal spanning forest of the host")
    return out, parent, depth


def _forest_paths(
    vertices: Iterable[int], forest: Iterable[EdgePair]
) -> tuple[dict[int, int | None], dict[int, int]]:
    """Parent and depth maps of a forest over the ascending vertices,
    rooted per component.

    A DFS runs from each unreached vertex in ascending order, marks a
    vertex when it is pushed and takes neighbours in the order the edges
    list them. Roots, the least vertex of each component, are the
    vertices whose parent is None; they enter the maps in ascending order.
    """
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for u, v in forest:
        adj[u].append(v)
        adj[v].append(u)
    parent: dict[int, int | None] = {}
    depth: dict[int, int] = {}
    for r in adj:
        if r in parent:
            continue
        parent[r] = None
        depth[r] = 0
        stack = [r]
        while stack:
            u = stack.pop()
            below = depth[u] + 1
            for x in adj[u]:
                if x not in parent:
                    parent[x] = u
                    depth[x] = below
                    stack.append(x)
    return parent, depth


def _climb(parent, depth, u: int, v: int) -> tuple[list[int], list[int]]:
    """The walks up one forest tree from u and from v, each from its
    start to their lowest common ancestor, both ends included: the
    deeper end steps first, u on a tie."""
    head, tail = [u], [v]
    while u != v:
        if depth[u] >= depth[v]:
            u = parent[u]
            head.append(u)
        else:
            v = parent[v]
            tail.append(v)
    return head, tail


def _path_vertices(parent, depth, u: int, v: int) -> list[int]:
    """Vertices on the forest path from u to v, in order, endpoints included."""
    head, tail = _climb(parent, depth, u, v)
    return head + tail[-2::-1]


def _top_charge(loops: list[int], pairs, forest, bound: float = math.inf) -> int:
    """The largest charge a maximal spanning forest puts on a vertex, or
    the first charge found above bound.

    The multigraph is over vertices 0..n-1: loops[x] counts the loops at
    x and pairs are its distinct non-loop pairs (a, b, multiplicity),
    a < b. forest is a set of pairs (a, b), a < b. A forest pair's spare
    copies charge its two ends alone, so a single forest copy charges none.
    """
    parent, depth = _forest_paths(range(len(loops)), forest)
    charge = loops[:]
    top = max(loops, default=0)
    for u, v, m in pairs:
        if (u, v) in forest:
            if m == 1:
                continue
            path, m = (u, v), m - 1
        else:
            path = _path_vertices(parent, depth, u, v)
        for z in path:
            charge[z] += m
            if charge[z] > top:
                top = charge[z]
                if top > bound:
                    return top
    return top


def ecw_value(h: MultiGraph, t: frozenset[EdgePair] | set[EdgePair]) -> int:
    """1 + max vertex charge; 0 for the empty graph by convention."""
    if h.num_vertices() == 0:
        return 0
    vs, loops, pairs = _indexed(h)
    idx = {v: i for i, v in enumerate(vs)}
    return 1 + _top_charge(loops, pairs, {(idx[u], idx[v]) for u, v in t})


def witness_ecw(w: SpanningWitness) -> int:
    return ecw_value(w.host, w.forest)


def _det_int(m: list[list[int]]) -> int:
    """Bareiss fraction-free determinant of a positive definite integer
    matrix, without pivoting.

    `_tree_count` passes only the reduced Laplacian of a connected core,
    which is positive definite; each pivot a[k][k] is then a leading
    principal minor, so it is positive and no row swap is needed. A core
    holds a pair, so it has k >= 2 vertices and its matrix is at least
    1x1.
    """
    n = len(m)
    a = [row[:] for row in m]
    prev = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[n - 1][n - 1]


def _cores(
    n: int, pairs: list[tuple[int, int, int]]
) -> tuple[list[tuple[int, int, int]], list[tuple[list[int], list[dict[int, int]]]]]:
    """Peel the pendant vertices off the loopless multigraph on 0..n-1
    with the distinct pairs (a, b, multiplicity), until none is left, and
    split the rest into cores.

    The peeled vertices come as `_peel` lists them and the cores as
    `_split` builds them. Peeling never disconnects a component.
    """
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    for a, b, m in pairs:
        adj[a][b] = adj[b][a] = m
    peeled = _peel(adj, range(n))
    return peeled, _split(adj)


def _peel(adj: list[dict[int, int]], todo: Iterable[int]) -> list[tuple[int, int, int]]:
    """Peel the pendant vertices among todo off the adjacency adj, in
    place, and those that peeling them leaves pendant.

    A pendant vertex v, with one distinct neighbour u joined by m copies,
    is listed as (v, u, m); a tree component peels down to one vertex.
    """
    peeled = []
    pendant = [v for v in todo if len(adj[v]) == 1]
    while pendant:
        v = pendant.pop()
        if len(adj[v]) != 1:  # its neighbour was peeled before it
            continue
        (u, m), = adj[v].items()
        adj[v].clear()
        del adj[u][v]
        if len(adj[u]) == 1:
            pendant.append(u)
        peeled.append((v, u, m))
    return peeled


def _split(adj: list[dict[int, int]]) -> list[tuple[list[int], list[dict[int, int]]]]:
    """The components of the adjacency adj that hold a pair, in the order
    of least vertices: each one's vertices ascending, and per vertex the
    multiplicity to each neighbour, by index in the component."""
    cores = []
    seen = [False] * len(adj)
    for r in range(len(adj)):
        if seen[r] or not adj[r]:
            continue
        seen[r] = True
        core = [r]
        for x in core:
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    core.append(y)
        core.sort()
        idx = {v: i for i, v in enumerate(core)}
        cores.append((core, [{idx[y]: m for y, m in adj[v].items()} for v in core]))
    return cores


def spanning_tree_count(g: MultiGraph) -> int:
    """Number of spanning forests maximal in g, counting parallel copies
    as distinct (matrix-tree theorem per component; loops ignored)."""
    vs, _, pairs = _indexed(g)
    return _tree_count(*_cores(len(vs), pairs))


def _tree_count(
    peeled: list[tuple[int, int, int]], cores: list[tuple[list[int], list[dict[int, int]]]]
) -> int:
    """`spanning_tree_count` of a graph that `_cores` split into peeled
    pendant vertices and cores.

    Every spanning tree uses one of the m copies from a peeled vertex to
    its neighbour, so each peel multiplies the count by m. The
    determinant runs only on the cores.
    """
    total = math.prod(m for _, _, m in peeled)
    for core, mul in cores:
        k = len(core)
        lap = [[0] * k for _ in range(k)]
        for a, ms in enumerate(mul):
            for b, m in ms.items():
                lap[a][a] += m
                lap[a][b] -= m
        total *= _det_int([row[1:] for row in lap[1:]])
    return total


def _tree_bound(
    peeled: list[tuple[int, int, int]], cores: list[tuple[list[int], list[dict[int, int]]]]
) -> int:
    """An upper bound on `_tree_count(peeled, cores)` with no
    determinant.

    Rooting a spanning tree of a core at a vertex r maps it injectively
    to one incident copy per other vertex, the copy to its parent; so a
    core has at most the product of its degrees but r's, and r is taken
    at the largest degree.
    """
    total = math.prod(m for _, _, m in peeled)
    for _, mul in cores:
        degrees = [sum(ms.values()) for ms in mul]
        total *= math.prod(degrees) // max(degrees)
    return total


def exact_ecw(g: MultiGraph, budget: int = 10**6) -> tuple[int, SpanningWitness]:
    """Minimum edge-cut width of g over its own maximal spanning forests.

    No ghosts are introduced, so this is ecw(g) exactly. The achieving
    forest is the lexicographically least among the optima. The value
    comes from the charge DP (`chargedp.ForestOracle`); `_least_forest`
    then asks the DP about each pair in lex order. The budget caps the
    spanning forest count of g, which is counted only when the degree
    bound of `_tree_bound` exceeds the budget.
    """
    vs, loops, pairs = _indexed(g)
    peeled, cores = _cores(len(vs), pairs)
    if _tree_bound(peeled, cores) > budget:
        count = _tree_count(peeled, cores)
        if count > budget:
            raise BudgetExceededError(
                f"{count} spanning trees exceed the enumeration budget {budget}"
            )
    # imported on first use: most callers of this module never need the DP
    from .chargedp import ForestOracle

    oracle = ForestOracle(loops, pairs)
    chosen = _least_forest(len(vs), pairs, oracle)
    forest = frozenset((vs[a], vs[b]) for a, b in chosen)
    return oracle.value, SpanningWitness(g.copy(), g.copy(), forest)


def _indexed(g: MultiGraph) -> tuple[list[int], list[int], list[tuple[int, int, int]]]:
    """g over vertex indices: its sorted vertices, the loop count of each
    and the lex-sorted distinct non-loop pairs (a, b, multiplicity)."""
    vs = g.sorted_vertices()
    idx = {v: i for i, v in enumerate(vs)}
    loops = [0] * len(vs)
    pairs = []
    for u, v, m in g.edge_pairs():
        if u == v:
            loops[idx[u]] = m
        else:
            pairs.append((idx[u], idx[v], m))
    pairs.sort()
    return vs, loops, pairs


def _least_forest(n: int, pairs: list[tuple[int, int, int]], oracle) -> list[EdgePair]:
    """The lex-least optimal forest over vertices 0..n-1, pair by pair.

    pairs are as `_indexed` gives them and oracle is a fresh
    `chargedp.ForestOracle` of the same graph. Each pair is kept exactly
    when an optimal forest holds it, the pairs kept before it and none of
    those dropped: a forest holding pair i sorts before every forest
    that agrees with it below i and lacks i. A pair whose ends the kept
    pairs already join is dropped with no question, since no forest
    holding them can hold it.
    """
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    chosen = []
    for a, b, _ in pairs:
        ra, rb = find(a), find(b)
        if ra != rb and oracle.include(a, b):
            root[ra] = rb
            chosen.append((a, b))
    return chosen


def _dfs_forest(g: MultiGraph) -> frozenset[EdgePair]:
    """The DFS forest `_forest_paths` roots over g's own distinct pairs."""
    parent, _ = _forest_paths(g.sorted_vertices(), [(u, v) for u, v, _ in g.edge_pairs()])
    return frozenset(_norm(v, p) for v, p in parent.items() if p is not None)


def sec_upper(g: MultiGraph) -> tuple[int, SpanningWitness]:
    """Upper bound on super edge-cut width, with the witness achieving it.

    Within exact_ecw's default budget this is exact_ecw(g): a witness of
    g itself, with no ghosts, also bounds sec. Above the budget it is the
    DFS forest of `_dfs_forest`, with its ecw_value.
    """
    try:
        return exact_ecw(g)
    except BudgetExceededError:
        forest = _dfs_forest(g)
        return ecw_value(g, forest), SpanningWitness(g.copy(), g.copy(), forest)
