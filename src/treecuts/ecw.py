"""Edge-cut width: local feedback sets, exact search, sec upper bounds.

A spanning witness is a host multigraph H containing the base graph
together with a maximal spanning forest T of H. Each non-forest edge
charges every vertex on its forest path (endpoints included); the
edge-cut width of (H, T) is one plus the largest charge. Host elements
absent from the base graph are ghosts.

exact_ecw runs in two phases. The charge DP of `treecuts.chargedp` finds
the optimum value. Then the branch-and-bound `_least_forest` walks the
forests in lexicographic order, looking only for forests of at most that
value, and stops at the first one it reaches. Being first, it is the
lex-least optimal forest, the one exact_ecw has always returned. Where
the search stalls, the DP, kept with the tables of the optimum, decides
the next pair of that forest: it answers whether an optimal forest holds
the pairs decided in so far, this one too, and none decided out. The
search then drops whatever the answer rules out, so only the way the
forest is found changes. The DP is checked against brute force, with
and without such constraints, and against the search without a floor.
"""
from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .multigraph import MultiGraph, _norm

EdgePair = tuple[int, int]


class BudgetExceededError(RuntimeError):
    """Enumeration would visit more spanning trees than the budget allows."""


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
        return out
    # a forest with c trees has n - c edges; it is maximal iff c is the
    # host's component count
    parent, _ = _forest_paths(w.host, w.forest)
    trees = sum(p is None for p in parent.values())
    if len(w.forest) != len(parent) - trees or trees != len(w.host.components()):
        out.append("forest is not a maximal spanning forest of the host")
    return out


def _forest_paths(
    host: MultiGraph, forest: Iterable[EdgePair]
) -> tuple[dict[int, int | None], dict[int, int]]:
    """Parent and depth maps of the forest rooted per component.

    A DFS runs from each unreached host vertex in ascending order, marks
    a vertex when it is pushed and takes neighbours in the order the
    edges list them. Roots, the least vertex of each component, are the
    vertices whose parent is None; they enter the maps in ascending order.
    """
    adj: dict[int, list[int]] = {v: [] for v in host.vertices()}
    for u, v in forest:
        adj[u].append(v)
        adj[v].append(u)
    parent: dict[int, int | None] = {}
    depth: dict[int, int] = {}
    for r in host.sorted_vertices():
        if r in parent:
            continue
        parent[r] = None
        depth[r] = 0
        stack = [r]
        while stack:
            u = stack.pop()
            for x in adj[u]:
                if x not in parent:
                    parent[x] = u
                    depth[x] = depth[u] + 1
                    stack.append(x)
    return parent, depth


def _lca(parent, depth, u: int, v: int) -> int:
    """Lowest common ancestor of u and v, two vertices of one forest tree."""
    while u != v:
        if depth[u] >= depth[v]:
            u = parent[u]
        else:
            v = parent[v]
    return u


def _path_vertices(parent, depth, u: int, v: int) -> set[int]:
    """Vertices on the forest path between u and v, endpoints included."""
    top = _lca(parent, depth, u, v)
    path = {top}
    for x in (u, v):
        while x != top:
            path.add(x)
            x = parent[x]
    return path


def _charges(host: MultiGraph, forest) -> dict[int, int]:
    """Per-vertex count of non-forest edge copies whose path crosses it."""
    parent, depth = _forest_paths(host, forest)
    charge = {v: 0 for v in host.vertices()}
    fset = set(forest)
    for u, v, m in host.edge_pairs():
        copies = m if u == v else m - (1 if (u, v) in fset else 0)
        if copies <= 0:
            continue
        for x in _path_vertices(parent, depth, u, v):
            charge[x] += copies
    return charge


def local_feedback_set(
    h: MultiGraph, t: frozenset[EdgePair] | set[EdgePair], v: int
) -> set[tuple[int, int, int]]:
    """Non-forest edge copies of h whose forest path contains v.

    Copies are tokens (u, w, i) with u <= w; for a pair of multiplicity m,
    copy 0 is the forest edge when (u, w) is in t, so tokens run over the
    remaining indices. A loop's path is its single endpoint.
    """
    if not h.has_vertex(v):
        raise KeyError(f"vertex {v} not in host")
    parent, depth = _forest_paths(h, t)
    fset = set(t)
    out = set()
    for u, w, m in h.edge_pairs():
        start = 0 if u == w or (u, w) not in fset else 1
        if start >= m:
            continue
        if v in _path_vertices(parent, depth, u, w):
            out.update((u, w, i) for i in range(start, m))
    return out


def ecw_value(h: MultiGraph, t: frozenset[EdgePair] | set[EdgePair]) -> int:
    """1 + max vertex charge; 0 for the empty graph by convention."""
    if h.num_vertices() == 0:
        return 0
    return 1 + max(_charges(h, t).values())


def witness_ecw(w: SpanningWitness) -> int:
    return ecw_value(w.host, w.forest)


def feedback_edge_number(g: MultiGraph) -> int:
    return g.num_edges() - g.num_vertices() + len(g.components())


def _det_int(m: list[list[int]]) -> int:
    """Bareiss fraction-free determinant of an integer matrix."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _peel_pendants(adj: dict[int, dict[int, int]]) -> Iterator[tuple[int, int, int]]:
    """Peel the pendant vertices off a loopless adjacency of multiplicities,
    in place, and yield (v, u, m) for each: v had one distinct neighbour u,
    joined by m copies, and is left with none. A neighbour left pendant is
    peeled in turn, so a tree component peels down to one vertex."""
    pendant = [v for v in sorted(adj) if len(adj[v]) == 1]
    while pendant:
        v = pendant.pop()
        if len(adj[v]) != 1:  # its neighbour was peeled before it
            continue
        (u, m), = adj[v].items()
        adj[v].clear()
        del adj[u][v]
        if len(adj[u]) == 1:
            pendant.append(u)
        yield v, u, m


def spanning_tree_count(g: MultiGraph) -> int:
    """Number of spanning forests maximal in g, counting parallel copies
    as distinct (matrix-tree theorem per component; loops ignored).

    Pendant vertices are peeled first: every spanning tree uses one of
    the m copies to the neighbour, so each peel multiplies the count by m.
    The determinant runs only on what is left of each component.
    """
    adj: dict[int, dict[int, int]] = {v: {} for v in g.vertices()}
    for u, v, m in g.edge_pairs():
        if u != v:
            adj[u][v] = adj[v][u] = m
    total = 1
    for _, _, m in _peel_pendants(adj):
        total *= m
    for comp in g.components():
        # peeling never disconnects what is left of a component
        vs = sorted(v for v in comp if adj[v])
        if not vs:
            continue
        idx = {v: i for i, v in enumerate(vs)}
        n = len(vs)
        lap = [[0] * n for _ in range(n)]
        for u in vs:
            iu = idx[u]
            for v, m in adj[u].items():
                lap[iu][iu] += m
                lap[iu][idx[v]] -= m
        total *= _det_int([row[1:] for row in lap[1:]])
    return total


def exact_ecw(g: MultiGraph, budget: int = 10**6) -> tuple[int, SpanningWitness]:
    """Minimum edge-cut width of g over its own maximal spanning forests.

    No ghosts are introduced, so this is ecw(g) exactly. The achieving
    forest is the lexicographically least among the optima. The value
    comes from the charge DP (`chargedp.ForestOracle`); the
    branch-and-bound `_least_forest` then searches forests in
    lexicographic order and stops at the first one that reaches it,
    asking the DP to decide a pair each time it undoes _UNIONS unions
    without settling one. The budget caps the spanning forest count of g,
    whatever the search ends up visiting.
    """
    if g.num_vertices() == 0:
        return 0, SpanningWitness(g.copy(), g.copy(), frozenset())
    count = spanning_tree_count(g)
    if count > budget:
        raise BudgetExceededError(
            f"{count} spanning trees exceed the enumeration budget {budget}"
        )
    # imported on first use: most callers of this module never need the DP
    from .chargedp import ForestOracle

    vs, loops, pairs = _indexed(g)
    oracle = ForestOracle(loops, pairs)
    value, chosen = _least_forest(loops, pairs, oracle.value, oracle)
    forest = frozenset((vs[a], vs[b]) for a, b in chosen)
    return value, SpanningWitness(g.copy(), g.copy(), forest)


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


# unions the search may undo, after the last pair it settled, before the
# oracle decides the next one
_UNIONS = 200


def _least_forest(
    loops: list[int], pairs: list[tuple[int, int, int]], floor: int | None = None,
    oracle=None,
) -> tuple[int, tuple[EdgePair, ...]]:
    """Branch-and-bound behind exact_ecw over vertices 0..n-1.

    loops[x] counts the loops at x; pairs are the distinct non-loop pairs
    (a, b, multiplicity), lex-sorted. Pair i is first included, then
    excluded; a pair whose ends the forest already joins is excluded
    outright. Excluding is tried only if a and b stay joinable through the
    forest and pairs[i+1:], so every pass through all pairs ends in a
    maximal spanning forest, and leaves are reached in lexicographic
    order of their sorted pair tuples.

    Charges are kept per vertex as the search goes, with an undo log. An
    included pair charges its ends m - 1 and an excluded one its ends m at
    once; the interior of an excluded pair's forest path is charged when
    that path is fixed, on exclusion if its ends are joined already and
    otherwise at the union that joins them. A branch is cut once
    1 + max charge reaches the best value found, so no forest below it
    can beat that value and the first forest reaching the optimum is kept.

    floor, when given, should be the optimum (exact_ecw passes the DP
    value). The search then seeks only forests of value at most floor and
    stops at the first one whose value equals it; being first in
    lexicographic order, that forest is the lex-least optimum. A floor
    below the optimum only costs time: no forest reaches it, and the
    search runs again without one. A floor above the optimum is harmless
    only when the first forest found lies below it, since the search then
    runs to the end; one that the first forest meets exactly ends the
    search there, so floor must never exceed the optimum.

    oracle, when given, is a `chargedp.ForestOracle` of the same graph and
    floor is its value. The search below a decided prefix of pairs runs
    as above and counts the unions it undoes, not those it makes, since a
    search that never backs up makes n - 1. Once it has undone more than
    _UNIONS since the prefix last grew, the prefix grows: exclusions the
    search has
    proved, by exhausting the inclusion, join it first, and then the
    oracle decides the first pair the search has included but not
    settled. A yes settles the inclusion and the search goes on where it
    was; a no drops everything below the inclusion and excludes the pair.
    Neither cuts a forest that could come first, so the result is the one
    the search finds alone; inputs settled within _UNIONS undone unions
    never ask.

    The search keeps its own stack of nodes, so its depth is not bounded
    by the interpreter's recursion limit.
    """
    n = len(loops)
    charge = loops[:]
    log: list[tuple[list[int] | EdgePair, int]] = []
    fadj = [0] * n  # forest neighbour masks
    # suf[i][x]: neighbours of x through pairs[i:]
    suf = [[0] * n]
    for a, b, _ in reversed(pairs):
        row = suf[-1][:]
        row[a] |= 1 << b
        row[b] |= 1 << a
        suf.append(row)
    suf.reverse()
    # union by rank, undone by hand; comp[r] is the vertex mask of root r
    par = list(range(n))
    rank = [0] * n
    comp = [1 << x for x in range(n)]
    # the forest rooted per tree: parent (-1 at a root) and depth
    up = [-1] * n
    depth = [0] * n
    chosen: list[EdgePair] = []
    if floor is None:
        best = sum(m for _, _, m in pairs) + sum(loops) + 2  # above any value
    else:
        best = floor + 1
    best_forest: tuple[EdgePair, ...] | None = None

    def find(x: int) -> int:
        while par[x] != x:
            x = par[x]
        return x

    def joinable(a: int, b: int, extra: list[int]) -> bool:
        """Whether b is reachable from a over forest and extra edges."""
        target = 1 << b
        seen = front = 1 << a
        while front:
            nxt = 0
            while front:
                low = front & -front
                x = low.bit_length() - 1
                nxt |= fadj[x] | extra[x]
                front ^= low
            if nxt & target:
                return True
            front = nxt & ~seen
            seen |= front
        return False

    def path(a: int, b: int) -> list[int]:
        """Vertices inside the forest path a..b, ends excluded."""
        out = []
        x, y = a, b
        while depth[x] > depth[y]:
            x = up[x]
            out.append(x)
        while depth[y] > depth[x]:
            y = up[y]
            out.append(y)
        while x != y:
            x = up[x]
            y = up[y]
            out.append(x)
            if x != y:
                out.append(y)
        if x == a or x == b:  # one end is the other's ancestor
            out.pop()
        return out

    def hang(b: int, a: int) -> list[tuple[int, int, int]]:
        """Re-root the tree of b at b and hang it below a; the old
        (vertex, parent, depth) entries, for undoing."""
        old = [(b, up[b], depth[b])]
        up[b] = a
        depth[b] = depth[a] + 1
        stack = [b]
        while stack:
            x = stack.pop()
            d = depth[x] + 1
            kids = fadj[x] & ~(1 << up[x])
            while kids:
                low = kids & -kids
                c = low.bit_length() - 1
                kids ^= low
                old.append((c, up[c], depth[c]))
                up[c] = x
                depth[c] = d
                stack.append(c)
        return old

    def add(xs: list[int] | EdgePair, m: int, top: int) -> int:
        """Charge every vertex of xs by m; the new max charge."""
        for x in xs:
            c = charge[x] + m
            charge[x] = c
            if c > top:
                top = c
        log.append((xs, m))
        return top

    def undo(mark: int) -> None:
        while len(log) > mark:
            xs, m = log.pop()
            for x in xs:
                charge[x] -= m

    # A node of the search is (i, pending, top) with its log mark. Its
    # forced steps run in place; at a pair that joins two trees the node
    # is pushed with what undoing the inclusion needs, and the included
    # child runs. On return the node tries the excluded child, pushed as
    # (mark, None), and is then done. Nodes leave the bottom of the
    # stack, never to be undone, once they are decided: an exclusion the
    # search proved or an inclusion the oracle confirmed.
    stack: list[tuple] = []
    i, pending, top, mark = 0, [], max(charge), 0
    undone, limit = 0, _UNIONS if oracle is not None else sys.maxsize
    cut = sys.maxsize  # the stack depth from which no excluded child is tried
    while True:
        descended = False
        while top + 1 < best:
            if i == len(pairs):
                best = top + 1
                best_forest = tuple(chosen)
                if best == floor:
                    return best, best_forest
                break
            a, b, m = pairs[i]
            ra, rb = find(a), find(b)
            i += 1
            if ra == rb:
                xs = path(a, b)
                xs += (a, b)
                top = add(xs, m, top)
                continue
            inner = len(log)
            t = add((a, b), m - 1, top) if m > 1 else top
            if rank[ra] < rank[rb]:
                ra, rb = rb, ra
            bump = rank[ra] == rank[rb]
            rank[ra] += bump
            par[rb] = ra
            ca, cb = comp[ra], comp[rb]
            both = comp[ra] = ca | cb
            small = ca if ca.bit_count() <= cb.bit_count() else cb
            moved = hang(b, a) if small >> b & 1 else hang(a, b)
            fadj[a] |= 1 << b
            fadj[b] |= 1 << a
            chosen.append((a, b))
            rest = []
            for p in pending:
                x, y, k = p
                if both >> x & both >> y & 1:  # the union joins x and y
                    t = add(path(x, y), k, t)
                else:
                    rest.append(p)
            stack.append((mark, (i, pending, top, a, b, m, ra, rb, bump, ca, moved, inner)))
            pending, top, mark = rest, t, len(log)
            descended = True
            break
        if descended:
            if undone <= limit:
                continue
            # stalled: the oracle decides the first pair the search has
            # included but not yet settled
            undone = 0
            while stack[0][1] is None:
                del stack[0]
            if oracle.include(*stack[0][1][3:5]):
                del stack[0]
                continue
            # no optimal forest lies below that inclusion: back to it,
            # trying no excluded child on the way, and exclude the pair
            cut = 1
        undo(mark)
        # back to the nearest node whose excluded child is untried
        while stack:
            mark, state = stack.pop()
            if state is None:
                undo(mark)
                continue
            i, pending, top, a, b, m, ra, rb, bump, ca, moved, inner = state
            undone += 1
            chosen.pop()
            fadj[a] ^= 1 << b
            fadj[b] ^= 1 << a
            comp[ra] = ca
            par[rb] = rb
            rank[ra] -= bump
            for x, u, d in moved:
                up[x] = u
                depth[x] = d
            undo(inner)
            if joinable(a, b, suf[i]) and len(stack) < cut:
                if cut == 1:  # the oracle's no settles this pair
                    cut, undone = sys.maxsize, 0
                stack.append((mark, None))
                top = add((a, b), m, top)
                pending = pending + [(a, b, m)]
                mark = len(log)
                break
            undo(mark)
        else:
            break
    if best_forest is None:  # the floor was below the optimum
        return _least_forest(loops, pairs)
    return best, best_forest


def sec_upper(
    g: MultiGraph,
    d_opt=None,
    budget: int = 10**6,
) -> tuple[int, SpanningWitness]:
    """Upper bound on super edge-cut width, with the witness achieving it.

    Candidates: the exact ecw forest of g itself (any such witness also
    bounds sec), and the witness built from a slim-width-optimal tree-cut
    decomposition (supplied, or oracle-found when g is small enough).
    Falls back to a plain DFS forest if neither route is available.
    """
    candidates: list[tuple[int, SpanningWitness]] = []
    try:
        candidates.append(exact_ecw(g, budget))
    except BudgetExceededError:
        pass
    d = d_opt
    if d is None:
        from .oracle import SizeLimitError, exact_width

        try:
            _, d = exact_width(g, "stcw")
        except SizeLimitError:
            d = None
    if d is not None:
        from .transform import decomposition_to_witness

        w = decomposition_to_witness(g, d)
        candidates.append((witness_ecw(w), w))
    if not candidates:
        parent, _ = _forest_paths(g, [(u, v) for u, v, _ in g.edge_pairs()])
        forest = frozenset(_norm(v, p) for v, p in parent.items() if p is not None)
        candidates.append((ecw_value(g, forest), SpanningWitness(g.copy(), g.copy(), forest)))
    return min(candidates, key=lambda c: c[0])
