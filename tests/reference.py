"""Independent references that the tests compare the package against.

`least_forest` is the branch-and-bound that found exact_ecw's forest
before the charge DP decided it pair by pair. It knows nothing of the
DP: it proves optimality by itself, so it checks both the DP's value and
the forest that the DP's answers pick. scripts/ecw_reach_table.py times
it too.

`ReferenceSearch` is the oracle's subset search with every candidate
torso decided by `_torso_ok`, so by the center kernel wherever the bag and
the group count alone do not fit; it ignores the scores that let the
search decide most torsos without that call.

`ReferenceChargeDP` is the charge DP with every sum, H entry and fit of
a part computed by a generator that `drive` runs, each handing its value
to the one that yielded it; one-vertex sets, and sets with no allowed
neighbour of the vertex above, go through the general scan too. It is
the DP as it was before everything but `hpart` on sets of two or more
vertices was decided inline.

`adhesion`, `consolidate`, `torso` and `center` build the paper's
per-node graphs explicitly: the cut below a node, the torso with every
other subtree shrunk to one vertex, and its 3-, 2- and 1-centers.
`decomposition._TreePass` reads the same numbers off one pass with no
graph built, and the oracle and the pass share one center kernel; the
property tests compare both against these builders.
`local_feedback_set` lists the non-forest edge copies whose forest path
holds a vertex, one token per copy, so it checks the charge walk of
`ecw._top_charge`; `feedback_edge_number` is the cycle rank |E| - |V| +
components, the trivial upper bound on edge-cut width minus one.
"""
from __future__ import annotations

from treecuts.chargedp import _ChargeDP
from treecuts.decomposition import TreeCutDecomposition
from treecuts.ecw import _forest_paths, _path_vertices
from treecuts.multigraph import MultiGraph
from treecuts.oracle import INF, _Search

EdgePair = tuple[int, int]


class ReferenceSearch(_Search):
    """_Search whose _min_empties sends every candidate to _torso_ok."""

    def _min_empties(self, y: int) -> float:
        if y in self.memo:
            return self.memo[y]
        self.memo[y] = INF
        self.active.add(y)
        best: float = INF
        best_choice = None
        for x in self._bags(y):
            if x.bit_count() > self.wmax:
                break
            own = 0 if x else 1
            rest = y ^ x
            if not rest:
                if x and self._torso_ok(y, x, ()):
                    best, best_choice = 0, (x, ())
                    break
                continue
            for parts, cost, _ in self._partitions(rest):
                total = own + cost
                if total < best and self._torso_ok(y, x, parts):
                    best, best_choice = total, (x, parts)
                    if best == 0:
                        break
            if best == 0:
                break
        self.memo[y] = best
        self.active.discard(y)
        if best_choice is not None:
            self.choice[y] = best_choice
        return best


def drive(gen):
    """Run a generator that yields sub-generators for the values it
    needs, with an explicit stack in place of recursion; its return value."""
    stack = [gen]
    value = None
    while True:
        try:
            sub = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            value = done.value
        else:
            stack.append(sub)
            value = None


class ReferenceChargeDP(_ChargeDP):
    """_ChargeDP whose sums, H entries and fits all run as generators.

    hsum drives the whole sum, so it never hands a component back."""

    def hsum(self, x: int, parts: tuple[int, ...]) -> int:
        return drive(self.gsum(x, parts))

    def gsum(self, x: int, parts: tuple[int, ...]):
        """H(x, r) over the components of r; -1 when some has no partition."""
        total = 0
        key = self.k
        for c in parts:
            h = self.h.get(c * key + x)
            if h is None:
                h = yield self.hpart(x, c)
            if h < 0:
                return -1
            total += h
        return total

    def hpart(self, x: int, c: int):
        """H(x, c) for a connected set c; -1 when no partition is valid."""
        nx = self.allowed[x]
        key = self.k
        best = most = -1
        if c & nx:
            low = c & -c
            v = low.bit_length() - 1
            sets = self.parts.get(v)
            if sets is None:
                sets = self.small_cut_sets(v)
            reqv = self.reqv
            for p, e, cut in sets:
                if p & ~c or not p & nx:
                    continue
                ends = p & nx
                if p & reqv:
                    ends = self.roots(x, p, ends)
                while ends:
                    bit = ends & -ends
                    ends ^= bit
                    y = bit.bit_length() - 1
                    ok = self.f.get(p * key + y)
                    if ok is None:
                        ok = yield self.fits(p, e, cut, y)
                    if ok:
                        break
                else:
                    continue
                rest = 0
                if c != p:
                    rest = yield from self.gsum(x, self.components(c & ~p))
                    if rest < 0:
                        continue
                if e + 1 + rest > best:
                    best = e + 1 + rest
                    part, root = p, y
                    if most < 0:
                        most = self.edges(c) + 1
                    if best == most:
                        break
        self.h[c * key + x] = best
        if best >= 0:
            self.how[c * key + x] = part, root
        return best

    def fits(self, s: int, e: int, cut: int, x: int):
        """feasible(s, x) for a part s other than the whole vertex set."""
        r = s & ~(1 << x)
        need = cut - 1 + e - self.bound
        spare = need - self.edges(r)  # what #components(r) must make up
        if not r:
            ok = spare <= 0
        else:
            parts = self.components(r)
            ok = len(parts) >= spare and (
                (yield from self.gsum(x, parts)) >= (need if need > 0 else 0)
            )
        self.f[s * self.k + x] = ok
        return ok


def least_forest(
    loops: list[int], pairs: list[tuple[int, int, int]]
) -> tuple[int, tuple[EdgePair, ...]]:
    """(edge-cut width, lex-least optimal forest) over vertices 0..n-1.

    loops[x] counts the loops at x; pairs are the distinct non-loop pairs
    (a, b, multiplicity), lex-sorted, as `ecw._indexed` gives them. Pair i
    is first included, then excluded; a pair whose ends the forest
    already joins is excluded outright. Excluding is tried only if a and
    b stay joinable through the forest and pairs[i+1:], so every pass
    through all pairs ends in a maximal spanning forest, and leaves are
    reached in lexicographic order of their sorted pair tuples.

    Charges are kept per vertex as the search goes, with an undo log. An
    included pair charges its ends m - 1 and an excluded one its ends m at
    once; the interior of an excluded pair's forest path is charged when
    that path is fixed, on exclusion if its ends are joined already and
    otherwise at the union that joins them. A branch is cut once
    1 + max charge reaches the best value found, so no forest below it
    can beat that value and the first forest reaching the optimum is kept.

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
    best = sum(m for _, _, m in pairs) + sum(loops) + 2  # above any value
    best_forest: tuple[EdgePair, ...] = ()

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
    # (mark, None), and is then done.
    stack: list[tuple] = []
    i, pending, top, mark = 0, [], max(charge, default=0), 0
    while True:
        descended = False
        while top + 1 < best:
            if i == len(pairs):
                best = top + 1
                best_forest = tuple(chosen)
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
            continue
        undo(mark)
        # back to the nearest node whose excluded child is untried
        while stack:
            mark, state = stack.pop()
            if state is None:
                undo(mark)
                continue
            i, pending, top, a, b, m, ra, rb, bump, ca, moved, inner = state
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
            if joinable(a, b, suf[i]):
                stack.append((mark, None))
                top = add((a, b), m, top)
                pending = pending + [(a, b, m)]
                mark = len(log)
                break
            undo(mark)
        else:
            break
    return best, best_forest


def adhesion(d: TreeCutDecomposition, g: MultiGraph, t: int) -> int:
    """Edges of g crossing the cut below t, with multiplicity; 0 at the root."""
    if t not in d.parent:
        raise KeyError(f"unknown node {t}")
    if t == d.root:
        return 0
    return g.cut_size(d.subtree_vertices(t))


def consolidate(
    g: MultiGraph, bag: set[int], parts: list[set[int]]
) -> MultiGraph:
    """Shrink each part to a single fresh vertex, keeping only edges that
    leave it; bag vertices stay as themselves. Empty parts yield nothing.
    Loops survive only on bag vertices. Fresh ids start above g's range;
    part i maps to meta["part_vertex"][i] (None when the part was empty).
    """
    part_of: dict[int, int] = {}
    part_vertex: list[int | None] = []
    nxt = max(g.vertices(), default=-1) + 1
    for part in parts:
        if not part:
            part_vertex.append(None)
            continue
        for v in part:
            part_of[v] = nxt
        part_vertex.append(nxt)
        nxt += 1
    h = MultiGraph(bag)
    for z in set(part_of.values()):
        h.add_vertex(z)
    for u, v, m in g.edge_pairs():
        mu = part_of.get(u, u)
        mv = part_of.get(v, v)
        if u == v:
            if u in bag:
                h.add_edge(u, u, m)
        elif mu != mv:
            h.add_edge(mu, mv, m)
    h.meta["part_vertex"] = part_vertex
    return h


def torso(d: TreeCutDecomposition, g: MultiGraph, t: int) -> MultiGraph:
    """Torso H_t: every component of T - t consolidated into one vertex.

    Consolidation keeps only edges leaving each consolidated part, so no
    self-loops arise from it (loops already sitting on bag vertices stay).
    Consolidation vertices get fresh ids above g's id range; meta
    ["consolidation"] maps each one to the child node it stands for, or to
    None for the part containing the parent.
    """
    if t not in d.parent:
        raise KeyError(f"unknown node {t}")
    bag = d.bags[t]
    children = d.children(t)
    parts = [d.subtree_vertices(b) for b in children]
    labels: list[int | None] = list(children)
    if t != d.root:
        parts.append(g.vertices() - d.subtree_vertices(t))
        labels.append(None)
    h = consolidate(g, bag, parts)
    origin: dict[int, int | None] = {}
    for label, z in zip(labels, h.meta.pop("part_vertex")):
        if z is not None:
            origin[z] = label
    h.meta["consolidation"] = origin
    return h


def center(h: MultiGraph, x: set[int], level: int) -> MultiGraph:
    """Prune (h, x) at the given level; x-vertices are never touched.

    level 1: delete isolated non-x vertices.
    level 2: exhaustively delete non-x vertices of degree <= 1.
    level 3: exhaustively suppress non-x vertices of degree <= 2
             (suppression joins the two neighbors; two parallel edges
             collapse to a loop on the surviving neighbor).

    The result is unique; processing ascends vertex ids for reproducibility.
    """
    if level not in (1, 2, 3):
        raise ValueError(f"level must be 1, 2 or 3, got {level}")
    out = h.copy()
    changed = True
    while changed:
        changed = False
        for v in out.sorted_vertices():
            if v in x:
                continue
            deg = out.degree(v)
            if level == 1:
                if deg == 0:
                    out.remove_vertex(v)
                    changed = True
                    break
            elif level == 2:
                if deg <= 1:
                    out.remove_vertex(v)
                    changed = True
                    break
            else:
                if deg <= 1 or (deg == 2 and out.loops(v)):
                    out.remove_vertex(v)
                    changed = True
                    break
                if deg == 2:
                    nbrs = sorted(out.neighbors(v))
                    out.remove_vertex(v)
                    if len(nbrs) == 2:
                        out.add_edge(nbrs[0], nbrs[1])
                    else:
                        out.add_edge(nbrs[0], nbrs[0])
                    changed = True
                    break
    return out


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
    parent, depth = _forest_paths(h.sorted_vertices(), t)
    fset = set(t)
    out = set()
    for u, w, m in h.edge_pairs():
        start = 0 if u == w or (u, w) not in fset else 1
        if start >= m:
            continue
        if v in _path_vertices(parent, depth, u, w):
            out.update((u, w, i) for i in range(start, m))
    return out


def feedback_edge_number(g: MultiGraph) -> int:
    return g.num_edges() - g.num_vertices() + len(g.components())
