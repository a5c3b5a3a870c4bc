"""The charge DP: the exact edge-cut width of a multigraph.

Root a spanning tree anywhere, let S_x be the subtree of x, c run over
x's children, e(S) count the edge copies with both ends in S (loops
included) and cut(S) the copies leaving S. A non-forest copy charges x
when its forest path runs through x, so x is charged

    cut(S_x) - [x not root] + e(S_x) - sum_c e(S_c) - #children(x):

the copies leaving S_x bar the tree edge to x's parent, and the copies
inside S_x that no child subtree holds whole, bar the tree edges to the
children. A charge therefore depends only on the vertex sets of a subtree
and of its child subtrees, which `_ChargeDP` exploits to decide "every
charge at most K" over connected vertex sets of small cut. The same
decision takes pairs required in the tree or forbidden, and an accepted
one expands into a tree. Only H on a connected set of two or more
vertices suspends, on `_drive`'s explicit stack; sums over components,
fits of parts and H on one vertex are decided inline.

`ForestOracle` shrinks the graph first, by the pendant peel and series
reduction in turns, runs one DP per core left, and answers pair by pair
whether an optimal forest holds the pairs asked so far; `ecw.exact_ecw`
takes the value from it and keeps, in lex order, each pair it answers
yes to. Swaps are rooted and charged by `ecw._forest_paths` and
`ecw._top_charge`, as every other forest is.
"""
from __future__ import annotations

from .ecw import EdgePair, _forest_paths, _path_vertices, _peel, _split, _top_charge
from .multigraph import _norm


class ForestOracle:
    """The optimal spanning forests of a multigraph on vertices 0..n-1,
    asked about pair by pair.

    loops[x] counts the loops at x and pairs are the distinct non-loop
    pairs (a, b, multiplicity), as `ecw._indexed` gives them. `_reduce`
    alternates two reductions that keep the edge-cut width until neither
    applies. `ecw._peel` peels a pendant vertex v, with m copies to its one
    distinct neighbour u: v is a leaf of every spanning tree, and its
    m - 1 spare copies charge v and u alone, like loops at both. Series
    reduction suppresses a loopless vertex v with two distinct neighbours
    a and b, one copy to each, into one more copy of (a, b): a tree holds
    both of v's pairs, and v is then charged by paths that pass a and b
    too, or one of them, and v is a leaf charged 1 by a spare copy whose
    path is the tree's a-b path. One `_ChargeDP` then runs on each core
    that `ecw._split` leaves, from the largest charge found so far, and
    keeps the tables of the bound it accepts. `value` is the edge-cut
    width, 0 when n is 0.

    The copies of a reduced pair come in units, each a list of original
    pairs: an original pair that no chain took, alone, with all of its
    copies, or a chain, the original pairs of one suppressed path, which
    is one copy. A tree holds at most one copy of a pair, and the copies
    are interchangeable: the largest charge is the same whichever of them
    the tree holds, and whichever pair of each other unit it leaves out.

    include(a, b) decides the pairs of one optimal forest in the order
    they are asked: it includes (a, b) when an optimal forest holds it,
    the pairs included so far and none of those excluded, and excludes it
    otherwise. A pair is a yes, with no question, while another pair of
    its unit is not yet included. The last one asks for its reduced pair,
    which is undecided, taken or forbidden: asking a decided pair is a
    no, since a forbidden copy forbids all of them. Otherwise a peeled
    pair is a yes, and a core pair asks its DP. A witness of the
    decisions so far is kept, one tree per core over its indices
    (`forest` maps it back), and two yes answers need no DP query: the
    pair is in the witness, or swapping it in for a pair on its witness
    path keeps every charge within the value. `queries` counts the
    others.
    """

    def __init__(self, loops: list[int], pairs: list[tuple[int, int, int]]):
        self.queries = 0
        loops = loops[:]
        cores, self.units, self.always = _reduce(loops, pairs)
        # a unit is keyed by its first pair; per original pair, its unit
        # and reduced pair, and per unit, its pairs not yet included
        self.unit_of: dict[EdgePair, tuple[EdgePair, EdgePair]] = {}
        self.open: dict[EdgePair, set[EdgePair]] = {}
        for r, us in self.units.items():
            for u in us:
                self.open[u[0]] = set(u)
                for p in u:
                    self.unit_of[p] = u[0], r
        self.decided: dict[EdgePair, EdgePair | None] = {}  # unit taken, None if forbidden
        self.dps: list[tuple[list[int], _ChargeDP]] = []
        self.home: dict[int, tuple[int, int]] = {}  # vertex: (dps index, core index)
        for core, mul in cores:
            for i, v in enumerate(core):
                self.home[v] = len(self.dps), i
            self.dps.append((core, _ChargeDP(mul, [loops[v] for v in core])))
        # a vertex outside every core is charged by its loops only
        low = max((c for v, c in enumerate(loops) if v not in self.home), default=0)
        for _, dp in self.dps:
            low = dp.least_bound(low)
        self.value = low + 1 if loops else 0
        self.trees = [dp.tree() for _, dp in self.dps]

    def include(self, a: int, b: int) -> bool:
        """Whether an optimal forest holds the pair (a, b), a < b, the
        pairs included so far and none of those excluded; the pair is
        then included, and excluded otherwise."""
        unit, r = self.unit_of[a, b]
        left = self.open[unit]
        if len(left) > 1:
            left.remove((a, b))
            return True
        if r in self.decided:
            return False
        yes = r in self.always or self._ask(*r)
        self.decided[r] = unit if yes else None
        return yes

    def _ask(self, a: int, b: int) -> bool:
        """Whether an optimal forest holds a copy of the core pair (a, b)
        and the copies decided so far; the DP then requires it, and
        forbids it otherwise."""
        at, x = self.home[a]
        y = self.home[b][1]
        dp = self.dps[at][1]
        dp.fix(x, y, True)
        if (x, y) in self.trees[at] or self._swap(at, x, y):
            return True
        self.queries += 1
        if dp.feasible(self.value - 1):
            self.trees[at] = dp.tree()
            return True
        dp.fix(x, y, False)
        return False

    def forest(self) -> set[EdgePair]:
        """The witness of the decisions so far, over the original pairs.

        A reduced pair the witness holds, peeled or in a core's tree, is
        held by its taken unit or, while undecided, by the unit a walk in
        lex order asks it for first: the one whose greatest pair not yet
        included is least. The unit held has all its pairs, and every
        other unit leaves out its greatest pair not yet included."""
        opens = self.open
        out = set()
        for r, us in self.units.items():
            if r in self.decided:
                held = self.decided[r]
            elif r in self.always or self._held(r):
                held = min((u[0] for u in us), key=lambda u: max(opens[u]))
            else:
                held = None
            for u in us:
                out.update(u)
                if u[0] != held:
                    out.discard(max(opens[u[0]]))
        return out

    def _held(self, r: EdgePair) -> bool:
        """Whether the witness tree of its core holds the core pair r."""
        at, x = self.home[r[0]]
        return (x, self.home[r[1]][1]) in self.trees[at]

    def _swap(self, at: int, x: int, y: int) -> bool:
        """Whether some pair not required on the witness path from y to x
        can leave core at's witness tree for (x, y) with every charge at
        most value - 1; the first such tree becomes the witness.

        It spans, holds every required pair and no forbidden one, so it
        witnesses the yes."""
        dp = self.dps[at][1]
        tree = self.trees[at]
        path = _path_vertices(*_forest_paths(range(dp.k), tree), y, x)
        for v, u in zip(path, path[1:]):
            if not dp.req[u] >> v & 1:
                swapped = tree - {_norm(u, v)}
                swapped.add((x, y))
                if _top_charge(dp.loops, dp.pairs, swapped, self.value - 1) < self.value:
                    self.trees[at] = swapped
                    return True
        return False


def _reduce(
    loops: list[int], pairs: list[tuple[int, int, int]]
) -> tuple[list[tuple[list[int], list[dict[int, int]]]], dict[EdgePair, list[list[EdgePair]]],
           set[EdgePair]]:
    """Peel pendant vertices and suppress series vertices, in turns until
    neither applies, on the multigraph on 0..n-1 with the loop counts
    loops and the distinct pairs (a, b, multiplicity); the loops the
    peels leave are added to loops in place.

    The cores left, as `ecw._split` gives them; for each reduced pair,
    the units among its copies, each a list of original pairs: an
    original pair no chain took, alone, or the pairs of one suppressed
    path; and the reduced pairs peeled.
    """
    adj: list[dict[int, int]] = [{} for _ in loops]
    for a, b, m in pairs:
        adj[a][b] = adj[b][a] = m
    units: dict[EdgePair, list[list[EdgePair]]] = {(a, b): [[(a, b)]] for a, b, _ in pairs}
    peeled = set()
    todo = list(range(len(loops)))  # vertices that may be suppressed

    def peel(vertices) -> None:
        for v, u, m in _peel(adj, vertices):
            loops[v] += m - 1
            loops[u] += m - 1
            peeled.add(_norm(v, u))
            todo.append(u)

    peel(range(len(loops)))
    while todo:
        v = todo.pop()
        if loops[v] or len(adj[v]) != 2:
            continue
        (a, ma), (b, mb) = adj[v].items()
        if ma != 1 or mb != 1:
            continue
        # the one copy of each of v's pairs is one unit; the two join into
        # one chain, in the longer list
        ends = units.pop(_norm(v, a)) + units.pop(_norm(v, b))
        longer, shorter = sorted(ends, key=len, reverse=True)
        longer += shorter
        adj[v].clear()
        del adj[a][v], adj[b][v]
        adj[a][b] = adj[b][a] = adj[a].get(b, 0) + 1
        units.setdefault(_norm(a, b), []).append(longer)
        todo += a, b
        peel((a, b))
    return _split(adj), units, peeled


def _drive(gen) -> None:
    """Run a generator and, each in turn, the generators it yields, with
    an explicit stack in place of recursion."""
    stack = [gen]
    while stack:
        try:
            stack.append(next(stack[-1]))
        except StopIteration:
            stack.pop()


class _ChargeDP:
    """The least K such that a connected multigraph on vertices 0..k-1
    has a spanning tree in which every vertex is charged at most K.

    By the charge formula (module docstring), whether the subtree S below
    x can be charged at most K depends on S and x alone:
    feasible(S, x) holds iff H(x, S - {x}) >= cut(S) - [S != V] + e(S) - K,
    where H(x, R) is the largest sum of e(P) + 1 over partitions of R into
    parts P, each containing a neighbour c of x with feasible(P, c). A
    child c is charged at least cut(S_c) - 1, so only connected sets of
    cut at most K + 1 can be parts; they are enumerated per least vertex
    on first use. H adds over the components of R and is memoized per
    (x, connected R); the tree is rooted at vertex 0.

    Pairs may be required in the tree or forbidden (`fix`). A child root
    y of x is then taken from x's allowed neighbours, and a part P hung
    below x at y is valid only when the required pairs with exactly one
    end in P are none or exactly {x, y}. That one check also enforces
    every required pair inside P, since the subtree of P meets the rest
    of the tree by (x, y) alone. Components and parts keep the full
    adjacency: a part that the allowed pairs do not connect has no
    feasible root, and the part lists do not depend on the constraints.

    mul[x] maps each neighbour of x to the multiplicity of the pair and
    loops[x] counts the loops at x. The tables of the last decision are
    kept, with the (part, root) that set each H entry, so an accepted
    decision expands into a tree (`tree`). The components and e(S) of a
    vertex set depend on the graph alone, so they are memoized per set
    for the life of the DP, across bounds and constraints. Only `hpart`
    on two or more vertices suspends, on `_drive`'s explicit stack, so the
    depth does not grow with k; `hsum` and the fits are plain code.
    """

    def __init__(self, mul: list[dict[int, int]], loops: list[int]):
        self.mul = mul
        self.loops = loops
        self.k = len(mul)
        self.pairs = [(x, y, m) for x, ms in enumerate(mul) for y, m in ms.items() if x < y]
        self.full = (1 << self.k) - 1
        self.nbr = [sum(1 << y for y in ms) for ms in mul]
        self.deg = [sum(ms.values()) for ms in mul]
        self.allowed = self.nbr[:]  # neighbours a tree edge may reach
        self.req = [0] * self.k  # required tree neighbours
        self.reqv = 0  # the vertices with a required pair
        self.stale = 0  # vertices fixed since the last decision
        # graph-only memos, kept across bounds and constraints
        self.comps: dict[int, tuple[int, ...]] = {}
        self.e: dict[int, int] = {}
        # the tables of the last decision and the bound they are for
        self.bound: int | None = None
        self.parts: dict[int, list[tuple[int, int, int]]] = {}
        self.h: dict[int, int] = {}
        self.how: dict[int, tuple[int, int]] = {}
        self.f: dict[int, bool] = {}

    def least_bound(self, low: int) -> int:
        """The least K >= low at which every charge can be at most K.

        The search starts at the largest forced charge. x is charged by
        its loops and by the copies at x the tree leaves out, all but one
        per tree branch at x; the branches inside one component of G - x
        are joined by copies whose paths run through x, at least one per
        branch but one. So x is charged at least its loops + degree -
        #components(G - x).
        """
        bound = low
        for x in range(self.k):
            rest = len(self.components(self.full & ~(1 << x)))
            bound = max(bound, self.loops[x] + self.deg[x] - rest)
        while not self.feasible(bound):
            bound += 1
        return bound

    def feasible(self, bound: int) -> bool:
        """Whether every charge can be at most bound, under the pairs
        required and forbidden so far.

        The tables of the last decision are reused at the same bound: an
        entry whose set and root miss every vertex fixed since then saw
        no constraint change, and only the others are dropped."""
        k, stale = self.k, self.stale
        if bound != self.bound:
            self.bound = bound
            self.parts, self.h, self.how, self.f = {}, {}, {}, {}
        elif stale:
            self.h = {key: v for key, v in self.h.items() if not (key // k | 1 << key % k) & stale}
            self.how = {key: v for key, v in self.how.items() if key in self.h}
            self.f = {key: ok for key, ok in self.f.items() if not key // k & stale}
        self.stale = 0
        need = max(0, self.edges(self.full) - bound)  # H = -1 never fits
        top = self.components(self.full & ~1)
        while (total := self.hsum(0, top)) < -1:
            _drive(self.hpart(0, ~total))
        return total >= need

    def fix(self, a: int, b: int, tree: bool) -> None:
        """Require the pair (a, b) in the tree, or else forbid it, in
        place of what was fixed for it before."""
        for x, y in ((a, b), (b, a)):
            if tree:
                self.req[x] |= 1 << y
                self.allowed[x] |= 1 << y
            else:
                self.req[x] &= ~(1 << y)
                self.allowed[x] &= ~(1 << y)
        self.reqv = sum(1 << x for x, r in enumerate(self.req) if r)
        self.stale |= 1 << a | 1 << b

    def tree(self) -> set[tuple[int, int]]:
        """The pairs (u, v), u < v, of a tree the last accepted decision
        found."""
        k = self.k
        out = set()
        todo = [(0, c) for c in self.components(self.full & ~1)]
        while todo:
            x, c = todo.pop()
            p, y = self.how[c * k + x]
            out.add((x, y) if x < y else (y, x))
            for top, s in ((x, c & ~p), (y, p & ~(1 << y))):
                if s:
                    todo.extend((top, d) for d in self.components(s))
        return out

    def edges(self, s: int) -> int:
        """e(s): the edge copies with both ends in s, loops included."""
        total = self.e.get(s)
        if total is not None:
            return total
        total = 0
        rest = s
        while rest:
            low = rest & -rest
            rest ^= low
            x = low.bit_length() - 1
            total += 2 * self.loops[x]
            for y, m in self.mul[x].items():
                if s >> y & 1:
                    total += m
        total = self.e[s] = total // 2
        return total

    def components(self, s: int) -> tuple[int, ...]:
        """The components of s, in the order of their least vertices."""
        out = self.comps.get(s)
        if out is not None:
            return out
        nbr = self.nbr
        found = []
        rest = s
        while rest:
            seen = front = rest & -rest
            while front:
                nxt = 0
                while front:
                    low = front & -front
                    nxt |= nbr[low.bit_length() - 1]
                    front ^= low
                front = nxt & rest & ~seen
                seen |= front
            found.append(seen)
            rest &= ~seen
        out = self.comps[s] = tuple(found)
        return out

    def small_cut_sets(self, v: int) -> list[tuple[int, int, int]]:
        """(P, e(P), cut(P)) for the connected sets P with least vertex v
        and cut(P) <= K + 1: branch on the least vertex next to P, in
        then out, and prune once the copies to the vertices kept out
        exceed K + 1, since those stay cut."""
        mul, loops, deg, nbr = self.mul, self.loops, self.deg, self.nbr
        limit = self.bound + 1
        bit = 1 << v
        above = self.full & ~((bit << 1) - 1)
        out = []
        com = sum(m for y, m in mul[v].items() if y < v)
        stack = [(bit, above, nbr[v], loops[v], deg[v], com)]
        while stack:
            s, free, near, e, cut, com = stack.pop()
            front = near & free & ~s
            if not front:
                out.append((s, e, cut))
                continue
            low = front & -front
            w = low.bit_length() - 1
            inner = kept_out = 0
            for y, m in mul[w].items():
                if s >> y & 1:
                    inner += m
                elif not free >> y & 1:
                    kept_out += m
            if com + inner <= limit:
                stack.append((s, free & ~low, near, e, cut, com + inner))
            if com + kept_out <= limit:
                stack.append((s | low, free, near | nbr[w], e + loops[w] + inner,
                              cut + deg[w] - 2 * inner, com + kept_out))
        self.parts[v] = out
        return out

    def hsum(self, x: int, parts: tuple[int, ...]) -> int:
        """H(x, r) over the components parts of r; -1 when some has no
        partition, or ~c for the first component c that needs `hpart`,
        which the caller runs before it sums again. A one-vertex c = {v}
        has the one part {v} rooted at v, valid when (x, v) is allowed, v's
        only required pair, if any, is (x, v), and deg(v) - 1 + loops(v) <=
        K, that is feasible({v}, v); it enters the tables as in `hpart`."""
        h = self.h
        key = self.k
        nx = self.allowed[x]
        total = 0
        for c in parts:
            at = c * key + x
            got = h.get(at)
            if got is None:
                got = -1
                if c & nx:
                    if c & (c - 1):
                        return ~c
                    v = c.bit_length() - 1
                    req, loops = self.req[v], self.loops[v]
                    if (not req or req == 1 << x) and self.deg[v] - 1 + loops <= self.bound:
                        got = loops + 1
                        self.how[at] = c, v
                h[at] = got
            if got < 0:
                return -1
            total += got
        return total

    def hpart(self, x: int, c: int):
        """Enter H(x, c), -1 when no partition is valid, for a connected set
        c of two or more vertices that meets x's allowed neighbours. A part
        holding c's least vertex is chosen first and the rest of c is
        partitioned recursively; j parts keep at least j - 1 copies between
        them, so H(x, c) <= e(c) + 1, and reaching that ends the scan. A
        part p fits at root y when feasible(p, y); H(y, r) <= e(r) +
        #components(r), r = p - {y}, settles many before r is partitioned."""
        nx = self.allowed[x]
        key = self.k
        f, bound, reqv = self.f, self.bound, self.reqv
        best = most = -1
        v = (c & -c).bit_length() - 1
        sets = self.parts.get(v)
        if sets is None:
            sets = self.small_cut_sets(v)
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
                ok = f.get(p * key + y)
                if ok is None:
                    r = p ^ bit
                    need = cut - 1 + e - bound
                    comps = self.components(r)
                    ok = len(comps) >= need - self.edges(r)
                    if r and ok:
                        while (got := self.hsum(y, comps)) < -1:
                            yield self.hpart(y, ~got)
                        ok = got >= need and got >= 0  # H = -1 never fits
                    f[p * key + y] = ok
                if ok:
                    break
            else:
                continue
            rest = 0
            if c != p:
                comps = self.components(c & ~p)
                while (rest := self.hsum(x, comps)) < -1:
                    yield self.hpart(x, ~rest)
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

    def roots(self, x: int, p: int, ends: int) -> int:
        """The roots among ends at which part p may hang below x: a
        required pair with one end in p must be (x, the root)."""
        cross = 0
        rest = p & self.reqv
        while rest:
            low = rest & -rest
            rest ^= low
            out = self.req[low.bit_length() - 1] & ~p
            if out:
                if out != 1 << x or cross:
                    return 0
                cross = low
        return ends & cross if cross else ends
