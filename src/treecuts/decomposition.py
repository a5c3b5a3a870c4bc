"""Tree-cut decompositions and their width evaluators.

A decomposition is a rooted tree whose nodes carry bags forming a
near-partition of the graph's vertices (empty bags allowed). All width
notions reduce to two per-node quantities: the adhesion (edges crossing
the cut below the node) and the size of a center of the node's torso,
where the torso consolidates every other subtree into a single vertex
and the center prunes it at one of three levels.

One evaluator, _TreePass, reads both for every node off one traversal
of the tree and one sweep over the edges, with no torso graph built;
width_report and the niceness checks are thin calls into it. The
explicit torso and center builders that the docstrings below name, and
that the tests check the pass against, are in tests/reference.py.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from .multigraph import MultiGraph, _norm


class InvalidDecompositionError(ValueError):
    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass
class TreeCutDecomposition:
    root: int
    parent: dict[int, int | None]  # node -> parent, root -> None
    bags: dict[int, set[int]]

    def nodes(self) -> list[int]:
        return sorted(self.parent.keys())

    def children(self, t: int) -> list[int]:
        return sorted(s for s, p in self.parent.items() if p == t)

    def children_map(self) -> dict[int, list[int]]:
        ch: dict[int, list[int]] = {t: [] for t in self.parent}
        for s in sorted(self.parent):
            p = self.parent[s]
            if p is not None:
                ch[p].append(s)
        return ch

    def subtree_nodes(self, t: int) -> list[int]:
        ch = self.children_map()
        out = []
        stack = [t]
        while stack:
            s = stack.pop()
            out.append(s)
            stack.extend(ch[s])
        return sorted(out)

    def subtree_vertices(self, t: int) -> set[int]:
        """Y_t: union of bags over the subtree rooted at t."""
        out: set[int] = set()
        for s in self.subtree_nodes(t):
            out |= self.bags[s]
        return out

    def copy(self) -> "TreeCutDecomposition":
        return TreeCutDecomposition(
            self.root, dict(self.parent), {t: set(b) for t, b in self.bags.items()}
        )

    def fresh_node_id(self) -> int:
        return max(self.parent, default=-1) + 1


def singleton_decomposition(g: MultiGraph) -> TreeCutDecomposition:
    """One node holding all of V(g); the trivial decomposition."""
    return TreeCutDecomposition(0, {0: None}, {0: set(g.vertices())})


def validate(d: TreeCutDecomposition, g: MultiGraph) -> list[str]:
    """Empty list means valid; otherwise one message per violated clause."""
    out = []
    if d.root not in d.parent:
        return [f"root {d.root} is not a node"]
    if d.parent.get(d.root) is not None:
        out.append("root has a parent")
    if set(d.parent) != set(d.bags):
        out.append("bag map and parent map disagree on the node set")
        return out
    for t, p in d.parent.items():
        if p is not None and p not in d.parent:
            out.append(f"node {t} has unknown parent {p}")
            return out
    # every node must reach the root, which also rules out cycles; a walk
    # stops at the first node already known to reach it, so each node is
    # walked over once
    reaches: set[int] = set()
    for t in d.parent:
        seen = set()
        cur: int | None = t
        while cur is not None and cur not in seen and cur not in reaches:
            seen.add(cur)
            cur = d.parent[cur]
        if cur not in reaches and (cur is not None or d.root not in seen):
            out.append(f"node {t} does not reach the root")
            return out
        reaches |= seen
    gv = g.vertices()
    covered: set[int] = set()
    for t in sorted(d.bags):
        bag = d.bags[t]
        if not bag <= gv:
            out.append(f"bag of node {t} contains non-graph vertices {sorted(bag - gv)}")
        overlap = bag & covered
        if overlap:
            out.append(f"bags not disjoint: {sorted(overlap)} repeated at node {t}")
        covered |= bag
    if covered != gv:
        out.append(f"bag union misses vertices {sorted(gv - covered)}")
    return out


def _center_size(
    nbag: int, deg: list[int], rows: list[dict[int, int] | None], level: int
) -> int:
    """Vertex count of center(h, x, level) for a torso-like h: the |x| =
    nbag bag vertices plus one vertex per consolidated group, where group
    i has deg[i] edge copies leaving it and rows[i] maps every group
    linked to it to the copies between them (the rest end in the bag).
    Groups come in h's vertex order, which consolidation makes their
    order in the parts list. Level 1 reads no rows.

    Bag vertices are never removed and nothing done to them changes a
    group vertex, so the bag acts as one sink whose edges are never
    tracked. Deleting a vertex of degree <= 1 lowers at most one
    neighbour's degree, by one; suppressing a degree-2 vertex keeps every
    degree, whether it joins two groups, folds a parallel pair into a
    loop on one, or hands an edge to the bag. Loops need no count of
    their own: a vertex of degree 2 with a loop has no other edge, so it
    is deleted as it would be suppressed, with no effect on anything
    else. So degrees only fall, a group that becomes removable stays
    removable, and the count does not depend on the order of removals:
    the groups left are those of degree >= level once none below it
    remains. A worklist holds the removable groups; a group joins it when
    its degree falls to level - 1.

    deg and rows are left in the center's state, a removed group's row
    set to None. Level 3 may remove all that level 2 removes, so a
    level-3 call on the tables a level-2 call left continues that peel.
    """
    if level > 1:
        work = [v for v, d in enumerate(deg) if d < level and rows[v] is not None]
        while work:
            v = work.pop()
            row, rows[v] = rows[v], None
            for j in row:
                del rows[j][v]
            if deg[v] <= 1:
                for j in row:  # at most one, joined by one copy
                    deg[j] -= 1
                    if deg[j] == level - 1:
                        work.append(j)
            elif len(row) == 2:  # one copy to each of two groups
                a, b = row
                rows[a][b] = rows[a].get(b, 0) + 1
                rows[b][a] = rows[b].get(a, 0) + 1
    return _kept(nbag, deg, level)


def _kept(nbag: int, deg: list[int], level: int) -> int:
    """nbag plus the groups of degree >= level: the center's size once no
    group below the level is left to remove, and also when no group of
    degree 1 is linked to another group, as no removal then lowers
    another group's degree."""
    return nbag + sum(1 for d in deg if d >= level)


def _bump(counts: dict, key, m: int) -> None:
    """Add m to counts[key], dropping the key when it reaches zero."""
    c = counts.get(key, 0) + m
    if c:
        counts[key] = c
    else:
        del counts[key]


@dataclass
class NodeStats:
    adhesion: int
    tor: int
    tor2: int
    tor1: int
    thin: bool
    children_A: frozenset[int]
    children_B: frozenset[int]
    children_B2: frozenset[int]


@dataclass
class WidthReport:
    width: int
    slim_width: int
    zero_width: int
    per_node: dict[int, NodeStats]


class _TreePass:
    """Everything the width and niceness checks read off one decomposition
    state, from one traversal of the tree and one sweep over g's edges.

    The traversal gives children (ascending), depths and Y_t for every
    node. The sweep walks each edge up from the nodes of its two ends to
    their lowest common ancestor. The edge crosses the cut of every node
    passed below that ancestor, which gives adhesions and the outside
    neighbourhoods N(Y_t), kept as edge-copy counts per neighbour. At a
    passed node other than an end's own node, the edge joins two groups
    of that node's torso: the child it came up from and the group of
    everything outside Y_t. At the ancestor it joins the two children it
    came up from, unless an end sits in the ancestor's bag. Those counts
    are the edges between the consolidated groups of every torso, so
    center sizes come from _center_size over sparse rows with no torso
    built. A node with one group, no two groups linked, or no linked
    group of degree 1 needs neither rows nor a peel: its centers keep
    exactly the groups of degree >= level.

    The structure questions read the same fields: b_child() is the one
    B-child test, shared by stats(), split_side() and the witness bridge,
    and cut_edges() the one listing of the edges leaving Y_t, shared by
    move(), split_side() and the witness bridge. Only split_side() scans
    every edge of g, as it builds G[Y_t] to find components.

    move() keeps the pass current through a reattachment, changing d's
    parent map itself: it updates parents, children, Y and the edge walks
    on the tree path, and depths in t's subtree. Recompute the pass after
    any other change. Raises InvalidDecompositionError on an invalid d.
    """

    def __init__(self, d: TreeCutDecomposition, g: MultiGraph):
        violations = validate(d, g)
        if violations:
            raise InvalidDecompositionError(violations)
        self.d, self.g = d, g
        self.parent = parent = d.parent
        self.nodes = sorted(parent)
        self.children = children = d.children_map()
        self.depth = depth = {d.root: 0}
        order = self.subtree(d.root)
        for t in order[1:]:
            depth[t] = depth[parent[t]] + 1
        self.ys: dict[int, set[int]] = {}  # Y_t
        for t in reversed(order):
            y = set(d.bags[t])
            for c in children[t]:
                y |= self.ys[c]
            self.ys[t] = y
        self.owner = owner = {v: t for t, bag in d.bags.items() for v in bag}
        self.adhesion = dict.fromkeys(parent, 0)
        # N(Y_t): outside neighbour -> edge copies between it and Y_t
        self.outside: dict[int, dict[int, int]] = {t: {} for t in parent}
        # per node, edge counts between its torso groups, keyed by
        # (child, None) for a child and the outside, (c1, c2) for two
        # children with c1 < c2
        self.links: dict[int, dict] = {t: {} for t in parent}
        for u, v, m in g.edge_pairs():
            self._walk(owner[u], None, owner[v], None, u, v, m)

    def _walk(self, x: int, below_x, y: int, below_y, u: int, v: int, m: int):
        """Add m copies (m < 0 removes them) of the edge uv, walked up from
        node x on u's side and node y on v's side to their lowest common
        ancestor, each arriving from the child below_x / below_y (None at
        the edge's own end)."""
        depth = self.depth
        while x != y:
            if depth[x] >= depth[y]:
                x, below_x = self._cross(x, below_x, v, m), x
            else:
                y, below_y = self._cross(y, below_y, u, m), y
        if below_x is not None and below_y is not None:
            _bump(self.links[x], _norm(below_x, below_y), m)

    def _cross(self, t: int, below: int | None, far: int, m: int) -> int | None:
        """Record m copies of an edge leaving Y_t toward the vertex far,
        arriving from the child below (None at the edge's own end)."""
        self.adhesion[t] += m
        _bump(self.outside[t], far, m)
        if below is not None:
            _bump(self.links[t], (below, None), m)
        return self.parent[t]

    def move(self, t: int, q: int) -> list[int]:
        """Reattach t below q in place, and return the nodes whose
        adhesion or torso changed: the tree path from t's old parent to q,
        their lowest common ancestor included. Moving t back to its old
        parent undoes the move exactly.

        Bags never change, so only a q inside t's own subtree (t itself
        included) would break validity; that raises
        InvalidDecompositionError and leaves the pass untouched. Edges
        with both ends in Y_t or none keep their walks, and those with
        one end in Y_t, read off their outer ends in N(Y_t), are
        re-walked above t only.
        """
        p = self.parent[t]
        if p is None:
            raise InvalidDecompositionError([f"node {q} lies in the subtree of node {t}"])
        if q == p:
            return []
        depth, parent, owner, ys = self.depth, self.parent, self.owner, self.ys
        old_side, new_side = [], []
        a, b = p, q
        while a != b:
            if depth[a] >= depth[b]:
                old_side.append(a)
                a = parent[a]
            else:
                new_side.append(b)
                b = parent[b]
        if t in new_side:  # the walk up from q passed t
            raise InvalidDecompositionError([f"node {q} lies in the subtree of node {t}"])
        yt = ys[t]
        crossing = self.cut_edges(t)
        for u, v, m in crossing:
            self._walk(p, t, owner[v], None, u, v, -m)
        for s in old_side:
            ys[s] -= yt
        for s in new_side:
            ys[s] |= yt
        self.children[p].remove(t)
        bisect.insort(self.children[q], t)
        parent[t] = q
        shift = depth[q] + 1 - depth[t]
        for s in self.subtree(t):
            depth[s] += shift
        for u, v, m in crossing:
            self._walk(q, t, owner[v], None, u, v, m)
        return old_side + new_side + [a]

    def cut_edges(self, t: int) -> list[tuple[int, int, int]]:
        """The edges leaving Y_t as (u, v, m): u in Y_t, v in N(Y_t) and
        m copies, read off the outer ends' adjacency maps."""
        yt, adj = self.ys[t], self.g._adj
        return [(u, v, m) for v in self.outside[t] for u, m in adj[v].items() if u in yt]

    def subtree(self, t: int) -> list[int]:
        """Nodes of the subtree rooted at t, each after its parent."""
        out = [t]
        for s in out:
            out.extend(self.children[s])
        return out

    def centers(self, t: int, fits: int = -1) -> tuple[int, int, int] | None:
        """Sizes of center(torso(t), bag, level) at levels 3, 2 and 1, or
        None when |bag| plus the group count is at most fits: even a
        center keeping every group has no more vertices.

        The groups are every child with a non-empty Y_c, then a non-empty
        outside; their degrees are adhesions and their rows come straight
        from links[t]. Level 1 only deletes isolated groups, and level 3
        continues level 2's peel. Only deleting a group of degree 1
        linked to another group lowers a degree, so with no such group
        no rows are built and every level keeps the groups at or above
        it (_kept)."""
        groups: list[int | None] = [c for c in self.children[t] if self.ys[c]]
        if len(self.ys[t]) < len(self.ys[self.d.root]):
            groups.append(None)
        nbag = len(self.d.bags[t])
        if nbag + len(groups) <= fits:
            return None
        adh, links = self.adhesion, self.links[t]
        deg = [adh[t if c is None else c] for c in groups]
        tor1 = _kept(nbag, deg, 1)
        if not any(adh[a] == 1 or adh[t if b is None else b] == 1 for a, b in links):
            return _kept(nbag, deg, 3), _kept(nbag, deg, 2), tor1
        index = {c: i for i, c in enumerate(groups)}
        rows: list[dict[int, int] | None] = [{} for _ in groups]
        for (a, b), m in links.items():
            i, j = index[a], index[b]
            rows[i][j] = rows[j][i] = m
        tor2 = _center_size(nbag, deg, rows, 2)
        return _center_size(nbag, deg, rows, 3), tor2, tor1

    def stats(self, t: int) -> NodeStats:
        adh = self.adhesion[t]
        a_set, b_set, b2_set = set(), set(), set()
        for b in self.children[t]:
            if self.b_child(b):
                b_set.add(b)
                if self.adhesion[b] == 2:
                    b2_set.add(b)
            else:
                a_set.add(b)
        return NodeStats(
            adh, *self.centers(t), adh <= 2,
            frozenset(a_set), frozenset(b_set), frozenset(b2_set),
        )

    def report(self) -> WidthReport:
        per = {t: self.stats(t) for t in self.nodes}
        width = max((max(s.adhesion, s.tor) for s in per.values()), default=0)
        slim = max((max(s.adhesion, s.tor2) for s in per.values()), default=0)
        zero = max((max(s.adhesion, s.tor1) for s in per.values()), default=0)
        return WidthReport(width=width, slim_width=slim, zero_width=zero, per_node=per)

    def widths(self) -> tuple[int, int]:
        """report().width and report().slim_width, with no NodeStats built."""
        width = slim = 0
        for t in self.nodes:
            tor, tor2, _ = self.centers(t)
            adh = self.adhesion[t]
            width, slim = max(width, adh, tor), max(slim, adh, tor2)
        return width, slim

    def within(self, w: int, s: int, nodes: list[int] | None = None) -> bool:
        """report().width <= w and report().slim_width <= s, stopping at
        the first node that breaks either, each node's centers from one
        peel. Given nodes, only those are checked: enough after a move
        from a state within the pair, which changes no adhesion or torso
        elsewhere."""
        fits = min(w, s)
        for t in self.nodes if nodes is None else nodes:
            if self.adhesion[t] > fits:
                return False
            sizes = self.centers(t, fits)
            if sizes is not None and (sizes[0] > w or sizes[1] > s):
                return False
        return True

    def not_nice(self) -> list[int]:
        """Thin non-root nodes t whose N(Y_t) meets a sibling subtree,
        that is, holds a vertex of Y_p outside p's bag, p being t's parent."""
        bad = []
        for t in self.nodes:
            p = self.parent[t]
            if p is None or self.adhesion[t] > 2:
                continue
            yp, bag = self.ys[p], self.d.bags[p]
            if any(v in yp and v not in bag for v in self.outside[t]):
                bad.append(t)
        return bad

    def b_child(self, t: int) -> bool:
        """Whether the non-root t is a B child of its parent: N(Y_t) is
        at most two vertices, all in the parent's bag."""
        nb = self.outside[t].keys()
        return len(nb) <= 2 and nb <= self.d.bags[self.parent[t]]

    def split_side(self, t: int) -> set[int] | None:
        """The vertices a split of t keeps below t, or None when t is not
        decomposable. t is decomposable when it is a B child of adhesion
        2 whose two cut edges enter different components of G[Y_t]; the
        side kept is the component holding the inner end of the least cut
        edge, each written (u, v) with u <= v."""
        if self.adhesion[t] != 2 or not self.b_child(t):  # the root's is 0
            return None
        (_, a), (_, b) = sorted(
            (_norm(u, v), u) for u, v, m in self.cut_edges(t) for _ in range(m)
        )
        side = next(c for c in self.g.induced(self.ys[t]).components() if a in c)
        return None if b in side else side

    def decomposable(self) -> list[int]:
        return [t for t in self.nodes if self.split_side(t) is not None]


def width_report(d: TreeCutDecomposition, g: MultiGraph) -> WidthReport:
    return _TreePass(d, g).report()


def is_nice(d: TreeCutDecomposition, g: MultiGraph) -> list[int]:
    """Node ids of thin nodes whose Y_t neighbors a sibling subtree."""
    return _TreePass(d, g).not_nice()


def decomposable_nodes(d: TreeCutDecomposition, g: MultiGraph) -> list[int]:
    """Nodes t in B_parent with adhesion 2 whose two cut edges enter
    different components of G[Y_t]."""
    return _TreePass(d, g).decomposable()


def is_very_nice(d: TreeCutDecomposition, g: MultiGraph) -> list[int]:
    """Nice violations plus decomposable nodes; empty means very nice."""
    tp = _TreePass(d, g)
    return sorted(set(tp.not_nice()) | set(tp.decomposable()))
