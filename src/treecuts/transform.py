"""Decomposition transformations and the witness bridges.

make_nice / split_decomposables / make_very_nice normalize a
decomposition without increasing its width or slim width;
decomposition_to_witness and witness_to_decomposition translate between
tree-cut decompositions and spanning-tree witnesses in both directions,
carrying the corresponding width bounds.
"""
from __future__ import annotations

import heapq
import math
from collections.abc import Iterator
from itertools import count

from .decomposition import TreeCutDecomposition, _TreePass
from .ecw import SpanningWitness, _rooted_witness, validate_witness
from .multigraph import MultiGraph, _norm


class TransformError(RuntimeError):
    """A normalization failed to converge within its safety cap."""


def _state_signature(d: TreeCutDecomposition):
    return (d.root, tuple(sorted((t, p) for t, p in d.parent.items() if p is not None)))


def _signature_after(d: TreeCutDecomposition, node: int, q: int):
    """_state_signature of d with node moved below q; d is left as it was."""
    old, d.parent[node] = d.parent[node], q
    sig = _state_signature(d)
    d.parent[node] = old
    return sig


def _moves_for(tp: _TreePass, t: int) -> Iterator[tuple[int, int]]:
    """Ordered (node, new_parent) reattachments aimed at one violating
    thin node: push it into an offending sibling subtree, pull an
    offending sibling below it, or scatter it elsewhere. Each group is
    ranked only when the one before it is used up. The scatter skips only
    t's own subtree, which move() rejects; the search's visited set skips
    t's parent and the targets of the first group."""
    p = tp.parent[t]
    assert p is not None
    nyt = tp.outside[t].keys()
    sub_t = tp.subtree(t)
    offenders = [s for s in tp.children[p] if s != t and nyt & tp.ys[s]]

    def deepest_first(q: int) -> tuple[int, int]:
        return (-tp.depth[q], q)

    primary = [q for s in offenders for q in tp.subtree(s) if nyt & tp.ys[q]]
    primary.sort(key=deepest_first)
    for q in primary:
        yield (t, q)
    sub_t_nodes = sorted(sub_t, key=deepest_first)
    for s in offenders:
        nys = tp.outside[s].keys()
        ranked = sorted(
            sub_t_nodes, key=lambda q: (not (nys & tp.ys[q]), -tp.depth[q], q)
        )
        for q in ranked:
            yield (s, q)
    inside = set(sub_t)
    for q in sorted((q for q in tp.nodes if q not in inside), key=deepest_first):
        yield (t, q)


def _candidate_moves(tp: _TreePass, bad: list[int]) -> Iterator[tuple[int, int]]:
    # deepest violation first, but every violating node contributes; a
    # repeated move leads to a state the search's visited set holds
    for t in sorted(bad, key=lambda x: (-tp.depth[x], x)):
        yield from _moves_for(tp, t)


def _verified_dfs(
    tp: _TreePass, w0: int, s0: int, budget: int
) -> TreeCutDecomposition | None:
    """DFS over violation-focused reattachments of tp's decomposition,
    moving tp along; every committed move must already satisfy the width
    pair, which keeps the search cheap but can strand it when a fix needs
    a temporary excursion. Returns tp.d once it is nice, and None, with tp
    left in some searched state, when the budget runs out first."""
    cur = tp.d
    bad = tp.not_nice()
    if not bad:
        return cur
    seen = {_state_signature(cur)}
    # iterative, one frame per committed move, so long move sequences
    # don't hit the recursion limit; a frame's move generator reads tp,
    # and it only advances when tp is back in that frame's state
    stack: list[tuple[tuple[int, int] | None, Iterator[tuple[int, int]]]] = [
        (None, _candidate_moves(tp, bad))
    ]
    while stack:
        undo, move_iter = stack[-1]
        for node, q in move_iter:  # resumes the frame's generator
            sig = _signature_after(cur, node, q)
            if sig in seen:
                continue
            seen.add(sig)
            budget -= 1
            if budget < 0:
                return None
            # the frame's state is within the pair, so only the nodes the
            # move changed need checking
            old = cur.parent[node]
            if tp.within(w0, s0, tp.move(node, q)):
                bad = tp.not_nice()
                if not bad:
                    return cur
                stack.append(((node, old), _candidate_moves(tp, bad)))
                break
            tp.move(node, old)
        else:  # the frame's moves are used up
            stack.pop()
            if undo is not None:
                tp.move(*undo)
    return None


def _reroot(d: TreeCutDecomposition, r: int) -> TreeCutDecomposition:
    """Same tree and bags, rooted at r: parent pointers reverse along
    the path from the old root."""
    out = d.copy()
    path = []
    x: int | None = r
    while x is not None:
        path.append(x)
        x = d.parent[x]
    out.parent[r] = None
    for child, par in zip(path, path[1:]):
        out.parent[par] = child
    out.root = r
    return out


def _relaxed_best_first(
    d: TreeCutDecomposition, g: MultiGraph, w0: int, s0: int, budget: int
) -> TreeCutDecomposition | None:
    """Best-first over the full reattachment space, seeded with every
    re-rooting of the input. Intermediate states may exceed the width
    pair; only the returned tree is constrained, so this reaches fixes
    the verified DFS cannot. Each popped state gets one pass, moved to
    each candidate and back as the verified DFS moves it."""

    def score(tp: _TreePass) -> tuple[int, int, int]:
        width, slim = tp.widths()
        return len(tp.not_nice()), max(slim - s0, 0), max(width - w0, 0)

    tick, heap, seen = count(), [], set()
    for r in sorted(d.parent):
        # re-rootings at distinct nodes differ in their roots; none is nice
        # within the pair, or the verified DFS from r would have returned it
        seed = _reroot(d, r)
        seen.add(_state_signature(seed))
        budget -= 1
        heapq.heappush(heap, (score(_TreePass(seed, g)), next(tick), seed))
    while heap:
        _, _, cur = heapq.heappop(heap)
        tp = _TreePass(cur, g)
        for x in tp.nodes:
            old = cur.parent[x]
            if old is None:
                continue
            sub_x = set(tp.subtree(x))
            for q in tp.nodes:
                if q in sub_x:
                    continue
                # q == old gives cur's own signature, pushed with cur
                sig = _signature_after(cur, x, q)
                if sig in seen:
                    continue
                seen.add(sig)
                budget -= 1
                if budget < 0:
                    return None
                tp.move(x, q)
                key = score(tp)
                child = cur.copy()
                tp.move(x, old)
                if key == (0, 0, 0):
                    return child
                heapq.heappush(heap, (key, next(tick), child))
    return None


def _nice_pass(tp: _TreePass, *, slim: bool) -> _TreePass:
    """make_nice's search over the decomposition tp holds, returning the
    pass of its output; tp's own decomposition may be changed. The
    verified DFS runs from the input's root, moving tp, then from each
    other node in ascending order; the best-first search runs only once
    every root has failed. Without slim only the width is kept: the slim
    bound is infinite, and a TransformError names the width alone."""
    if not tp.not_nice():
        return tp
    # the input, kept apart from tp's parents; no search changes a bag
    d, g = TreeCutDecomposition(tp.d.root, dict(tp.d.parent), tp.d.bags), tp.g
    w0, s0 = tp.widths()
    if not slim:
        s0 = math.inf
    n = len(d.parent)
    for r in sorted(d.parent, key=lambda t: (t != d.root, t)):
        if r != d.root:
            tp = _TreePass(_reroot(d, r), g)
        if _verified_dfs(tp, w0, s0, 2000 + 40 * n * n) is not None:
            return tp
    out = _relaxed_best_first(d, g, w0, s0, 6000 + 60 * n * n)
    if out is not None:
        return _TreePass(out, g)
    kept = f"width {w0} / slim width {s0}" if slim else f"width {w0}"
    raise TransformError(
        f"no reattachment sequence keeps {kept} "
        f"(verified DFS from each of {n} roots, then best-first search)"
    )


def make_nice(d: TreeCutDecomposition, g: MultiGraph) -> TreeCutDecomposition:
    """Reattach thin nodes until none neighbors a sibling subtree.

    Search over single reattachments, verified against the input's
    width and slim width: the output never exceeds either. A cheap
    violation-focused pass runs from the input's root and then from
    each other node as root, in ascending order; only if every one
    strands does a best-first pass explore the whole reattachment
    space. All are capped, and exhausting the caps raises
    TransformError rather than returning a weaker decomposition.
    """
    return _nice_pass(_TreePass(d.copy(), g), slim=True).d


def split_decomposables(
    d: TreeCutDecomposition, g: MultiGraph
) -> TreeCutDecomposition:
    """Split every decomposable node into two adhesion-1 halves.

    A decomposable node's two cut edges enter different components of its
    subtree graph; the subtree is duplicated, bags are divided between the
    component of the least cut edge (the pass's split_side) and
    everything else, the copy hangs off the same parent, and empty leaf
    bags of both halves are pruned. Requires a nice input, checked on the
    pass the splitting starts from, and preserves both widths.
    """
    tp = _TreePass(d.copy(), g)
    violations = tp.not_nice()
    if violations:
        raise ValueError(f"input decomposition is not nice at nodes {violations}")
    return _split(tp).d


def _split(tp: _TreePass) -> _TreePass:
    """Split tp's decomposable nodes, shallowest first, changing tp's
    decomposition in place, and return the pass of the result: tp itself
    when nothing was split."""
    cur, g = tp.d, tp.g
    cap = (len(cur.parent) + g.num_vertices()) ** 2 + 16
    for _ in range(cap):
        sides = {t: side for t in tp.nodes if (side := tp.split_side(t)) is not None}
        if not sides:
            return tp
        t = min(sides, key=lambda x: (tp.depth[x], x))
        comp1 = sides[t]
        # duplicate the subtree; originals keep the comp1 side of each bag
        nxt = cur.fresh_node_id()
        clone: dict[int, int] = {}
        for s in sorted(tp.subtree(t)):  # clone ids follow node order
            clone[s] = nxt
            nxt += 1
        for s, s2 in clone.items():
            p = cur.parent[s]
            cur.parent[s2] = cur.parent[t] if s == t else clone[p]
            cur.bags[s2] = cur.bags[s] - comp1
            cur.bags[s] = cur.bags[s] & comp1
        # prune both halves, children before parents: a node goes when its
        # bag is empty and none of its children is kept
        held = set()
        for s in reversed(tp.subtree(t)):
            for x in (s, clone[s]):
                if cur.bags[x] or x in held:
                    held.add(cur.parent[x])
                else:
                    del cur.parent[x], cur.bags[x]
        tp = _TreePass(cur, g)
    raise TransformError("decomposable splitting did not converge")


def make_very_nice(d: TreeCutDecomposition, g: MultiGraph) -> TreeCutDecomposition:
    """Nice and free of decomposable nodes, widths never increased."""
    return _very_nice(_TreePass(d.copy(), g), slim=True).d


def _very_nice(tp: _TreePass, *, slim: bool) -> _TreePass:
    """make_very_nice on tp, which it may change; the pass of the result.
    Splits keep both widths, so slim is passed on to each _nice_pass."""
    tp = _nice_pass(tp, slim=slim)
    cap = len(tp.d.parent) + tp.g.num_vertices() + 16
    for _ in range(cap):
        split = _split(tp)
        if split is tp:  # nothing split, and tp is nice
            return tp
        tp = _nice_pass(split, slim=slim)
    raise TransformError("very nice transformation did not converge")


def decomposition_to_witness(
    g: MultiGraph, d: TreeCutDecomposition
) -> SpanningWitness:
    """Build a spanning witness from a tree-cut decomposition.

    The input is normalized to nice first. Every empty bag gets a ghost
    vertex; each bag's vertices are joined by a star centered on the
    least id (reusing existing edges, adding ghost copies otherwise);
    consecutive bags are joined by one connecting edge, except that a
    child of adhesion one whose subtree neighborhood sits inside the
    parent bag reuses its unique cut edge as the connector. For a slim
    width k input the result has edge-cut width at most 3(k+1)^2.
    """
    tp = _nice_pass(_TreePass(d.copy(), g), slim=True)
    nice = tp.d
    host = g.copy()
    forest: set[tuple[int, int]] = set()

    def join(a: int, b: int) -> None:
        # a forest edge of the host, added as a ghost copy when g lacks it
        if host.multiplicity(a, b) == 0:
            host.add_edge(a, b)
        forest.add(_norm(a, b))

    rep: dict[int, int] = {}  # each node's least bag vertex, or its ghost
    nxt = max(g.vertices(), default=-1) + 1
    for t in tp.nodes:
        xs = sorted(nice.bags[t])
        if not xs:
            host.add_vertex(nxt)
            xs = [nxt]
            nxt += 1
        rep[t] = xs[0]
        for u in xs[1:]:
            join(xs[0], u)

    # the least edge of g between the bags of each pair of nodes
    least: dict[tuple[int, int], tuple[int, int]] = {}
    for u, v, _ in g.edge_pairs():
        a, b = tp.owner[u], tp.owner[v]
        if a != b:
            least.setdefault(_norm(a, b), (u, v))
    for t in tp.nodes:
        p = nice.parent[t]
        if p is None:
            continue
        if tp.adhesion[t] == 1 and tp.b_child(t):
            # the unique cut edge doubles as the connector; its inner end
            # may sit arbitrarily deep below t
            ((u, o, _),) = tp.cut_edges(t)
            forest.add(_norm(u, o))
        elif _norm(t, p) in least:
            forest.add(least[_norm(t, p)])
        else:
            join(rep[t], rep[p])

    w = SpanningWitness(g.copy(), host, frozenset(forest))
    problems = validate_witness(w)
    if problems:
        raise AssertionError(f"construction produced a broken witness: {problems}")
    return w


def witness_to_decomposition(w: SpanningWitness) -> TreeCutDecomposition:
    """Singleton-bag decomposition over the witness forest.

    Every host vertex becomes a node whose bag is itself for real
    vertices and empty for ghosts; the forest, as its validation roots
    it, supplies the tree shape. A disconnected forest hangs off a
    synthetic empty-bag root, which an empty host keeps alone. The
    result decomposes the base graph with width at most the witness's
    edge-cut width.
    """
    problems, parent, _ = _rooted_witness(w)
    if problems:
        raise ValueError(f"invalid witness: {problems}")
    base_vs = w.base_graph.vertices()
    roots = [v for v, p in parent.items() if p is None]
    bags = {v: ({v} & base_vs) for v in w.host.vertices()}
    if len(roots) == 1:
        return TreeCutDecomposition(roots[0], parent, bags)
    synth = max(w.host.vertices(), default=-1) + 1
    parent[synth] = None
    bags[synth] = set()
    for r in roots:
        parent[r] = synth
    return TreeCutDecomposition(synth, parent, bags)
