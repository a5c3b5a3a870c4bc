import copy
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treecuts.decomposition import (
    InvalidDecompositionError,
    NodeStats,
    TreeCutDecomposition,
    _TreePass,
    decomposable_nodes,
    is_nice,
    is_very_nice,
    singleton_decomposition,
    validate,
    width_report,
)
from treecuts import decomposition
from treecuts.families import wall, windmill
from treecuts.multigraph import MultiGraph, _norm
from treecuts.transform import make_very_nice

from conftest import chain_decomposition, random_connected_multi, star_decomposition
from reference import adhesion, center, consolidate, torso


def dstar_w4():
    """Hub bag {0} with one bag per blade of the 4-blade windmill."""
    g = windmill(4)
    bags = {0: {0}}
    parent = {0: None}
    for i in range(4):
        bags[i + 1] = {2 * i + 1, 2 * i + 2}
        parent[i + 1] = 0
    return g, TreeCutDecomposition(root=0, parent=parent, bags=bags)


def test_validate_accepts_dstar():
    g, d = dstar_w4()
    assert validate(d, g) == []


def test_validate_is_linear_on_a_deep_chain():
    # a walk to the root stops at the first node known to reach it; a
    # walk all the way up from every node took seconds on this chain
    n = 5000
    g = MultiGraph(range(n), [(i, i + 1) for i in range(n - 1)])
    parent = {i: (i - 1 if i else None) for i in range(n)}
    bags = {i: {i} for i in range(n)}
    for order in (range(n), reversed(range(n))):
        d = TreeCutDecomposition(0, {i: parent[i] for i in order}, bags)
        t0 = time.perf_counter()
        assert validate(d, g) == []
        assert time.perf_counter() - t0 < 0.25
    cycle = TreeCutDecomposition(0, {**parent, 0: n - 1}, bags)
    assert validate(cycle, g) == ["root has a parent", "node 0 does not reach the root"]
    split = TreeCutDecomposition(0, {**parent, n // 2: None}, bags)
    assert validate(split, g) == [f"node {n // 2} does not reach the root"]


def test_validate_rejects_overlap_and_missing():
    g = MultiGraph(range(3), [(0, 1), (1, 2)])
    d = TreeCutDecomposition(root=0, parent={0: None, 1: 0}, bags={0: {0, 1}, 1: {1, 2}})
    assert any("not disjoint" in v for v in validate(d, g))
    d2 = TreeCutDecomposition(root=0, parent={0: None}, bags={0: {0, 1}})
    assert any("misses" in v for v in validate(d2, g))
    d3 = TreeCutDecomposition(root=0, parent={0: None}, bags={0: {0, 1, 2, 7}})
    assert any("non-graph" in v for v in validate(d3, g))


def test_validate_rejects_broken_tree():
    g = MultiGraph(range(2), [(0, 1)])
    d = TreeCutDecomposition(root=0, parent={0: None, 1: 2, 2: 1}, bags={0: {0, 1}, 1: set(), 2: set()})
    assert validate(d, g)
    # each of these stops validation at once, with one message
    cases = [
        ((5, {0: None}, {0: {0, 1}}), "root 5 is not a node"),
        ((0, {0: None, 1: 0}, {0: {0, 1}}), "bag map and parent map disagree on the node set"),
        ((0, {0: None, 1: 7}, {0: {0, 1}, 1: set()}), "node 1 has unknown parent 7"),
    ]
    for (root, parent, bags), msg in cases:
        assert validate(TreeCutDecomposition(root, parent, bags), g) == [msg]


def test_empty_bags_are_allowed():
    g = MultiGraph(range(2), [(0, 1)])
    d = TreeCutDecomposition(
        root=0, parent={0: None, 1: 0, 2: 0}, bags={0: set(), 1: {0}, 2: {1}}
    )
    assert validate(d, g) == []


def test_adhesion_root_zero_and_counts_copies():
    g = MultiGraph(range(3), [(0, 1), (0, 1), (1, 2)])
    d = TreeCutDecomposition(
        root=0, parent={0: None, 1: 0}, bags={0: {0}, 1: {1, 2}}
    )
    assert adhesion(d, g, 0) == 0
    assert adhesion(d, g, 1) == 2


def test_consolidate_drops_internal_edges_and_empty_parts():
    g = MultiGraph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    h = consolidate(g, {0}, [{1, 2}, {3}])
    zs = sorted(h.vertices() - {0})
    assert len(zs) == 2
    z12, z3 = zs
    assert h.multiplicity(0, z12) == 1  # edge 0-1
    assert h.multiplicity(z12, z3) == 1  # edge 2-3
    assert h.multiplicity(0, z3) == 1  # edge 0-3
    assert h.num_edges() == 3  # edge 1-2 vanished inside the part
    h2 = consolidate(g, {0, 1, 2, 3}, [set()])
    assert h2.num_vertices() == 4


def test_torso_of_dstar_root():
    g, d = dstar_w4()
    h = torso(d, g, 0)
    assert h.num_vertices() == 5  # hub + one vertex per blade
    for z in h.vertices() - {0}:
        assert h.multiplicity(0, z) == 2


def test_center_levels_on_doubled_blade_torso():
    g, d = dstar_w4()
    h = torso(d, g, 0)
    # 3-center suppresses each degree-2 blade vertex into a loop at 0
    assert center(h, {0}, 3).num_vertices() == 1
    # 2-center deletes nothing (every blade vertex has degree 2)
    assert center(h, {0}, 2).num_vertices() == 5
    assert center(h, {0}, 1).num_vertices() == 5


def test_center_k2_keeps_both_endpoints_at_level_1():
    g = MultiGraph(range(2), [(0, 1)])
    assert center(g, {0}, 1).num_vertices() == 2
    assert center(g, {0}, 2).num_vertices() == 1
    assert center(g, {0}, 3).num_vertices() == 1


def test_center_suppression_creates_loop_from_parallel_pair():
    g = MultiGraph(range(2), [(0, 1), (0, 1)])
    h = center(g, {0}, 3)
    assert h.num_vertices() == 1
    assert h.loops(0) == 1


def test_center_never_touches_bag_vertices():
    g = MultiGraph(range(3), [(0, 1), (1, 2)])
    h = center(g, {0, 1, 2}, 3)
    assert h.num_vertices() == 3


def test_node_stats_classification():
    g, d = dstar_w4()
    per = width_report(d, g).per_node
    s = per[0]
    assert s.adhesion == 0 and s.thin
    assert s.tor == 1 and s.tor2 == 5 and s.tor1 == 5
    assert s.children_B2 == frozenset({1, 2, 3, 4})
    assert s.children_A == frozenset()
    blade = per[1]
    assert blade.adhesion == 2 and blade.thin
    assert blade.tor == 2  # two blade vertices survive, outside collapses


def test_width_report_dstar_frozen():
    g, d = dstar_w4()
    rep = width_report(d, g)
    assert rep.width == 2
    assert rep.slim_width == 5
    assert rep.zero_width == 5


def test_width_report_rejects_invalid():
    g = MultiGraph(range(2), [(0, 1)])
    d = TreeCutDecomposition(root=0, parent={0: None}, bags={0: {0}})
    with pytest.raises(InvalidDecompositionError):
        width_report(d, g)


def test_tree_checks_reject_invalid():
    # a parent cycle off the root; walking its subtrees would never end
    g = MultiGraph(range(2), [(0, 1)])
    d = TreeCutDecomposition(
        root=0, parent={0: None, 1: 2, 2: 1}, bags={0: {0, 1}, 1: set(), 2: set()}
    )
    for check in (is_nice, decomposable_nodes, is_very_nice):
        with pytest.raises(InvalidDecompositionError):
            check(d, g)
    with pytest.raises(InvalidDecompositionError):
        width_report(d, g)


def test_per_node_center_chain(corpus_small):
    # tor <= tor2 <= tor1 at every node of every singleton decomposition
    for g in corpus_small:
        d = singleton_decomposition(g)
        rep = width_report(d, g)
        for s in rep.per_node.values():
            assert s.tor <= s.tor2 <= s.tor1


def test_singleton_decomposition_valid_on_random_multigraphs():
    rng = random.Random(5)
    for _ in range(25):
        g = random_connected_multi(rng, rng.randint(1, 7), rng.randint(0, 4), loops=True)
        d = singleton_decomposition(g)
        assert validate(d, g) == []
        assert len(d.bags) == 1
        rep = width_report(d, g)
        # the whole graph is the root torso and bag vertices never leave
        assert rep.width == g.num_vertices()


def test_is_nice_dstar():
    g, d = dstar_w4()
    assert is_nice(d, g) == []


def test_is_nice_flags_sibling_neighbor():
    g = MultiGraph(range(3), [(0, 1), (1, 2)])
    d = TreeCutDecomposition(
        root=0, parent={0: None, 1: 0, 2: 0}, bags={0: {0}, 1: {1}, 2: {2}}
    )
    # node 1 is thin and Y_1's neighborhood {0, 2} meets the sibling subtree
    assert 1 in is_nice(d, g)


def test_decomposable_node_flagged():
    # child bag covering two components, each sending one edge up
    g = MultiGraph(range(5), [(0, 1), (0, 3), (1, 2), (3, 4)])
    d = TreeCutDecomposition(
        root=0, parent={0: None, 1: 0}, bags={0: {0}, 1: {1, 2, 3, 4}}
    )
    assert is_nice(d, g) == []
    assert decomposable_nodes(d, g) == [1]
    assert is_very_nice(d, g) == [1]


def test_adhesion_three_is_not_decomposable():
    g = MultiGraph(range(3), [(0, 1), (0, 1), (0, 2), (1, 2)])
    d = TreeCutDecomposition(root=0, parent={0: None, 1: 0}, bags={0: {0}, 1: {1, 2}})
    assert adhesion(d, g, 1) == 3
    assert decomposable_nodes(d, g) == []


def reference_node_stats(d, g, t):
    """NodeStats from the torso graph and subtree vertex sets, one node at
    a time: the definitions the tree pass must reproduce."""
    h = torso(d, g, t)
    bag = d.bags[t]
    adh = adhesion(d, g, t)
    tor, tor2, tor1 = (center(h, bag, level).num_vertices() for level in (3, 2, 1))
    a_set, b_set, b2_set = set(), set(), set()
    for b in d.children(t):
        yb = d.subtree_vertices(b)
        nb = g.neighborhood(yb)
        if len(nb) <= 2 and nb <= bag:
            b_set.add(b)
            if g.cut_size(yb) == 2:
                b2_set.add(b)
        else:
            a_set.add(b)
    return NodeStats(
        adh, tor, tor2, tor1, adh <= 2,
        frozenset(a_set), frozenset(b_set), frozenset(b2_set),
    )


def reference_is_nice(d, g):
    bad = []
    for t in d.nodes():
        p = d.parent[t]
        if p is None or adhesion(d, g, t) > 2:
            continue
        nbr = g.neighborhood(d.subtree_vertices(t))
        if any(nbr & d.subtree_vertices(s) for s in d.children(p) if s != t):
            bad.append(t)
    return bad


def reference_cut_edges(g, yt):
    """Edge copies leaving yt, (u, v) with u <= v, in g.edges() order."""
    return [(u, v) for u, v in g.edges() if (u in yt) != (v in yt)]


def reference_decomposable(d, g):
    out = []
    for t in d.nodes():
        p = d.parent[t]
        if p is None:
            continue
        yt = d.subtree_vertices(t)
        nb = g.neighborhood(yt)
        if g.cut_size(yt) != 2 or not (len(nb) <= 2 and nb <= d.bags[p]):
            continue
        inner = [u if u in yt else v for u, v in g.edges() if (u in yt) != (v in yt)]
        comps = g.induced(yt).components()
        if not any(inner[0] in c and inner[1] in c for c in comps):
            out.append(t)
    return out


@st.composite
def decomposed(draw, max_n=7):
    """A loopy multigraph and a random valid decomposition of it: sparse
    node ids, any root, chains, empty bags and empty subtrees."""
    n = draw(st.integers(1, max_n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    g = MultiGraph(range(n), draw(st.lists(pairs, max_size=14)))
    k = draw(st.integers(1, 8))
    ids = draw(st.lists(st.integers(0, 40), min_size=k, max_size=k, unique=True))
    if draw(st.booleans()):
        links = [i - 1 for i in range(1, k)]  # a chain
    else:
        links = [draw(st.integers(0, i - 1)) for i in range(1, k)]
    adj = {i: [] for i in range(k)}
    for i, j in enumerate(links, start=1):
        adj[i].append(j)
        adj[j].append(i)
    root = draw(st.integers(0, k - 1))
    parent = {ids[root]: None}
    stack = [root]
    while stack:
        i = stack.pop()
        for j in adj[i]:
            if ids[j] not in parent:
                parent[ids[j]] = ids[i]
                stack.append(j)
    owner = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    bags = {ids[i]: {v for v in range(n) if owner[v] == i} for i in range(k)}
    return g, TreeCutDecomposition(ids[root], parent, bags)


@settings(max_examples=300, deadline=None)
@given(decomposed())
def test_node_stats_match_reference(case):
    g, d = case
    assert validate(d, g) == []
    rep = width_report(d, g)
    for t in d.nodes():
        want = reference_node_stats(d, g, t)
        assert rep.per_node[t] == want, t
    assert is_nice(d, g) == reference_is_nice(d, g)
    assert decomposable_nodes(d, g) == reference_decomposable(d, g)


@st.composite
def cut_by_two(draw):
    """decomposed() with every edge leaving one non-root node's Y_t
    replaced by two edges from its parent's bag into Y_t: a B child of
    adhesion 2, decomposable when they enter two components of G[Y_t].
    Half the time G[Y_t] is first cut in two, one edge entering each."""
    g, d = draw(decomposed())
    nodes = [
        t for t in d.nodes()
        if d.parent[t] is not None and d.bags[d.parent[t]] and len(d.subtree_vertices(t)) > 1
    ]
    assume(nodes)
    t = draw(st.sampled_from(nodes))
    yt = d.subtree_vertices(t)
    kept = [(u, v) for u, v in g.edges() if (u in yt) == (v in yt)]
    side = {v for v in sorted(yt) if draw(st.booleans())}
    if side and side != yt and draw(st.booleans()):
        kept = [(u, v) for u, v in kept if (u in side) == (v in side)]
        inner = [sorted(side), sorted(yt - side)]
    else:
        inner = [sorted(yt)] * 2
    bag = sorted(d.bags[d.parent[t]])
    ends = [(draw(st.sampled_from(bag)), draw(st.sampled_from(vs))) for vs in inner]
    return MultiGraph(g.vertices(), kept + ends), d


@settings(max_examples=300, deadline=None)
@given(st.one_of(decomposed(), cut_by_two()))
def test_split_side_matches_reference(case):
    # a decomposable node keeps the component of G[Y_t] that holds the
    # inner end of its least cut edge, recomputed from every edge of g;
    # every other node has no split side
    g, d = case
    tp = _TreePass(d, g)
    dec = reference_decomposable(d, g)
    for t in d.nodes():
        if t not in dec:
            assert tp.split_side(t) is None, t
            continue
        yt = d.subtree_vertices(t)
        u, v = min(reference_cut_edges(g, yt))
        inner = u if u in yt else v
        side = next(c for c in g.induced(yt).components() if inner in c)
        assert tp.split_side(t) == side, t


@settings(max_examples=300, deadline=None)
@given(decomposed())
def test_within_matches_report(case):
    # the move search's width-pair check against the full report, on
    # both sides of each bound
    g, d = case
    tp = _TreePass(d, g)
    rep = tp.report()
    for w in range(rep.width - 1, rep.width + 2):
        for s in range(rep.slim_width - 1, rep.slim_width + 2):
            assert tp.within(w, s) == (rep.width <= w and rep.slim_width <= s), (w, s)


def assert_pass_matches_reference(d, g):
    tp = _TreePass(d, g)
    rep = tp.report()
    for t in d.nodes():
        assert rep.per_node[t] == reference_node_stats(d, g, t), t
    for w in range(rep.width - 1, rep.width + 1):
        for s in range(rep.slim_width - 1, rep.slim_width + 1):
            assert tp.within(w, s) == (rep.width <= w and rep.slim_width <= s), (w, s)


@settings(max_examples=50, deadline=None)
@given(st.integers(12, 20), st.integers(0, 10), st.integers(0, 2**32 - 1))
def test_node_stats_match_reference_at_benchmark_scale(n, extra, seed):
    # decomposed() never gives a node more than about 7 groups; the star
    # roots the normalize-bridge benchmark evaluates have up to 20
    g = random_connected_multi(random.Random(seed), n, extra)
    d = star_decomposition(g)
    assert_pass_matches_reference(d, g)
    assert_pass_matches_reference(make_very_nice(d, g), g)


@pytest.mark.parametrize("g", [wall(4), wall(5), wall(6), windmill(8)],
                         ids=["wall4", "wall5", "wall6", "windmill8"])
def test_node_stats_match_reference_on_families(g):
    d = star_decomposition(g)
    assert_pass_matches_reference(d, g)
    assert_pass_matches_reference(make_very_nice(d, g), g)


def test_tree_pass_closed_forms_and_level_three_reuse(monkeypatch):
    calls = []  # (level, deg, rows) per kernel call
    kernel = decomposition._center_size

    def spy(nbag, deg, rows, level):
        calls.append((level, deg, rows))
        return kernel(nbag, deg, rows, level)

    monkeypatch.setattr(decomposition, "_center_size", spy)

    def centers(g, d, t):
        calls.clear()
        got = _TreePass(d, g).centers(t)
        ref = reference_node_stats(d, g, t)
        assert got == (ref.tor, ref.tor2, ref.tor1)
        return got

    def peeled_once():
        # level 3 continued on the very tables level 2 peeled
        assert [level for level, _, _ in calls] == [2, 3]
        assert calls[0][1] is calls[1][1] and calls[0][2] is calls[1][2]

    # one group: the leaf of a path's chain, its outside of degree 1
    g = MultiGraph(range(3), [(0, 1), (1, 2)])
    assert centers(g, chain_decomposition(g), 2) == (1, 1, 2)
    assert calls == []
    # no two groups linked: every blade of the windmill hangs off the hub
    g, d = dstar_w4()
    assert centers(g, d, 0) == (1, 5, 5)
    assert calls == []
    # no linked group of degree 1: suppressing the cycle's vertices keeps
    # every degree, so level 3 removes exactly the groups below it
    g = MultiGraph(range(5), [(i, (i + 1) % 5) for i in range(5)])
    assert centers(g, star_decomposition(g), 0) == (0, 5, 5)
    assert calls == []
    # level 2 deletes the pendant 4, level 3 suppresses the cycle it leaves
    g = MultiGraph(range(5), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
    assert centers(g, star_decomposition(g), 0) == (0, 4, 5)
    peeled_once()
    calls.clear()
    assert _TreePass(star_decomposition(g), g).within(3, 4, [0])
    peeled_once()


def pass_fields(tp):
    """A snapshot of every field a move updates."""
    return copy.deepcopy({
        "parent": dict(tp.parent),
        "children": tp.children,
        "depth": tp.depth,
        "ys": tp.ys,
        "adhesion": tp.adhesion,
        "outside": tp.outside,
        "links": tp.links,
        "subtrees": {t: set(tp.subtree(t)) for t in tp.nodes},
    })


def assert_answers_match(tp, fresh):
    """The moved pass flags the nodes a fresh one flags, lists every
    node's cut edges as a scan of every edge of g does, and every subtree
    it lists has each node after its parent."""
    assert tp.not_nice() == fresh.not_nice()
    for t in tp.nodes:
        copies = [_norm(u, v) for u, v, m in tp.cut_edges(t) for _ in range(m)]
        assert sorted(copies) == sorted(reference_cut_edges(tp.g, tp.ys[t])), t
    for t in tp.nodes:
        sub = tp.subtree(t)
        assert sub[0] == t
        at = {s: i for i, s in enumerate(sub)}
        assert all(at[tp.parent[s]] < at[s] for s in sub[1:])


@settings(max_examples=300, deadline=None)
@given(decomposed(max_n=9), st.data())
def test_move_matches_fresh_pass(case, data):
    # random reattachments and their undos keep the pass equal to one
    # built from scratch, and the width check over the nodes a move
    # returns agrees with the full one
    g, d = case
    tp = _TreePass(d.copy(), g)
    movable = [t for t in tp.nodes if tp.parent[t] is not None]
    for _ in range(data.draw(st.integers(0, 8)) if movable else 0):
        t = data.draw(st.sampled_from(movable))
        inside = tp.subtree(t)
        before = pass_fields(tp)
        with pytest.raises(InvalidDecompositionError):
            tp.move(t, data.draw(st.sampled_from(inside)))
        assert pass_fields(tp) == before
        with pytest.raises(InvalidDecompositionError):
            tp.move(tp.d.root, t)  # the root has no parent to leave
        assert pass_fields(tp) == before
        targets = [q for q in tp.nodes if q not in inside]
        if not targets:
            continue
        w, s = tp.widths()
        w += data.draw(st.integers(0, 1))
        s += data.draw(st.integers(0, 1))
        old, q = tp.parent[t], data.draw(st.sampled_from(targets))
        path = tp.move(t, q)
        assert tp.d.parent[t] == q
        fresh = _TreePass(tp.d.copy(), g)
        assert pass_fields(tp) == pass_fields(fresh)
        assert_answers_match(tp, fresh)
        rep = fresh.report()
        assert tp.widths() == (rep.width, rep.slim_width)
        assert tp.within(w, s, path) == fresh.within(w, s)
        if data.draw(st.booleans()):
            tp.move(t, old)
            assert pass_fields(tp) == before
            assert_answers_match(tp, _TreePass(tp.d.copy(), g))
