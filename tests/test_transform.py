import hashlib
import random
from itertools import product

import pytest
from hypothesis import given, settings

from treecuts.decomposition import (
    TreeCutDecomposition,
    _TreePass,
    decomposable_nodes,
    is_nice,
    is_very_nice,
    singleton_decomposition,
    validate,
    width_report,
)
from treecuts.ecw import SpanningWitness, validate_witness, witness_ecw
from treecuts.families import ladder, star, wall, windmill
from treecuts.formats import decomposition_to_json, witness_to_json
from treecuts.multigraph import MultiGraph
from treecuts import transform
from treecuts.oracle import exact_width
from treecuts.transform import (
    TransformError,
    _reroot,
    _verified_dfs,
    decomposition_to_witness,
    make_nice,
    make_very_nice,
    split_decomposables,
    witness_to_decomposition,
)

from conftest import chain_decomposition, random_connected_multi, star_decomposition
from test_decomposition import decomposed, reference_cut_edges


def c4():
    return MultiGraph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])


def dstar_w4():
    g = windmill(4)
    parent = {0: None}
    bags = {0: {0}}
    for i in range(4):
        parent[i + 1] = 0
        bags[i + 1] = {2 * i + 1, 2 * i + 2}
    return g, TreeCutDecomposition(0, parent, bags)


def test_make_nice_c4_star_decomposition():
    # the star with singleton leaves violates niceness at every thin leaf
    g = c4()
    d = TreeCutDecomposition(
        0,
        {0: None, 1: 0, 2: 0, 3: 0},
        {0: {0}, 1: {1}, 2: {2}, 3: {3}},
    )
    before = width_report(d, g)
    out = make_nice(d, g)
    assert validate(out, g) == []
    assert is_nice(out, g) == []
    after = width_report(out, g)
    assert after.width <= before.width
    assert after.slim_width <= before.slim_width


def test_make_nice_requires_rerooting():
    # these bags are already nice under the original root, so make_nice
    # returns a nice tree no wider than the input without any search
    g = MultiGraph(range(6), [(0, 1), (0, 4), (0, 4), (0, 4), (1, 3), (2, 3), (2, 4), (3, 5), (3, 5)])
    d = TreeCutDecomposition(
        0,
        {0: None, 1: 0, 2: 0, 3: 1, 4: 1, 5: 2},
        {0: {3}, 1: {0, 4}, 2: {5}, 3: {1}, 4: {2}, 5: set()},
    )
    assert is_nice(d, g) == []
    before = width_report(d, g)
    out = make_nice(d, g)
    assert is_nice(out, g) == []
    after = width_report(out, g)
    assert after.width <= before.width
    assert after.slim_width <= before.slim_width


# four bags no nice tree fits at width 2 / slim width 3 (input B); inputs
# C and D hang vertex paths off them and are fixed by one search only
FOUR_BAGS = {1: {2, 4}, 3: set(), 0: {0, 1}, 2: {3, 5}}


def widths(d, g):
    rep = width_report(d, g)
    return rep.width, rep.slim_width


def test_make_nice_runs_the_verified_dfs_from_the_next_root():
    # no re-rooting is nice within widths 2/3 (input A); the verified DFS
    # strands from root 3 and succeeds from root 0, the first other root
    g = MultiGraph(range(6), [(0, 5), (1, 3), (2, 4), (2, 5), (3, 4)])
    bags = {3: {4}, 4: set(), 1: {0, 1}, 5: {3}, 0: set(), 2: {2, 5}}
    d = TreeCutDecomposition(3, {3: None, 4: 3, 1: 4, 5: 3, 0: 4, 2: 4}, bags)
    assert widths(d, g) == (2, 3)
    out = make_nice(d, g)
    assert out.root == 0 and out.bags == bags
    assert out.parent == {0: None, 1: 5, 2: 0, 3: 4, 4: 2, 5: 3}
    assert is_nice(out, g) == [] and widths(out, g) == (2, 3)


def test_make_nice_returns_a_nice_rerooting_as_it_is():
    # no reattachment fixes the tree under root 0, but re-rooted at node
    # 1 it is already nice: the verified DFS from there returns its start
    g = MultiGraph(range(5), [(0, 1), (1, 3), (1, 4), (2, 4)])
    bags = {0: {4}, 1: {0, 2}, 2: {1, 3}}
    d = TreeCutDecomposition(0, {0: None, 1: 0, 2: 0}, bags)
    assert widths(d, g) == (2, 3)
    assert _verified_dfs(_TreePass(d.copy(), g), 2, 3, 10**6) is None
    out = make_nice(d, g)
    assert out.root == 1 and out.bags == bags
    assert out.parent == {1: None, 0: 1, 2: 0}
    assert is_nice(out, g) == [] and widths(out, g) == (2, 3)


def test_make_nice_raises_when_no_nice_tree_fits():
    g = MultiGraph(range(6), [(0, 1), (1, 4), (1, 5), (2, 3), (3, 5)])
    d = TreeCutDecomposition(1, {1: None, 3: 1, 0: 3, 2: 3}, dict(FOUR_BAGS))
    assert widths(d, g) == (2, 3)
    with pytest.raises(TransformError):
        make_nice(d, g)
    # every rooted tree on the four bags: each nice one is too slim-wide
    nodes = sorted(FOUR_BAGS)
    trees = nice = 0
    for root in nodes:
        others = [t for t in nodes if t != root]
        for ups in product(nodes, repeat=len(others)):
            dec = TreeCutDecomposition(root, {root: None, **dict(zip(others, ups))},
                                       dict(FOUR_BAGS))
            if validate(dec, g):
                continue  # a cycle
            trees += 1
            if is_nice(dec, g) == []:
                nice += 1
                assert widths(dec, g)[1] == 4
    assert trees == 64 and nice > 0


def test_make_nice_reroots_the_verified_dfs_without_best_first():
    g = MultiGraph(range(9), [(0, 1), (1, 4), (1, 5), (2, 3), (2, 6), (3, 5), (6, 7), (7, 8)])
    d = TreeCutDecomposition(
        1, {1: None, 3: 1, 0: 3, 2: 3, 4: 0, 5: 0, 6: 5},
        {**FOUR_BAGS, 4: {6}, 5: {7}, 6: {8}},
    )
    assert widths(d, g) == (3, 3)
    out = make_nice(d, g)
    assert out.root == 0 and validate(out, g) == []
    assert is_nice(out, g) == [] and widths(out, g) == (3, 3)


def test_make_nice_best_first_fixes_what_no_verified_dfs_reaches():
    g = MultiGraph(range(12), [
        (0, 1), (1, 4), (1, 5), (1, 6), (2, 3), (2, 7), (3, 5), (4, 10), (6, 8), (6, 9), (9, 11),
    ])
    d = TreeCutDecomposition(
        1, {1: None, 3: 1, 0: 3, 2: 3, 4: 0, 5: 1, 6: 4, 7: 6, 8: 1, 9: 4},
        {**FOUR_BAGS, 4: {6}, 5: {7}, 6: {8}, 7: {9}, 8: {10}, 9: {11}},
    )
    assert widths(d, g) == (3, 3)
    out = make_nice(d, g)
    assert out.root == 7 and out.bags == d.bags
    assert out.parent == {1: 3, 3: 0, 0: 4, 2: 3, 4: 6, 5: 2, 6: 7, 7: None, 8: 1, 9: 4}
    assert is_nice(out, g) == [] and widths(out, g) == (3, 3)


@settings(max_examples=300, deadline=None)
@given(decomposed())
def test_reroot_keeps_every_width(case):
    g, d = case
    rep = width_report(d, g)
    for r in d.parent:
        out = width_report(_reroot(d, r), g)
        assert (out.width, out.slim_width, out.zero_width) == (
            rep.width, rep.slim_width, rep.zero_width
        ), r


@pytest.mark.parametrize("case, best_first_calls", [
    (test_make_nice_runs_the_verified_dfs_from_the_next_root, 0),
    (test_make_nice_returns_a_nice_rerooting_as_it_is, 0),
    (test_make_nice_raises_when_no_nice_tree_fits, 1),
    (test_make_nice_reroots_the_verified_dfs_without_best_first, 0),
    (test_make_nice_best_first_fixes_what_no_verified_dfs_reaches, 1),
], ids=["A", "nice-rerooting", "B", "C", "D"])
def test_make_nice_tries_best_first_only_after_every_root(
    monkeypatch, case, best_first_calls
):
    # each case keeps its own pinned outcome with the search counted
    calls = []
    real = transform._relaxed_best_first

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(transform, "_relaxed_best_first", counted)
    case()
    assert len(calls) == best_first_calls


def test_relaxed_best_first_stops_at_its_budget(monkeypatch):
    # input B with a budget of its four seeds: the first child of the
    # first popped state overruns it before it is evaluated
    g = MultiGraph(range(6), [(0, 1), (1, 4), (1, 5), (2, 3), (3, 5)])
    d = TreeCutDecomposition(1, {1: None, 3: 1, 0: 3, 2: 3}, dict(FOUR_BAGS))
    built = []
    monkeypatch.setattr(
        transform, "_TreePass", lambda dec, h: built.append(dec) or _TreePass(dec, h)
    )
    assert transform._relaxed_best_first(d, g, 2, 3, 4) is None
    assert len(built) == 5  # the four seeds and the popped state


def test_width_target_error_names_the_width_alone(monkeypatch):
    # input B with both searches stubbed to run out: keeping the width
    # alone, the error names the width and not the slim width
    g = MultiGraph(range(6), [(0, 1), (1, 4), (1, 5), (2, 3), (3, 5)])
    d = TreeCutDecomposition(1, {1: None, 3: 1, 0: 3, 2: 3}, dict(FOUR_BAGS))
    monkeypatch.setattr(transform, "_verified_dfs", lambda *args: None)
    monkeypatch.setattr(transform, "_relaxed_best_first", lambda *args: None)
    with pytest.raises(TransformError, match=(
        r"^no reattachment sequence keeps width 2 "
        r"\(verified DFS from each of 4 roots, then best-first search\)$"
    )):
        transform._nice_pass(_TreePass(d, g), slim=False)


def test_make_nice_keeps_already_nice():
    g, d = dstar_w4()
    assert is_nice(d, g) == []
    out = make_nice(d, g)
    assert is_nice(out, g) == []
    assert width_report(out, g).width == width_report(d, g).width


def test_make_nice_random_never_worse():
    rng = random.Random(4021)
    for _ in range(40):
        g = random_connected_multi(rng, rng.randint(2, 6), rng.randint(0, 3), loops=True)
        d = chain_decomposition(g)
        before = width_report(d, g)
        out = make_nice(d, g)
        assert validate(out, g) == []
        assert is_nice(out, g) == []
        after = width_report(out, g)
        assert after.width <= before.width
        assert after.slim_width <= before.slim_width


@settings(max_examples=150, deadline=None)
@given(decomposed())
def test_witness_connector_is_the_one_cut_edge(case):
    # every adhesion-1 B child of a nice tree hangs off its parent by its
    # one cut edge, recomputed from every edge of g
    g, d = case
    try:
        nice = make_nice(d, g)
    except TransformError:
        return
    forest = decomposition_to_witness(g, nice).forest
    for t in nice.nodes():
        p = nice.parent[t]
        if p is None:
            continue
        yt = nice.subtree_vertices(t)
        cut = reference_cut_edges(g, yt)
        if len(cut) == 1 and g.neighborhood(yt) <= nice.bags[p]:
            assert cut[0] in forest, t


def test_split_decomposables_example():
    # hub bag, one child bag holding two 2-vertex components that each
    # send one edge up: the child is decomposable until split
    g = MultiGraph(
        range(5),
        [(0, 1), (1, 2), (0, 3), (3, 4)],
    )
    d = TreeCutDecomposition(0, {0: None, 1: 0}, {0: {0}, 1: {1, 2, 3, 4}})
    assert decomposable_nodes(d, g)
    out = split_decomposables(d, g)
    assert validate(out, g) == []
    assert decomposable_nodes(out, g) == []
    before = width_report(d, g)
    after = width_report(out, g)
    assert after.width <= before.width
    assert after.slim_width <= before.slim_width


def split_sources():
    """Seeded nice decompositions with a decomposable node: random trees
    over random bags, empty ones included, so splits leave leaves to
    prune."""
    rng = random.Random(2207)
    out = []
    while len(out) < 32:
        n = rng.randint(4, 10)
        g = random_connected_multi(rng, n, rng.randint(0, 3), loops=True)
        k = rng.randint(2, n + 4)
        parent = {0: None, **{i: rng.randrange(i) for i in range(1, k)}}
        bags = {i: set() for i in range(k)}
        for v in range(n):
            bags[rng.randrange(k)].add(v)
        d = TreeCutDecomposition(0, parent, bags)
        if is_nice(d, g) == [] and decomposable_nodes(d, g):
            out.append((g, d))
    return out


# recorded from the code before the one-sweep pruning; the 32 inputs
# take 34 splits, which prune 54 nodes
SPLIT_GOLDEN = "c40e83ede1836a3f6d6a14ee716aaf07f8de0f523132b855ffb589755418b1e6"


def test_split_decomposables_requires_nice_input():
    # nodes 1 and 2 are thin and each sees the other's bag
    g = MultiGraph(range(3), [(0, 1), (1, 2)])
    d = TreeCutDecomposition(0, {0: None, 1: 0, 2: 0}, {0: {0}, 1: {1}, 2: {2}})
    with pytest.raises(ValueError, match=r"^input decomposition is not nice at nodes \[1, 2\]$"):
        split_decomposables(d, g)


def test_split_decomposables_golden():
    h = hashlib.sha256()
    for g, d in split_sources():
        h.update(decomposition_to_json(split_decomposables(d, g)).encode())
    assert h.hexdigest() == SPLIT_GOLDEN


def test_make_very_nice_full_pipeline():
    rng = random.Random(907)
    for _ in range(30):
        g = random_connected_multi(rng, rng.randint(2, 6), rng.randint(0, 3))
        d = chain_decomposition(g)
        before = width_report(d, g)
        out = make_very_nice(d, g)
        assert validate(out, g) == []
        assert is_very_nice(out, g) == []
        after = width_report(out, g)
        assert after.width <= before.width
        assert after.slim_width <= before.slim_width


def test_witness_from_dstar():
    g, d = dstar_w4()
    w = decomposition_to_witness(g, d)
    assert validate_witness(w) == []
    assert w.ghost_vertices() == set()  # no empty bags, so no ghosts
    k = width_report(d, g).slim_width
    assert witness_ecw(w) <= 3 * (k + 1) ** 2
    assert witness_ecw(w) == 5


def test_witness_round_trip_keeps_width():
    g, d = dstar_w4()
    w = decomposition_to_witness(g, d)
    back = witness_to_decomposition(w)
    assert validate(back, g) == []
    assert width_report(back, g).width == 2


def test_witness_from_path_singletons():
    g = MultiGraph(range(4), [(0, 1), (1, 2), (2, 3)])
    d = chain_decomposition(g)
    w = decomposition_to_witness(g, d)
    assert validate_witness(w) == []
    assert witness_ecw(w) == 1  # a tree stays a tree


def test_witness_ghosts_for_empty_bags():
    g = MultiGraph(range(2), [(0, 1)])
    d = TreeCutDecomposition(
        0, {0: None, 1: 0, 2: 1}, {0: {0}, 1: set(), 2: {1}}
    )
    assert validate(d, g) == []
    w = decomposition_to_witness(g, d)
    assert validate_witness(w) == []
    assert len(w.ghost_vertices()) == 1


def test_witness_to_decomposition_validates_input():
    g = c4()
    w = SpanningWitness(g, g.copy(), frozenset({(0, 1)}))
    with pytest.raises((TransformError, ValueError)):
        witness_to_decomposition(w)


def test_witness_to_decomposition_of_empty_witness():
    e = MultiGraph()
    d = witness_to_decomposition(SpanningWitness(e, e.copy(), frozenset()))
    assert d == TreeCutDecomposition(0, {0: None}, {0: set()})
    assert validate(d, e) == []


def test_witness_to_decomposition_disconnected():
    # a triangle on 2, 5, 7 and a doubled edge 10-12 hung off ghost 9
    g = MultiGraph([2, 5, 7, 10, 12], [(2, 5), (5, 7), (2, 7), (10, 12), (10, 12)])
    h = g.copy()
    h.add_vertex(9)
    h.add_edge(9, 10)
    w = SpanningWitness(g, h, frozenset({(2, 5), (5, 7), (9, 10), (10, 12)}))
    assert validate_witness(w) == []
    d = witness_to_decomposition(w)
    assert d.root == 13 and d.bags[13] == set()
    # each forest component hangs from its least vertex, ghost 9 included
    assert {v for v, p in d.parent.items() if p == 13} == {2, 9}
    assert (d.parent[5], d.parent[7], d.parent[10], d.parent[12]) == (2, 5, 9, 10)
    assert d.bags[9] == set() and d.bags[12] == {12}
    assert validate(d, g) == []
    assert width_report(d, g).width <= witness_ecw(w)


def test_oracle_decompositions_become_witnesses():
    rng = random.Random(515)
    for _ in range(15):
        g = random_connected_multi(rng, rng.randint(2, 5), rng.randint(0, 2))
        k, d = exact_width(g, "stcw")
        w = decomposition_to_witness(g, d)
        assert validate_witness(w) == []
        assert witness_ecw(w) <= 3 * (k + 1) ** 2


def golden_sources():
    """A fixed list of (graph, decomposition) inputs to the transforms."""
    rng = random.Random(4404)
    graphs = [ladder(4), ladder(6), wall(3), windmill(3), star(4)]
    graphs += [random_connected_multi(rng, n, n // 2, loops=True) for n in (4, 6, 8, 9)]
    graphs += [random_connected_multi(rng, n, 4) for n in (7, 10, 12)]
    out = []
    for g in graphs:
        out += [(g, star_decomposition(g)), (g, chain_decomposition(g))]
    # re-rooted chain with empty bags on a branch
    g = MultiGraph(range(5), [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    d = TreeCutDecomposition(
        3,
        {0: 1, 1: 2, 2: 3, 3: None, 4: 3, 5: 4, 6: 0},
        {0: {0}, 1: {1}, 2: {2}, 3: set(), 4: {3}, 5: {4}, 6: set()},
    )
    out.append((g, d))
    return out


# recorded from the code before the one-pass tree evaluation
TRANSFORM_GOLDEN = "1d4e4ac56fc948bcdb6b5f3c33ba115d69ed4f487d254849ff92bc54a34022cb"


def transform_digest() -> str:
    h = hashlib.sha256()
    for g, d in golden_sources():
        vn = make_very_nice(d, g)
        w = decomposition_to_witness(g, d)
        back = witness_to_decomposition(w)
        for text in (decomposition_to_json(vn), witness_to_json(w), decomposition_to_json(back)):
            h.update(text.encode())
    return h.hexdigest()


def test_transform_outputs_golden():
    # make_very_nice's move order and both bridges' choices of connectors
    # decide these bytes; any drift in either changes the digest
    assert transform_digest() == TRANSFORM_GOLDEN


def midsize_sources():
    """Seeded loopy multigraphs of 12-20 vertices plus families, each
    paired with its star decomposition."""
    rng = random.Random(8812)
    graphs = []
    for _ in range(20):
        n = rng.randint(12, 20)
        graphs.append(random_connected_multi(rng, n, rng.randint(0, n // 2), loops=True))
    graphs += [wall(4), wall(5), wall(6), ladder(8), windmill(6)]
    return [(g, star_decomposition(g)) for g in graphs]


# recorded from the code before the lazy move lists and the width-pair check
MIDSIZE_GOLDEN = "e24a3a1c9e208578fbde5575dee74e44b36ab7c60621c88197b9713ea098f00f"


def test_make_very_nice_midsize_golden():
    h = hashlib.sha256()
    for g, d in midsize_sources():
        h.update(decomposition_to_json(make_very_nice(d, g)).encode())
    assert h.hexdigest() == MIDSIZE_GOLDEN


# index into midsize_sources() -> (least budget at which the verified
# DFS succeeds, sha256 prefix of the states it evaluates, in order);
# recorded from the code before the lazy move lists
DFS_STATES = {
    3: (17, "55a5fd8201957ca7"),  # n = 20
    17: (17, "dea6a65d900b8b37"),  # n = 19
    22: (18, "c60c15c9ee931693"),  # wall(6)
    24: (12, "6d84a8720d66da84"),  # windmill(6)
}


@pytest.mark.parametrize("index", sorted(DFS_STATES))
def test_verified_dfs_state_sequence_pinned(index):
    # the same states in the same order: a search that reaches the same
    # tree along another path evaluates other states, and one that takes
    # a longer path needs a larger budget
    g, d = midsize_sources()[index]
    rep = width_report(d, g)
    states, digest = DFS_STATES[index]
    assert _verified_dfs(_TreePass(d.copy(), g), rep.width, rep.slim_width, states - 1) is None
    visited = []

    class Recording(_TreePass):
        # the DFS moves one pass along and checks each state it evaluates
        # with one within call; the input's state is recorded when the
        # pass is built
        def __init__(self, dec, graph):
            visited.append(transform._state_signature(dec))
            super().__init__(dec, graph)

        def within(self, w, s, nodes=None):
            visited.append(transform._state_signature(self.d))
            return super().within(w, s, nodes)

    assert _verified_dfs(Recording(d.copy(), g), rep.width, rep.slim_width, states) is not None
    assert len(visited) == states + 1  # the input's own pass comes first
    assert hashlib.sha256(repr(visited).encode()).hexdigest()[:16] == digest
