import hashlib
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecuts import chargedp
from treecuts.chargedp import ForestOracle, _ChargeDP
from treecuts.ecw import (
    BudgetExceededError,
    EdgePair,
    SpanningWitness,
    _cores,
    _indexed,
    _least_forest,
    _top_charge,
    ecw_value,
    exact_ecw,
    sec_upper,
    spanning_tree_count,
    validate_witness,
    witness_ecw,
)
from treecuts.families import ladder, wall
from treecuts.multigraph import MultiGraph

from conftest import random_connected_multi
from reference import ReferenceChargeDP, feedback_edge_number, least_forest, local_feedback_set


def c4():
    return MultiGraph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])


def k4():
    return MultiGraph(range(4), [(a, b) for a in range(4) for b in range(a + 1, 4)])


def test_spanning_tree_counts():
    assert spanning_tree_count(c4()) == 4
    assert spanning_tree_count(k4()) == 16
    # doubling an edge doubles the trees through it
    g = MultiGraph(range(2), [(0, 1), (0, 1)])
    assert spanning_tree_count(g) == 2
    # forests multiply across components
    h = MultiGraph(range(8))
    for u, v in c4().edges():
        h.add_edge(u, v)
    for u, v in c4().edges():
        h.add_edge(u + 4, v + 4)
    assert spanning_tree_count(h) == 16
    assert spanning_tree_count(MultiGraph([0])) == 1
    # loops never enter a forest
    g2 = MultiGraph(range(2), [(0, 1)])
    g2.add_edge(0, 0)
    assert spanning_tree_count(g2) == 1


def test_feedback_edge_number():
    assert feedback_edge_number(c4()) == 1
    assert feedback_edge_number(k4()) == 3
    g = MultiGraph(range(3), [(0, 1), (1, 2)])
    assert feedback_edge_number(g) == 0
    g.add_edge(0, 0)
    assert feedback_edge_number(g) == 1


def test_exact_ecw_c4():
    val, w = exact_ecw(c4())
    assert val == 2
    assert validate_witness(w) == []
    assert witness_ecw(w) == 2
    # deterministic lexicographically least optimal forest
    assert sorted(w.forest) == [(0, 1), (0, 3), (1, 2)]


def test_exact_ecw_k4_and_fen_cap():
    val, w = exact_ecw(k4())
    assert val <= feedback_edge_number(k4()) + 1
    assert val == 4
    assert validate_witness(w) == []


def test_exact_ecw_tree_is_one():
    g = MultiGraph(range(4), [(0, 1), (1, 2), (1, 3)])
    val, w = exact_ecw(g)
    assert val == 1
    assert set(w.forest) == {(0, 1), (1, 2), (1, 3)}


def test_exact_ecw_empty_and_disconnected():
    assert exact_ecw(MultiGraph())[0] == 0
    g = MultiGraph(range(4), [(0, 1), (2, 3)])
    val, w = exact_ecw(g)
    assert val == 1
    assert len(w.forest) == 2


def test_exact_ecw_budget():
    with pytest.raises(BudgetExceededError):
        exact_ecw(k4(), budget=10)


def test_local_feedback_set_endpoints_count():
    g = c4()
    forest = frozenset({(0, 1), (1, 2), (2, 3)})
    # non-forest edge 0-3 has forest path 0,1,2,3: every vertex charged
    for v in range(4):
        assert local_feedback_set(g, forest, v) == {(0, 3, 0)}
    assert ecw_value(g, forest) == 2


def test_local_feedback_loop_charges_its_vertex():
    g = MultiGraph(range(2), [(0, 1)])
    g.add_edge(1, 1)
    forest = frozenset({(0, 1)})
    assert local_feedback_set(g, forest, 1) == {(1, 1, 0)}
    assert local_feedback_set(g, forest, 0) == set()
    assert ecw_value(g, forest) == 2


def test_parallel_copies_charge_separately():
    g = MultiGraph(range(2), [(0, 1), (0, 1), (0, 1)])
    forest = frozenset({(0, 1)})
    assert local_feedback_set(g, forest, 0) == {(0, 1, 1), (0, 1, 2)}
    assert ecw_value(g, forest) == 3


def test_ecw_value_of_the_empty_graph_is_zero():
    assert ecw_value(MultiGraph(), frozenset()) == 0


def test_validate_witness_flags_problems():
    g = c4()
    # forest edge not in host
    w = SpanningWitness(base_graph=g, host=g.copy(), forest=frozenset({(0, 2)}))
    assert validate_witness(w)
    # not maximal: too few forest edges
    w2 = SpanningWitness(base_graph=g, host=g.copy(), forest=frozenset({(0, 1)}))
    assert any("maximal" in p or "spanning" in p for p in validate_witness(w2))
    # host missing a base edge
    h = MultiGraph(range(4), [(0, 1), (1, 2), (2, 3)])
    w3 = SpanningWitness(base_graph=g, host=h, forest=frozenset({(0, 1), (1, 2), (2, 3)}))
    assert validate_witness(w3)
    # cycle in claimed forest
    w4 = SpanningWitness(
        base_graph=g,
        host=g.copy(),
        forest=frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}),
    )
    assert validate_witness(w4)
    # a reversed pair would be charged as a non-forest copy
    e = MultiGraph(range(2), [(0, 1)])
    w5 = SpanningWitness(base_graph=e, host=e.copy(), forest=frozenset({(1, 0)}))
    assert validate_witness(w5) == ["forest edge (1,0) is not written as (min, max)"]
    # a base vertex the host lacks
    w6 = SpanningWitness(MultiGraph(range(3)), MultiGraph(range(2)), frozenset())
    assert validate_witness(w6) == ["host misses base vertices [2]"]
    # a loop is never a forest edge, even when the host carries it
    lo = MultiGraph(range(2), [(0, 1), (1, 1)])
    w7 = SpanningWitness(lo, lo.copy(), frozenset({(0, 1), (1, 1)}))
    assert validate_witness(w7) == ["forest contains loop (1,1)"]


def test_witness_with_ghosts_validates():
    g = MultiGraph(range(3), [(0, 1), (1, 2)])
    h = g.copy()
    h.add_vertex(3)
    h.add_edge(1, 3)
    w = SpanningWitness(
        base_graph=g, host=h, forest=frozenset({(0, 1), (1, 2), (1, 3)})
    )
    assert validate_witness(w) == []
    assert w.ghost_vertices() == {3}
    assert w.ghost_edge_count(1, 3) == 1
    assert w.ghost_edge_count(0, 1) == 0


def test_ladder_distinguished_tree_value():
    g = ladder(9)
    w = SpanningWitness(
        base_graph=g, host=g.copy(), forest=frozenset(g.meta["spanning_tree"])
    )
    assert validate_witness(w) == []
    assert witness_ecw(w) == 3


def test_sec_upper_is_sandwiched(corpus_small):
    for g in corpus_small:
        exact, _ = exact_ecw(g)
        up, w = sec_upper(g)
        assert validate_witness(w) == []
        assert up <= exact  # a supergraph witness may only improve
        assert up >= 1


def test_sec_upper_decomposition_route():
    # budget too small for enumeration: the bound must come from a
    # slim-optimal decomposition's witness instead
    up, w = sec_upper(k4(), budget=10)
    assert validate_witness(w) == []
    assert up >= 1


def test_sec_upper_dfs_fallback():
    g = wall(6)  # too many spanning trees, too large for the oracle
    up, w = sec_upper(g, budget=100)
    assert validate_witness(w) == []
    assert up <= feedback_edge_number(g) + 1


def fallback_graphs() -> list[MultiGraph]:
    """Graphs with too many spanning trees for budget 100 and too many
    vertices for the oracle: two walls, and two seeded loopy components
    on sparse labels plus the isolated vertex 40."""
    g = MultiGraph([40])
    rng = random.Random(3306)
    for off in (0, 1):
        part = random_connected_multi(rng, 6, 9, loops=True)
        for v in part.vertices():
            g.add_vertex(3 * v + off)
        for u, v in part.edges():
            g.add_edge(3 * u + off, 3 * v + off)
    return [wall(6), wall(7), g]


# Recorded from the DFS fallback that visited sorted(g.neighbors(u)) per
# vertex, before the fallback was read off _forest_paths; pins the forest.
FALLBACK_DIGEST = "9a862d737b171f71220bd990e42dd9ae3503a2e5861bda12fe07be739062d4c0"


def test_sec_upper_fallback_forest_golden():
    h = hashlib.sha256()
    for g in fallback_graphs():
        assert g.num_vertices() > 6 and spanning_tree_count(g) > 100
        up, w = sec_upper(g, budget=100)
        assert validate_witness(w) == []
        h.update(f"{up} {sorted(w.forest)}\n".encode())
    assert h.hexdigest() == FALLBACK_DIGEST


def test_random_agreement_forest_vs_recount():
    rng = random.Random(11)
    for _ in range(30):
        g = random_connected_multi(rng, rng.randint(2, 6), rng.randint(0, 4), loops=True)
        val, w = exact_ecw(g)
        assert validate_witness(w) == []
        assert witness_ecw(w) == val
        assert val <= feedback_edge_number(g) + 1


def golden_graphs() -> list[MultiGraph]:
    """Fixed exact_ecw corpus: ladders, c4, k4, seeded loopy multigraphs
    with parallel edges, and one disconnected graph."""
    gs = [ladder(r) for r in range(2, 9)] + [c4(), k4()]
    rng = random.Random(2211)
    for n, extra in ((8, 8), (8, 10), (9, 8), (9, 10)):
        gs.append(random_connected_multi(rng, n, extra, loops=True))
    # a triangle with a doubled side, a looped vertex 3, K4 on 4..7 and
    # the isolated vertex 8
    triangle_and_loop = [(0, 1), (1, 2), (0, 2), (0, 1), (3, 3)]
    k4_on_4_7 = [(a, b) for a in range(4, 8) for b in range(a + 1, 8)]
    gs.append(MultiGraph(range(9), triangle_and_loop + k4_on_4_7))
    return gs


GOLDEN_DIGEST = "339f1303d0e37db5b3d65ccda51f847a78f5432212047f51c18d70095f03228f"


def golden_digest() -> str:
    h = hashlib.sha256()
    for g in golden_graphs():
        val, w = exact_ecw(g)
        h.update(f"{val} {sorted(w.forest)}\n".encode())
    return h.hexdigest()


def test_exact_ecw_golden():
    # pins both the optimum and the lex-least forest reaching it
    assert golden_digest() == GOLDEN_DIGEST


def reference_ecw(g: MultiGraph) -> tuple[int, list[EdgePair]]:
    """First minimum of ecw_value over the maximal spanning forests of g,
    taken as combinations of its sorted distinct pairs: lex-least."""
    pairs = sorted((u, v) for u, v, _ in g.edge_pairs() if u != v)
    comps = len(g.components())
    best = None
    for forest in itertools.combinations(pairs, g.num_vertices() - comps):
        if len(MultiGraph(g.vertices(), forest).components()) != comps:
            continue  # a cycle somewhere
        val = ecw_value(g, set(forest))
        if best is None or val < best[0]:
            best = (val, list(forest))
    return best


@st.composite
def small_multigraphs(draw):
    n = draw(st.integers(1, 7))
    labels = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n, unique=True))
    ends = st.sampled_from(labels)
    return MultiGraph(labels, draw(st.lists(st.tuples(ends, ends), max_size=12)))


@settings(max_examples=300, deadline=None)
@given(small_multigraphs())
def test_exact_ecw_matches_reference(g):
    val, w = exact_ecw(g)
    assert (val, sorted(w.forest)) == reference_ecw(g)


@settings(max_examples=300, deadline=None)
@given(small_multigraphs())
def test_charge_dp_matches_reference(g):
    _, loops, pairs = _indexed(g)
    assert ForestOracle(loops, pairs).value == reference_ecw(g)[0]


def test_charge_dp_matches_search_past_brute_force():
    # 9-12 vertices with parallel pairs: several DP levels per graph
    rng = random.Random(4104)
    for _ in range(12):
        g = random_connected_multi(rng, rng.randint(9, 12), rng.randint(5, 9), loops=True)
        _, loops, pairs = _indexed(g)
        assert ForestOracle(loops, pairs).value == least_forest(loops, pairs)[0]


@st.composite
def connected_loopy_multigraphs(draw):
    """Connected loopy multigraphs on 2..7 vertices: a random tree plus
    random extra edges, loops and parallel copies allowed."""
    n = draw(st.integers(2, 7))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    ends = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(ends, ends), max_size=8))
    return MultiGraph(range(n), edges)


@settings(max_examples=150, deadline=None)
@given(connected_loopy_multigraphs(), st.data())
def test_constrained_charge_dp_matches_brute_force(g, data):
    # the DP runs on the whole graph, unpeeled; required and forbidden
    # pairs are fixed one at a time and every decision reuses the tables
    # of the one before
    _, loops, pairs = _indexed(g)
    n = g.num_vertices()
    mul = [{} for _ in range(n)]
    for a, b, m in pairs:
        mul[a][b] = mul[b][a] = m
    trees = []  # (pair set, max charge) of every spanning tree
    for tree in itertools.combinations([(a, b) for a, b, _ in pairs], n - 1):
        if MultiGraph(range(n), tree).is_connected():
            trees.append((set(tree), ecw_value(g, set(tree)) - 1))
    optimum = min(top for _, top in trees)
    bound = data.draw(st.integers(optimum - 1, optimum + 2), label="bound")
    dp = _ChargeDP(mul, loops)
    fixed: dict[tuple[int, int], bool] = {}
    steps = data.draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans()),
                               max_size=5), label="fixes")
    for step in [None] + steps:
        if step is not None:
            (a, b, _), required = step
            fixed[a, b] = required
            dp.fix(a, b, required)
        fits = [t for t, top in trees if top <= bound
                and all((p in t) == want for p, want in fixed.items())]
        assert dp.feasible(bound) == bool(fits), (fixed, bound)
        if fits:
            assert dp.tree() in fits


def mul_of(n: int, pairs: list[tuple[int, int, int]]) -> list[dict[int, int]]:
    """The multiplicity maps a `_ChargeDP` takes, from distinct pairs."""
    mul = [{} for _ in range(n)]
    for a, b, m in pairs:
        mul[a][b] = mul[b][a] = m
    return mul


def one_vertex_entries(dp: _ChargeDP, bound: int) -> tuple[dict, dict]:
    """The h and how entries of every one-vertex set {v} below every other
    vertex x at bound, each summed by hsum on empty tables, whether or
    not a decision would ask for it."""
    dp.feasible(bound)
    dp.h, dp.how = {}, {}
    for x in range(dp.k):
        for v in range(dp.k):
            if v != x:
                assert dp.hsum(x, (1 << v,)) >= -1
    return dp.h, dp.how


def check_dp_against_reference(mul, loops, steps) -> None:
    """feasible, the h and how tables and, on a yes, tree() of _ChargeDP
    against ReferenceChargeDP after each step (pair or None, required,
    bound), then the one-vertex entries under the last constraints. The
    fit tables are not compared: the DP settles a one-vertex set with no
    fit entry for its part."""
    dp, ref = _ChargeDP(mul, loops), ReferenceChargeDP(mul, loops)
    for pair, required, bound in steps:
        if pair is not None:
            dp.fix(*pair, required)
            ref.fix(*pair, required)
        yes = dp.feasible(bound)
        assert yes == ref.feasible(bound), (pair, required, bound)
        assert dp.h == ref.h, (pair, required, bound)
        assert dp.how == ref.how, (pair, required, bound)
        if yes:
            assert dp.tree() == ref.tree()
    assert one_vertex_entries(dp, bound) == one_vertex_entries(ref, bound)


@settings(max_examples=200, deadline=None)
@given(connected_loopy_multigraphs(), st.data())
def test_charge_dp_matches_reference_dp(g, data):
    # a random fix sequence, each decision at a bound next to the optimum,
    # so the tables are reused, filtered and reset in turn
    _, loops, pairs = _indexed(g)
    mul = mul_of(len(loops), pairs)
    least = _ChargeDP(mul, loops).least_bound(0)
    bounds = st.integers(least - 1, least + 1)
    fixes = st.tuples(st.sampled_from([(a, b) for a, b, _ in pairs]), st.booleans(), bounds)
    steps = [(None, True, data.draw(bounds, label="bound"))]
    steps += data.draw(st.lists(fixes, max_size=6), label="fixes")
    check_dp_against_reference(mul, loops, steps)


def test_charge_dp_matches_reference_dp_on_one_vertex_cases():
    # triangle with (1, 2) required: below 0, vertex 1's required pair
    # leads to 2, so neither the part {1} nor the set {1} is valid there
    tri = mul_of(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
    check_dp_against_reference(tri, [0, 0, 0], [(None, True, 1), ((1, 2), True, 1),
                                                ((1, 2), True, 0), ((0, 2), False, 1)])
    dp = _ChargeDP(tri, [0, 0, 0])
    dp.fix(1, 2, True)
    h, how = one_vertex_entries(dp, 1)
    assert h[0b010 * 3 + 0] == -1 and h[0b010 * 3 + 2] == 1
    assert how[0b010 * 3 + 2] == (0b010, 1)
    # path 0-1-2 with three loops at 2: below 1 at bound 2, the set {2}
    # has deg - 1 + loops = 3 over the bound, though deg - 1 = 0 is not
    path = mul_of(3, [(0, 1, 1), (1, 2, 1)])
    check_dp_against_reference(path, [0, 0, 3], [(None, True, 2), (None, True, 3),
                                                 ((1, 2), True, 2), ((0, 1), True, 3)])
    dp = _ChargeDP(path, [0, 0, 3])
    assert not dp.feasible(2) and dp.h[0b100 * 3 + 1] == -1
    assert dp.feasible(3) and dp.h[0b100 * 3 + 1] == 4 and dp.how[0b100 * 3 + 1] == (0b100, 2)


@settings(max_examples=200, deadline=None)
@given(connected_loopy_multigraphs(), st.data())
def test_charge_walk_matches_local_feedback_sets(g, data):
    # a random spanning tree, taken greedily from a random pair order;
    # local_feedback_set lists the copies charging each vertex one by one
    _, loops, pairs = _indexed(g)
    root = list(range(g.num_vertices()))

    def find(x: int) -> int:
        while root[x] != x:
            x = root[x]
        return x

    tree = set()
    for a, b in data.draw(st.permutations([(a, b) for a, b, _ in pairs]), label="order"):
        ra, rb = find(a), find(b)
        if ra != rb:
            root[ra] = rb
            tree.add((a, b))
    top = max(len(local_feedback_set(g, tree, v)) for v in g.vertices())
    assert ecw_value(g, tree) == 1 + top
    assert _top_charge(loops, pairs, tree) == top
    bound = data.draw(st.integers(-1, top + 1), label="bound")
    bounded = _top_charge(loops, pairs, tree, bound)
    assert (bounded > bound) == (top > bound)
    if top <= bound:
        assert bounded == top


def check_answers_by_brute_force(g: MultiGraph, data) -> None:
    """The oracle's value, its answer to each pair asked, in lex order
    with some skipped, and its witness after each answer, against every
    maximal spanning forest of g. No pair is skipped for closing a cycle,
    so those are asked too."""
    vs, loops, pairs = _indexed(g)
    n = g.num_vertices()
    comps = len(g.components())
    optimal = []
    for forest in itertools.combinations([(a, b) for a, b, _ in pairs], n - comps):
        if len(MultiGraph(range(n), forest).components()) == comps:
            val = ecw_value(g, {(vs[a], vs[b]) for a, b in forest})
            optimal.append((val, set(forest)))
    value = min(v for v, _ in optimal)
    optimal = [f for v, f in optimal if v == value]
    oracle = ForestOracle(loops, pairs)
    assert oracle.value == value
    asked = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    fixed: dict[EdgePair, bool] = {}
    for (a, b, _), ask in zip(pairs, asked):
        if not ask:
            continue
        fixed[a, b] = True
        want = any(all((p in f) == keep for p, keep in fixed.items()) for f in optimal)
        assert oracle.include(a, b) == want, fixed
        fixed[a, b] = want
        # the witness the next answers start from is one of the optima
        witness = oracle.forest()
        assert witness in optimal
        assert all((p in witness) == keep for p, keep in fixed.items())


@settings(max_examples=150, deadline=None)
@given(small_multigraphs(), st.data())
def test_forest_oracle_answers_match_brute_force(g, data):
    # disconnected graphs, loops and peeled pendants included
    check_answers_by_brute_force(g, data)


@st.composite
def chained_multigraphs(draw, chains: int = 3, length: int = 2):
    """Multigraphs that series reduction and the pendant peel take apart
    in turns: up to four hubs with pairs and loops among them; chains of
    new vertices between two hubs, parallel ones included, or closing on
    one hub; at most one whole cycle of new vertices; and pendant paths,
    single or doubled, hung off chain vertices."""
    hubs = draw(st.integers(1, 4))
    hub = st.integers(0, hubs - 1)
    edges = draw(st.lists(st.tuples(hub, hub), min_size=hubs, max_size=5))
    n = hubs
    inner = []
    for a, b, k in draw(st.lists(st.tuples(hub, hub, st.integers(1, length)),
                                 min_size=2, max_size=chains)):
        path = [a, *range(n, n + k), b]
        n += k
        inner += path[1:-1]
        edges += zip(path, path[1:])
    if draw(st.booleans()):
        cycle = list(range(n, n + 3))
        n += 3
        edges += zip(cycle, cycle[1:] + cycle[:1])
    for v, m in draw(st.lists(st.tuples(st.sampled_from(inner), st.integers(1, 2)), max_size=2)):
        edges += [(v, n)] * m
        n += 1
    return MultiGraph(range(n), edges)


@settings(max_examples=150, deadline=None)
@given(chained_multigraphs(), st.data())
def test_forest_oracle_answers_match_brute_force_on_chains(g, data):
    check_answers_by_brute_force(g, data)


def unreduced_value(loops: list[int], pairs: list[tuple[int, int, int]]) -> int:
    """The edge-cut width with the pendant peel alone: one `_ChargeDP`
    per core that `_cores` leaves, from the largest loop count."""
    loops = loops[:]
    peeled, cores = _cores(len(loops), pairs)
    for v, u, m in peeled:
        loops[v] += m - 1
        loops[u] += m - 1
    low = max(loops, default=0)
    for core, mul in cores:
        low = _ChargeDP(mul, [loops[v] for v in core]).least_bound(low)
    return low + 1 if loops else 0


@settings(max_examples=200, deadline=None)
@given(chained_multigraphs(chains=6, length=4))
def test_reduced_value_matches_unreduced_dp(g):
    _, loops, pairs = _indexed(g)
    assert ForestOracle(loops, pairs).value == unreduced_value(loops, pairs)


def escalation_corpus() -> list[MultiGraph]:
    # the graphs of test_charge_dp_matches_search_past_brute_force
    rng = random.Random(4104)
    gs = [random_connected_multi(rng, rng.randint(9, 12), rng.randint(5, 9), loops=True)
          for _ in range(12)]
    return gs + [wall(5)]


class RecordingOracle:
    """A ForestOracle that keeps the answers it gives, each as "witness",
    "swap", "query yes" or "query no"."""

    def __init__(self, loops, pairs):
        self.oracle = ForestOracle(loops, pairs)
        self.answers: list[str] = []

    def include(self, a: int, b: int) -> bool:
        held = (a, b) in self.oracle.forest()
        queries = self.oracle.queries
        yes = self.oracle.include(a, b)
        if self.oracle.queries > queries:
            self.answers.append("query yes" if yes else "query no")
        else:
            self.answers.append("witness" if held else "swap")
        return yes


# The case ids are the names the two cases have always run under, from
# when they were union budgets of the search: 200 the default, -1 every
# pair sent to the DP. Now 200 runs the oracle as it is and -1 runs it
# without swaps, so every yes outside the witness is a DP query.
@pytest.mark.parametrize("swaps", [pytest.param(True, id="200"),
                                   pytest.param(False, id="-1")])
def test_escalation_matches_branch_and_bound(swaps, monkeypatch):
    # graphs where the DP gives every kind of answer; the forest must be
    # the one the branch-and-bound finds without the DP
    if not swaps:
        monkeypatch.setattr(ForestOracle, "_swap", lambda self, at, x, y: False)
    answers = []
    for g in escalation_corpus():
        _, loops, pairs = _indexed(g)
        rec = RecordingOracle(loops, pairs)
        found = tuple(_least_forest(len(loops), pairs, rec))
        assert (rec.oracle.value, found) == least_forest(loops, pairs)
        answers += rec.answers
    kinds = {"witness", "swap", "query yes", "query no"}
    assert set(answers) == (kinds if swaps else kinds - {"swap"})


def mask_components(dp: _ChargeDP, s: int) -> tuple[int, ...]:
    """The components of the vertex set s in dp's graph, as bit masks in
    the order of their least vertices, searched afresh."""
    out = []
    while s:
        seen = front = s & -s
        while front:
            near = 0
            for v in range(dp.k):
                if front >> v & 1:
                    near |= dp.nbr[v]
            front = near & s & ~seen
            seen |= front
        out.append(seen)
        s &= ~seen
    return tuple(out)


def mask_edges(dp: _ChargeDP, s: int) -> int:
    """e(s) in dp's graph, counted afresh: loops and pairs inside s."""
    inside = [v for v in range(dp.k) if s >> v & 1]
    return (sum(dp.loops[v] for v in inside)
            + sum(dp.mul[u].get(v, 0) for u, v in itertools.combinations(inside, 2)))


def oracle_run(g: MultiGraph, memos: bool) -> tuple:
    """(value, forest, witness trees, answers, queries) of the pair loop
    on g, with the DP's graph-only memos or with every components and
    edges call computed afresh."""
    _, loops, pairs = _indexed(g)
    with pytest.MonkeyPatch.context() as mp:
        if not memos:
            mp.setattr(_ChargeDP, "components", mask_components)
            mp.setattr(_ChargeDP, "edges", mask_edges)
        rec = RecordingOracle(loops, pairs)
        found = _least_forest(len(loops), pairs, rec)
    oracle = rec.oracle
    return oracle.value, found, oracle.trees, rec.answers, oracle.queries


@settings(max_examples=150, deadline=None)
@given(small_multigraphs())
def test_memos_match_fresh_computation(g):
    assert oracle_run(g, True) == oracle_run(g, False)


def test_memos_match_fresh_computation_on_escalation_corpus():
    for g in escalation_corpus():
        assert oracle_run(g, True) == oracle_run(g, False)


def test_memos_hold_fresh_values_after_exact_ecw(monkeypatch):
    # every entry the DP kept through a whole exact_ecw run, and random
    # masks asked afterwards, must match a fresh count; components come
    # back as tuples, so a caller cannot edit the shared entry
    made = []

    class KeptOracle(ForestOracle):
        def __init__(self, loops, pairs):
            super().__init__(loops, pairs)
            made.append(self)

    monkeypatch.setattr(chargedp, "ForestOracle", KeptOracle)
    rng = random.Random(15)
    for g in escalation_corpus():
        exact_ecw(g, budget=10**12)
        for _, dp in made.pop().dps:
            assert dp.comps and dp.e
            for s, comps in dp.comps.items():
                assert comps == mask_components(dp, s)
            for s, e in dp.e.items():
                assert e == mask_edges(dp, s)
            kept = rng.sample(sorted(dp.comps), min(20, len(dp.comps)))
            for s in [rng.getrandbits(dp.k) for _ in range(200)] + kept:
                assert type(dp.components(s)) is tuple
                assert dp.components(s) == mask_components(dp, s)
                assert dp.edges(s) == mask_edges(dp, s)


def test_exact_ecw_long_path_and_cycle_without_recursion():
    # the find loop is flat and the DP keeps its own stack: 1200
    # included pairs, and a 520-cycle whose DP, run unreduced, nests
    # more than 1000 calls deep; the oracle reduces it to one vertex
    g = MultiGraph(range(1200), [(i, i + 1) for i in range(1199)])
    val, w = exact_ecw(g)
    assert val == 1
    assert validate_witness(w) == []
    cycle = MultiGraph(range(520), [(i, (i + 1) % 520) for i in range(520)])
    _, loops, pairs = _indexed(cycle)
    assert unreduced_value(loops, pairs) == 2
    oracle = ForestOracle(loops, pairs)
    assert oracle.value == 2
    assert not oracle.dps
    # every pair but the last in lex order, (518, 519), which closes the cycle
    assert _least_forest(520, pairs, oracle) == [(a, b) for a, b, _ in pairs[:-1]]


@pytest.mark.parametrize("seed", range(6))
def test_spanning_tree_count_matches_networkx(seed):
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    # every seed here draws parallel pairs, and four of them draw loops
    g = random_connected_multi(rng, rng.randint(2, 8), rng.randint(2, 10), loops=True)
    # a tree, a path with parallel rungs, and a core with pendant trees
    # hung off it: counts that peeling pendant vertices settles in part
    # or whole
    tree = random_connected_multi(rng, rng.randint(2, 12), 0)
    n = rng.randint(2, 12)
    path = MultiGraph(range(n))
    for i in range(n - 1):
        path.add_edge(i, i + 1, rng.randint(1, 3))
    hung = random_connected_multi(rng, 4, rng.randint(2, 5), loops=True)
    for v in range(4, 4 + rng.randint(3, 8)):
        hung.add_edge(v, rng.randrange(v), rng.randint(1, 3))
        if rng.random() < 0.3:
            hung.add_edge(v, v)
    for graph in (g, tree, path, hung):
        h = nx.MultiGraph()
        h.add_nodes_from(graph.vertices())
        h.add_edges_from(graph.edges())
        assert spanning_tree_count(graph) == round(nx.number_of_spanning_trees(h))


def test_spanning_tree_count_long_path_is_fast():
    # pendant peeling settles a path without any determinant
    g = MultiGraph(range(1200), [(i, i + 1) for i in range(1199)])
    g.add_edge(600, 601)
    start = time.perf_counter()
    assert spanning_tree_count(g) == 2
    assert time.perf_counter() - start < 0.25


def test_ladder12_within_raised_budget():
    # 2,107,560 spanning trees: above the default budget, but the charge
    # DP gives the optimum 3 up front and the search stops at the first
    # forest that reaches it
    g = ladder(12)
    assert spanning_tree_count(g) == 2107560
    val, w = exact_ecw(g, budget=3 * 10**6)
    assert val == 3
    assert validate_witness(w) == []
    assert witness_ecw(w) == 3
