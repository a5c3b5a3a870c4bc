import hashlib
import random

import pytest

from treecuts.decomposition import TreeCutDecomposition
from treecuts.ecw import SpanningWitness, sec_upper, witness_ecw
from treecuts.edp import _solve_dp, edp_bruteforce, edp_solve_dp
from treecuts.families import ladder
from treecuts.multigraph import MultiGraph
from treecuts.oracle import SizeLimitError
from treecuts.transform import decomposition_to_witness

from conftest import random_connected_multi


def c4():
    return MultiGraph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])


def witness_for(g):
    _, w = sec_upper(g)
    return w


def test_c4_two_parallel_demands_yes():
    g = c4()
    pairs = [(0, 2), (0, 2)]
    ok, system = edp_bruteforce(g, pairs)
    assert ok
    assert sorted(system) == [[0, 1, 2], [0, 3, 2]]
    assert edp_solve_dp(g, witness_for(g), pairs) is True


def test_c4_crossing_demands_no():
    g = c4()
    pairs = [(0, 2), (1, 3)]
    ok, system = edp_bruteforce(g, pairs)
    assert not ok and system is None
    assert edp_solve_dp(g, witness_for(g), pairs) is False


def test_c4_three_parallel_demands_no():
    g = c4()
    pairs = [(0, 2)] * 3
    assert edp_bruteforce(g, pairs)[0] is False
    assert edp_solve_dp(g, witness_for(g), pairs) is False


def test_trivial_demands():
    g = c4()
    assert edp_solve_dp(g, witness_for(g), []) is True
    ok, system = edp_bruteforce(g, [(2, 2)])
    assert ok and system == [[2]]
    assert edp_solve_dp(g, witness_for(g), [(2, 2)]) is True


def test_cross_component_no():
    g = MultiGraph(range(4), [(0, 1), (2, 3)])
    pairs = [(0, 3)]
    assert edp_bruteforce(g, pairs)[0] is False
    assert edp_solve_dp(g, witness_for(g), pairs) is False


def test_parallel_edges_carry_parallel_demands():
    g = MultiGraph(range(2), [(0, 1), (0, 1)])
    assert edp_solve_dp(g, witness_for(g), [(0, 1), (0, 1)]) is True
    assert edp_solve_dp(g, witness_for(g), [(0, 1)] * 3) is False


def test_loops_do_not_help():
    g = MultiGraph(range(2), [(0, 1)])
    g.add_edge(0, 0)
    assert edp_solve_dp(g, witness_for(g), [(0, 1), (0, 1)]) is False
    assert edp_bruteforce(g, [(0, 1), (0, 1)])[0] is False


def test_ghost_witness_is_usable():
    # a decomposition with an empty bag gives decomposition_to_witness a
    # witness with ghosts
    g = MultiGraph(range(3), [(0, 1), (1, 2), (0, 2)])
    d = TreeCutDecomposition(
        0, {0: None, 1: 0, 2: 1}, {0: {0}, 1: set(), 2: {1, 2}}
    )
    w = decomposition_to_witness(g, d)
    assert w.ghost_vertices()
    assert edp_solve_dp(g, w, [(0, 1), (0, 2)]) is True
    assert edp_solve_dp(g, w, [(0, 1), (0, 1)]) is True  # direct plus 0-2-1
    assert edp_solve_dp(g, w, [(0, 1)] * 3) is False  # degree 2 at vertex 0


def test_terminal_validation():
    g = c4()
    with pytest.raises(ValueError):
        edp_solve_dp(g, witness_for(g), [(0, 9)])
    with pytest.raises(ValueError):
        edp_bruteforce(g, [(0, 9)])


def test_wrong_witness_rejected():
    g = c4()
    h = MultiGraph(range(3), [(0, 1), (1, 2), (0, 2)])
    w = witness_for(h)
    with pytest.raises(ValueError):
        edp_solve_dp(g, w, [(0, 2)])
    bad = SpanningWitness(g, g.copy(), frozenset({(0, 1)}))
    with pytest.raises(ValueError):
        edp_solve_dp(g, bad, [(0, 2)])


def test_bruteforce_size_limit():
    g = MultiGraph(range(6))
    for a in range(6):
        for b in range(a + 1, 6):
            g.add_edge(a, b)
    with pytest.raises(SizeLimitError):
        edp_bruteforce(g, [(0, 1)], limit=14)


def test_bruteforce_paths_are_disjoint_and_valid():
    rng = random.Random(606)
    for _ in range(25):
        g = random_connected_multi(rng, rng.randint(2, 5), rng.randint(0, 3))
        if g.num_edges() > 12:
            continue
        vs = g.sorted_vertices()
        pairs = [
            (rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(1, 3))
        ]
        ok, system = edp_bruteforce(g, pairs)
        if not ok:
            continue
        used: dict = {}
        for (s, t), path in zip(pairs, system):
            assert path[0] == s and path[-1] == t
            for a, b in zip(path, path[1:]):
                key = (min(a, b), max(a, b))
                used[key] = used.get(key, 0) + 1
        for key, cnt in used.items():
            assert cnt <= g.multiplicity(*key)


def test_dp_matches_bruteforce_seeded():
    rng = random.Random(77042)
    checked = 0
    for _ in range(120):
        g = random_connected_multi(rng, rng.randint(2, 5), rng.randint(0, 4), loops=True)
        if g.num_edges() > 12:
            continue
        vs = g.sorted_vertices()
        pairs = [
            (rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(1, 3))
        ]
        expected = edp_bruteforce(g, pairs)[0]
        got = edp_solve_dp(g, witness_for(g), pairs)
        assert got == expected, (sorted(g.edges()), pairs)
        checked += 1
    assert checked >= 80


def test_single_pair_copies_match_menger():
    # k copies of one terminal pair route exactly when k is at most the
    # local edge connectivity of the pair (Menger). That is a max flow
    # with each multiplicity as capacity: nx.edge_connectivity on an
    # nx.MultiGraph counts a parallel pair once
    nx = pytest.importorskip("networkx")
    rng = random.Random(5151)
    for _ in range(30):
        g = random_connected_multi(rng, rng.randint(2, 6), rng.randint(0, 5), loops=True)
        s, t = rng.sample(g.sorted_vertices(), 2)
        h = nx.Graph()
        h.add_nodes_from(g.vertices())
        h.add_edges_from((u, v, {"capacity": m}) for u, v, m in g.edge_pairs() if u != v)
        lam = nx.maximum_flow_value(h, s, t)
        w = witness_for(g)
        for k in range(1, lam + 2):
            assert edp_solve_dp(g, w, [(s, t)] * k) is (k <= lam), (sorted(g.edges()), s, t, k)


def ladder_instance(rungs, doubled):
    """ladder(rungs), every edge doubled on request, with its rail-and-rungs
    witness."""
    g0 = ladder(rungs)
    g = MultiGraph(g0.vertices())
    for u, v, m in g0.edge_pairs():
        g.add_edge(u, v, 2 * m if doubled else m)
    return g, SpanningWitness(g.copy(), g.copy(), frozenset(g0.meta["spanning_tree"]))


def ladder_pool():
    """Plain and doubled ladders with 3..8 rungs, 1..4 seeded demands."""
    rng = random.Random(2468)
    for doubled in (False, True):
        for r in range(3, 9):
            g, w = ladder_instance(r, doubled)
            for k in range(1, 5):
                for i in range(3):
                    pairs = [tuple(rng.sample(range(2 * r), 2)) for _ in range(k)]
                    label = f"{'double' if doubled else 'plain'}-r{r}-k{k}#{i}"
                    yield label, g, w, pairs


# recorded from the per-copy DP that preceded the per-pair mask state;
# 125 of the 144 answers are yes
EDP_ANSWERS_GOLDEN = "f2934937cd1e225ab6cc72004a7cad3c4e603e86450f2316e3c964538225a5bf"


def test_edp_answers_golden():
    h = hashlib.sha256()
    for label, g, w, pairs in ladder_pool():
        h.update(f"{label} {pairs} {edp_solve_dp(g, w, pairs)}\n".encode())
    assert h.hexdigest() == EDP_ANSWERS_GOLDEN


def random_witness(rng, g):
    """A decomposition_to_witness witness of a random tree-cut
    decomposition with empty bags, so ghost vertices, with ghost copies
    added to some base pairs of the host."""
    vs = g.sorted_vertices()
    nodes = rng.randint(2, len(vs) + 3)
    parent = {0: None}
    for t in range(1, nodes):
        parent[t] = rng.randrange(t)
    bags = {t: set() for t in range(nodes)}
    for v in vs:
        bags[rng.randrange(nodes)].add(v)
    w = decomposition_to_witness(g, TreeCutDecomposition(0, parent, bags))
    host = w.host.copy()
    for u, v, _ in g.edge_pairs():
        if u != v and rng.random() < 0.3:
            host.add_edge(u, v, rng.randint(1, 2))
    return SpanningWitness(w.base_graph, host, w.forest)


def random_parallel_multi(rng, n):
    """A connected loopy multigraph with multiplicities 2 and 3 on most
    pairs."""
    g = random_connected_multi(rng, n, rng.randint(0, 2), loops=True)
    for u, v, m in list(g.edge_pairs()):
        if u != v and m < 3 and rng.random() < 0.7:
            g.add_edge(u, v, rng.randint(1, 3 - m))
    return g


def test_dp_matches_bruteforce_on_parallel_pairs():
    # k demands up to 4 over pairs of multiplicity 2 and 3, so a pair can
    # be asked for more demands than it has copies: the popcount limit
    # on its mask binds
    rng = random.Random(31337)
    seen = {"sec": 0, "ghost vertices": 0, "ghost copies": 0, "yes": 0, "no": 0}
    for it in range(160):
        g = random_parallel_multi(rng, rng.randint(3, 5))
        if g.num_edges() > 14:
            continue
        if it % 2:
            w = witness_for(g)
            seen["sec"] += 1
        else:
            w = random_witness(rng, g)
            seen["ghost vertices"] += bool(w.ghost_vertices())
            seen["ghost copies"] += any(
                w.ghost_edge_count(u, v) for u, v, _ in g.edge_pairs()
            )
        vs = g.sorted_vertices()
        k = rng.randint(2, 4)
        pairs = [tuple(rng.sample(vs, 2)) for _ in range(k)]
        expected = edp_bruteforce(g, pairs)[0]
        assert edp_solve_dp(g, w, pairs) == expected, (sorted(w.host.edges()), pairs)
        seen["yes" if expected else "no"] += 1
    assert min(seen.values()) >= 20, seen


def test_dp_states_bounded_by_witness_ecw():
    # the FPT shape: a subtree keeps at most (k+1)^ecw states
    for _, g, w, pairs in ladder_pool():
        yes, peak = _solve_dp(g, w, pairs)
        assert yes <= peak <= (len(pairs) + 1) ** witness_ecw(w)
    rng = random.Random(8080)
    for it in range(80):
        g = random_parallel_multi(rng, rng.randint(3, 7))
        w = witness_for(g) if it % 2 else random_witness(rng, g)
        vs = g.sorted_vertices()
        pairs = [tuple(rng.sample(vs, 2)) for _ in range(rng.randint(1, 4))]
        _, peak = _solve_dp(g, w, pairs)
        assert peak <= (len(pairs) + 1) ** witness_ecw(w), (sorted(w.host.edges()), pairs)
