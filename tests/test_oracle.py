import gc
import hashlib
import importlib.util
import random
import weakref
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treecuts.decomposition import _center_size as _center_kernel
from treecuts.decomposition import validate, width_report
from treecuts.families import star, windmill
from treecuts.formats import decomposition_to_json
from treecuts import oracle
from treecuts.multigraph import MultiGraph
from treecuts.oracle import (
    INF,
    VARIANT_LEVEL,
    SizeLimitError,
    _center_size,
    _cut_table,
    _Search,
    exact_treewidth,
    exact_width,
)

from conftest import cached_width, connected_graphs_upto, random_connected_multi
from reference import ReferenceSearch, center, consolidate

VARIANTS = ("tcw", "stcw", "tcw0")


def k2():
    return MultiGraph(range(2), [(0, 1)])


def path(n):
    return MultiGraph(range(n), [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return MultiGraph(range(n), [(i, (i + 1) % n) for i in range(n)])


def test_k2_all_variants():
    # suppression keeps a loop vertex alive in every one-vertex torso,
    # so the zero variant sees width 2 on a single edge
    g = k2()
    assert exact_width(g, "tcw")[0] == 1
    assert exact_width(g, "stcw")[0] == 1
    assert exact_width(g, "tcw0")[0] == 2


def test_small_fixed_values():
    assert cached_width(path(3), "tcw")[0] == 1
    assert cached_width(path(3), "stcw")[0] == 1
    assert cached_width(cycle(3), "tcw")[0] == 2
    assert cached_width(cycle(4), "tcw")[0] == 2
    # consolidated degree-2 vertices survive 2-centers, so slim is larger
    assert cached_width(cycle(4), "stcw")[0] == 3


def test_star_separates_variants():
    g = star(4)
    assert cached_width(g, "stcw")[0] == 1
    assert cached_width(g, "tcw0")[0] == 3


def test_windmill_values():
    g = windmill(2)
    assert cached_width(g, "tcw")[0] == 2
    assert cached_width(g, "stcw")[0] >= 2


def test_returned_decomposition_certifies_value():
    for g in (path(4), cycle(4), star(3), windmill(2)):
        for variant in ("tcw", "stcw", "tcw0"):
            val, d = exact_width(g, variant)
            assert validate(d, g) == []
            rep = width_report(d, g)
            got = {"tcw": rep.width, "stcw": rep.slim_width, "tcw0": rep.zero_width}
            assert got[variant] == val


def test_empty_and_edgeless():
    assert exact_width(MultiGraph(), "tcw")[0] == 0
    # a nonempty bag exists in any near-partition, so width is 1 not 0
    val, d = exact_width(MultiGraph(range(3)), "stcw")
    assert val == 1
    assert validate(d, MultiGraph(range(3))) == []


def test_disconnected_graph():
    g = MultiGraph(range(4), [(0, 1), (2, 3)])
    assert exact_width(g, "tcw")[0] == 1


def test_loops_and_parallels():
    g = MultiGraph(range(2), [(0, 1), (0, 1)])
    assert exact_width(g, "tcw")[0] == 2
    h = MultiGraph([0])
    h.add_edge(0, 0)
    val, d = exact_width(h, "tcw")
    assert val == 1
    assert validate(d, h) == []


def needs_an_empty_bag():
    # decompositions without empty bags reach only 4 for stcw and tcw0
    # here; the optimum 3 hangs three paths of two bags off an empty root
    g = MultiGraph(range(6), [(0, 4)] * 3 + [(1, 2)] * 2 + [(3, 5)] * 2)
    for u, v in [(1, 3), (2, 3), (2, 4), (3, 4), (4, 4), (5, 5)]:
        g.add_edge(u, v)
    return g


def test_optimum_needing_an_empty_bag():
    g = needs_an_empty_bag()
    for var, field in (("stcw", "slim_width"), ("tcw0", "zero_width")):
        val, d = exact_width(g, var)
        assert val == 3
        assert validate(d, g) == [] and d.bags[d.root] == set()
        assert getattr(width_report(d, g), field) == 3


def test_size_limit():
    g = path(7)
    with pytest.raises(SizeLimitError):
        exact_width(g, "tcw")
    assert exact_width(g, "tcw", max_vertices=7)[0] == 1


def test_bad_variant():
    with pytest.raises(ValueError):
        exact_width(k2(), "width")


def test_deterministic():
    g = cycle(4)
    v1, d1 = exact_width(g, "stcw")
    v2, d2 = exact_width(g, "stcw")
    assert v1 == v2
    assert d1.parent == d2.parent
    assert d1.bags == d2.bags


def test_exact_treewidth_values():
    assert exact_treewidth(path(5)) == 1
    assert exact_treewidth(cycle(4)) == 2
    k4 = MultiGraph(range(4), [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert exact_treewidth(k4) == 3
    assert exact_treewidth(MultiGraph(range(2))) == 0
    with pytest.raises(SizeLimitError):
        exact_treewidth(path(20))


def test_exact_treewidth_ignores_multiedges():
    g = MultiGraph(range(3), [(0, 1), (1, 2), (0, 2), (0, 1)])
    g.add_edge(2, 2)
    assert exact_treewidth(g) == 2


# recorded from the frozenset search that the bit-mask search replaced
GOLDEN_DIGEST = "34495ee97b343ef72f59017846111f15047e9c21f0cca7c2780e164790943c12"


def golden_calls():
    """A fixed list of (graph, variant, keyword arguments) oracle calls."""
    calls = []
    for g in connected_graphs_upto(5):
        calls += [(g, var, {}) for var in VARIANTS]
    rng = random.Random(2206)
    loopy = [random_connected_multi(rng, n, n, loops=True) for n in (2, 3, 4, 5, 5)]
    one = MultiGraph([0])
    one.add_edge(0, 0)
    loopy.append(one)
    for g in loopy:
        calls += [(g, var, {}) for var in VARIANTS]
    # twice: the digest was recorded when these calls ran at empty-bag
    # budgets 0 and 3, a setting the search no longer has
    for _ in range(2):
        calls += [(cycle(5), var, {}) for var in VARIANTS]
        calls.append((star(4), "tcw", {}))
    calls.append((cycle(7), "stcw", {"max_vertices": 7}))
    return calls


def golden_digest() -> str:
    h = hashlib.sha256()
    for g, var, kw in golden_calls():
        value, d = exact_width(g, var, **kw)
        h.update(f"{var} {value}\n{decomposition_to_json(d)}\n".encode())
    return h.hexdigest()


def test_first_optimum_golden():
    # the first optimum depends on the enumeration order of bags and
    # parts; any drift in that order changes this digest
    assert golden_digest() == GOLDEN_DIGEST


# recorded with the empty-bag budget set to n - 1, its exhaustive value,
# before the search lost that setting
EXHAUSTIVE_DIGEST = "a6c280c759577499182c6de08372b54793117352e010e53a048fea0f8ca8c1ab"


def exhaustive_corpus() -> list[MultiGraph]:
    """100 seeded 4-7-vertex multigraphs with uniform random edge ends,
    so loops, parallel edges and disconnected graphs all occur."""
    rng = random.Random(20261018)
    out = []
    for _ in range(100):
        n = rng.randint(4, 7)
        g = MultiGraph(range(n))
        for _ in range(rng.randint(n, 2 * n + 2)):
            g.add_edge(rng.randrange(n), rng.randrange(n))
        out.append(g)
    return out


def test_exhaustive_corpus_golden():
    graphs = exhaustive_corpus()
    assert sum(not g.is_connected() for g in graphs) >= 20
    assert sum(any(u == v for u, v, _ in g.edge_pairs()) for g in graphs) >= 20
    assert sum(any(m > 1 for _, _, m in g.edge_pairs()) for g in graphs) >= 20
    h = hashlib.sha256()
    for g in graphs:
        for var in VARIANTS:
            value, d = exact_width(g, var, max_vertices=7)
            h.update(f"{var} {value}\n{decomposition_to_json(d)}\n".encode())
    assert h.hexdigest() == EXHAUSTIVE_DIGEST


# recorded before the search tried the empty bag last and started at its
# edge-connectivity floor
LARGE_GRAPH_DIGEST = "732ef1b4ac1d7ea5a21365efa06c0da4e9f51969c30ea72864daebc17e1f1bfe"


def test_first_optimum_golden_past_the_shared_tables():
    # searches of 10 or more vertices build their own bag and pieces
    # lists, outside _BAGS and _PIECES; the reach table's 10-12 vertex
    # graphs pin their first optima
    path = Path(__file__).resolve().parent.parent / "scripts" / "oracle_reach_table.py"
    spec = importlib.util.spec_from_file_location("script_oracle_reach_table", path)
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    h = hashlib.sha256()
    for n in (10, 11, 12):
        g = reach.random_multigraph(n, n)
        for var in VARIANTS:
            value, d = exact_width(g, var, max_vertices=12)
            h.update(f"{var} {value}\n{decomposition_to_json(d)}\n".encode())
    assert h.hexdigest() == LARGE_GRAPH_DIGEST


def range_scan_pieces(remaining):
    """_pieces by its definition: every subset of remaining holding its
    lowest bit, found by scanning all integers up to the other bits."""
    pivot = remaining & -remaining
    others = remaining ^ pivot
    return [pivot | s for s in range(others + 1) if s & others == s]


def test_pieces_match_range_scan_up_to_9_bits():
    search = _Search(MultiGraph(), 3)
    for mask in range(1, 1 << 9):
        assert search._pieces(mask) == range_scan_pieces(mask)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, (1 << 14) - 1))
@example((1 << 14) - 1)
@example(1 << 13)
def test_pieces_match_range_scan_up_to_14_bits(mask):
    assert _Search(MultiGraph(), 3)._pieces(mask) == range_scan_pieces(mask)


def pair_sum_cut_table(g):
    """_cut_table by its definition: per subset, the copies of every
    non-loop pair with exactly one end inside."""
    bit = {v: 1 << i for i, v in enumerate(g.sorted_vertices())}
    pairs = [(bit[u], bit[v], m) for u, v, m in g.edge_pairs() if u != v]
    return [
        sum(m for a, b, m in pairs if bool(s & a) != bool(s & b))
        for s in range(1 << len(bit))
    ]


@st.composite
def labelled_multigraphs(draw, max_vertices=8):
    """Up to max_vertices vertices with gappy labels; uniform edge ends
    give loops, parallel edges, isolated vertices and several
    components."""
    labels = draw(st.lists(st.integers(0, 40), min_size=1, max_size=max_vertices,
                           unique=True))
    ends = st.sampled_from(labels)
    return MultiGraph(labels, draw(st.lists(st.tuples(ends, ends), max_size=16)))


@settings(max_examples=200, deadline=None)
@given(labelled_multigraphs())
def test_cut_table_matches_pair_sum(g):
    assert _cut_table(g) == pair_sum_cut_table(g)


def test_cut_table_fixed_features():
    # parallel pair 3-7, loops on 7 and 12, component 10-12, isolated 20
    g = MultiGraph([3, 7, 10, 12, 20], [(3, 7), (3, 7), (7, 7), (10, 12), (12, 12)])
    cut = _cut_table(g)
    assert cut == pair_sum_cut_table(g)
    assert (cut[0b1], cut[0b10], cut[0b11], cut[0b100], cut[0b10000]) == (2, 2, 0, 1, 0)
    assert _cut_table(MultiGraph()) == [0]


def set_partitions(mask):
    """Every partition of mask's bits, by restricted growth strings; parts
    come in the order of their lowest bits."""
    bits = [1 << i for i in range(mask.bit_length()) if mask >> i & 1]
    out = []

    def grow(i, blocks):
        if i == len(bits):
            out.append(tuple(blocks))
            return
        for j in range(len(blocks)):
            blocks[j] |= bits[i]
            grow(i + 1, blocks)
            blocks[j] ^= bits[i]
        blocks.append(bits[i])
        grow(i + 1, blocks)
        blocks.pop()

    grow(0, [])
    return out


def test_stored_partitions_match_brute_force():
    # every list kept by a run holds exactly the set partitions of its
    # remainder whose parts fit the bound and have finite cost, in
    # lexicographic order of the parts, each scored by the count of its
    # parts whose cut reaches the level plus the flag per part of cut 1
    # below a level of 2 or 3
    graphs = [needs_an_empty_bag()] + exhaustive_corpus()[:10]
    empty_bag_choices = flagged = 0
    for g in graphs:
        for var in VARIANTS:
            level = VARIANT_LEVEL[var]
            value = exact_width(g, var, max_vertices=7)[0]
            search = _Search(g, level)
            assert search.flag == g.num_vertices() + 1

            def score(p):
                cut = search.cut[p]
                return (cut >= level) + (search.flag if level > 1 and cut == 1 else 0)

            for w in range(1, value + 1):
                assert (search.run(w) is None) == (w < value)
                assert search.parts_of and not search.active
                for rest, got in search.parts_of.items():
                    want = sorted(
                        (parts, sum(search.memo[p] for p in parts))
                        for parts in set_partitions(rest)
                        if all(search.cut[p] <= w and search.memo.get(p, INF) < INF
                               for p in parts)
                    )
                    assert [(parts, cost) for parts, cost, _ in got] == want, (var, w, rest)
                    for parts, _, s in got:
                        assert s == sum(score(p) for p in parts), (var, w, parts)
                        flagged += s >= search.flag
                empty_bag_choices += sum(x == 0 for x, _ in search.choice.values())
    assert empty_bag_choices > 0 and flagged > 0


@settings(max_examples=80, deadline=None)
@given(labelled_multigraphs(max_vertices=7))
@example(needs_an_empty_bag())
@example(path(4))  # at stcw, w = 2 needs the outside group's flag
def test_search_matches_reference_search(g):
    # deciding torsos from the partition scores, and trying the empty bag
    # last, gives every feasibility value and every first choice that
    # _torso_ok on each candidate in bag order gives; the search evaluates
    # only some of the reference's subsets, so it holds a part of each map
    for var in VARIANTS:
        search = _Search(g, VARIANT_LEVEL[var])
        reference = ReferenceSearch(g, VARIANT_LEVEL[var])
        for w in range(1, g.num_vertices() + 1):
            got, want = search.run(w), reference.run(w)
            assert (got is None) == (want is None)
            if got is not None:
                assert (got.parent, got.bags) == (want.parent, want.bags), (var, w)
            assert search.memo.items() <= reference.memo.items(), (var, w)
            assert search.choice.items() <= reference.choice.items(), (var, w)


def floor_of(g, var):
    return _Search(g, VARIANT_LEVEL[var]).floor()


@settings(max_examples=80, deadline=None)
@given(labelled_multigraphs(max_vertices=7))
@example(needs_an_empty_bag())
def test_floor_is_a_lower_bound(g):
    # no bound below the floor has a decomposition, so exact_width, which
    # starts there, loses nothing
    for var in VARIANTS:
        search = _Search(g, VARIANT_LEVEL[var])
        floor = search.floor()
        assert 1 <= floor <= exact_width(g, var, max_vertices=7)[0]
        assert all(search.run(w) is None for w in range(1, floor)), var


def complete(n):
    return MultiGraph(range(n), list(combinations(range(n), 2)))


def test_floor_fixed_cases():
    # K_n: below n - 1 no set splits the one class V; at n - 1 single
    # vertices split off, and a torso needs at least one group beside them
    for n in range(4, 8):
        for var in VARIANTS:
            assert floor_of(complete(n), var) == n - 1
        assert exact_width(complete(n), "tcw", max_vertices=7)[0] == n
    # a tree: every edge is a cut of 1, so each class is one vertex
    tree = MultiGraph(range(6), [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
    for var in ("tcw", "stcw"):
        assert floor_of(tree, var) == exact_width(tree, var)[0] == 1
    # two vertices joined by 5 copies: no cut below 5 splits them
    fat = MultiGraph(range(2), [(0, 1)] * 5)
    for var in VARIANTS:
        assert floor_of(fat, var) == exact_width(fat, var)[0] == 2
    # two triangles: each component is a class at bound 1, and at bound 2
    # every vertex is; cuts of 0 leave no torso group safe from the peel
    two = MultiGraph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    for var in VARIANTS:
        assert floor_of(two, var) == 2 <= exact_width(two, var)[0]
    # K4 less the pair 2-3 at stcw: the classes at bound 2 are {0, 1},
    # {2} and {3}, and every proper set has cut >= 2, so the torso holding
    # {0, 1} keeps a group too, and the floor is 3, not 2
    kite = MultiGraph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert floor_of(kite, "stcw") == exact_width(kite, "stcw")[0] == 3
    assert _Search(kite, VARIANT_LEVEL["stcw"]).run(2) is None
    assert floor_of(kite, "tcw") == 2  # cut 2 < level 3: no group is safe


def test_shared_bag_lists_serve_smaller_bounds(monkeypatch):
    # a search at a larger bound leaves bags above a later search's bound
    # in the shared lists; the later search stops at its bound and returns
    # what it returns on an empty table
    small = [needs_an_empty_bag(), cycle(6), star(5)]  # six vertices each
    monkeypatch.setattr(oracle, "_BAGS", {})
    want = [exact_width(g, var) for g in small for var in VARIANTS]
    monkeypatch.setattr(oracle, "_BAGS", {})
    k6 = MultiGraph(range(6), [(a, b) for a in range(6) for b in range(a + 1, 6)])
    assert exact_width(k6, "tcw")[0] == 6
    assert max(b.bit_count() for b in oracle._BAGS[0b111111][1]) == 6
    got = [exact_width(g, var) for g in small for var in VARIANTS]
    assert [v for v, _ in got] == [v for v, _ in want]
    assert max(v for v, _ in got) < 6
    assert [decomposition_to_json(d) for _, d in got] == [
        decomposition_to_json(d) for _, d in want]


def test_bag_table_is_shared_only_by_small_graphs():
    # a 10-vertex search keeps its bag lists to itself, so the module
    # table only ever holds masks of at most 9 vertices
    exact_width(cycle(10), "tcw", max_vertices=10)
    assert all(y < 1 << 9 for y in oracle._BAGS)


def test_piece_table_is_shared_only_by_small_graphs(monkeypatch):
    # a 10-vertex search keeps its pieces lists to itself, and a direct
    # call for a mask wider than the searched graph stores nothing, so the
    # module table only ever holds masks of at most 9 vertices
    monkeypatch.setattr(oracle, "_PIECES", {})
    exact_width(cycle(10), "tcw", max_vertices=10)
    wide = (1 << 14) - 1
    assert _Search(MultiGraph(), 3)._pieces(wide) == range_scan_pieces(wide)
    assert not oracle._PIECES
    exact_width(cycle(9), "tcw", max_vertices=9)
    assert oracle._PIECES and all(y < 1 << 9 for y in oracle._PIECES)


def test_shared_tables_keep_first_optima(monkeypatch):
    # the first optima do not depend on what earlier searches left in the
    # shared bag and pieces tables
    small = [needs_an_empty_bag(), cycle(6), star(5), path(7)]

    def optima():
        return [decomposition_to_json(d) for g in small for var in VARIANTS
                for d in [exact_width(g, var, max_vertices=7)[1]]]

    monkeypatch.setattr(oracle, "_BAGS", {})
    monkeypatch.setattr(oracle, "_PIECES", {})
    want = optima()
    monkeypatch.setattr(oracle, "_BAGS", {})
    monkeypatch.setattr(oracle, "_PIECES", {})
    k6 = MultiGraph(range(6), [(a, b) for a in range(6) for b in range(a + 1, 6)])
    for var in VARIANTS:
        exact_width(k6, var)
        exact_width(cycle(9), var, max_vertices=9)
    assert (1 << 9) - 1 in oracle._BAGS and (1 << 9) - 1 in oracle._PIECES
    assert optima() == want


def kernel_and_reference(g, bag, groups, level):
    bit = {v: 1 << i for i, v in enumerate(g.sorted_vertices())}
    masks = [sum(bit[v] for v in grp) for grp in groups]
    got = _center_size(_cut_table(g), len(bag), masks, level)
    want = center(consolidate(g, bag, groups), bag, level).num_vertices()
    return got, want


@st.composite
def torsos(draw):
    n = draw(st.integers(1, 7))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    g = MultiGraph(range(n), draw(st.lists(pairs, max_size=14)))
    # label -1 puts a vertex in the bag; other labels name its group
    labels = draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n))
    bag = {v for v in range(n) if labels[v] < 0}
    groups = [
        {v for v in range(n) if labels[v] == lab}
        for lab in dict.fromkeys(lab for lab in labels if lab >= 0)
    ]
    return g, bag, groups


@settings(max_examples=300, deadline=None)
@given(torsos())
def test_center_size_kernel_matches_reference(case):
    g, bag, groups = case
    for level in (1, 2, 3):
        got, want = kernel_and_reference(g, bag, groups, level)
        assert got == want, (sorted(g.edges()), bag, groups, level)


@st.composite
def wide_torsos(draw):
    """torsos() at the group counts of benchmark-scale star roots: 8-16
    vertices, most of them a group of their own, the groups in any
    order."""
    n = draw(st.integers(8, 16))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    g = MultiGraph(range(n), draw(st.lists(pairs, max_size=3 * n)))
    # -1 puts a vertex in the bag, 0 and 1 name two shared groups, and 2
    # gives the vertex a group of its own
    kinds = draw(st.lists(st.sampled_from([-1, 0, 1] + [2] * 7), min_size=n, max_size=n))
    bag = {v for v in range(n) if kinds[v] < 0}
    groups = [{v for v in range(n) if kinds[v] == lab} for lab in (0, 1)]
    groups = [grp for grp in groups if grp] + [{v} for v in range(n) if kinds[v] == 2]
    return g, bag, draw(st.permutations(groups))


@settings(max_examples=100, deadline=None)
@given(wide_torsos())
def test_center_size_kernel_matches_reference_with_many_groups(case):
    g, bag, groups = case
    cut = _cut_table(g)
    masks = [sum(1 << v for v in grp) for grp in groups]
    h = consolidate(g, bag, groups)
    want = {level: center(h, bag, level).num_vertices() for level in (1, 2, 3)}
    for level in (1, 2, 3):
        got = _center_size(cut, len(bag), masks, level)
        assert got == want[level], (sorted(g.edges()), bag, groups, level)
    # the tree pass's use: tables read off the torso, peeled at level 2
    # and then further at level 3
    zs = h.meta["part_vertex"]
    deg = [h.degree(z) for z in zs]
    rows = [{j: h.multiplicity(z, y) for j, y in enumerate(zs) if y != z and h.has_edge(z, y)}
            for z in zs]
    for level in (2, 3):
        assert _center_kernel(len(bag), deg, rows, level) == want[level], level


def test_finished_search_is_freed_without_the_cycle_collector(monkeypatch):
    # a search holds its cut table, memo and partition lists; once
    # exact_width returns, no reference cycle may keep it alive
    made = []

    class Watched(_Search):
        def __init__(self, g, level):
            super().__init__(g, level)
            made.append(weakref.ref(self))

    monkeypatch.setattr(oracle, "_Search", Watched)
    gc.disable()
    try:
        for var in VARIANTS:
            exact_width(cycle(5), var)
        assert made and all(ref() is None for ref in made)
    finally:
        gc.enable()


def test_center_size_with_nothing_or_one_group_to_remove():
    # no groups: the center is the bag
    for level in (1, 2, 3):
        assert kernel_and_reference(cycle(4), set(range(4)), [], level) == (4, 4)
    # every group at degree >= level: nothing is removed
    k4 = MultiGraph(range(4), [(a, b) for a in range(4) for b in range(a + 1, 4)])
    for level in (2, 3):
        assert kernel_and_reference(k4, {0}, [{1}, {2}, {3}], level) == (4, 4)
        assert kernel_and_reference(k4, {0}, [{1, 2}, {3}], level) == (3, 3)
    assert kernel_and_reference(cycle(4), {0}, [{1}, {2}, {3}], 2) == (4, 4)
    # one group at degree level - 1: the kernel removes it
    g = k4.copy()
    g.add_edge(4, 1)
    g.add_edge(4, 2)
    assert kernel_and_reference(g, {0}, [{1}, {2}, {3}, {4}], 3) == (4, 4)
    assert kernel_and_reference(path(3), {0}, [{1}, {2}], 2) == (1, 1)
    assert kernel_and_reference(MultiGraph(range(3), [(0, 1)]), {0}, [{1}, {2}], 1) == (2, 2)


def test_center_size_kernel_folds_parallel_pair_into_loop():
    # group {2} hangs off group {1} by a parallel pair; suppressing it
    # leaves a loop on {1}, whose degree stays 3, so {1} survives level 3
    g = MultiGraph(range(3), [(1, 2), (1, 2), (0, 1)])
    for groups in ([{2}, {1}], [{1}, {2}]):
        assert kernel_and_reference(g, {0}, groups, 3) == (2, 2)
        assert kernel_and_reference(g, {0}, groups, 2) == (3, 3)
