import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from treecuts.multigraph import (
    DeleteEdge,
    DeleteVertex,
    Lift,
    MultiGraph,
    _norm,
    apply_immersion,
    edge_sum,
    max_degree,
)

from conftest import random_connected_multi


def small_multigraphs():
    """Hypothesis strategy: arbitrary multigraphs on up to 6 vertices."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=6))
        g = MultiGraph(range(n))
        if n:
            edges = draw(
                st.lists(
                    st.tuples(
                        st.integers(0, n - 1), st.integers(0, n - 1)
                    ),
                    max_size=12,
                )
            )
            for u, v in edges:
                g.add_edge(u, v)
        return g

    return build()


def test_degree_counts_multiplicity_and_loops():
    g = MultiGraph(range(3), [(0, 1), (0, 1), (1, 2)])
    g.add_edge(2, 2)
    assert g.degree(0) == 2
    assert g.degree(1) == 3
    # loop contributes 2
    assert g.degree(2) == 3
    assert g.num_edges() == 4
    assert g.multiplicity(0, 1) == 2
    assert g.loops(2) == 1


def test_edges_iterates_per_copy():
    g = MultiGraph(range(2), [(0, 1), (0, 1)])
    g.add_edge(1, 1)
    assert sorted(g.edges()) == [(0, 1), (0, 1), (1, 1)]
    assert sorted(g.edge_pairs()) == [(0, 1, 2), (1, 1, 1)]


def test_remove_edge_and_vertex():
    g = MultiGraph(range(3), [(0, 1), (0, 1), (1, 2)])
    g.remove_edge(0, 1)
    assert g.multiplicity(0, 1) == 1
    g.remove_vertex(1)
    assert g.vertices() == {0, 2}
    assert g.num_edges() == 0
    with pytest.raises(ValueError):
        g.remove_edge(0, 2)


def test_remove_edge_rejects_counts_below_one():
    g = MultiGraph(range(3), [(0, 1)])
    with pytest.raises(ValueError):
        g.remove_edge(0, 1, -2)
    with pytest.raises(ValueError):
        g.remove_edge(1, 2, 0)
    assert list(g.edge_pairs()) == [(0, 1, 1)]
    assert g.num_edges() == 1


def test_cut_size_and_neighborhood():
    g = MultiGraph(range(4), [(0, 1), (0, 1), (1, 2), (2, 3)])
    assert g.cut_size({0}) == 2
    assert g.cut_size({0, 1}) == 1
    assert g.neighborhood({0, 1}) == {2}
    # loops never cross a cut
    g.add_edge(1, 1)
    assert g.cut_size({0, 1}) == 1


def test_induced_keeps_multiplicities_and_loops():
    g = MultiGraph(range(4), [(0, 1), (0, 1), (1, 2), (2, 3)])
    g.add_edge(1, 1)
    h = g.induced({0, 1})
    assert h.vertices() == {0, 1}
    assert h.multiplicity(0, 1) == 2
    assert h.loops(1) == 1
    assert h.num_edges() == 3


def test_components_and_connectivity():
    g = MultiGraph(range(5), [(0, 1), (2, 3)])
    comps = g.components()
    assert sorted(map(sorted, comps)) == [[0, 1], [2, 3], [4]]
    assert not g.is_connected()
    assert MultiGraph([0]).is_connected()
    assert MultiGraph().is_connected()


def test_copy_is_independent():
    g = MultiGraph(range(2), [(0, 1)])
    h = g.copy()
    h.add_edge(0, 1)
    assert g.multiplicity(0, 1) == 1
    assert h.multiplicity(0, 1) == 2


def test_delete_edge_op():
    g = MultiGraph(range(3), [(0, 1), (0, 1), (1, 2)])
    h = apply_immersion(g, DeleteEdge(0, 1))
    assert h.multiplicity(0, 1) == 1
    assert g.multiplicity(0, 1) == 2
    with pytest.raises(ValueError):
        apply_immersion(h, DeleteEdge(0, 2))


def test_delete_vertex_op_strict_mode():
    g = MultiGraph(range(3), [(0, 1)])
    h = apply_immersion(g, DeleteVertex(1))
    assert h.vertices() == {0, 2}
    with pytest.raises(ValueError):
        apply_immersion(g, DeleteVertex(1, strict=True))
    assert apply_immersion(g, DeleteVertex(2, strict=True)).vertices() == {0, 1}


def test_lift_consumes_both_edges():
    g = MultiGraph(range(3), [(0, 1), (1, 2)])
    h = apply_immersion(g, Lift(0, 1, 2))
    assert h.has_edge(0, 2)
    assert not h.has_edge(0, 1) and not h.has_edge(1, 2)


def test_lift_default_skips_existing_edge():
    g = MultiGraph(range(3), [(0, 1), (1, 2), (0, 2)])
    h = apply_immersion(g, Lift(0, 1, 2))
    assert h.multiplicity(0, 2) == 1
    hp = apply_immersion(g, Lift(0, 1, 2, parallel=True))
    assert hp.multiplicity(0, 2) == 2


def test_lift_validation():
    g = MultiGraph(range(3), [(0, 1)])
    with pytest.raises(ValueError):
        apply_immersion(g, Lift(0, 1, 2))
    with pytest.raises(ValueError):
        apply_immersion(g, Lift(0, 1, 0))


def test_edge_sum_triangle_pair():
    # two triangles glued along degree-2 vertices
    t1 = MultiGraph(range(3), [(0, 1), (1, 2), (0, 2)])
    t2 = MultiGraph(range(3), [(0, 1), (1, 2), (0, 2)])
    s = edge_sum(t1, 0, t2, 0, [(1, 1), (2, 2)])
    assert s.num_vertices() == 4
    assert s.num_edges() == 4
    assert s.is_connected()
    # both attachment vertices are gone
    off = s.meta["offset"]
    assert not s.has_vertex(0) and not s.has_vertex(off)


def test_edge_sum_validation():
    t1 = MultiGraph(range(3), [(0, 1), (1, 2), (0, 2)])
    p = MultiGraph(range(2), [(0, 1)])
    with pytest.raises(ValueError):
        edge_sum(t1, 0, p, 0, [(1, 1)])  # degree mismatch
    with pytest.raises(ValueError):
        edge_sum(t1, 0, t1, 0, [(1, 1), (1, 2)])  # pi slots wrong


@given(small_multigraphs())
def test_degree_sum_is_twice_edges(g):
    assert sum(g.degree(v) for v in g.vertices()) == 2 * g.num_edges()


@given(small_multigraphs())
def test_cut_plus_induced_edges_partition(g):
    vs = sorted(g.vertices())
    part = set(vs[: len(vs) // 2])
    rest = set(vs) - part
    inside = g.induced(part).num_edges() + g.induced(rest).num_edges()
    assert inside + g.cut_size(part) == g.num_edges()


@given(st.integers(0, 10_000))
def test_random_connected_multi_is_connected(seed):
    rng = random.Random(seed)
    g = random_connected_multi(rng, rng.randint(1, 7), rng.randint(0, 5))
    assert g.is_connected()


def test_max_degree():
    assert max_degree(MultiGraph()) == 0
    g = MultiGraph(range(2), [(0, 1), (0, 1)])
    g.add_edge(0, 0)
    assert max_degree(g) == 4


def _rebuilt(verts, counts) -> MultiGraph:
    """The graph of a model (vertex set, copies per (min, max) pair),
    built one add_edge at a time."""
    g = MultiGraph(sorted(verts))
    for (u, v), m in sorted(counts.items()):
        for _ in range(m):
            g.add_edge(u, v)
    return g


def _assert_same(g: MultiGraph, ref: MultiGraph) -> None:
    assert list(g.edge_pairs()) == list(ref.edge_pairs())
    assert list(g.edges()) == list(ref.edges())
    assert g.num_edges() == ref.num_edges()
    assert g == ref
    vs = ref.sorted_vertices()
    assert g.sorted_vertices() == vs
    assert [g.degree(v) for v in vs] == [ref.degree(v) for v in vs]
    assert all(g.multiplicity(u, v) == ref.multiplicity(u, v) for u in vs for v in vs)
    assert sorted(map(sorted, g.components())) == sorted(map(sorted, ref.components()))


GRAPH_OPS = st.tuples(
    st.sampled_from(
        ["add_vertex", "add_edge", "remove_edge", "remove_vertex",
         "delete_edge", "delete_vertex", "lift", "edge_sum"]
    ),
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(-2, 3),
    st.booleans(),
    st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=10),
    st.lists(GRAPH_OPS, max_size=25),
    st.integers(0, 63),
)
def test_cached_pairs_and_bulk_paths_match_rebuilt_graphs(start, ops, mask):
    """Every step is checked against a plain model and the graph rebuilt
    from it with add_edge; invalid steps must raise and change nothing."""
    g = MultiGraph(range(4), start)
    verts, counts = set(range(4)), Counter(_norm(u, v) for u, v in start)
    for kind, a, b, c, k, flag, aim in ops:
        pairs = sorted(+counts)
        if aim and pairs:
            # point a, b at an existing edge and c at a neighbour of b
            a, b = pairs[a % len(pairs)]
            ends = [u + v - b for u, v in pairs if b in (u, v) and u != v]
            c = ends[c % len(ends)] if ends else c
        ab = _norm(a, b)
        before = list(g.edge_pairs())
        started = g.edge_pairs()
        next(started, None)
        untouched = g.copy()
        if kind == "add_vertex":
            ok, run = True, lambda: g.add_vertex(a)
            verts.add(a)
        elif kind == "add_edge":
            ok, run = k >= 1, lambda: g.add_edge(a, b, k)
            if ok:
                verts |= {a, b}
                counts[ab] += k
        elif kind == "remove_edge":
            ok, run = 1 <= k <= counts[ab], lambda: g.remove_edge(a, b, k)
            if ok:
                counts[ab] -= k
        elif kind in ("remove_vertex", "delete_vertex"):
            strict = kind == "delete_vertex" and flag
            degree = sum(m * ((a == u) + (a == v)) for (u, v), m in counts.items())
            ok = a in verts and not (strict and degree)
            if kind == "remove_vertex":
                run = lambda: g.remove_vertex(a)
            else:
                run = lambda: apply_immersion(g, DeleteVertex(a, strict))
            if ok:
                verts.discard(a)
                counts = Counter({p: m for p, m in counts.items() if a not in p})
        elif kind == "delete_edge":
            ok, run = counts[ab] > 0, lambda: apply_immersion(g, DeleteEdge(a, b))
            if ok:
                counts[ab] -= 1
        elif kind == "lift":
            bc, ac = _norm(b, c), _norm(a, c)
            ok = len({a, b, c}) == 3 and counts[ab] > 0 and counts[bc] > 0
            run = lambda: apply_immersion(g, Lift(a, b, c, flag))
            if ok:
                counts[ab] -= 1
                counts[bc] -= 1
                if flag or not counts[ac]:
                    counts[ac] += 1
        else:
            # the k-edge sum of g with itself at a, each slot paired with its twin
            if len(verts) > 8:
                continue
            # one slot per edge copy at a, named by its other end
            slots = sorted(
                u + v - a
                for (u, v), m in counts.items()
                if a in (u, v) and u != v
                for _ in range(m)
            )
            ok = a in verts and not counts[(a, a)]
            run = lambda: edge_sum(g, a, g, a, [(w, w) for w in slots])
            if ok:
                off = max(verts) + 1
                rest = Counter({p: m for p, m in counts.items() if a not in p})
                counts = rest + Counter({(u + off, v + off): m for (u, v), m in rest.items()})
                counts.update((w, w + off) for w in slots)
                verts = (verts - {a}) | {v + off for v in verts - {a}}
        if ok:
            g = run() or g
        else:
            with pytest.raises(ValueError):
                run()
        counts = +counts
        # a started iteration and an earlier copy keep the old snapshot
        assert before[:1] + list(started) == before
        assert list(untouched.edge_pairs()) == before
        ref = _rebuilt(verts, counts)
        assert list(ref.edge_pairs()) == sorted((u, v, m) for (u, v), m in counts.items())
        _assert_same(g, ref)
        _assert_same(g.copy(), ref)
        keep = {v for v in verts if mask >> (v % 6) & 1}
        inside = {p: m for p, m in counts.items() if set(p) <= keep}
        _assert_same(g.induced(keep), _rebuilt(keep, inside))
        # mutating a copy leaves the source alone
        h = g.copy()
        h.add_edge(a, b)
        if h.has_vertex(c):
            h.remove_vertex(c)
        _assert_same(g, ref)
