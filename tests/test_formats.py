import contextlib
import io
import json
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecuts import cli
from treecuts.decomposition import TreeCutDecomposition
from treecuts.ecw import SpanningWitness, validate_witness
from treecuts.formats import (
    MAX_EDGE_LIST_VERTICES,
    decomposition_to_dot,
    decomposition_to_json,
    graph_to_dot,
    load_artifact,
    load_graph,
    parse_decomposition_json,
    parse_edge_list,
    parse_witness_json,
    witness_to_dot,
    witness_to_json,
    write_edge_list,
)
from treecuts.multigraph import MultiGraph, _norm
from treecuts.oracle import SizeLimitError

from conftest import graph_key, random_connected_multi


SAMPLE = """# ring with a chord and a doubled edge
4 6
0 1
1 2
2 3
0 3
0 2
0 2
"""


def test_parse_edge_list_basics():
    g = parse_edge_list(SAMPLE)
    assert g.num_vertices() == 4
    assert g.num_edges() == 6
    assert g.multiplicity(0, 2) == 2


def test_edge_list_round_trip():
    g = parse_edge_list(SAMPLE)
    text = write_edge_list(g)
    assert graph_key(parse_edge_list(text)) == graph_key(g)
    # canonical writer is a fixed point
    assert write_edge_list(parse_edge_list(text)) == text


def test_parse_edge_list_rejects():
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(ValueError):
        parse_edge_list("2\n0 1\n")
    with pytest.raises(ValueError):
        parse_edge_list("2 2\n0 1\n")
    with pytest.raises(ValueError):
        parse_edge_list("2 1\n0 5\n")
    with pytest.raises(ValueError):
        parse_edge_list("2 1\n0 x\n")
    with pytest.raises(ValueError, match="^line 1: negative counts in header$"):
        parse_edge_list("-1 0\n")
    with pytest.raises(ValueError, match="^line 2: expected 'u v'$"):
        parse_edge_list("2 1\n0 1 1\n")


def test_parse_edge_list_caps_header_size():
    # rejected from the header alone; allocating first would not return
    for n in (MAX_EDGE_LIST_VERTICES + 1, 10**10):
        with pytest.raises(SizeLimitError):
            parse_edge_list(f"{n} 0\n")


def test_decomposition_json_round_trip():
    d = TreeCutDecomposition(
        0, {0: None, 1: 0, 2: 0, 3: 1}, {0: {0}, 1: {1, 2}, 2: set(), 3: {3}}
    )
    text = decomposition_to_json(d)
    back = parse_decomposition_json(text)
    assert back.root == d.root
    assert back.parent == d.parent
    assert back.bags == d.bags
    # emitted artifact re-parses byte for byte
    assert decomposition_to_json(back) == text


def test_decomposition_json_rejects():
    with pytest.raises(ValueError):
        parse_decomposition_json("not json")
    with pytest.raises(ValueError):
        parse_decomposition_json('{"nodes": []}')
    with pytest.raises(ValueError):
        parse_decomposition_json(
            '{"root": 0, "nodes": [{"id": 0, "parent": null, "bag": ["a"]}]}'
        )
    with pytest.raises(ValueError):
        parse_decomposition_json(
            '{"root": 0, "nodes": [{"id": 0, "parent": null, "bag": []},'
            ' {"id": 0, "parent": 0, "bag": []}]}'
        )
    # negative node, parent and root ids
    for text in (
        '{"root": -1, "nodes": [{"id": -1, "parent": null, "bag": [0]}]}',
        '{"root": 0, "nodes": [{"id": 0, "parent": -1, "bag": [0]}]}',
        '{"root": -1, "nodes": [{"id": 0, "parent": null, "bag": [0]}]}',
    ):
        with pytest.raises(ValueError):
            parse_decomposition_json(text)


def test_witness_json_round_trip():
    base = MultiGraph(range(3), [(0, 1), (1, 2), (0, 2)])
    host = base.copy()
    host.add_vertex(9)
    host.add_edge(1, 9)
    w = SpanningWitness(base, host, frozenset({(0, 1), (1, 2), (1, 9)}))
    assert validate_witness(w) == []
    text = witness_to_json(w)
    back = parse_witness_json(text)
    assert graph_key(back.base_graph) == graph_key(base)
    assert graph_key(back.host) == graph_key(host)
    assert back.forest == w.forest
    assert witness_to_json(back) == text


def test_witness_json_rejects():
    with pytest.raises(ValueError):
        parse_witness_json("[1, 2]")
    with pytest.raises(ValueError):
        parse_witness_json(
            '{"graph_vertices": [0], "ghost_vertices": [0], "edges": [],'
            ' "tree_edges": []}'
        )
    with pytest.raises(ValueError):
        parse_witness_json(
            '{"graph_vertices": [0, 1], "ghost_vertices": [2],'
            ' "edges": [{"u": 0, "v": 2, "ghost": false}], "tree_edges": []}'
        )
    with pytest.raises(ValueError, match="^not valid JSON: "):
        parse_witness_json('{"graph_vertices": [0]')
    with pytest.raises(ValueError, match='^each edge needs "u", "v" and "ghost"$'):
        parse_witness_json(
            '{"graph_vertices": [0, 1], "ghost_vertices": [],'
            ' "edges": [{"u": 0, "v": 1}], "tree_edges": []}'
        )


def test_witness_json_rejects_negative_and_unknown_vertices():
    with pytest.raises(ValueError, match="^vertex ids must be non-negative, got -1$"):
        parse_witness_json(
            '{"graph_vertices": [-1, 0], "ghost_vertices": [], "edges": [],'
            ' "tree_edges": []}'
        )
    with pytest.raises(ValueError, match=r"^edge \(0,5\) uses an unknown vertex$"):
        parse_witness_json(
            '{"graph_vertices": [0, 1], "ghost_vertices": [2],'
            ' "edges": [{"u": 0, "v": 5, "ghost": false}], "tree_edges": []}'
        )


def test_load_artifact_rejects_json_of_neither_kind():
    with pytest.raises(ValueError, match="^JSON input is neither a witness nor a decomposition$"):
        load_artifact("{}")


def test_load_graph_detects_formats():
    g = load_graph(SAMPLE)
    assert g.num_edges() == 6
    base = MultiGraph(range(2), [(0, 1)])
    w = SpanningWitness(base, base.copy(), frozenset({(0, 1)}))
    g2 = load_graph(witness_to_json(w))
    assert graph_key(g2) == graph_key(base)
    d = TreeCutDecomposition(0, {0: None}, {0: {0, 1}})
    with pytest.raises(ValueError):
        load_graph(decomposition_to_json(d))


def test_dot_outputs():
    g = MultiGraph(range(3), [(0, 1), (1, 2)])
    dot = graph_to_dot(g)
    assert dot.startswith("graph G {") and "0 -- 1;" in dot

    host = g.copy()
    host.add_vertex(7)
    host.add_edge(0, 7)
    w = SpanningWitness(g, host, frozenset({(0, 1), (1, 2), (0, 7)}))
    wd = witness_to_dot(w)
    assert "penwidth=2" in wd  # tree edges styled distinctly
    assert "style=dashed" in wd  # ghosts dashed
    assert 'label="ghost"' in wd

    d = TreeCutDecomposition(0, {0: None, 1: 0}, {0: {0, 1}, 1: {2}})
    dd = decomposition_to_dot(d)
    assert "n0 -- n1;" in dd and "shape=box" in dd


@given(st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_edge_list_round_trip_random(seed):
    rng = random.Random(seed)
    g = random_connected_multi(rng, rng.randint(1, 7), rng.randint(0, 5), loops=True)
    text = write_edge_list(g)
    assert graph_key(parse_edge_list(text)) == graph_key(g)
    assert write_edge_list(parse_edge_list(text)) == text


@given(st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_decomposition_json_round_trip_random(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    parent = {0: None}
    for t in range(1, n):
        parent[t] = rng.randrange(t)
    bags = {t: set() for t in range(n)}
    for v in range(rng.randint(0, 8)):
        bags[rng.randrange(n)].add(v)
    d = TreeCutDecomposition(0, parent, bags)
    text = decomposition_to_json(d)
    back = parse_decomposition_json(text)
    assert (back.root, back.parent, back.bags) == (d.root, d.parent, d.bags)
    assert decomposition_to_json(back) == text


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)
ids = st.integers(-1, 4) | json_values
witness_like = st.fixed_dictionaries({
    "graph_vertices": st.lists(ids, max_size=4) | json_values,
    "ghost_vertices": st.lists(ids, max_size=2) | json_values,
    "edges": st.lists(
        st.fixed_dictionaries({"u": ids, "v": ids, "ghost": json_values}), max_size=4
    ) | json_values,
    "tree_edges": st.lists(st.lists(ids, max_size=3), max_size=3) | json_values,
})
decomposition_like = st.fixed_dictionaries({
    "root": ids,
    "nodes": st.lists(
        st.fixed_dictionaries({"id": ids, "parent": ids, "bag": st.lists(ids, max_size=3)}),
        max_size=3,
    ) | json_values,
})


@given(json_values | witness_like | decomposition_like)
@settings(max_examples=300, deadline=None)
def test_parsers_reject_only_with_value_error(value):
    text = json.dumps(value)
    for parse in (parse_witness_json, parse_decomposition_json, parse_edge_list):
        try:
            parse(text)
        except ValueError:
            pass
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["verify-witness", path])
        assert code in (0, 1, 2, 3)
    finally:
        os.remove(path)


@pytest.mark.parametrize("bad", [
    {"graph_vertices": "ab"},
    {"ghost_vertices": 3},
    {"graph_vertices": [0, True]},
    {"edges": [{"u": [0], "v": 1, "ghost": False}]},
    {"edges": 5},
    {"tree_edges": [["a", 1]]},
    {"tree_edges": [[0, False]]},
    {"edges": [{"u": 0, "v": 1, "ghost": "false"}]},
    {"edges": [{"u": 0, "v": 1, "ghost": 0}]},
    {"edges": [{"u": 0, "v": 1, "ghost": None}]},
])
def test_witness_json_rejects_mistyped_fields(bad):
    obj = {
        "graph_vertices": [0, 1],
        "ghost_vertices": [],
        "edges": [{"u": 0, "v": 1, "ghost": False}],
        "tree_edges": [[0, 1]],
    }
    parse_witness_json(json.dumps(obj))
    obj.update(bad)
    with pytest.raises(ValueError):
        parse_witness_json(json.dumps(obj))


def reference_decomposition_json(d):
    nodes = [
        {"id": t, "parent": d.parent[t], "bag": sorted(d.bags[t])} for t in d.nodes()
    ]
    return json.dumps({"root": d.root, "nodes": nodes}, indent=2) + "\n"


def reference_witness_json(w):
    edges = []
    for u, v, m in w.host.edge_pairs():
        base = w.base_graph.multiplicity(u, v)
        edges.extend([{"u": u, "v": v, "ghost": False}] * base)
        edges.extend([{"u": u, "v": v, "ghost": True}] * (m - base))
    edges.sort(key=lambda e: (e["u"], e["v"], e["ghost"]))
    obj = {
        "graph_vertices": sorted(w.base_graph.vertices()),
        "ghost_vertices": sorted(w.ghost_vertices()),
        "edges": edges,
        "tree_edges": sorted([u, v] for u, v in w.forest),
    }
    return json.dumps(obj, indent=2) + "\n"


vertex_ids = st.integers(0, 12) | st.integers(0, 10**12)


@st.composite
def serialized(draw):
    """A decomposition and a witness, neither of them valid as a rule:
    empty bags and node lists, null parents, ghost vertices, ghost edge
    copies beside real ones, loops and an arbitrary forest."""
    ids = draw(st.lists(vertex_ids, max_size=6, unique=True))
    parents = draw(st.lists(st.none() | st.sampled_from(ids or [0]), min_size=len(ids), max_size=len(ids)))
    bags = draw(st.lists(st.sets(vertex_ids, max_size=4), min_size=len(ids), max_size=len(ids)))
    d = TreeCutDecomposition(draw(vertex_ids), dict(zip(ids, parents)), dict(zip(ids, bags)))
    vs = draw(st.lists(vertex_ids, max_size=8, unique=True))
    real = vs[: draw(st.integers(0, len(vs)))]  # the rest are ghosts
    base, host = MultiGraph(real), MultiGraph(vs)
    ends = st.integers(0, max(len(vs) - 1, 0))
    edges = draw(st.lists(st.tuples(ends, ends, st.booleans()), max_size=10)) if vs else []
    for i, j, ghost in edges:
        if not ghost and i < len(real) and j < len(real):
            base.add_edge(vs[i], vs[j])
        host.add_edge(vs[i], vs[j])
    forest = frozenset(_norm(vs[i], vs[j]) for i, j, _ in edges[: draw(st.integers(0, 4))])
    return d, SpanningWitness(base, host, forest)


@given(serialized())
@settings(max_examples=100, deadline=None)
def test_json_writers_match_generic_encoder(case):
    d, w = case
    assert decomposition_to_json(d) == reference_decomposition_json(d)
    assert witness_to_json(w) == reference_witness_json(w)
