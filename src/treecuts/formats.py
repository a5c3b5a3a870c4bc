"""Text and JSON serialization: edge lists, decompositions, witnesses, DOT.

All writers are canonical (sorted, fixed key order) so that a parse
followed by a serialize reproduces the emitted artifact byte for byte.
"""
from __future__ import annotations

import json
from collections import Counter

from .decomposition import TreeCutDecomposition
from .ecw import SpanningWitness
from .multigraph import MultiGraph, _norm
from .oracle import SizeLimitError

# largest vertex count an edge-list header may declare; the graph's
# vertices are allocated from the header before any edge is read
MAX_EDGE_LIST_VERTICES = 100_000


def _is_id(x) -> bool:
    """A JSON vertex or node id: an int, but not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_edge_list(text: str) -> MultiGraph:
    """Header "n m", then m lines "u v" with 0-based ids; '#' starts a
    comment; repeated lines denote parallel edges."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((lineno, line))
    if not rows:
        raise ValueError("empty edge-list input")
    lineno, header = rows[0]
    fields = header.split()
    if len(fields) != 2:
        raise ValueError(f"line {lineno}: expected header 'n m'")
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise ValueError(f"line {lineno}: expected header 'n m'") from None
    if n < 0 or m < 0:
        raise ValueError(f"line {lineno}: negative counts in header")
    if n > MAX_EDGE_LIST_VERTICES:
        raise SizeLimitError(
            f"line {lineno}: {n} vertices exceed the limit {MAX_EDGE_LIST_VERTICES}"
        )
    if len(rows) - 1 != m:
        raise ValueError(f"header promises {m} edges, found {len(rows) - 1}")
    counts: Counter = Counter()
    for lineno, line in rows[1:]:
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"line {lineno}: expected 'u v'") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"line {lineno}: vertex out of range [0, {n})")
        counts[_norm(u, v)] += 1
    return MultiGraph._from_counts(range(n), counts)


def write_edge_list(g: MultiGraph) -> str:
    """Canonical edge-list text; vertices are relabeled to 0..n-1 by
    ascending id when not already in that form."""
    vs = g.sorted_vertices()
    relabel = {v: i for i, v in enumerate(vs)}
    lines = [f"{g.num_vertices()} {g.num_edges()}"]
    rows = []
    for u, v, m in g.edge_pairs():
        a, b = sorted((relabel[u], relabel[v]))
        rows.extend([(a, b)] * m)
    for a, b in sorted(rows):
        lines.append(f"{a} {b}")
    return "\n".join(lines) + "\n"


def _json_list(items: list[str], pad: str) -> str:
    """A JSON list of already-written items, laid out as
    json.dumps(indent=2) lays it out on a line indented by pad."""
    if not items:
        return "[]"
    inner = pad + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"


def decomposition_to_json(d: TreeCutDecomposition) -> str:
    """The bytes of json.dumps(indent=2) of {"root", "nodes": [{"id",
    "parent", "bag"}]}, written without the generic encoder."""
    nodes = []
    for t in d.nodes():
        p = d.parent[t]
        bag = _json_list([str(v) for v in sorted(d.bags[t])], "      ")
        nodes.append(
            f'{{\n      "id": {t},\n      "parent": {"null" if p is None else p},'
            f'\n      "bag": {bag}\n    }}'
        )
    return f'{{\n  "root": {d.root},\n  "nodes": {_json_list(nodes, "  ")}\n}}\n'


def parse_decomposition_json(text: str) -> TreeCutDecomposition:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"not valid JSON: {e}") from None
    if not isinstance(obj, dict) or "root" not in obj or "nodes" not in obj:
        raise ValueError('expected an object with "root" and "nodes"')
    if not isinstance(obj["nodes"], list):
        raise ValueError('"nodes" must be a list')
    parent: dict[int, int | None] = {}
    bags: dict[int, set[int]] = {}
    for entry in obj["nodes"]:
        if not isinstance(entry, dict) or not {"id", "parent", "bag"} <= set(entry):
            raise ValueError('each node needs "id", "parent" and "bag"')
        t = entry["id"]
        if not _is_id(t) or t in parent:
            raise ValueError(f"bad or duplicate node id {t!r}")
        p = entry["parent"]
        if p is not None and not _is_id(p):
            raise ValueError(f"bad parent for node {t}")
        if not isinstance(entry["bag"], list) or not all(map(_is_id, entry["bag"])):
            raise ValueError(f"bad bag for node {t}")
        parent[t] = p
        bags[t] = set(entry["bag"])
    if not _is_id(obj["root"]):
        raise ValueError("bad root id")
    return TreeCutDecomposition(obj["root"], parent, bags)


def witness_to_json(w: SpanningWitness) -> str:
    """The bytes of json.dumps(indent=2) of {"graph_vertices",
    "ghost_vertices", "edges": [{"u", "v", "ghost"}], "tree_edges":
    [[u, v]]}, written without the generic encoder."""
    rows = []
    for u, v, m in w.host.edge_pairs():
        base = w.base_graph.multiplicity(u, v)
        rows += [(u, v, False)] * base + [(u, v, True)] * (m - base)
    rows.sort()
    edges = [
        f'{{\n      "u": {u},\n      "v": {v},'
        f'\n      "ghost": {"true" if ghost else "false"}\n    }}'
        for u, v, ghost in rows
    ]
    tree = [_json_list([str(u), str(v)], "    ") for u, v in sorted(w.forest)]
    real = [str(v) for v in sorted(w.base_graph.vertices())]
    ghosts = [str(v) for v in sorted(w.ghost_vertices())]
    return (
        f'{{\n  "graph_vertices": {_json_list(real, "  ")},'
        f'\n  "ghost_vertices": {_json_list(ghosts, "  ")},'
        f'\n  "edges": {_json_list(edges, "  ")},'
        f'\n  "tree_edges": {_json_list(tree, "  ")}\n}}\n'
    )


def parse_witness_json(text: str) -> SpanningWitness:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"not valid JSON: {e}") from None
    keys = {"graph_vertices", "ghost_vertices", "edges", "tree_edges"}
    if not isinstance(obj, dict) or not keys <= set(obj):
        raise ValueError(f"expected an object with {sorted(keys)}")
    gv = obj["graph_vertices"]
    hv = obj["ghost_vertices"]
    if not (isinstance(gv, list) and isinstance(hv, list) and all(map(_is_id, gv + hv))):
        raise ValueError("vertex lists must be lists of integers")
    if not (isinstance(obj["edges"], list) and isinstance(obj["tree_edges"], list)):
        raise ValueError("edges and tree edges must be lists")
    if set(gv) & set(hv):
        raise ValueError("a vertex cannot be both real and ghost")
    for v in gv + hv:
        if v < 0:
            raise ValueError(f"vertex ids must be non-negative, got {v}")
    real, known = set(gv), set(gv + hv)
    base_counts, host_counts = Counter(), Counter()
    for e in obj["edges"]:
        if not isinstance(e, dict) or not {"u", "v", "ghost"} <= set(e):
            raise ValueError('each edge needs "u", "v" and "ghost"')
        u, v, ghost = e["u"], e["v"], e["ghost"]
        if not (_is_id(u) and _is_id(v)):
            raise ValueError(f"edge ends must be integers, not ({u!r},{v!r})")
        if u not in known or v not in known:
            raise ValueError(f"edge ({u},{v}) uses an unknown vertex")
        if not ghost:
            if not (u in real and v in real):
                raise ValueError(f"non-ghost edge ({u},{v}) touches a ghost vertex")
            base_counts[_norm(u, v)] += 1
        host_counts[_norm(u, v)] += 1
    forest = set()
    for pair in obj["tree_edges"]:
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_id, pair))):
            raise ValueError("tree edges must be [u, v] pairs of integers")
        u, v = pair
        forest.add(_norm(u, v))
    base = MultiGraph._from_counts(gv, base_counts)
    host = MultiGraph._from_counts(gv + hv, host_counts)
    return SpanningWitness(base, host, frozenset(forest))


def load_artifact(text: str) -> MultiGraph | SpanningWitness | TreeCutDecomposition:
    """Edge list, witness JSON or decomposition JSON, told apart by the
    leading byte and then by the JSON object's keys."""
    stripped = text.lstrip()
    if not stripped.startswith("{"):
        return parse_edge_list(text)
    obj = json.loads(stripped)
    if isinstance(obj, dict) and "graph_vertices" in obj:
        return parse_witness_json(text)
    if isinstance(obj, dict) and "nodes" in obj:
        return parse_decomposition_json(text)
    raise ValueError("JSON input is neither a witness nor a decomposition")


def load_graph(text: str) -> MultiGraph:
    """Edge-list or witness JSON; a witness yields its base graph."""
    art = load_artifact(text)
    if isinstance(art, TreeCutDecomposition):
        raise ValueError("JSON input is not a witness; cannot extract a graph")
    return art.base_graph if isinstance(art, SpanningWitness) else art


def graph_to_dot(g: MultiGraph) -> str:
    lines = ["graph G {"]
    for v in g.sorted_vertices():
        lines.append(f"  {v};")
    rows = []
    for u, v, m in g.edge_pairs():
        rows.extend([(u, v)] * m)
    for u, v in sorted(rows):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def witness_to_dot(w: SpanningWitness) -> str:
    """Host graph with forest edges drawn thick and ghosts dashed."""
    lines = ["graph W {"]
    ghosts = w.ghost_vertices()
    for v in sorted(w.host.vertices()):
        attr = ' [style=dashed, label="ghost"]' if v in ghosts else ""
        lines.append(f"  {v}{attr};")
    rows = []
    for u, v, m in w.host.edge_pairs():
        base = w.base_graph.multiplicity(u, v)
        tree = (u, v) in w.forest
        for i in range(m):
            is_tree = tree and i == 0
            is_ghost = i >= base
            rows.append((u, v, is_tree, is_ghost))
    for u, v, is_tree, is_ghost in sorted(rows):
        attrs = []
        if is_tree:
            attrs.append("penwidth=2")
        if is_ghost:
            attrs.append("style=dashed")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {u} -- {v}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def decomposition_to_dot(d: TreeCutDecomposition) -> str:
    lines = ["graph D {"]
    for t in d.nodes():
        bag = ",".join(str(v) for v in sorted(d.bags[t]))
        lines.append(f'  n{t} [label="{t}: {{{bag}}}", shape=box];')
    for t in d.nodes():
        p = d.parent[t]
        if p is not None:
            lines.append(f"  n{p} -- n{t};")
    lines.append("}")
    return "\n".join(lines) + "\n"
