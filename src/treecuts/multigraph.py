"""Undirected multigraph with parallel edges and self-loops, plus the
graph surgery operations the rest of the toolkit is built on: weak-immersion
steps (edge deletion, vertex deletion, lifting) and k-edge sums.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator


def _norm(u: int, v: int) -> tuple[int, int]:
    """An unordered pair as (min, max)."""
    return (u, v) if u <= v else (v, u)


class MultiGraph:
    """Adjacency-map multigraph over integer vertex ids.

    The adjacency is a plain dict of dicts: ``_adj[u][v]`` is the number of
    (u, v) edge copies, stored under both ends, and a zero count is never
    stored. A self-loop counts as one edge but contributes 2 to the degree
    of its vertex. Vertex ids are arbitrary non-negative integers tracked in
    an explicit live-set, so deletion does not force renumbering.
    ``edge_pairs()`` reads a sorted snapshot, built on first use and rebuilt
    after any edge mutation (a new isolated vertex leaves it valid); it is
    never changed in place, so copies may share it. The adjacency is the
    one record of the edges: ``num_edges()`` sums the snapshot.
    """

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()):
        self._adj: dict[int, dict[int, int]] = {}
        self._pairs: list[tuple[int, int, int]] | None = None
        self.meta: dict = {}
        for v in vertices:
            self.add_vertex(v)
        for u, v in edges:
            self.add_edge(u, v)

    @classmethod
    def _from_counts(cls, vertices: Iterable[int], counts: dict) -> "MultiGraph":
        """Bulk construction from vertices, already checked non-negative,
        and a positive copy count per (min, max) pair; no per-edge checks."""
        g = cls()
        g._adj = {v: {} for v in vertices}
        for (u, v), m in counts.items():
            g._adj[u][v] = g._adj[v][u] = m
        return g

    # construction

    def add_vertex(self, v: int) -> None:
        if v < 0:
            raise ValueError(f"vertex ids must be non-negative, got {v}")
        if v not in self._adj:
            self._adj[v] = {}

    def add_edge(self, u: int, v: int, count: int = 1) -> None:
        if count < 1:
            raise ValueError("count must be positive")
        self.add_vertex(u)
        self.add_vertex(v)
        self._adj[u][v] = self._adj[u].get(v, 0) + count
        if u != v:
            self._adj[v][u] = self._adj[v].get(u, 0) + count
        self._pairs = None

    def remove_edge(self, u: int, v: int, count: int = 1) -> None:
        if count < 1:
            raise ValueError("count must be positive")
        have = self.multiplicity(u, v)
        if have < count:
            raise ValueError(f"no edge ({u},{v}) to remove")
        for a, b in {(u, v), (v, u)}:
            if have == count:
                del self._adj[a][b]
            else:
                self._adj[a][b] = have - count
        self._pairs = None

    def remove_vertex(self, v: int) -> None:
        if v not in self._adj:
            raise ValueError(f"no vertex {v}")
        for w, m in list(self._adj[v].items()):
            self.remove_edge(v, w, m)
        del self._adj[v]

    # queries

    def vertices(self) -> set[int]:
        return set(self._adj.keys())

    def sorted_vertices(self) -> list[int]:
        return sorted(self._adj.keys())

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def num_vertices(self) -> int:
        return len(self._adj)

    def num_edges(self) -> int:
        return sum(m for _, _, m in self.edge_pairs())

    def multiplicity(self, u: int, v: int) -> int:
        adj = self._adj.get(u)
        return 0 if adj is None else adj.get(v, 0)

    def has_edge(self, u: int, v: int) -> bool:
        return self.multiplicity(u, v) > 0

    def degree(self, v: int) -> int:
        adj = self._adj[v]
        # the loop entry appears once in the map but counts twice
        return sum(adj.values()) + adj.get(v, 0)

    def neighbors(self, v: int) -> set[int]:
        return {w for w in self._adj[v] if w != v}

    def loops(self, v: int) -> int:
        return self._adj[v].get(v, 0)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Every edge copy once, endpoints normalized as (min, max)."""
        for u, v, m in self.edge_pairs():
            for _ in range(m):
                yield (u, v)

    def edge_pairs(self) -> Iterator[tuple[int, int, int]]:
        """Distinct endpoint pairs with multiplicity: (u, v, m), u <= v,
        in ascending order, read from the cached snapshot."""
        if self._pairs is None:
            adj = self._adj
            self._pairs = [
                (u, v, m) for u in sorted(adj) for v, m in sorted(adj[u].items()) if u <= v
            ]
        return iter(self._pairs)

    def copy(self) -> "MultiGraph":
        g = MultiGraph()
        g._adj = {v: nbrs.copy() for v, nbrs in self._adj.items()}
        g._pairs, g.meta = self._pairs, dict(self.meta)
        return g

    def induced(self, keep: Iterable[int]) -> "MultiGraph":
        keep = set(keep)
        for v in keep:
            if v not in self._adj:
                raise ValueError(f"no vertex {v}")
        pairs = {(u, v): m for u, v, m in self.edge_pairs() if u in keep and v in keep}
        return MultiGraph._from_counts(keep, pairs)

    def components(self) -> list[set[int]]:
        seen: set[int] = set()
        comps = []
        for s in sorted(self._adj):
            if s in seen:
                continue
            comp = {s}
            stack = [s]
            while stack:
                u = stack.pop()
                for w in self._adj[u]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            comps.append(comp)
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def cut_size(self, part: Iterable[int]) -> int:
        """Number of edge copies with exactly one endpoint in part."""
        part = set(part)
        total = 0
        for u, v, m in self.edge_pairs():
            if (u in part) != (v in part):
                total += m
        return total

    def neighborhood(self, part: Iterable[int]) -> set[int]:
        """Distinct vertices outside part adjacent to part."""
        part = set(part)
        out: set[int] = set()
        for u in part:
            for w in self._adj[u]:
                if w not in part:
                    out.add(w)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.num_vertices()}, m={self.num_edges()})"


def max_degree(g: MultiGraph) -> int:
    return max((g.degree(v) for v in g.vertices()), default=0)


# weak-immersion operations


@dataclass(frozen=True)
class DeleteEdge:
    u: int
    v: int


@dataclass(frozen=True)
class DeleteVertex:
    v: int
    strict: bool = False  # strict weak immersion: vertex must be isolated


@dataclass(frozen=True)
class Lift:
    x: int
    y: int
    z: int
    parallel: bool = False  # opt-in: add (x,z) even if one already exists


ImmersionOp = DeleteEdge | DeleteVertex | Lift


def apply_immersion(g: MultiGraph, op: ImmersionOp) -> MultiGraph:
    """One weak-immersion step; returns a new graph, g is untouched.

    Lift removes one copy each of (x,y) and (y,z) and adds (x,z) only if
    no (x,z) edge exists yet, unless the op asks for parallel mode.
    """
    h = g.copy()
    if isinstance(op, DeleteEdge):
        if not h.has_edge(op.u, op.v):
            raise ValueError(f"no edge ({op.u},{op.v})")
        h.remove_edge(op.u, op.v)
    elif isinstance(op, DeleteVertex):
        if not h.has_vertex(op.v):
            raise ValueError(f"no vertex {op.v}")
        if op.strict and h.degree(op.v) > 0:
            raise ValueError(f"vertex {op.v} is not isolated")
        h.remove_vertex(op.v)
    elif isinstance(op, Lift):
        x, y, z = op.x, op.y, op.z
        if len({x, y, z}) != 3:
            raise ValueError("lift needs three distinct vertices")
        if not h.has_edge(x, y) or not h.has_edge(y, z):
            raise ValueError(f"lift needs edges ({x},{y}) and ({y},{z})")
        h.remove_edge(x, y)
        h.remove_edge(y, z)
        if op.parallel or not h.has_edge(x, z):
            h.add_edge(x, z)
    else:
        raise TypeError(f"unknown immersion op {op!r}")
    return h


def edge_sum(
    g1: MultiGraph,
    v1: int,
    g2: MultiGraph,
    v2: int,
    pi: list[tuple[int, int]],
) -> MultiGraph:
    """k-edge sum of g1 and g2 at degree-k vertices v1, v2.

    pi pairs edge slots: each (a, b) entry matches one (v1,a) edge copy of
    g1 with one (v2,b) edge copy of g2 and becomes an edge (a, b') in the
    sum, where g2's vertices are shifted above g1's id range to keep the
    two vertex sets disjoint. The shift is recorded in meta["offset"].
    """
    if not g1.has_vertex(v1) or not g2.has_vertex(v2):
        raise ValueError("attachment vertex missing")
    if g1.loops(v1) or g2.loops(v2):
        raise ValueError("attachment vertices must be loop-free")
    k = g1.degree(v1)
    if g2.degree(v2) != k:
        raise ValueError(f"degree mismatch: {k} vs {g2.degree(v2)}")
    if len(pi) != k:
        raise ValueError(f"pi must pair all {k} slots, got {len(pi)}")
    slots1 = Counter(a for a, _ in pi)
    slots2 = Counter(b for _, b in pi)
    if slots1 != Counter({w: g1.multiplicity(v1, w) for w in g1.neighbors(v1)}):
        raise ValueError("pi does not match the edge slots at v1")
    if slots2 != Counter({w: g2.multiplicity(v2, w) for w in g2.neighbors(v2)}):
        raise ValueError("pi does not match the edge slots at v2")

    offset = max(g1.vertices(), default=-1) + 1
    counts = Counter({(u, v): m for u, v, m in g1.edge_pairs() if v1 not in (u, v)})
    counts.update(
        {(u + offset, v + offset): m for u, v, m in g2.edge_pairs() if v2 not in (u, v)}
    )
    counts.update((a, b + offset) for a, b in pi)
    keep = [v for v in g1.vertices() if v != v1]
    keep += [v + offset for v in g2.vertices() if v != v2]
    out = MultiGraph._from_counts(keep, counts)
    out.meta["offset"] = offset
    return out
