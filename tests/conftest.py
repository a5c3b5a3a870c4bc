"""Shared corpus fixtures and a memoized width oracle.

The corpus is the one every suite-level check runs over: all connected
simple graphs on up to 5 vertices (one representative per isomorphism
class) plus a 200-instance seeded random sample of connected 6-vertex
graphs. Oracle calls are cached per (graph, variant) because several
checks revisit the same graphs.
"""
from __future__ import annotations

import itertools
import random

import pytest

from treecuts.multigraph import MultiGraph
from treecuts.oracle import exact_width

CORPUS_SEED = 20260822
SIX_VERTEX_SAMPLES = 200


def graph_key(g: MultiGraph) -> tuple:
    return (
        tuple(g.sorted_vertices()),
        tuple(sorted((u, v, m) for u, v, m in g.edge_pairs())),
    )


def connected_graphs_upto(nmax: int) -> list[MultiGraph]:
    """One representative per isomorphism class, ascending order."""
    out = []
    for n in range(1, nmax + 1):
        pairs = list(itertools.combinations(range(n), 2))
        seen = set()
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            g = MultiGraph(range(n), edges)
            if not g.is_connected():
                continue
            canon = min(
                tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
                for perm in itertools.permutations(range(n))
                for p in [dict(enumerate(perm))]
            )
            if canon in seen:
                continue
            seen.add(canon)
            out.append(g)
    return out


def random_connected_simple(rng: random.Random, n: int) -> MultiGraph:
    pairs = list(itertools.combinations(range(n), 2))
    while True:
        k = rng.randint(n - 1, len(pairs))
        g = MultiGraph(range(n), rng.sample(pairs, k))
        if g.is_connected():
            return g


def random_connected_multi(
    rng: random.Random, n: int, extra: int, loops: bool = False
) -> MultiGraph:
    """Random spanning tree plus extra edges; parallels allowed, loops
    only on request."""
    g = MultiGraph(range(n))
    vs = list(range(n))
    rng.shuffle(vs)
    for i in range(1, n):
        g.add_edge(vs[i], rng.choice(vs[:i]))
    for _ in range(extra):
        u = rng.choice(vs)
        v = rng.choice(vs)
        if u == v and not loops:
            continue
        g.add_edge(u, v)
    return g


def chain_decomposition(g: MultiGraph):
    """Path-shaped decomposition, one singleton bag per vertex in
    ascending order; a nontrivial deterministic test source."""
    from treecuts.decomposition import TreeCutDecomposition

    vs = g.sorted_vertices()
    parent = {i: (i - 1 if i else None) for i in range(len(vs))}
    bags = {i: {v} for i, v in enumerate(vs)}
    if not vs:
        return TreeCutDecomposition(0, {0: None}, {0: set()})
    return TreeCutDecomposition(0, parent, bags)


def star_decomposition(g: MultiGraph):
    """Empty-bag root with one singleton leaf per vertex."""
    from treecuts.decomposition import TreeCutDecomposition

    parent = {0: None}
    bags = {0: set()}
    for i, v in enumerate(g.sorted_vertices(), start=1):
        parent[i] = 0
        bags[i] = {v}
    return TreeCutDecomposition(0, parent, bags)


_width_cache: dict[tuple, tuple[int, object]] = {}


def cached_width(g: MultiGraph, variant: str, max_vertices: int = 9):
    key = (graph_key(g), variant)
    if key not in _width_cache:
        _width_cache[key] = exact_width(g, variant, max_vertices=max_vertices)
    return _width_cache[key]


@pytest.fixture(scope="session")
def corpus_small() -> list[MultiGraph]:
    return connected_graphs_upto(5)


@pytest.fixture(scope="session")
def corpus_six() -> list[MultiGraph]:
    rng = random.Random(CORPUS_SEED)
    return [random_connected_simple(rng, 6) for _ in range(SIX_VERTEX_SAMPLES)]


@pytest.fixture(scope="session")
def corpus(corpus_small, corpus_six) -> list[MultiGraph]:
    return corpus_small + corpus_six
