"""Extremal graph families: stars, windmills, walls, ladders."""
from __future__ import annotations

from .multigraph import MultiGraph


def star(r: int) -> MultiGraph:
    """S_r: center 0 joined to leaves 1..r."""
    if r < 1:
        raise ValueError("star needs r >= 1")
    return MultiGraph(range(r + 1), [(0, i) for i in range(1, r + 1)])


def windmill(r: int) -> MultiGraph:
    """W_r: r triangles sharing center 0; 2r+1 vertices, 3r edges."""
    if r < 1:
        raise ValueError("windmill needs r >= 1")
    blades = [e for a in range(1, 2 * r, 2) for e in ((0, a), (0, a + 1), (a, a + 1))]
    return MultiGraph([0], blades)


def wall(r: int) -> MultiGraph:
    """r x r grid with every second vertical edge removed.

    Vertex (row i, col j) has id i*r + j, 0-based. All horizontal edges are
    kept; the vertical edge below (i, j) is kept iff i + j is even, which
    anchors the first row's surviving verticals at odd 1-based columns.
    """
    if r < 2:
        raise ValueError("wall needs r >= 2")
    rows = [(i * r + j, i * r + j + 1) for i in range(r) for j in range(r - 1)]
    cols = [(i * r + j, (i + 1) * r + j) for i in range(r - 1) for j in range(i % 2, r, 2)]
    return MultiGraph(range(r * r), rows + cols)


def ladder(rungs: int) -> MultiGraph:
    """2 x rungs grid. Top rail 0..rungs-1, bottom rail rungs..2*rungs-1.

    The distinguished spanning tree (full top rail plus all rungs) is
    recorded in meta["spanning_tree"] as a list of normalized edges.
    """
    if rungs < 2:
        raise ValueError("ladder needs at least 2 rungs")
    # rail edges alternate top, bottom, so the top rail is every second one
    rails = [e for i in range(rungs - 1) for e in ((i, i + 1), (rungs + i, rungs + i + 1))]
    steps = [(i, rungs + i) for i in range(rungs)]
    g = MultiGraph(range(2 * rungs), rails + steps)
    g.meta["spanning_tree"] = rails[::2] + steps
    return g


_FAMILIES = {"star": star, "windmill": windmill, "wall": wall, "ladder": ladder}


def make_family(kind: str, r: int) -> MultiGraph:
    if kind not in _FAMILIES:
        raise ValueError(f"unknown family {kind!r}, pick from {sorted(_FAMILIES)}")
    return _FAMILIES[kind](r)
