"""The four benchmark workloads: seeded inputs, one library call per item,
correctness checks and canonical outputs.

Every function takes the imported ``treecuts`` package as ``tc`` and calls
through its attributes at call time, so the tracer's rebinding of those
attributes is seen and a fresh import during set-up is used throughout.

A workload's inputs are grouped into cells of similar cost. The cell
counts are fixed and only the members of a cell depend on the seed, which
keeps the cost mix, and so the median and p90, steady from seed to seed.
Cells are interleaved evenly, so any prefix of a pass has the pool's mix.
The oracle corpus goes further: its graphs are the same isomorphism
classes for every seed, and the seed draws their labellings and the
extra edges of the multigraphs.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable

VARIANTS = ("tcw", "stcw", "tcw0")

# edp_bruteforce's edge limit for the cross-check; covers every generated
# instance (doubled ladder(6) has 32 edges)
EDP_BRUTE_LIMIT = 32


@dataclass
class Item:
    label: str
    data: Any


def interleave(cells: list[list[Item]]) -> list[Item]:
    """Spread each cell evenly over the sequence: member i of a cell of
    size c sits at fractional position (i + 0.5) / c."""
    keyed = []
    for ci, cell in enumerate(cells):
        for i, item in enumerate(cell):
            keyed.append(((i + 0.5) / len(cell), ci, i, item))
    keyed.sort(key=lambda k: k[:3])
    return [k[3] for k in keyed]


def random_connected_multi(tc, rng: random.Random, n: int, extra: int):
    """Random spanning tree plus ``extra`` random non-loop edges; repeated
    picks become parallel edges."""
    g = tc.MultiGraph(range(n))
    vs = list(range(n))
    rng.shuffle(vs)
    for i in range(1, n):
        g.add_edge(vs[i], rng.choice(vs[:i]))
    for _ in range(extra):
        u, v = rng.sample(vs, 2)
        g.add_edge(u, v)
    return g


def star_decomposition(tc, g):
    """Empty-bag root with one singleton leaf per vertex."""
    parent = {0: None}
    bags = {0: set()}
    for i, v in enumerate(g.sorted_vertices(), start=1):
        parent[i] = 0
        bags[i] = {v}
    return tc.TreeCutDecomposition(0, parent, bags)


def simple_tree_count(tc, g) -> int:
    """Spanning trees of g's underlying simple graph: the number of leaves
    exact_ecw's enumeration over distinct edge pairs visits."""
    pairs = [(u, v) for u, v, _ in g.edge_pairs() if u != v]
    return tc.spanning_tree_count(tc.MultiGraph(g.vertices(), pairs))


# ---------------------------------------------------------------- oracle-corpus

ORACLE_N = 6
ORACLE_PAIRS = list(itertools.combinations(range(ORACLE_N), 2))
ORACLE_MULTI_EVERY = 4  # every 4th class also appears as a multigraph


def connected_classes() -> list[int]:
    """One edge set per isomorphism class of connected simple graphs on
    ORACLE_N vertices (112 for six), as a bit mask over ORACLE_PAIRS: the
    least mask of its class, ordered by edge count, then mask."""
    index = {p: i for i, p in enumerate(ORACLE_PAIRS)}
    relabel = [
        [index[tuple(sorted((perm[u], perm[v])))] for u, v in ORACLE_PAIRS]
        for perm in itertools.permutations(range(ORACLE_N))
    ]
    seen: set[int] = set()
    reps = []
    for mask in range(1 << len(ORACLE_PAIRS)):
        if mask in seen:
            continue
        parent = list(range(ORACLE_N))
        bits = [i for i in range(len(ORACLE_PAIRS)) if mask >> i & 1]
        for i in bits:
            u, v = ORACLE_PAIRS[i]
            while parent[u] != u:
                u = parent[u]
            while parent[v] != v:
                v = parent[v]
            parent[u] = v
        if sum(1 for v in range(ORACLE_N) if parent[v] == v) != 1:
            continue
        orbit = {sum(1 << new[i] for i in bits) for new in relabel}
        seen |= orbit
        reps.append(min(orbit))
    return sorted(reps, key=lambda m: (bin(m).count("1"), m))


def oracle_generate(tc, rng: random.Random) -> list[Item]:
    cells: dict[str, list] = {}
    for k, mask in enumerate(connected_classes()):
        perm = list(range(ORACLE_N))
        rng.shuffle(perm)
        pairs = [
            (perm[u], perm[v]) for i, (u, v) in enumerate(ORACLE_PAIRS) if mask >> i & 1
        ]
        m = len(pairs)
        cells.setdefault(f"simple-m{m}", []).append(tc.MultiGraph(range(ORACLE_N), pairs))
        if k % ORACLE_MULTI_EVERY == 0:
            g = tc.MultiGraph(range(ORACLE_N), pairs)
            for _ in range(2):
                g.add_edge(*rng.choice(pairs))
            w = rng.randrange(ORACLE_N)
            g.add_edge(w, w)
            cells.setdefault(f"multi-m{m}", []).append(g)
    graphs = interleave(
        [[Item(f"{name}#{i}", g) for i, g in enumerate(cell)] for name, cell in cells.items()]
    )
    # the three variants of a graph stay adjacent, so the chain check of a
    # pass prefix always sees whole graphs
    return [
        Item(f"{it.label}/{var}", (it.data, var))
        for it in graphs
        for var in VARIANTS
    ]


def oracle_warmup(tc) -> list[Item]:
    g = tc.MultiGraph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    return [Item(var, (g, var)) for var in VARIANTS]


def oracle_run(tc, item: Item):
    g, var = item.data
    return tc.exact_width(g, var)


def oracle_check(tc, items: list[Item], outs: list) -> dict[int, str]:
    bad: dict[int, str] = {}
    values: dict[int, dict[str, int]] = {}
    for i, (item, out) in enumerate(zip(items, outs)):
        g, var = item.data
        value, d = out
        rep = tc.width_report(d, g)
        got = {"tcw": rep.width, "stcw": rep.slim_width, "tcw0": rep.zero_width}[var]
        if got != value:
            bad[i] = f"{var} claimed {value}, width_report gives {got}"
        values.setdefault(id(g), {})[var] = (value, i)
    for per_graph in values.values():
        if len(per_graph) < 3:
            continue
        (t, _), (s, _), (z, iz) = (per_graph[v] for v in VARIANTS)
        if not t <= s <= z:
            bad.setdefault(iz, f"chain broken: tcw {t}, stcw {s}, tcw0 {z}")
    return bad


def oracle_canonical(tc, item: Item, out) -> str:
    value, d = out
    return f"{item.data[1]} {value}\n" + tc.decomposition_to_json(d)


# ---------------------------------------------------------------- ecw-enum

# (cell name, vertex counts, simple-tree-count band, extra-edge range,
# members, candidates). A band draws a fixed number of candidates, about
# 1.5 times what the rarest seeds need to fill it, so that input
# generation, and with it set-up time, costs about the same for every
# seed. p90 falls in the third band, which is narrow and has one vertex
# count so that p90 hardly moves with the seed.
ECW_BANDS = (
    ("trees-200-350", (9, 10, 11), (200, 350), (6, 10), 32, 400),
    ("trees-1000-1300", (9, 10, 11), (1000, 1300), (8, 12), 45, 1000),
    ("n9-trees-2600-3200", (9,), (2600, 3200), (10, 13), 19, 400),
    ("trees-9000-13000", (9, 10, 11), (9000, 13000), (12, 15), 2, 50),
)


def _banded_multigraphs(tc, rng, sizes, band, extra_range, members, candidates):
    """members graphs drawn by the seed from those of the candidates that
    have a parallel edge and a simple tree count inside band; more
    candidates are drawn only if too few fall inside."""
    lo, hi = band
    hits = []
    tries = 0
    while tries < candidates or len(hits) < members:
        tries += 1
        g = random_connected_multi(tc, rng, rng.choice(sizes), rng.randint(*extra_range))
        if not any(m > 1 for _, _, m in g.edge_pairs()):
            continue
        if lo <= simple_tree_count(tc, g) <= hi:
            hits.append(g)
    return rng.sample(hits, members)


def ecw_generate(tc, rng: random.Random) -> list[Item]:
    cells = []
    for name, sizes, band, extra, members, candidates in ECW_BANDS:
        graphs = _banded_multigraphs(tc, rng, sizes, band, extra, members, candidates)
        cell = [Item(f"{name}#{i}", g) for i, g in enumerate(graphs)]
        if name == "n9-trees-2600-3200":
            cell.append(Item("ladder(7)", tc.ladder(7)))
        if name == "trees-9000-13000":
            cell.append(Item("ladder(8)", tc.ladder(8)))
        cells.append(cell)
    return interleave(cells)


def ecw_warmup(tc) -> list[Item]:
    return [Item("ladder(4)", tc.ladder(4))]


def ecw_run(tc, item: Item):
    return tc.exact_ecw(item.data)


def ecw_check(tc, items: list[Item], outs: list) -> dict[int, str]:
    bad: dict[int, str] = {}
    for i, (item, (value, w)) in enumerate(zip(items, outs)):
        problems = tc.validate_witness(w)
        if problems:
            bad[i] = "; ".join(problems)
        elif w.base_graph != item.data or w.host != item.data:
            bad[i] = "witness is not over the input graph"
        elif tc.ecw_value(w.host, w.forest) != value:
            bad[i] = f"claimed {value}, forest gives {tc.ecw_value(w.host, w.forest)}"
    return bad


def ecw_canonical(tc, item: Item, out) -> str:
    value, w = out
    return f"{value}\n" + tc.witness_to_json(w)


# ---------------------------------------------------------------- normalize-bridge

NB_SIZES = (12, 14, 16, 18, 20)
NB_EXTRAS = (0, 3, 6, 10)
NB_PER_CELL = 5
NB_FAMILIES = (
    ("wall", 4), ("wall", 5), ("wall", 6),
    ("ladder", 6), ("ladder", 8), ("ladder", 10),
    ("windmill", 4), ("windmill", 6), ("windmill", 8),
)


@dataclass
class BridgeOut:
    very_nice: Any
    very_nice_json: str
    report: Any
    witness: Any
    witness_json: str
    witness_ecw: int
    back: Any
    back_json: str
    back_report: Any


def nb_generate(tc, rng: random.Random) -> list[Item]:
    cells = []
    for n in NB_SIZES:
        for extra in NB_EXTRAS:
            name = f"n{n}-x{extra}"
            cells.append(
                [
                    Item(f"{name}#{i}", random_connected_multi(tc, rng, n, extra))
                    for i in range(NB_PER_CELL)
                ]
            )
    cells.append(
        [Item(f"{kind}({r})", tc.make_family(kind, r)) for kind, r in NB_FAMILIES]
    )
    return interleave(cells)


def nb_warmup(tc) -> list[Item]:
    return [Item("ladder(4)", tc.ladder(4))]


def nb_run(tc, item: Item) -> BridgeOut:
    g = item.data
    vn = tc.make_very_nice(star_decomposition(tc, g), g)
    rep = tc.width_report(vn, g)
    vn_json = tc.decomposition_to_json(vn)
    vn = tc.parse_decomposition_json(vn_json)
    w = tc.decomposition_to_witness(g, vn)
    w_json = tc.witness_to_json(w)
    w = tc.parse_witness_json(w_json)
    e = tc.witness_ecw(w)
    back = tc.witness_to_decomposition(w)
    back_json = tc.decomposition_to_json(back)
    back = tc.parse_decomposition_json(back_json)
    back_rep = tc.width_report(back, g)
    return BridgeOut(vn, vn_json, rep, w, w_json, e, back, back_json, back_rep)


def nb_check(tc, items: list[Item], outs: list) -> dict[int, str]:
    bad: dict[int, str] = {}
    for i, (item, o) in enumerate(zip(items, outs)):
        g = item.data
        r0 = tc.width_report(star_decomposition(tc, g), g)
        s = o.report.slim_width
        problems = []
        if tc.is_very_nice(o.very_nice, g):
            problems.append("output is not very nice")
        if o.report.width > r0.width or s > r0.slim_width:
            problems.append(
                f"widths rose: ({r0.width}, {r0.slim_width}) -> ({o.report.width}, {s})"
            )
        if o.witness_ecw > 3 * (s + 1) ** 2:
            problems.append(f"witness ecw {o.witness_ecw} > 3(s+1)^2 for s = {s}")
        if tc.validate_witness(o.witness) or o.witness.base_graph != g:
            problems.append("witness invalid or not over the input graph")
        if tc.validate(o.back, g):
            problems.append("round-trip decomposition is invalid")
        if o.back_report.width > o.witness_ecw:
            problems.append(f"round-trip width {o.back_report.width} > ecw {o.witness_ecw}")
        for obj, text, dump in (
            (o.very_nice, o.very_nice_json, tc.decomposition_to_json),
            (o.witness, o.witness_json, tc.witness_to_json),
            (o.back, o.back_json, tc.decomposition_to_json),
        ):
            if dump(obj) != text:
                problems.append("JSON round trip is not a fixed point")
        if problems:
            bad[i] = "; ".join(problems)
    return bad


def nb_canonical(tc, item: Item, out: BridgeOut) -> str:
    r, b = out.report, out.back_report
    head = (
        f"{r.width} {r.slim_width} {r.zero_width} {out.witness_ecw} "
        f"{b.width} {b.slim_width} {b.zero_width}\n"
    )
    return head + out.very_nice_json + out.witness_json + out.back_json


# ---------------------------------------------------------------- edp-dp

# (rungs, pairs, every edge doubled, members). Ordered by cost the cells
# put the median inside doubled r4/k2 and p90 inside doubled r4/k3.
EDP_CELLS = (
    (3, 3, False, 9), (4, 3, False, 9), (5, 3, False, 9), (6, 3, False, 9),
    (3, 2, True, 8), (4, 2, True, 14), (5, 2, True, 6), (6, 2, True, 6),
    (3, 3, True, 13), (4, 3, True, 13), (5, 3, True, 2), (6, 3, True, 2),
)


def _ladder_instance(tc, rungs: int, doubled: bool):
    g0 = tc.ladder(rungs)
    g = tc.MultiGraph(g0.vertices())
    for u, v, m in g0.edge_pairs():
        g.add_edge(u, v, 2 * m if doubled else m)
    w = tc.SpanningWitness(g.copy(), g.copy(), frozenset(g0.meta["spanning_tree"]))
    return g, w


def edp_generate(tc, rng: random.Random) -> list[Item]:
    cells = []
    for rungs, k, doubled, members in EDP_CELLS:
        g, w = _ladder_instance(tc, rungs, doubled)
        name = f"{'double' if doubled else 'plain'}-r{rungs}-k{k}"
        cell = []
        for i in range(members):
            pairs = [tuple(rng.sample(range(2 * rungs), 2)) for _ in range(k)]
            cell.append(Item(f"{name}#{i}", (g, w, pairs)))
        cells.append(cell)
    return interleave(cells)


def edp_warmup(tc) -> list[Item]:
    g, w = _ladder_instance(tc, 3, True)
    return [Item("double-r3", (g, w, [(0, 5), (1, 3)]))]


def edp_run(tc, item: Item) -> bool:
    g, w, pairs = item.data
    return tc.edp_solve_dp(g, w, pairs)


def edp_check(tc, items: list[Item], outs: list) -> dict[int, str]:
    bad: dict[int, str] = {}
    for i, (item, answer) in enumerate(zip(items, outs)):
        g, _, pairs = item.data
        truth, _ = tc.edp_bruteforce(g, pairs, limit=EDP_BRUTE_LIMIT)
        if answer != truth:
            bad[i] = f"dp says {answer}, brute force says {truth}"
    return bad


def edp_canonical(tc, item: Item, out: bool) -> str:
    return f"{item.label} {out}"


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable
    warmup: Callable
    run: Callable
    check: Callable
    canonical: Callable
    trace_items: int  # prefix of the pool measured by each traced pass


WORKLOADS = {
    w.name: w
    for w in (
        Workload("oracle-corpus", oracle_generate, oracle_warmup, oracle_run,
                 oracle_check, oracle_canonical, 120),
        Workload("ecw-enum", ecw_generate, ecw_warmup, ecw_run,
                 ecw_check, ecw_canonical, 25),
        Workload("normalize-bridge", nb_generate, nb_warmup, nb_run,
                 nb_check, nb_canonical, 30),
        Workload("edp-dp", edp_generate, edp_warmup, edp_run,
                 edp_check, edp_canonical, 40),
    )
}
