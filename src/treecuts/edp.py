"""Edge Disjoint Paths via dynamic programming along a spanning witness.

A demand is satisfied iff some set of edge copies gives odd degree to
exactly its two terminals: such a set contains a path between them (a
component with exactly one odd vertex cannot exist), and spare cycles
are harmless. So k demands route iff every base vertex pair can take a
k-bit mask (bit i: demand i uses an odd number of its copies) such that
at every vertex the masks XOR to the demands ending there. Parallel
copies are interchangeable and two copies in one demand cancel, so a
pair of multiplicity m takes exactly the masks of popcount at most m.
Loops, ghost copies and ghost vertices carry nothing and never enter a
state.

The DP sweeps the witness forest deepest vertex first. A subtree's state
is a tuple of masks, one per pair with exactly one end inside; a pair
leaves the state at the lowest common ancestor of its ends. Each copy of
such a pair is the subtree's tree edge or charges the subtree's root,
and m copies take at most (k+1)^m masks, so a subtree keeps at most
(k+1)^ecw states for a witness of edge-cut width ecw. Children are
joined on the pairs they share, and the last pair leaving a vertex
upwards takes the mask its parity forces.
"""
from __future__ import annotations

from collections import Counter
from operator import itemgetter

from .ecw import SpanningWitness, _climb, _rooted_witness
from .multigraph import MultiGraph, _norm
from .oracle import SizeLimitError

BRUTE_FORCE_EDGE_LIMIT = 14  # edp_bruteforce's default cap on edge copies


def _check_terminals(g: MultiGraph, pairs) -> list[tuple[int, int]]:
    out = []
    for s, t in pairs:
        if not (g.has_vertex(s) and g.has_vertex(t)):
            raise ValueError(f"terminal pair ({s},{t}) outside the graph")
        out.append((s, t))
    return out


def edp_solve_dp(g: MultiGraph, w: SpanningWitness, pairs) -> bool:
    """Decide whether g routes all terminal pairs edge-disjointly."""
    return _solve_dp(g, w, pairs)[0]


def _solve_dp(g: MultiGraph, w: SpanningWitness, pairs) -> tuple[bool, int]:
    """edp_solve_dp's answer and the most states kept for one subtree."""
    problems, parent, depth = _rooted_witness(w)
    if problems:
        raise ValueError(f"invalid witness: {problems}")
    if w.base_graph != g:
        raise ValueError("witness was built for a different graph")
    demands = [(s, t) for s, t in _check_terminals(g, pairs) if s != t]
    if not demands:
        return True, 0
    k = len(demands)
    need = dict.fromkeys(w.host.vertices(), 0)  # the demands ending at v
    for i, (s, t) in enumerate(demands):
        need[s] ^= 1 << i
        need[t] ^= 1 << i
    masks = [[x for x in range(1 << k) if x.bit_count() <= m] for m in range(k + 1)]

    # per pair, its lowest common ancestor and whether that is an end;
    # per vertex, the pairs whose other end lies outside its subtree
    low: list[int] = []
    at_end: list[bool] = []
    fresh: dict[int, list[tuple[int, int]]] = {v: [] for v in parent}
    for u, v, m in g.edge_pairs():
        if u == v:
            continue
        a = _climb(parent, depth, u, v)[0][-1]
        p = len(low)
        low.append(a)
        at_end.append(a == u or a == v)
        for x in (u, v):
            if x != a:
                fresh[x].append((p, min(m, k)))

    done: dict[int, list] = {v: [] for v in parent}  # slots and states per child
    peak = 0
    for v in sorted(parent, key=depth.__getitem__, reverse=True):
        # entry 0 of a joined state is the XOR of v's pairs joined so far
        slots, states = [], {(0,)}
        for child in done.pop(v):
            slots, states = _join(slots, states, *child, v, low, at_end)
        parity = {(s[1:], s[0] ^ need[v]) for s in states}
        if fresh[v]:
            *rest, (_, last) = fresh[v]
            combos = [(0, ())]
            for _, m in rest:
                combos = [(x ^ y, t + (y,)) for x, t in combos for y in masks[m]]
            tails: dict[int, list[tuple[int, ...]]] = {}
            out = set()
            for s, x in parity:
                if x not in tails:
                    tails[x] = [
                        t + (x ^ y,) for y, t in combos if (x ^ y).bit_count() <= last
                    ]
                out.update(s + t for t in tails[x])
            slots = slots + [p for p, _ in fresh[v]]
        else:
            out = {s for s, x in parity if x == 0}
        if not out:
            return False, peak
        peak = max(peak, len(out))
        if parent[v] is not None:
            done[parent[v]].append((slots, out))
    return True, peak


def _entries(idx: list[int]):
    """A function taking a tuple to the tuple of its entries at idx."""
    if not idx:
        return lambda s: ()
    if len(idx) == 1:
        i = idx[0]
        return lambda s: (s[i],)
    return itemgetter(*idx)


def _join(slots, states, cslots, cstates, v, low, at_end):
    """Join v's states so far with those of its child's subtree.

    Pairs in both slot lists run between the two sides and must agree;
    they are dropped after the join, since both ends are then inside. A
    child pair ending at v is folded into entry 0.
    """
    have = {p: i for i, p in enumerate(slots, 1)}
    key, ckey, own, ckeep = [], [], [], []
    for j, p in enumerate(cslots):
        if p in have:
            key.append(have.pop(p))
            ckey.append(j)
        elif low[p] == v and at_end[p]:
            own.append(j)
        else:
            ckeep.append(j)
    keep = list(have.values())  # ascending, as slots were entered
    index: dict[tuple[int, ...], set[tuple[int, tuple[int, ...]]]] = {}
    ckey_of, ckeep_of = _entries(ckey), _entries(ckeep)
    for s in cstates:
        x = 0
        for j in own:
            x ^= s[j]
        index.setdefault(ckey_of(s), set()).add((x, ckeep_of(s)))
    key_of, keep_of = _entries(key), _entries(keep)
    out = set()
    for s in states:
        for x, t in index.get(key_of(s), ()):
            out.add((s[0] ^ x,) + keep_of(s) + t)
    return [slots[i - 1] for i in keep] + [cslots[j] for j in ckeep], out


def edp_bruteforce(
    g: MultiGraph, pairs, limit: int = BRUTE_FORCE_EDGE_LIMIT
) -> tuple[bool, list[list[int]] | None]:
    """Exhaustive search; on yes, also returns one explicit path system
    as vertex sequences, in the order the pairs were given."""
    if g.num_edges() > limit:
        raise SizeLimitError(f"{g.num_edges()} edges exceed the search limit {limit}")
    demands = _check_terminals(g, pairs)
    avail: Counter = Counter()
    for u, v, m in g.edge_pairs():
        if u != v:
            avail[(u, v)] = m

    def paths(s: int, t: int):
        # simple s-t paths over remaining edge capacity, lexicographic
        path = [s]
        seen = {s}

        def dfs(u):
            if u == t:
                # while this generator is suspended here, the path's
                # edges stay decremented in avail, so deeper demands
                # cannot reuse them
                yield list(path)
                return
            for x in sorted(g.neighbors(u)):
                pair = _norm(u, x)
                if x in seen or avail[pair] <= 0:
                    continue
                avail[pair] -= 1
                seen.add(x)
                path.append(x)
                yield from dfs(x)
                path.pop()
                seen.remove(x)
                avail[pair] += 1

        yield from dfs(s)

    def solve(i: int):
        if i == len(demands):
            return []
        s, t = demands[i]
        if s == t:
            rest = solve(i + 1)
            return None if rest is None else [[s]] + rest
        for p in paths(s, t):
            rest = solve(i + 1)
            if rest is not None:
                return [p] + rest
        return None

    system = solve(0)
    return (True, system) if system is not None else (False, None)
