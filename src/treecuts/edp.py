"""Edge Disjoint Paths via dynamic programming along a spanning witness.

The DP assigns every edge copy to one demand or to none, sweeping the
witness tree bottom-up. A demand is satisfied iff its edge class gives
odd degree to exactly its two terminals: a class with that degree
profile always contains a path between the terminals (a component with
exactly one odd vertex cannot exist), and spare cycles are harmless, so
no connectivity bookkeeping is needed. The DP state at a tree node is
the class assignment of the edges crossing its subtree, and every such
edge either is the node's own tree edge or charges the node as a
feedback edge, so states stay bounded in terms of the witness's
edge-cut width. Ghost edges only ever take the "unused" class.
"""
from __future__ import annotations

from collections import Counter

from .ecw import SpanningWitness, validate_witness
from .multigraph import MultiGraph, _norm
from .oracle import SizeLimitError

Token = tuple[int, int, int]  # (u, v, copy) with u <= v


def _check_terminals(g: MultiGraph, pairs) -> list[tuple[int, int]]:
    out = []
    for s, t in pairs:
        if not (g.has_vertex(s) and g.has_vertex(t)):
            raise ValueError(f"terminal pair ({s},{t}) outside the graph")
        out.append((s, t))
    return out


def edp_solve_dp(g: MultiGraph, w: SpanningWitness, pairs) -> bool:
    """Decide whether g routes all terminal pairs edge-disjointly."""
    problems = validate_witness(w)
    if problems:
        raise ValueError(f"invalid witness: {problems}")
    if w.base_graph != g:
        raise ValueError("witness was built for a different graph")
    demands = [(s, t) for s, t in _check_terminals(g, pairs) if s != t]
    if not demands:
        return True
    k = len(demands)

    host = w.host
    tokens: list[Token] = []
    ghost: dict[Token, bool] = {}
    for u, v, m in host.edge_pairs():
        if u == v:
            continue  # a loop contributes even degree; it can never help
        base = w.base_graph.multiplicity(u, v)
        for c in range(m):
            tok = (u, v, c)
            tokens.append(tok)
            ghost[tok] = c >= base
    incident: dict[int, list[Token]] = {v: [] for v in host.vertices()}
    for tok in tokens:
        incident[tok[0]].append(tok)
        incident[tok[1]].append(tok)

    # root each forest component at its least vertex; Euler intervals give
    # constant-time subtree membership
    adj: dict[int, list[int]] = {v: [] for v in host.vertices()}
    for u, v in w.forest:
        adj[u].append(v)
        adj[v].append(u)
    parent: dict[int, int | None] = {}
    children: dict[int, list[int]] = {v: [] for v in host.vertices()}
    roots = []
    order = []
    tin: dict[int, int] = {}
    tout: dict[int, int] = {}
    clock = 0
    for r in host.sorted_vertices():
        if r in parent:
            continue
        roots.append(r)
        parent[r] = None
        stack: list[tuple[int, int]] = [(r, 0)]
        while stack:
            u, stage = stack.pop()
            if stage == 0:
                tin[u] = clock
                clock += 1
                stack.append((u, 1))
                for x in sorted(adj[u], reverse=True):
                    if x not in parent:
                        parent[x] = u
                        children[u].append(x)
                        stack.append((x, 0))
            else:
                tout[u] = clock
                clock += 1
                order.append(u)

    def inside(x: int, v: int) -> bool:
        return tin[v] <= tin[x] and tout[x] <= tout[v]

    def required_parity(v: int, i: int) -> int:
        s, t = demands[i]
        return 1 if (v == s) != (v == t) else 0

    profiles: dict[int, list[dict[Token, int]]] = {}
    for v in order:
        merged: list[dict[Token, int]] = [{}]
        for c in children[v]:
            child_profiles = profiles.pop(c, [])
            nxt = []
            for p in merged:
                for q in child_profiles:
                    ok = True
                    for tok, cls in q.items():
                        if tok in p and p[tok] != cls:
                            ok = False
                            break
                    if ok:
                        r = dict(p)
                        r.update(q)
                        nxt.append(r)
            merged = nxt
            if not merged:
                break
        fresh = [
            tok
            for tok in incident[v]
            if not inside(tok[0] if tok[1] == v else tok[1], v)
        ]
        out: dict = {}
        for p in merged:
            stack2 = [(p, 0)]
            while stack2:
                cur, i = stack2.pop()
                if i == len(fresh):
                    counts = [0] * k
                    for tok in incident[v]:
                        cls = cur.get(tok, 0)
                        if cls:
                            counts[cls - 1] += 1
                    if all(
                        counts[i2] % 2 == required_parity(v, i2) for i2 in range(k)
                    ):
                        proj = {
                            tok: cls
                            for tok, cls in cur.items()
                            if inside(tok[0], v) != inside(tok[1], v)
                        }
                        out[frozenset(proj.items())] = proj
                    continue
                tok = fresh[i]
                classes = (0,) if ghost[tok] else range(k + 1)
                for cls in classes:
                    nxt2 = dict(cur)
                    nxt2[tok] = cls
                    stack2.append((nxt2, i + 1))
        profiles[v] = list(out.values())
        if not profiles[v]:
            return False
    return all(profiles[r] for r in roots)


def edp_bruteforce(
    g: MultiGraph, pairs, limit: int = 14
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
