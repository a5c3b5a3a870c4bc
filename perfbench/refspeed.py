"""Machine-speed reference for the timed runs.

On a shared host the speed of identical pure-Python work drifts by up to
1.7 times, in spells that last from a second to minutes, and CPU time
drifts with wall time. So the benchmark runs a fixed reference kernel
between items and scales each measured duration by how fast the kernel
ran at that moment:

    scaled = measured * REF_NOMINAL_S / (local kernel duration)

A scaled time is the time the work would take on a machine where one
kernel call takes ``REF_NOMINAL_S``. The kernel uses only the standard
library and the same kind of operations as treecuts (dicts of dicts,
sets, graph search, union-find), so it slows down with the machine but
not with any change to the program under test.
"""
from __future__ import annotations

import random
import statistics
from time import perf_counter

# duration of one kernel call on the 2-core machine the benchmark was
# defined on, in a fast spell; only a scale, so it never changes
REF_NOMINAL_S = 0.0005

# reference samples on each side of a measurement that make up its
# local kernel duration
WINDOW = 10

_rng = random.Random(20220630)
_N = 24
_EDGES = [(i, _rng.randrange(i)) for i in range(1, _N)]
_EDGES += [tuple(_rng.sample(range(_N), 2)) for _ in range(30)]
_PARTS = [frozenset(_rng.sample(range(_N), _rng.randint(2, _N - 2))) for _ in range(40)]


def kernel() -> int:
    """Build a multigraph's adjacency, then cut sizes, searches and a
    spanning forest over fixed inputs."""
    adj: dict[int, dict[int, int]] = {v: {} for v in range(_N)}
    for u, v in _EDGES:
        adj[u][v] = adj[u].get(v, 0) + 1
        adj[v][u] = adj[v].get(u, 0) + 1
    total = 0
    for part in _PARTS:
        total += sum(m for u in part for w, m in adj[u].items() if w not in part)
        seen = {min(part)}
        stack = list(seen)
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in part and y not in seen:
                    seen.add(y)
                    stack.append(y)
        total += len(seen)
    parent = list(range(_N))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in sorted(_EDGES, key=lambda e: (e[1], e[0])):
        a, b = find(u), find(v)
        if a != b:
            parent[a] = b
            total += 1
    return total


KERNEL_RESULT = kernel()


def sample() -> float:
    """Duration of one kernel call, checked against its fixed result."""
    t0 = perf_counter()
    out = kernel()
    dt = perf_counter() - t0
    if out != KERNEL_RESULT:
        raise RuntimeError("reference kernel gave a different result")
    return dt


def scale(durations: list[float], refs: list[float]) -> list[float]:
    """Scale durations[k] by the median of the reference samples
    refs[k - WINDOW .. k + WINDOW], taken around it in the same order."""
    out = []
    for k, dt in enumerate(durations):
        local = statistics.median(refs[max(0, k - WINDOW): k + WINDOW + 1])
        out.append(dt * REF_NOMINAL_S / local)
    return out
