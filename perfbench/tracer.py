"""In-memory span tracing of the treecuts layers, installed from outside.

The tracer wraps the public functions of each traced module and a few
heavy methods, and rebinds every module and class attribute that refers
to them, so calls made inside the library (``oracle`` calling
``consolidate``, ``transform`` calling ``width_report``) are recorded as
well as the benchmark's own calls. Nothing in ``src/`` changes.

A span is (name, start, end, parent). Spans are appended to flat arrays
while the traced code runs and folded into totals after each pass: a
span's self time is its duration minus the time covered by its child
spans. The code is single-threaded, so child spans never overlap and
that covered time is the sum of their durations.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# the layers: each module's public functions are traced under
# "<module>.<function>"
MODULES = ("multigraph", "decomposition", "oracle", "ecw", "transform", "edp", "formats")

# methods that do work proportional to the graph or tree, traced as
# "<module>.<method>"; cheap accessors stay untraced to keep overhead low
METHODS = {
    ("multigraph", "MultiGraph"): ("copy", "induced", "components", "cut_size", "neighborhood"),
    ("decomposition", "TreeCutDecomposition"): (
        "children", "children_map", "subtree_nodes", "subtree_vertices", "copy",
    ),
}

ITEM = "item"  # root span around one workload item, recorded by the benchmark


def _targets(tc) -> list[tuple[str, object, str, object]]:
    """(span name, owner, attribute, function) for everything traced."""
    out = []
    for mod_name in MODULES:
        mod = sys.modules[f"{tc.__name__}.{mod_name}"]
        for attr, fn in sorted(vars(mod).items()):
            if (
                inspect.isfunction(fn)
                and fn.__module__ == mod.__name__
                and not attr.startswith("_")
                and not inspect.isgeneratorfunction(fn)
            ):
                out.append((f"{mod_name}.{attr}", mod, attr, fn))
    for (mod_name, cls_name), methods in METHODS.items():
        cls = getattr(sys.modules[f"{tc.__name__}.{mod_name}"], cls_name)
        for attr in methods:
            out.append((f"{mod_name}.{attr}", cls, attr, vars(cls)[attr]))
    names = [t[0] for t in out]
    assert len(names) == len(set(names)), "traced span names must be unique"
    return out


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [ITEM]
        self._ids = {ITEM: 0}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self._bindings: list[tuple[object, str, object, object]] = []
        self._kept = 0  # spans before this index are kept for writing
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.items: list[dict] = []
        self.trees = 0

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def item(self, fn, *args):
        """Run fn(*args) inside a root item span."""
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, nid: int, fn):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def prepare(self, tc) -> None:
        """Build a wrapper for every traced function and find every
        treecuts module or class attribute that refers to it."""
        prefix = tc.__name__ + "."
        modules = [m for k, m in sorted(sys.modules.items()) if k == tc.__name__ or k.startswith(prefix)]
        self._bindings = []
        for name, owner, attr, fn in _targets(tc):
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            wrapper = self._wrap(self._ids[name], fn)
            if isinstance(owner, type):
                self._bindings.append((owner, attr, fn, wrapper))
                continue
            for mod in modules:
                for key, val in vars(mod).items():
                    if val is fn:
                        self._bindings.append((mod, key, fn, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn, _ in self._bindings:
            setattr(owner, attr, fn)

    def collect(self, keep: bool) -> None:
        """Fold the spans recorded since the last call into the totals:
        per-name calls and self time, per-item latency and call counts,
        and the ecw_value calls made directly by exact_ecw (the spanning
        trees it evaluated). The spans are then dropped unless keep."""
        lo = self._kept
        name = self.name[lo:].tolist()
        parent = [p - lo for p in self.parent[lo:]]
        dur = [e - b for b, e in zip(self.start[lo:], self.end[lo:])]
        own = dur[:]
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= dur[i]
        for nid, count in Counter(name).items():
            self.calls[self.names[nid]] += count
        for nid, t in zip(name, own):
            self.self_s[self.names[nid]] += t
        roots = [i for i, p in enumerate(parent) if p < 0] + [len(name)]
        for a, b in zip(roots, roots[1:]):
            if self.names[name[a]] == ITEM:
                counts = Counter(name[a + 1 : b])
                self.items.append({
                    "latency_s": dur[a],
                    "calls": {self.names[nid]: c for nid, c in sorted(counts.items())},
                })
        exact_ecw = self._ids.get("ecw.exact_ecw", -1)
        ecw_value = self._ids.get("ecw.ecw_value", -1)
        self.trees += sum(
            1 for nid, p in zip(name, parent)
            if nid == ecw_value and p >= 0 and name[p] == exact_ecw
        )
        if keep:
            self._kept = len(self.name)
        else:
            for arr in (self.name, self.start, self.end, self.parent):
                del arr[lo:]

    def write(self, path, extra: dict) -> None:
        """Write the kept spans and per-item records, plus extra, as
        gzipped JSON."""
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "per_item": self.items,
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as f:
            json.dump(doc, f)
