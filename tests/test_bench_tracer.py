"""The benchmark's tracer still finds every name it wraps.

perfbench/tracer.py wraps each public function of the traced modules and
a fixed list of methods, which it looks up with vars(cls)[attr]. Nothing
else in the suite loads it, so a method renamed or moved out of the
library would otherwise fail only in a traced benchmark run.
"""
import importlib.util
from pathlib import Path

import treecuts
from treecuts.decomposition import singleton_decomposition
from treecuts.families import windmill

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_records_and_uninstalls():
    tracer = load_tracer().Tracer()
    tracer.prepare(treecuts)
    bindings = list(tracer._bindings)
    g = windmill(2)
    d = singleton_decomposition(g)
    try:
        tracer.install()
        for owner, attr, _, wrapper in bindings:
            assert vars(owner)[attr] is wrapper
        # width_report runs validate and children_map, rebound in place
        tracer.item(treecuts.decomposition.width_report, d, g)
    finally:
        tracer.uninstall()
    for owner, attr, fn, _ in bindings:
        assert vars(owner)[attr] is fn
    tracer.collect(keep=False)
    assert tracer.calls["decomposition.width_report"] == 1
    assert tracer.calls["decomposition.validate"] == 1
    assert tracer.calls["decomposition.children_map"] == 1
