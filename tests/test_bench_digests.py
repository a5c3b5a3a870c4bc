"""The benchmark's seed-1 outputs, byte for byte.

Each workload's seed-1 pool is built by perfbench/workloads.py and run
once; its canonical outputs are hashed as perfbench/run.py hashes them
and compared with the digests recorded in perfbench/digests.json.
"""
import hashlib
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

import treecuts

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = load_workloads()
DIGESTS = json.loads((BENCH / "digests.json").read_text())


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_seed1_outputs_match_recorded_digest(name):
    wl = WORKLOADS[name]
    items = wl.generate(treecuts, random.Random(SEED))
    outs = [wl.run(treecuts, item) for item in items]
    assert wl.check(treecuts, items, outs) == {}
    canon = [wl.canonical(treecuts, item, out) for item, out in zip(items, outs)]
    assert hashlib.sha256("\n".join(map(str, canon)).encode()).hexdigest() == DIGESTS[name]
