"""Every script imports, so a name it uses that moved or went away fails
here rather than on its next manual run. Each script guards its main,
so importing runs nothing."""
import importlib.util
from pathlib import Path

import pytest

from treecuts.families import wall

SCRIPT_DIR = Path(__file__).resolve().parent.parent / "scripts"
SCRIPTS = sorted(SCRIPT_DIR.glob("*.py"))


def test_scripts_are_found():
    assert len(SCRIPTS) >= 7


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_script_imports(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_normalize_stage_table_counts_on_wall_4():
    # the script counts DFS states and kernel calls by wrapping
    # _TreePass.within and decomposition._center_size; pinned counts show
    # the wrapped names still sit on the paths they count
    path = SCRIPT_DIR / "normalize_stage_table.py"
    spec = importlib.util.spec_from_file_location("script_normalize_stage_table", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    times, calls, states = module.run_once(wall(4))
    assert states == 12
    assert calls == {"make_very_nice": 22, "width_report": 0, "to_witness": 0,
                     "json": 0, "to_decomposition": 0}
    assert set(times) == set(calls)


def test_normalize_target_count_on_seed_3():
    # the script tells stages apart by wrapping transform._verified_dfs,
    # transform._relaxed_best_first and _TreePass.within; pinned counts
    # show the wrapped names still sit on the paths they count
    path = SCRIPT_DIR / "normalize_target_count.py"
    spec = importlib.util.spec_from_file_location("script_normalize_target_count", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    counts = module.count_stages(3, 2000)
    assert counts["pair"] == {"nice": 1348, "dfs": 611, "dfs-rejected": 38, "re-root": 3}
    assert counts["width"] == {"nice": 1348, "dfs": 652}
