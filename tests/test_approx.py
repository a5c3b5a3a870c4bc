import math
import os
import random
import stat
import subprocess
from unittest import mock

import pytest
from hypothesis import given, settings

from treecuts.approx import (
    ApproxResult,
    ExternalProvider,
    ProviderError,
    approximate_stcw,
    oracle_provider,
)
from treecuts.cli import main
from treecuts.decomposition import (
    TreeCutDecomposition,
    _TreePass,
    is_very_nice,
    singleton_decomposition,
    validate,
    width_report,
)
from treecuts.families import wall, windmill
from treecuts.formats import decomposition_to_json, write_edge_list
from treecuts import approx, oracle
from treecuts.multigraph import MultiGraph
from treecuts.oracle import SizeLimitError, exact_width

from conftest import cached_width, chain_decomposition, random_connected_simple
from test_decomposition import decomposed
from test_transform import FOUR_BAGS


def tree6():
    return MultiGraph(range(6), [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])


def test_tree_accepted_at_omega_one():
    r = approximate_stcw(tree6(), 1)
    assert r.accepted and r.reason == "certified"
    assert r.slim_width is not None and r.slim_width <= r.slim_bound
    assert validate(r.decomposition, tree6()) == []
    assert is_very_nice(r.decomposition, tree6()) == []


def test_windmill_rejected_below_true_width():
    g = windmill(4)
    r = approximate_stcw(g, 1)
    assert not r.accepted and r.reason == "provider-no"
    assert r.decomposition is None


def test_windmill_accepted_at_true_width():
    g = windmill(4)
    r = approximate_stcw(g, 2)
    assert r.accepted
    assert r.slim_width <= 6 * (2 + 1) ** 3
    assert is_very_nice(r.decomposition, g) == []


def test_rejects_bad_omega():
    with pytest.raises(ValueError):
        approximate_stcw(tree6(), 0)


def test_never_no_when_true_width_small(corpus_small):
    # soundness of the "no" side on the exhaustive small corpus
    for g in corpus_small:
        true_slim = cached_width(g, "stcw")[0]
        for omega in range(1, 4):
            r = approximate_stcw(g, omega)
            if true_slim <= omega:
                assert r.accepted, (sorted(g.edges()), omega, true_slim)
            if r.accepted:
                assert width_report(r.decomposition, g).slim_width <= r.slim_bound


def test_b2_threshold_refutation():
    # star of doubled-edge leaves: the very nice decomposition keeps one
    # B2 child per leaf, and 25 of them exceed the omega=1 threshold 24
    n = 25
    g = MultiGraph(range(n + 1))
    for i in range(1, n + 1):
        g.add_edge(0, i)
        g.add_edge(0, i)

    def fabricated(h, omega):
        parent = {0: None}
        bags = {0: {0}}
        for i in range(1, n + 1):
            parent[i] = 0
            bags[i] = {i}
        return TreeCutDecomposition(0, parent, bags)

    r = approximate_stcw(g, 1, provider=fabricated)
    assert not r.accepted and r.reason == "b2-threshold"
    assert max(r.b2_sizes.values()) > r.b2_threshold
    assert r.decomposition is not None  # the audited decomposition ships


def write_script(tmp_path, name, body):
    p = tmp_path / name
    p.write_text("#!/bin/sh\n" + body)
    os.chmod(p, os.stat(p).st_mode | stat.S_IXUSR)
    return str(p)


def test_external_provider_no(tmp_path):
    prog = write_script(tmp_path, "sayno.sh", 'echo "NO"\n')
    p = ExternalProvider(prog)
    assert p(tree6(), 1) is None


def test_external_provider_decomp(tmp_path):
    body = (
        "cat > /dev/null\n"
        "echo 'DECOMP'\n"
        "echo '{\"root\": 0, \"nodes\": [{\"id\": 0, \"parent\": null,"
        " \"bag\": [0, 1]}]}'\n"
    )
    prog = write_script(tmp_path, "decomp.sh", body)
    p = ExternalProvider(prog)
    d = p(MultiGraph(range(2), [(0, 1)]), 1)
    assert d is not None and d.bags[0] == {0, 1}


def test_external_provider_garbage(tmp_path):
    prog = write_script(tmp_path, "junk.sh", 'echo "MAYBE"\n')
    with pytest.raises(ProviderError):
        ExternalProvider(prog)(tree6(), 1)
    prog2 = write_script(tmp_path, "fail.sh", "exit 7\n")
    with pytest.raises(ProviderError):
        ExternalProvider(prog2)(tree6(), 1)
    with pytest.raises(ProviderError):
        ExternalProvider(str(tmp_path / "missing.sh"))(tree6(), 1)


def test_external_provider_timeout(tmp_path, capsys):
    # a hung provider is a misbehaving one (CLI exit 2), not a refutation
    prog = write_script(tmp_path, "hang.sh", 'echo "NO"\n')
    hung = subprocess.TimeoutExpired([prog, "1"], 600)
    with mock.patch.object(subprocess, "run", side_effect=hung):
        with pytest.raises(ProviderError, match="timed out"):
            ExternalProvider(prog)(tree6(), 1)
        gpath = tmp_path / "g.txt"
        gpath.write_text(write_edge_list(tree6()))
        assert main(["approx", str(gpath), "--omega", "1", "--provider", f"exec:{prog}"]) == 2
    assert "timed out" in capsys.readouterr().err


def test_external_provider_feeds_pipeline(tmp_path):
    # provider returning the one-bag decomposition of K2 at omega 1
    body = (
        "cat > /dev/null\n"
        "echo 'DECOMP'\n"
        "echo '{\"root\": 0, \"nodes\": [{\"id\": 0, \"parent\": null,"
        " \"bag\": [0, 1]}]}'\n"
    )
    prog = write_script(tmp_path, "k2.sh", body)
    g = MultiGraph(range(2), [(0, 1)])
    r = approximate_stcw(g, 1, provider=ExternalProvider(prog))
    assert isinstance(r, ApproxResult)
    assert r.accepted


def test_oracle_provider_width_contract(monkeypatch):
    searched = []  # width bounds tried since the last clear
    real_run = oracle._Search.run
    monkeypatch.setattr(oracle._Search, "run", lambda s, w: searched.append(w) or real_run(s, w))
    rng = random.Random(2208)
    for _ in range(12):
        g = random_connected_simple(rng, rng.randint(2, 9))
        exact, want = exact_width(g, "tcw", max_vertices=9)
        for omega in (1, 2, 3):
            searched.clear()
            d = oracle_provider(g, omega)
            assert (d is None) == (exact > omega)
            assert max(searched) == min(exact, omega)
            if d is not None:
                assert width_report(d, g).width <= 2 * omega
                assert (d.parent, d.bags) == (want.parent, want.bags)


def test_oracle_provider_refuses_graphs_past_its_cap():
    # the provider searches at most the oracle's shared bag table cap
    g = MultiGraph(range(10), [(i, i + 1) for i in range(9)])
    cap = oracle._PROVIDER_MAX_VERTICES
    assert cap == 9
    with pytest.raises(SizeLimitError, match=f"^10 vertices exceed the search limit {cap}$"):
        oracle_provider(g, 1)


def test_provider_width_contract_enforced():
    # the one-bag decomposition of wall(8) has width far above 2*omega;
    # it once came back "certified" with slim width 64 > slim_bound 48
    g = wall(8)
    with pytest.raises(ProviderError, match="width"):
        approximate_stcw(g, 1, provider=lambda h, omega: singleton_decomposition(h))

    def drops_a_vertex(h, omega):
        return TreeCutDecomposition(0, {0: None}, {0: set(h.vertices()) - {0}})

    with pytest.raises(ProviderError, match="invalid"):
        approximate_stcw(tree6(), 1, provider=drops_a_vertex)


def test_refuses_to_certify_past_the_slim_bound(monkeypatch):
    # a valid provider answer whose normalization came back wider than
    # the bound 6(omega+1)^3 = 48 raises rather than certifies
    g = MultiGraph(range(50), [(i, i + 1) for i in range(49)])
    monkeypatch.setattr(
        approx, "_very_nice",
        lambda tp, *, slim: _TreePass(singleton_decomposition(tp.g), tp.g),
    )
    with pytest.raises(RuntimeError, match="^slim width 50 exceeds the bound 48; not certifying$"):
        approximate_stcw(g, 1, provider=lambda h, omega: chain_decomposition(h))


def four_bags():
    """Input B of test_transform: a valid width-2 decomposition, slim
    width 3, on whose bags every nice tree has slim width 4."""
    g = MultiGraph(range(6), [(0, 1), (1, 4), (1, 5), (2, 3), (3, 5)])
    return g, TreeCutDecomposition(1, {1: None, 3: 1, 0: 3, 2: 3}, dict(FOUR_BAGS))


def test_certifies_when_no_nice_tree_keeps_the_slim_width(tmp_path, capsys):
    # no nice tree keeps B's slim width 3, so the pipeline keeps its
    # width 2 alone and certifies slim width 4 <= 48
    g, d = four_bags()
    r = approximate_stcw(g, 1, lambda h, omega: d)
    assert r.accepted and r.reason == "certified" and r.slim_width == 4
    assert is_very_nice(r.decomposition, g) == []
    assert width_report(r.decomposition, g).width == 2
    body = "cat > /dev/null\necho DECOMP\necho '" + decomposition_to_json(d) + "'\n"
    prog = write_script(tmp_path, "four_bags.sh", body)
    gpath = tmp_path / "g.txt"
    gpath.write_text(write_edge_list(g))
    assert main(["approx", str(gpath), "--omega", "1", "--provider", f"exec:{prog}"]) == 0
    assert capsys.readouterr().out == decomposition_to_json(r.decomposition)


@settings(max_examples=200, deadline=None)
@given(decomposed())
def test_any_valid_provider_answer_is_audited(case):
    # the drawn decomposition is a legal answer at omega = ceil(width/2):
    # normalization never fails, no refutation falls at or above the
    # true slim width, and nothing is certified past 6(omega+1)^3
    g, d = case
    omega = max(1, math.ceil(width_report(d, g).width / 2))
    r = approximate_stcw(g, omega, lambda h, om: d)
    if cached_width(g, "stcw")[0] <= omega:
        assert r.accepted
    if r.accepted:
        assert r.slim_width <= 6 * (omega + 1) ** 3
        assert width_report(r.decomposition, g).slim_width == r.slim_width
