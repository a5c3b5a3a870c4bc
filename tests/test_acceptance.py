"""End-to-end acceptance checks.

Ten independent checks, each printing exactly one verdict line of the
form "AC<n> PASS: ..." or "AC<n> FAIL: ..." before asserting, so a
verbose run always shows the full scoreboard.
"""
import random
import time

from treecuts.approx import approximate_stcw
from treecuts.decomposition import (
    validate,
    width_report,
)
from treecuts.ecw import (
    ecw_value,
    exact_ecw,
    sec_upper,
    spanning_tree_count,
    validate_witness,
    witness_ecw,
)
from treecuts.edp import edp_bruteforce, edp_solve_dp
from treecuts.families import ladder, star, windmill
from treecuts.multigraph import (
    DeleteEdge,
    DeleteVertex,
    Lift,
    MultiGraph,
    apply_immersion,
    edge_sum,
    max_degree,
)
from treecuts.oracle import exact_treewidth, exact_width
from treecuts.transform import decomposition_to_witness, make_very_nice

from conftest import (
    CORPUS_SEED,
    cached_width,
    chain_decomposition,
    random_connected_multi,
)
from reference import feedback_edge_number

VARIANTS = ("tcw", "stcw", "tcw0")


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"AC{n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"AC{n}: {detail}"


def test_ac1_ladder_exact_ecw():
    """The 9-rung ladder's rail-and-rungs tree has edge-cut width 3, and
    full enumeration confirms no spanning tree does better."""
    g = ladder(9)
    t0 = time.perf_counter()
    direct = ecw_value(g, frozenset(g.meta["spanning_tree"]))
    n_trees = spanning_tree_count(g)
    best, w = exact_ecw(g)
    elapsed = time.perf_counter() - t0
    ok = (
        direct == 3
        and n_trees == 40545
        and best <= 3
        and validate_witness(w) == []
        and elapsed < 60
    )
    verdict(
        1,
        ok,
        f"rail-and-rungs tree gives 3 (got {direct}), minimum {best} over "
        f"{n_trees} spanning trees in {elapsed:.1f}s",
    )


def test_ac2_extremal_families():
    """Star and windmill families at the smallest nontrivial size hit
    their known exact widths, at the default empty-bag budget."""
    t0 = time.perf_counter()
    s4 = star(4)
    w4 = windmill(4)
    tcw0_s4 = exact_width(s4, "tcw0")[0]
    stcw_s4 = exact_width(s4, "stcw")[0]
    stcw_w4 = exact_width(w4, "stcw", max_vertices=9)[0]
    tcw_w4 = exact_width(w4, "tcw", max_vertices=9)[0]
    elapsed = time.perf_counter() - t0
    ok = tcw0_s4 >= 2 and stcw_s4 == 1 and stcw_w4 >= 2 and tcw_w4 == 2 and elapsed < 600
    verdict(
        2,
        ok,
        f"tcw0(S_4)={tcw0_s4} (>=2), stcw(S_4)={stcw_s4} (=1), "
        f"stcw(W_4)={stcw_w4} (>=2), tcw(W_4)={tcw_w4} (=2) in {elapsed:.1f}s",
    )


def test_ac3_inequality_chains(corpus):
    """tcw <= stcw <= tcw0, tcw <= sec_upper <= ecw <= fen+1, and
    tor <= tor2 <= tor1 per node of every optimal decomposition."""
    violations = []
    node_rows = 0
    for g in corpus:
        vals = {v: cached_width(g, v) for v in VARIANTS}
        tcw, stcw, tcw0 = (vals[v][0] for v in VARIANTS)
        if not tcw <= stcw <= tcw0:
            violations.append((sorted(g.edges()), "variant order", tcw, stcw, tcw0))
        ecw, _ = exact_ecw(g)
        sec, sw = sec_upper(g)
        fen = feedback_edge_number(g)
        if not (tcw <= sec <= ecw <= fen + 1):
            violations.append((sorted(g.edges()), "ecw chain", tcw, sec, ecw, fen))
        if validate_witness(sw):
            violations.append((sorted(g.edges()), "sec witness invalid"))
        for _, d in vals.values():
            rep = width_report(d, g)
            for t, s in rep.per_node.items():
                node_rows += 1
                if not s.tor <= s.tor2 <= s.tor1:
                    violations.append((sorted(g.edges()), "center order", t))
    ok = not violations
    verdict(
        3,
        ok,
        f"{len(corpus)} graphs, {node_rows} torso rows, "
        f"{len(violations)} violations" + (f"; first: {violations[0]}" if violations else ""),
    )


def test_ac4_witness_construction_bound(corpus):
    """Witnesses built from slim-optimal decompositions stay within
    3(k+1)^2 edge-cut width."""
    violations = []
    for g in corpus:
        k, d = cached_width(g, "stcw")
        w = decomposition_to_witness(g, d)
        if validate_witness(w):
            violations.append((sorted(g.edges()), "invalid witness"))
            continue
        val = witness_ecw(w)
        if val > 3 * (k + 1) ** 2:
            violations.append((sorted(g.edges()), k, val))
    verdict(
        4,
        not violations,
        f"{len(corpus)} witnesses within 3(k+1)^2, {len(violations)} violations",
    )


def test_ac5_approximation_contract(corpus_small):
    """The pipeline never answers no below the true slim width, and
    every accepted decomposition certifies slim width <= 6(w+1)^3."""

    def provider(h, om):
        value, d = cached_width(h, "tcw")
        return d if value <= om else None

    violations = []
    runs = 0
    for g in corpus_small:
        true_slim = cached_width(g, "stcw")[0]
        for omega in range(1, 5):
            runs += 1
            r = approximate_stcw(g, omega, provider)
            if true_slim <= omega and not r.accepted:
                violations.append((sorted(g.edges()), omega, "false no"))
            if r.accepted:
                if validate(r.decomposition, g):
                    violations.append((sorted(g.edges()), omega, "invalid output"))
                elif width_report(r.decomposition, g).slim_width > 6 * (omega + 1) ** 3:
                    violations.append((sorted(g.edges()), omega, "bound broken"))
    verdict(
        5,
        not violations,
        f"{runs} runs over {len(corpus_small)} graphs x omega 1..4, "
        f"{len(violations)} violations",
    )


def _random_immersion_op(rng, g):
    kinds = []
    edges = [(u, v) for u, v, m in g.edge_pairs() for _ in range(m)]
    if edges:
        kinds.append("edge")
    if g.num_vertices() > 1:
        kinds.append("vertex")
    lifts = []
    for y in g.sorted_vertices():
        nb = sorted(x for x in g.neighbors(y) if x != y)
        lifts.extend((x, y, z) for x in nb for z in nb if x != z)
    if lifts:
        kinds.append("lift")
    kind = rng.choice(kinds)
    if kind == "edge":
        u, v = rng.choice(edges)
        return DeleteEdge(u, v)
    if kind == "vertex":
        return DeleteVertex(rng.choice(g.sorted_vertices()))
    return Lift(*rng.choice(lifts))


def test_ac6_immersion_monotonicity():
    """One random weak-immersion step never raises any of the three widths."""
    rng = random.Random(CORPUS_SEED + 6)
    violations = []
    for _ in range(500):
        g = random_connected_multi(
            rng, rng.randint(2, 6), rng.randint(0, 3), loops=rng.random() < 0.2
        )
        op = _random_immersion_op(rng, g)
        h = apply_immersion(g, op)
        for variant in ("tcw", "stcw", "tcw0"):
            before = cached_width(g, variant)[0]
            after = cached_width(h, variant)[0]
            if after > before:
                violations.append((sorted(g.edges()), op, variant, before, after))
    verdict(6, not violations, f"500 trials, {len(violations)} violations")


def _part_with_attachment(rng, k):
    n = rng.randint(1, 3)
    if n == 1:
        host = MultiGraph([0])
    else:
        host = random_connected_multi(rng, n, rng.randint(0, 1))
    g = host.copy()
    g.add_vertex(n)
    for _ in range(k):
        g.add_edge(n, rng.randrange(n))
    return g, n


def test_ac7_edge_sum_closure():
    """stcw and tcw0 of a k-edge sum stay below max(k, part values)."""
    rng = random.Random(CORPUS_SEED + 7)
    violations = []
    for _ in range(100):
        k = rng.randint(1, 3)
        g1, v1 = _part_with_attachment(rng, k)
        g2, v2 = _part_with_attachment(rng, k)
        slots1 = [w for w in sorted(g1.neighbors(v1)) for _ in range(g1.multiplicity(v1, w))]
        slots2 = [w for w in sorted(g2.neighbors(v2)) for _ in range(g2.multiplicity(v2, w))]
        rng.shuffle(slots2)
        s = edge_sum(g1, v1, g2, v2, list(zip(slots1, slots2)))
        for variant in ("stcw", "tcw0"):
            cap = max(k, cached_width(g1, variant)[0], cached_width(g2, variant)[0])
            got = cached_width(s, variant)[0]
            if got > cap:
                violations.append(
                    (sorted(g1.edges()), sorted(g2.edges()), k, variant, got, cap)
                )
    verdict(7, not violations, f"100 edge sums, {len(violations)} violations")


def test_ac8_degree_and_treewidth_link(corpus):
    """Zero width k caps the maximum degree by k^2 and the treewidth by
    2k^2 + 3k."""
    violations = []
    for g in corpus:
        k = cached_width(g, "tcw0")[0]
        if max_degree(g) > k * k:
            violations.append((sorted(g.edges()), "degree", k, max_degree(g)))
        tw = exact_treewidth(g)
        if tw > 2 * k * k + 3 * k:
            violations.append((sorted(g.edges()), "treewidth", k, tw))
    verdict(8, not violations, f"{len(corpus)} graphs, {len(violations)} violations")


def test_ac9_edp_agreement():
    """The witness DP and the brute-force router agree everywhere."""
    c4 = MultiGraph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    fixed = [
        (c4, [(0, 2), (0, 2)]),
        (c4, [(0, 2), (1, 3)]),
        (c4, [(0, 2)] * 3),
        (c4, [(2, 2)]),
        (MultiGraph(range(2), [(0, 1), (0, 1)]), [(0, 1), (0, 1)]),
    ]
    rng = random.Random(CORPUS_SEED + 9)
    cases = list(fixed)
    while len(cases) < len(fixed) + 300:
        g = random_connected_multi(
            rng, rng.randint(2, 5), rng.randint(0, 4), loops=rng.random() < 0.2
        )
        if g.num_edges() > 12:
            continue
        vs = g.sorted_vertices()
        pairs = [(rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(1, 3))]
        cases.append((g, pairs))
    disagreements = []
    slowest = 0.0
    for g, pairs in cases:
        expected = edp_bruteforce(g, pairs)[0]
        _, w = sec_upper(g)
        t0 = time.perf_counter()
        got = edp_solve_dp(g, w, pairs)
        slowest = max(slowest, time.perf_counter() - t0)
        if got != expected:
            disagreements.append((sorted(g.edges()), pairs, expected, got))
    ok = not disagreements and slowest < 5
    verdict(
        9,
        ok,
        f"{len(cases)} instances, {len(disagreements)} disagreements, "
        f"slowest DP call {slowest:.2f}s",
    )


def test_ac10_transformation_soundness(corpus):
    """make_very_nice always lands in the very nice class without paying
    width, and its outputs keep B2 children above tor2 - 3k - 2."""
    from treecuts.decomposition import is_very_nice

    violations = []
    produced = 0
    for g in corpus:
        sources = [chain_decomposition(g)]
        sources.extend(cached_width(g, v)[1] for v in VARIANTS)
        for d in sources:
            before = width_report(d, g)
            out = make_very_nice(d, g)
            produced += 1
            if validate(out, g) or is_very_nice(out, g):
                violations.append((sorted(g.edges()), "not very nice"))
                continue
            after = width_report(out, g)
            if after.width > before.width or after.slim_width > before.slim_width:
                violations.append((sorted(g.edges()), "width grew"))
                continue
            k = after.width
            for t in out.nodes():
                s = after.per_node[t]
                if len(s.children_B2) < s.tor2 - 3 * k - 2:
                    violations.append((sorted(g.edges()), "B2 bound", t))
    verdict(
        10,
        not violations,
        f"{produced} transformed decompositions, {len(violations)} violations",
    )
