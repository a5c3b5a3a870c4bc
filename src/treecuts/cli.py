"""Command-line front end.

Exit codes: 0 success, 1 negative decision (EDP "no", approximation
"no"), 2 input or validation errors, 3 budget, size-limit or
out-of-memory errors.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import formats
from .approx import ExternalProvider, approximate_stcw, oracle_provider
from .decomposition import TreeCutDecomposition, validate, width_report
from .ecw import (
    BudgetExceededError,
    SpanningWitness,
    exact_ecw,
    sec_upper,
    validate_witness,
    witness_ecw,
)
from .edp import BRUTE_FORCE_EDGE_LIMIT, edp_bruteforce, edp_solve_dp
from .families import make_family
from .multigraph import MultiGraph
from .oracle import SizeLimitError, exact_width
from .transform import decomposition_to_witness, witness_to_decomposition


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="treecuts",
        description="Width computations for tree-cut style decompositions.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a named graph family as an edge list")
    p.add_argument("--family", required=True, choices=["star", "windmill", "wall", "ladder"])
    p.add_argument("--r", required=True, type=int)
    p.add_argument("-o", "--output")

    p = sub.add_parser("widths", help="evaluate a decomposition's width report")
    p.add_argument("graph")
    p.add_argument("--decomp", required=True)

    p = sub.add_parser("ecw-exact", help="exact edge-cut width and its lex-least optimal "
                       "spanning forest, by the charge DP")
    p.add_argument("graph")
    p.add_argument("--budget", type=int, default=10**6,
                   help="most spanning trees the graph may have; more exits 3")

    p = sub.add_parser("oracle", help="exact widths on tiny graphs")
    p.add_argument("graph")
    p.add_argument("--variant", required=True, choices=["tcw", "stcw", "tcw0"])
    p.add_argument("--max-vertices", type=int, default=6)

    p = sub.add_parser("to-witness", help="decomposition to spanning witness")
    p.add_argument("graph")
    p.add_argument("--decomp", required=True)

    p = sub.add_parser("to-decomp", help="spanning witness to decomposition")
    p.add_argument("witness")

    p = sub.add_parser("verify-decomp", help="validate a decomposition file")
    p.add_argument("graph")
    p.add_argument("--decomp", required=True)

    p = sub.add_parser("verify-witness", help="validate a witness file")
    p.add_argument("witness")

    p = sub.add_parser("approx", help="slim width approximation pipeline")
    p.add_argument("graph")
    p.add_argument("--omega", required=True, type=int)
    p.add_argument("--provider", default="oracle")

    p = sub.add_parser("edp", help="edge disjoint paths demo solver")
    p.add_argument("graph")
    p.add_argument("--pairs", required=True, help='e.g. "0-2,1-3"')
    p.add_argument("--witness")

    p = sub.add_parser("export-dot", help="DOT rendering of any artifact")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    return ap


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _stats_obj(s) -> dict:
    return {
        "adhesion": s.adhesion,
        "tor": s.tor,
        "tor2": s.tor2,
        "tor1": s.tor1,
        "thin": s.thin,
        "children_A": sorted(s.children_A),
        "children_B": sorted(s.children_B),
        "children_B2": sorted(s.children_B2),
    }


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.split(","):
        parts = chunk.strip().split("-")
        if len(parts) != 2:
            raise ValueError(f"bad pair {chunk!r}; expected like 0-2")
        pairs.append((int(parts[0]), int(parts[1])))
    return pairs


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "gen":
        g = make_family(args.family, args.r)
        _emit(formats.write_edge_list(g), args.output)
        return 0

    if args.command == "widths":
        g = formats.load_graph(_read(args.graph))
        d = formats.parse_decomposition_json(_read(args.decomp))
        rep = width_report(d, g)
        obj = {
            "width": rep.width,
            "slim_width": rep.slim_width,
            "zero_width": rep.zero_width,
            "per_node": {str(t): _stats_obj(s) for t, s in sorted(rep.per_node.items())},
        }
        print(json.dumps(obj, indent=2))
        return 0

    if args.command == "ecw-exact":
        g = formats.load_graph(_read(args.graph))
        value, w = exact_ecw(g, budget=args.budget)
        obj = {"ecw": value, "witness": json.loads(formats.witness_to_json(w))}
        print(json.dumps(obj, indent=2))
        return 0

    if args.command == "oracle":
        g = formats.load_graph(_read(args.graph))
        value, d = exact_width(g, args.variant, max_vertices=args.max_vertices)
        obj = {
            "variant": args.variant,
            "value": value,
            "decomposition": json.loads(formats.decomposition_to_json(d)),
        }
        print(json.dumps(obj, indent=2))
        return 0

    if args.command == "to-witness":
        g = formats.load_graph(_read(args.graph))
        d = formats.parse_decomposition_json(_read(args.decomp))
        w = decomposition_to_witness(g, d)
        _emit(formats.witness_to_json(w), None)
        return 0

    if args.command == "to-decomp":
        w = formats.parse_witness_json(_read(args.witness))
        d = witness_to_decomposition(w)
        _emit(formats.decomposition_to_json(d), None)
        return 0

    if args.command == "verify-decomp":
        g = formats.load_graph(_read(args.graph))
        d = formats.parse_decomposition_json(_read(args.decomp))
        problems = validate(d, g)
        if problems:
            for msg in problems:
                print(msg, file=sys.stderr)
            return 2
        print("OK")
        return 0

    if args.command == "verify-witness":
        w = formats.parse_witness_json(_read(args.witness))
        problems = validate_witness(w)
        if problems:
            for msg in problems:
                print(msg, file=sys.stderr)
            return 2
        print("OK")
        return 0

    if args.command == "approx":
        g = formats.load_graph(_read(args.graph))
        if args.provider == "oracle":
            provider = oracle_provider
        elif args.provider.startswith("exec:"):
            provider = ExternalProvider(args.provider[len("exec:"):])
        else:
            raise ValueError("--provider must be 'oracle' or 'exec:<path>'")
        res = approximate_stcw(g, args.omega, provider)
        audit = {
            "accepted": res.accepted,
            "omega": res.omega,
            "reason": res.reason,
            "b2_threshold": res.b2_threshold,
            "slim_bound": res.slim_bound,
            "slim_width": res.slim_width,
            "b2_sizes": {str(t): v for t, v in sorted(res.b2_sizes.items())},
            "decomposition": (
                json.loads(formats.decomposition_to_json(res.decomposition))
                if res.decomposition is not None
                else None
            ),
        }
        print(json.dumps(audit, indent=2), file=sys.stderr)
        if res.accepted:
            assert res.decomposition is not None
            _emit(formats.decomposition_to_json(res.decomposition), None)
            return 0
        print("NO")
        return 1

    if args.command == "edp":
        g = formats.load_graph(_read(args.graph))
        pairs = _parse_pairs(args.pairs)
        if args.witness:
            w = formats.parse_witness_json(_read(args.witness))
        else:
            _, w = sec_upper(g)
        yes = edp_solve_dp(g, w, pairs)
        print("yes" if yes else "no")
        if yes and g.num_edges() <= BRUTE_FORCE_EDGE_LIMIT:
            ok, system = edp_bruteforce(g, pairs)
            assert ok and system is not None
            for (s, t), path in zip(pairs, system):
                print(f"{s}-{t}: " + " -> ".join(str(v) for v in path))
        return 0 if yes else 1

    if args.command == "export-dot":
        art = formats.load_artifact(_read(args.input))
        if isinstance(art, SpanningWitness):
            dot = formats.witness_to_dot(art)
        elif isinstance(art, TreeCutDecomposition):
            dot = formats.decomposition_to_dot(art)
        else:
            dot = formats.graph_to_dot(art)
        _emit(dot, args.output)
        return 0

    raise ValueError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return _dispatch(args)
    except (BudgetExceededError, SizeLimitError, MemoryError) as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 3
    except (ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
