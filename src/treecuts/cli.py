"""Command-line front end.

Exit codes: 0 success, 1 negative decision (EDP "no", approximation
"no"), 2 input or validation errors, 3 budget, size-limit or
out-of-memory errors, and normalizations that exhaust their search caps.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import formats
from .approx import ExternalProvider, approximate_stcw, oracle_provider
from .decomposition import TreeCutDecomposition, validate, width_report
from .ecw import (
    BudgetExceededError,
    SpanningWitness,
    exact_ecw,
    sec_upper,
    validate_witness,
)
from .edp import BRUTE_FORCE_EDGE_LIMIT, edp_bruteforce, edp_solve_dp
from .families import make_family
from .multigraph import MultiGraph
from .oracle import SizeLimitError, exact_width
from .transform import (
    TransformError,
    decomposition_to_witness,
    witness_to_decomposition,
)


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


def _graph(args: argparse.Namespace) -> MultiGraph:
    return formats.load_graph(_read(args.graph))


def _decomp(args: argparse.Namespace) -> TreeCutDecomposition:
    return formats.parse_decomposition_json(_read(args.decomp))


def _print_json(obj: dict) -> None:
    # NodeStats' child sets are written as sorted lists
    print(json.dumps(obj, indent=2, default=sorted))


def _verdict(problems: list[str]) -> int:
    for msg in problems:
        print(msg, file=sys.stderr)
    if problems:
        return 2
    print("OK")
    return 0


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.split(","):
        parts = chunk.strip().split("-")
        if len(parts) != 2:
            raise ValueError(f"bad pair {chunk!r}; expected like 0-2")
        pairs.append((int(parts[0]), int(parts[1])))
    return pairs


def _gen(args: argparse.Namespace) -> int:
    _emit(formats.write_edge_list(make_family(args.family, args.r)), args.output)
    return 0


def _widths(args: argparse.Namespace) -> int:
    g = _graph(args)
    rep = width_report(_decomp(args), g)
    _print_json({
        "width": rep.width,
        "slim_width": rep.slim_width,
        "zero_width": rep.zero_width,
        "per_node": {t: asdict(s) for t, s in sorted(rep.per_node.items())},
    })
    return 0


def _ecw_exact(args: argparse.Namespace) -> int:
    value, w = exact_ecw(_graph(args), budget=args.budget)
    _print_json({"ecw": value, "witness": json.loads(formats.witness_to_json(w))})
    return 0


def _oracle(args: argparse.Namespace) -> int:
    value, d = exact_width(_graph(args), args.variant, max_vertices=args.max_vertices)
    _print_json({
        "variant": args.variant,
        "value": value,
        "decomposition": json.loads(formats.decomposition_to_json(d)),
    })
    return 0


def _to_witness(args: argparse.Namespace) -> int:
    g = _graph(args)
    sys.stdout.write(formats.witness_to_json(decomposition_to_witness(g, _decomp(args))))
    return 0


def _to_decomp(args: argparse.Namespace) -> int:
    d = witness_to_decomposition(formats.parse_witness_json(_read(args.witness)))
    sys.stdout.write(formats.decomposition_to_json(d))
    return 0


def _verify_decomp(args: argparse.Namespace) -> int:
    g = _graph(args)
    return _verdict(validate(_decomp(args), g))


def _verify_witness(args: argparse.Namespace) -> int:
    return _verdict(validate_witness(formats.parse_witness_json(_read(args.witness))))


def _approx(args: argparse.Namespace) -> int:
    g = _graph(args)
    if args.provider == "oracle":
        provider = oracle_provider
    elif args.provider.startswith("exec:"):
        provider = ExternalProvider(args.provider[len("exec:"):])
    else:
        raise ValueError("--provider must be 'oracle' or 'exec:<path>'")
    res = approximate_stcw(g, args.omega, provider)
    d = res.decomposition
    dec = None if d is None else formats.decomposition_to_json(d)
    audit = {
        "accepted": res.accepted,
        "omega": res.omega,
        "reason": res.reason,
        "b2_threshold": res.b2_threshold,
        "slim_bound": res.slim_bound,
        "slim_width": res.slim_width,
        "b2_sizes": dict(sorted(res.b2_sizes.items())),
        "decomposition": None if dec is None else json.loads(dec),
    }
    print(json.dumps(audit, indent=2), file=sys.stderr)
    if res.accepted:
        sys.stdout.write(dec)
        return 0
    print("NO")
    return 1


def _edp(args: argparse.Namespace) -> int:
    g = _graph(args)
    pairs = _parse_pairs(args.pairs)
    w = formats.parse_witness_json(_read(args.witness)) if args.witness else sec_upper(g)[1]
    yes = edp_solve_dp(g, w, pairs)
    print("yes" if yes else "no")
    if yes and g.num_edges() <= BRUTE_FORCE_EDGE_LIMIT:
        ok, system = edp_bruteforce(g, pairs)
        assert ok and system is not None
        for (s, t), path in zip(pairs, system):
            print(f"{s}-{t}: " + " -> ".join(str(v) for v in path))
    return 0 if yes else 1


def _export_dot(args: argparse.Namespace) -> int:
    art = formats.load_artifact(_read(args.input))
    if isinstance(art, SpanningWitness):
        dot = formats.witness_to_dot(art)
    elif isinstance(art, TreeCutDecomposition):
        dot = formats.decomposition_to_dot(art)
    else:
        dot = formats.graph_to_dot(art)
    _emit(dot, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="treecuts",
        description="Width computations for tree-cut style decompositions.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, run, help: str, *positional: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        for arg in positional:
            p.add_argument(arg)
        return p

    p = command("gen", _gen, "emit a named graph family as an edge list")
    p.add_argument("--family", required=True, choices=["star", "windmill", "wall", "ladder"])
    p.add_argument("--r", required=True, type=int)
    p.add_argument("-o", "--output")

    p = command("widths", _widths, "evaluate a decomposition's width report", "graph")
    p.add_argument("--decomp", required=True)

    p = command("ecw-exact", _ecw_exact, "exact edge-cut width and its lex-least "
                "optimal spanning forest, by the charge DP", "graph")
    p.add_argument("--budget", type=int, default=10**6,
                   help="most spanning trees the graph may have; more exits 3")

    p = command("oracle", _oracle, "exact widths on tiny graphs", "graph")
    p.add_argument("--variant", required=True, choices=["tcw", "stcw", "tcw0"])
    p.add_argument("--max-vertices", type=int, default=6)

    p = command("to-witness", _to_witness, "decomposition to spanning witness", "graph")
    p.add_argument("--decomp", required=True)

    command("to-decomp", _to_decomp, "spanning witness to decomposition", "witness")

    p = command("verify-decomp", _verify_decomp, "validate a decomposition file", "graph")
    p.add_argument("--decomp", required=True)

    command("verify-witness", _verify_witness, "validate a witness file", "witness")

    p = command("approx", _approx, "slim width approximation pipeline", "graph")
    p.add_argument("--omega", required=True, type=int)
    p.add_argument("--provider", default="oracle")

    p = command("edp", _edp, "edge disjoint paths demo solver", "graph")
    p.add_argument("--pairs", required=True, help='e.g. "0-2,1-3"')
    p.add_argument("--witness")

    p = command("export-dot", _export_dot, "DOT rendering of any artifact", "input")
    p.add_argument("-o", "--output")
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.run(args)
    except (BudgetExceededError, SizeLimitError, TransformError, MemoryError) as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 3
    except (ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
