"""Graph width toolkit for tree-cut style decompositions.

Exact width evaluation and small-instance oracles for tree-cut width
and its slim and zero variants, edge-cut width over spanning-tree
witnesses, constructive translations between the two decomposition
shapes, a certified slim-width approximation pipeline, and an edge
disjoint paths solver parameterized by edge-cut width.
"""
from .approx import (
    ApproxResult,
    ExternalProvider,
    ProviderError,
    approximate_stcw,
    oracle_provider,
)
from .decomposition import (
    InvalidDecompositionError,
    NodeStats,
    TreeCutDecomposition,
    WidthReport,
    decomposable_nodes,
    is_nice,
    is_very_nice,
    singleton_decomposition,
    validate,
    width_report,
)
from .ecw import (
    BudgetExceededError,
    SpanningWitness,
    ecw_value,
    exact_ecw,
    sec_upper,
    spanning_tree_count,
    validate_witness,
    witness_ecw,
)
from .edp import edp_bruteforce, edp_solve_dp
from .families import ladder, make_family, star, wall, windmill
from .formats import (
    decomposition_to_json,
    graph_to_dot,
    load_graph,
    parse_decomposition_json,
    parse_edge_list,
    parse_witness_json,
    witness_to_json,
    write_edge_list,
)
from .multigraph import (
    DeleteEdge,
    DeleteVertex,
    Lift,
    MultiGraph,
    apply_immersion,
    edge_sum,
    max_degree,
)
from .oracle import SizeLimitError, exact_treewidth, exact_width
from .transform import (
    TransformError,
    decomposition_to_witness,
    make_nice,
    make_very_nice,
    split_decomposables,
    witness_to_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxResult",
    "BudgetExceededError",
    "DeleteEdge",
    "DeleteVertex",
    "ExternalProvider",
    "InvalidDecompositionError",
    "Lift",
    "MultiGraph",
    "NodeStats",
    "ProviderError",
    "SizeLimitError",
    "SpanningWitness",
    "TransformError",
    "TreeCutDecomposition",
    "WidthReport",
    "apply_immersion",
    "approximate_stcw",
    "decomposable_nodes",
    "decomposition_to_json",
    "decomposition_to_witness",
    "ecw_value",
    "edge_sum",
    "edp_bruteforce",
    "edp_solve_dp",
    "exact_ecw",
    "exact_treewidth",
    "exact_width",
    "graph_to_dot",
    "is_nice",
    "is_very_nice",
    "ladder",
    "load_graph",
    "make_family",
    "make_nice",
    "make_very_nice",
    "max_degree",
    "oracle_provider",
    "parse_decomposition_json",
    "parse_edge_list",
    "parse_witness_json",
    "sec_upper",
    "singleton_decomposition",
    "spanning_tree_count",
    "split_decomposables",
    "star",
    "validate",
    "validate_witness",
    "wall",
    "width_report",
    "windmill",
    "witness_ecw",
    "witness_to_decomposition",
    "witness_to_json",
    "write_edge_list",
]
