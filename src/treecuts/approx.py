"""Approximation pipeline for slim tree-cut width.

The pipeline leans on a provider for plain tree-cut width: given (g,
omega) it must return a decomposition of width at most 2*omega or None
to assert tcw(g) > omega. Since tcw <= stcw, a provider "no" rules out
slim width omega as well. A returned decomposition is normalized to very
nice, keeping its width and slim width, or its width alone when no nice
tree keeps both: the B2 bound reads the width only. Bounded B2 child
counts then certify slim width <= 6(omega+1)^3, and an oversized B2 set
refutes slim width omega.
"""
from __future__ import annotations

import subprocess
from dataclasses import dataclass, field
from typing import Callable, Optional

from .decomposition import InvalidDecompositionError, TreeCutDecomposition, _TreePass
from .multigraph import MultiGraph
from .oracle import _PROVIDER_MAX_VERTICES, _width_at_most
from .transform import TransformError, _very_nice

# returns a decomposition of width <= 2*omega, or None meaning tcw > omega
TcwProvider = Callable[[MultiGraph, int], Optional[TreeCutDecomposition]]


class ProviderError(RuntimeError):
    """The provider misbehaved; distinct from a legitimate 'no' answer."""


def oracle_provider(g: MultiGraph, omega: int) -> TreeCutDecomposition | None:
    """Exact tree-cut width as a (trivially valid) 2-approximation; a None
    proves tcw(g) > omega. No width bound above omega is searched."""
    found = _width_at_most(g, "tcw", _PROVIDER_MAX_VERTICES, omega)
    return None if found is None else found[1]


class ExternalProvider:
    """Wraps an executable: graph edge-list on stdin, and either the line
    "NO" or the line "DECOMP" followed by decomposition JSON on stdout."""

    def __init__(self, path: str):
        self.path = path

    def __call__(self, g: MultiGraph, omega: int) -> TreeCutDecomposition | None:
        from .formats import parse_decomposition_json, write_edge_list

        try:
            proc = subprocess.run(
                [self.path, str(omega)],
                input=write_edge_list(g),
                capture_output=True,
                text=True,
                timeout=600,
            )
        except OSError as e:
            raise ProviderError(f"provider could not run: {e}") from None
        except subprocess.TimeoutExpired as e:
            raise ProviderError(f"provider timed out after {e.timeout} s") from None
        if proc.returncode != 0:
            raise ProviderError(f"provider exited with {proc.returncode}")
        out = proc.stdout.strip()
        if out == "NO":
            return None
        if out.startswith("DECOMP"):
            try:
                return parse_decomposition_json(out[len("DECOMP"):])
            except ValueError as e:
                raise ProviderError(f"provider emitted bad JSON: {e}") from None
        raise ProviderError("provider output is neither NO nor DECOMP")


@dataclass
class ApproxResult:
    accepted: bool
    omega: int
    reason: str  # "certified" | "provider-no" | "b2-threshold"
    b2_threshold: int
    slim_bound: int
    decomposition: TreeCutDecomposition | None = None
    slim_width: int | None = None
    b2_sizes: dict[int, int] = field(default_factory=dict)


def approximate_stcw(
    g: MultiGraph, omega: int, provider: TcwProvider = oracle_provider
) -> ApproxResult:
    """Decomposition of slim width <= 6(omega+1)^3, or a certified
    report that stcw(g) > omega. The full very-nice decomposition and
    every audited B2 count are included either way. A provider
    decomposition that is invalid or wider than 2*omega raises
    ProviderError. When no nice tree keeps the answer's width and slim
    width, a fresh pass of it keeps its width alone, once the pair
    search has run to its caps."""
    if omega < 1:
        raise ValueError("omega must be positive")
    res = ApproxResult(
        accepted=False, omega=omega, reason="provider-no",
        b2_threshold=6 * omega * (omega + 1) ** 2, slim_bound=6 * (omega + 1) ** 3,
    )
    d0 = provider(g, omega)
    if d0 is None:
        return res
    try:
        tp = _TreePass(d0.copy(), g)
    except InvalidDecompositionError as e:
        raise ProviderError(f"provider returned an invalid decomposition: {e}") from None
    width, _ = tp.widths()
    if width > 2 * omega:
        raise ProviderError(f"provider returned width {width} > 2*omega = {2 * omega}")
    try:
        tp = _very_nice(tp, slim=True)
    except TransformError:
        tp = _very_nice(_TreePass(d0.copy(), g), slim=False)
    res.decomposition, rep = tp.d, tp.report()
    res.b2_sizes = {t: len(s.children_B2) for t, s in rep.per_node.items()}
    if any(v > res.b2_threshold for v in res.b2_sizes.values()):
        res.reason = "b2-threshold"
        return res
    if rep.slim_width > res.slim_bound:
        raise RuntimeError(
            f"slim width {rep.slim_width} exceeds the bound {res.slim_bound}; not certifying"
        )
    res.accepted, res.reason, res.slim_width = True, "certified", rep.slim_width
    return res
