"""Representing functions of colored graphs and the product identities.

The representing function at vertex k is the (k, k) entry of the inverse
colored adjacency matrix.  It is built straight from the graph's colors and
edges as a sparse symmetric matrix, and :func:`graphpick.linalg.inverse_entry`
runs the one elimination routine on it, eliminating every other vertex:
the last pivot and the surviving entry are the cofactor and the
determinant, so a single pass yields the reduced rational function.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import ColoredGraph, colored_adjacency, comb_product_z, retract, star_product
from .linalg import _in_range, inverse_entry
from .ratfun import RatFun


def representing_function(g: ColoredGraph, vertex: int | None = None) -> RatFun:
    """Diagonal inverse entry of the colored adjacency matrix at ``vertex``.

    Defaults to the graph root.
    """
    k = g.root if vertex is None else vertex
    if not _in_range(g.n, k):
        raise ValueError(f"vertex {k} out of range 1..{g.n}")
    return inverse_entry(colored_adjacency(g), k)


def reciprocal_transform(g: ColoredGraph) -> RatFun:
    """Reciprocal of the representing function at the root (the additive quantity)."""
    return representing_function(g).reciprocal()


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of a verified identity, plus the exact comparison."""

    lhs: RatFun
    rhs: RatFun
    equal: bool

    def to_json(self) -> dict:
        return {
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
            "equal": self.equal,
        }


def verify_star_identity(g: ColoredGraph, h: ColoredGraph) -> IdentityReport:
    """Check that gluing at the roots adds the reciprocal transforms.

    The single shared vertex is counted twice in the plain sum, so the
    reciprocal transform of a one-vertex graph with the shared color is
    subtracted.
    """
    product = star_product(g, h)
    lhs = reciprocal_transform(product)
    g0 = g.color(g.root).diagonal()
    rhs = reciprocal_transform(g) + reciprocal_transform(h) - g0
    return IdentityReport(lhs, rhs, lhs == rhs)


def verify_comb_identity(g: ColoredGraph, h: ColoredGraph) -> IdentityReport:
    """Check that attaching h at every z-vertex composes in the z slot."""
    product = comb_product_z(g, h)
    lhs = representing_function(product)
    rhs = representing_function(g).substitute("z", -reciprocal_transform(h))
    return IdentityReport(lhs, rhs, lhs == rhs)


def verify_retract_identity(
    g: ColoredGraph, cut: int, k_subgraph
) -> IdentityReport:
    """Check that collapsing a pendant piece preserves the root function."""
    reduced = retract(g, cut, k_subgraph)
    lhs = representing_function(g)
    rhs = representing_function(reduced)
    return IdentityReport(lhs, rhs, lhs == rhs)
