"""Exact representing functions of vertex-colored graphs.

The package computes two-variable representing functions of rooted,
vertex-colored simple graphs by exact rational-function linear algebra,
implements the star/comb graph products and pendant retraction together
with their function identities, and measures boundary contact order at
(infinity, 0) from series expansions of level curves.
"""

from .ratfun import (
    LAM,
    Polynomial,
    RatFun,
    W,
    Z,
    parse_polynomial,
    parse_ratfun,
    poly_gcd,
    poly_lcm,
    ratfun_from_json,
)
from .linalg import SymMatrix, determinant, inverse_entry, schur_reduce
from .graphs import (
    Color,
    ColoredGraph,
    GraphFormatError,
    colored_adjacency,
    comb_product_z,
    components,
    distance,
    graph_from_json,
    graph_to_json,
    relabel,
    retract,
    star_product,
)
from .nevanlinna import (
    IdentityReport,
    reciprocal_transform,
    representing_function,
    verify_comb_identity,
    verify_retract_identity,
    verify_star_identity,
)
from .laurent import (
    ContactReport,
    LaurentSeries,
    contact_order,
    expand_at_infinity,
    first_nonzero_order,
    level_curve,
    verify_contact_theorem,
    walk_generating_series,
)
from .sticks import (
    StickFamily,
    stick_determinant_direct,
    stick_determinants,
    stick_matrix,
    stick_recurrence,
    stick_series_coefficients,
)
from .numcheck import SampleReport, eval_complex, pick_property_sample

__version__ = "0.1.0"

__all__ = [
    "LAM",
    "Polynomial",
    "RatFun",
    "W",
    "Z",
    "parse_polynomial",
    "parse_ratfun",
    "poly_gcd",
    "poly_lcm",
    "ratfun_from_json",
    "SymMatrix",
    "determinant",
    "inverse_entry",
    "schur_reduce",
    "Color",
    "ColoredGraph",
    "GraphFormatError",
    "colored_adjacency",
    "comb_product_z",
    "components",
    "distance",
    "graph_from_json",
    "graph_to_json",
    "relabel",
    "retract",
    "star_product",
    "IdentityReport",
    "reciprocal_transform",
    "representing_function",
    "verify_comb_identity",
    "verify_retract_identity",
    "verify_star_identity",
    "ContactReport",
    "LaurentSeries",
    "contact_order",
    "expand_at_infinity",
    "first_nonzero_order",
    "level_curve",
    "verify_contact_theorem",
    "walk_generating_series",
    "StickFamily",
    "stick_determinant_direct",
    "stick_determinants",
    "stick_matrix",
    "stick_recurrence",
    "stick_series_coefficients",
    "SampleReport",
    "eval_complex",
    "pick_property_sample",
]
