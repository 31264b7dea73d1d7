"""Exact representing functions of vertex-colored graphs.

The package computes two-variable representing functions of rooted,
vertex-colored simple graphs by exact rational-function linear algebra,
implements the star/comb graph products and pendant retraction together
with their function identities, and gives a representing function's
boundary contact order at (infinity, 0) in closed form, from the z-degrees
of its coefficients in w.
"""

from types import ModuleType as _ModuleType

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
    level_curve,
    verify_contact_theorem,
    walk_generating_series,
)
from .sticks import (
    StickFamily,
    stick_determinants,
    stick_matrix,
    stick_recurrence,
)
from .numcheck import SampleReport, eval_complex, pick_property_sample

__version__ = "0.1.0"

# the imports above are the one list of exports: every public name they
# bind, in import order, without the submodules they bind as a side effect
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
