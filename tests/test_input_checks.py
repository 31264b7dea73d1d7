"""Every library input check raises its own error before any computation."""

import pytest

from graphpick.graphs import ColoredGraph, GraphFormatError, distance, graph_from_json, retract
from graphpick.laurent import contact_order, level_curve, walk_generating_series
from graphpick.linalg import SymMatrix, inverse_entry, schur_reduce
from graphpick.nevanlinna import representing_function
from graphpick.numcheck import pick_property_sample
from graphpick.ratfun import LAM, Polynomial, RatFun
from graphpick.sticks import stick_recurrence

z = Polynomial.variable("z")
w = Polynomial.variable("w")
PATH3 = ColoredGraph.build(["z", "z", "z"], [(1, 2), (2, 3)])
IDENTITY2 = SymMatrix.identity(2)
EDGE_OUT_OF_RANGE = {"vertices": [{"id": 1, "color": "z"}], "edges": [[1, 2]], "root": 1}


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Polynomial.variable("q"), ValueError, "unknown variable"),
        (lambda: (z + 1).constant_value(), ValueError, "not constant"),
        (lambda: z**-1, ValueError, "nonnegative integer exponent"),
        (lambda: z.exact_div(Polynomial.zero()), ZeroDivisionError, "division by zero"),
        (lambda: RatFun(z) ** 0.5, ValueError, "integer exponent"),
        (lambda: RatFun("z"), TypeError, "cannot interpret"),
        (lambda: SymMatrix.from_rows([[1, 0], [0]]), ValueError, "same length"),
        (lambda: SymMatrix(2, {(1, 1): "z"}), TypeError, "cannot interpret"),
        (lambda: SymMatrix(2, {(2, 1): 1}), ValueError, r"\(2, 1\) is below the diagonal"),
        (lambda: inverse_entry(IDENTITY2, 3), ValueError, "out of range for a 2x2"),
        (lambda: schur_reduce(IDENTITY2, []), ValueError, "must not be empty"),
        (lambda: schur_reduce(IDENTITY2, [1, 3]), ValueError, "keep set out of range"),
        (lambda: walk_generating_series(PATH3, 1, 4, 5), ValueError, "vertex out of range"),
        (lambda: level_curve(LAM), ValueError, "already depends on lam"),
        (lambda: contact_order(LAM), ValueError, "already depends on lam"),
        (lambda: contact_order(RatFun(w * w, z)), ValueError, "multiple w-vertices unsupported"),
        (lambda: contact_order(RatFun(1, z)), ValueError, "cannot solve for w"),
        (lambda: retract(PATH3, 4, [3]), ValueError, "cut vertex 4 out of range"),
        (lambda: retract(PATH3, 2, [5]), ValueError, "subgraph vertex 5 out of range"),
        (lambda: distance(PATH3, 0, 1), ValueError, "vertex out of range"),
        (lambda: stick_recurrence(-1), ValueError, "nonnegative"),
        (lambda: pick_property_sample(PATH3, 0), ValueError, "count must be at least 1"),
        (lambda: pick_property_sample(PATH3, -5), ValueError, "count must be at least 1"),
        (
            lambda: graph_from_json(EDGE_OUT_OF_RANGE),
            GraphFormatError,
            r"edges\[0\]: vertex id out of range 1\.\.1",
        ),
        (lambda: representing_function(PATH3, 4), ValueError, r"vertex 4 out of range 1\.\.3"),
    ],
    ids=[
        "unknown-variable",
        "constant-value",
        "negative-power",
        "exact-div-by-zero",
        "fractional-power",
        "ratfun-from-str",
        "ragged-rows",
        "sym-matrix-entry-type",
        "sym-matrix-below-diagonal",
        "inverse-entry-index",
        "schur-empty-keep",
        "schur-keep-range",
        "walk-vertex",
        "level-curve-lam",
        "contact-order-lam",
        "contact-order-w-degree",
        "contact-order-w-free",
        "retract-cut",
        "retract-subgraph",
        "distance-vertex",
        "stick-recurrence",
        "sample-count-zero",
        "sample-count-negative",
        "graph-edge-id",
        "repfun-vertex",
    ],
)
def test_input_check_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()
