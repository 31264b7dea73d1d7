"""Every library input check raises its own error before any computation."""

import pytest

from graphpick.graphs import (
    ColoredGraph,
    GraphFormatError,
    distance,
    graph_from_json,
    relabel,
    retract,
)
from graphpick.laurent import contact_order, level_curve, walk_generating_series
from graphpick.linalg import SymMatrix, inverse_entry, schur_reduce
from graphpick.nevanlinna import representing_function
from graphpick.numcheck import pick_property_sample
from graphpick.ratfun import LAM, Polynomial, RatFun
from graphpick.sticks import stick_recurrence

z = Polynomial.variable("z")
w = Polynomial.variable("w")
PATH3 = ColoredGraph.build(["z", "z", "z"], [(1, 2), (2, 3)])
IDENTITY2 = SymMatrix(2, {(1, 1): 1, (2, 2): 1})
EDGE_OUT_OF_RANGE = {"vertices": [{"id": 1, "color": "z"}], "edges": [[1, 2]], "root": 1}


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Polynomial.variable("q"), ValueError, "unknown variable"),
        (lambda: z**-1, ValueError, "nonnegative integer exponent"),
        (lambda: z.exact_div(Polynomial.zero()), ZeroDivisionError, "division by zero"),
        (lambda: RatFun(z) ** 0.5, ValueError, "integer exponent"),
        (lambda: RatFun("z"), TypeError, "cannot interpret"),
        (lambda: SymMatrix.from_rows([[1, 0], [0]]), ValueError, "same length"),
        (lambda: SymMatrix(2, {(1, 1): "z"}), TypeError, "cannot interpret"),
        (lambda: SymMatrix(2, {(2, 1): 1}), ValueError, r"\(2, 1\) is below the diagonal"),
        (lambda: IDENTITY2.entry(1, 99), ValueError, r"\(1, 99\) out of range for a 2x2"),
        (lambda: IDENTITY2.entry(99, 1), ValueError, r"\(99, 1\) out of range for a 2x2"),
        (lambda: inverse_entry(IDENTITY2, 3), ValueError, "out of range for a 2x2"),
        (lambda: inverse_entry(IDENTITY2, 1.5), ValueError, "out of range for a 2x2"),
        (lambda: schur_reduce(IDENTITY2, []), ValueError, "must not be empty"),
        (lambda: schur_reduce(IDENTITY2, [1, 3]), ValueError, "keep set out of range"),
        (lambda: schur_reduce(IDENTITY2, [1, 1.5]), ValueError, "keep set out of range"),
        (lambda: walk_generating_series(PATH3, 1, 4, 5), ValueError, "vertex out of range"),
        (lambda: walk_generating_series(PATH3, 1.5, 2, 5), ValueError, "vertex out of range"),
        (lambda: level_curve(LAM), ValueError, "already depends on lam"),
        (lambda: contact_order(LAM), ValueError, "already depends on lam"),
        (lambda: contact_order(RatFun(w * w, z)), ValueError, "multiple w-vertices unsupported"),
        (lambda: contact_order(RatFun(1, z)), ValueError, "cannot solve for w"),
        (lambda: retract(PATH3, 4, [3]), ValueError, "cut vertex 4 out of range"),
        (lambda: retract(PATH3, 2, [5]), ValueError, "subgraph vertex 5 out of range"),
        (lambda: retract(PATH3, 2, [2.5]), ValueError, r"subgraph vertex 2\.5 out of range"),
        (lambda: distance(PATH3, 0, 1), ValueError, "vertex out of range"),
        (lambda: distance(PATH3, 1, 2.5), ValueError, "vertex out of range"),
        (
            lambda: ColoredGraph(PATH3.colors, PATH3.edges, root=1.5),
            ValueError,
            r"root 1\.5 out of range 1\.\.3",
        ),
        (lambda: stick_recurrence(-1), ValueError, "nonnegative"),
        (lambda: pick_property_sample(PATH3, 0), ValueError, "count must be at least 1"),
        (lambda: pick_property_sample(PATH3, -5), ValueError, "count must be at least 1"),
        (lambda: pick_property_sample(PATH3, 1.5), ValueError, r"count must be an integer, got 1\.5"),
        (lambda: pick_property_sample(PATH3, True), ValueError, "count must be an integer, got True"),
        (
            lambda: graph_from_json(EDGE_OUT_OF_RANGE),
            GraphFormatError,
            r"edges\[0\]: vertex id out of range 1\.\.1",
        ),
        (lambda: representing_function(PATH3, 4), ValueError, r"vertex 4 out of range 1\.\.3"),
        (
            lambda: representing_function(PATH3, 1.5),
            ValueError,
            r"vertex 1\.5 out of range 1\.\.3",
        ),
        # a vertex or index is an exact int in 1..n: not 0, not a bool, not a float
        (lambda: PATH3.color(0), ValueError, r"vertex 0 out of range 1\.\.3"),
        (lambda: PATH3.color(4), ValueError, r"vertex 4 out of range 1\.\.3"),
        (
            lambda: representing_function(PATH3, True),
            ValueError,
            r"vertex True out of range 1\.\.3",
        ),
        (
            lambda: representing_function(PATH3, 2.0),
            ValueError,
            r"vertex 2\.0 out of range 1\.\.3",
        ),
        (lambda: retract(PATH3, 2.0, [3]), ValueError, r"cut vertex 2\.0 out of range"),
        (
            lambda: ColoredGraph(PATH3.colors, PATH3.edges, root=2.0),
            ValueError,
            r"root 2\.0 out of range 1\.\.3",
        ),
        (
            lambda: ColoredGraph.build(["z", "z"], [(1.0, 2)]),
            ValueError,
            r"edge \(1\.0, 2\) out of range",
        ),
        (
            lambda: ColoredGraph.build(["z", "z"], [(True, 2)]),
            ValueError,
            r"edge \(True, 2\) out of range",
        ),
        (lambda: distance(PATH3, True, 3), ValueError, "vertex out of range"),
        (lambda: relabel(PATH3, [True, 3, 2]), ValueError, "not a bijection of 1..n"),
        (
            lambda: inverse_entry(IDENTITY2, True),
            ValueError,
            r"index \(True, True\) out of range for a 2x2",
        ),
    ],
    ids=[
        "unknown-variable",
        "negative-power",
        "exact-div-by-zero",
        "fractional-power",
        "ratfun-from-str",
        "ragged-rows",
        "sym-matrix-entry-type",
        "sym-matrix-below-diagonal",
        "sym-matrix-entry-column",
        "sym-matrix-entry-row",
        "inverse-entry-index",
        "inverse-entry-fractional-index",
        "schur-empty-keep",
        "schur-keep-range",
        "schur-keep-fractional",
        "walk-vertex",
        "walk-fractional-vertex",
        "level-curve-lam",
        "contact-order-lam",
        "contact-order-w-degree",
        "contact-order-w-free",
        "retract-cut",
        "retract-subgraph",
        "retract-fractional-subgraph",
        "distance-vertex",
        "distance-fractional-vertex",
        "graph-fractional-root",
        "stick-recurrence",
        "sample-count-zero",
        "sample-count-negative",
        "sample-count-fractional",
        "sample-count-bool",
        "graph-edge-id",
        "repfun-vertex",
        "repfun-fractional-vertex",
        "color-vertex-zero",
        "color-vertex-past-n",
        "repfun-bool-vertex",
        "repfun-float-vertex",
        "retract-float-cut",
        "graph-float-root",
        "graph-float-edge",
        "graph-bool-edge",
        "distance-bool-vertex",
        "relabel-bool",
        "inverse-entry-bool-index",
    ],
)
def test_input_check_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()
