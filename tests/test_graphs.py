import random

import pytest

from graphpick import gen
from graphpick.gen import random_colored_graph, random_permutation
from graphpick.graphs import (
    Color,
    ColoredGraph,
    GraphFormatError,
    W_COLOR,
    Z_COLOR,
    colored_adjacency,
    comb_product_z,
    distance,
    general_color,
    graph_from_json,
    graph_to_json,
    relabel,
    retract,
    star_product,
)
from graphpick.ratfun import Polynomial, RatFun
from oracles import reference_colored_graph, reference_single_w_graph

z = Polynomial.variable("z")
w = Polynomial.variable("w")


def rf(num, den=1):
    return RatFun(num, den)


def zw_edge(root=1):
    return ColoredGraph.build(["z", "w"], [(1, 2)], root)


# five vertices, one w; the shortest root-to-w path has length two
CONTACT_GRAPH = ColoredGraph.build(
    ["z", "w", "z", "z", "z"],
    [(1, 3), (1, 4), (2, 3), (2, 5), (4, 5)],
    1,
)

# square with a pendant triangle hanging off vertex 4
SIX_VERTEX = ColoredGraph.build(
    ["z", "w", "z", "z", "z", "w"],
    [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (4, 6), (5, 6)],
    1,
)

# 4-cycle with one z root and three w vertices
SQUARE_ZWWW = ColoredGraph.build(
    ["z", "w", "w", "w"], [(1, 2), (2, 3), (3, 4), (1, 4)], 1
)

# triangle with a z root, another z and one w
TRIANGLE_ZZW = ColoredGraph.build(["z", "z", "w"], [(1, 2), (1, 3), (2, 3)], 1)


def test_color_validation():
    with pytest.raises(ValueError):
        Color("q")
    with pytest.raises(ValueError):
        Color("z", rf(1))
    with pytest.raises(ValueError):
        Color("general")
    assert Z_COLOR.diagonal() == rf(-z)
    assert W_COLOR.diagonal() == rf(-w)
    assert general_color(rf(2, z)).diagonal() == rf(-2, z)


def test_graph_validation():
    with pytest.raises(ValueError):
        ColoredGraph.build([], [], 1)
    with pytest.raises(ValueError):
        ColoredGraph.build(["z"], [], 2)
    with pytest.raises(ValueError):
        ColoredGraph.build(["z", "z"], [(1, 1)], 1)
    with pytest.raises(ValueError):
        ColoredGraph.build(["z", "z"], [(1, 3)], 1)


def test_colored_adjacency_single_vertex():
    m = colored_adjacency(ColoredGraph.build(["z"]))
    assert m.rows == ((rf(-z),),)


def test_colored_adjacency_edge():
    m = colored_adjacency(zw_edge())
    assert m.rows == ((rf(-z), rf(1)), (rf(1), rf(-w)))


def test_colored_adjacency_contact_graph():
    m = colored_adjacency(CONTACT_GRAPH)
    expected = [
        [-z, 0, 1, 1, 0],
        [0, -w, 1, 0, 1],
        [1, 1, -z, 0, 0],
        [1, 0, 0, -z, 1],
        [0, 1, 0, 1, -z],
    ]
    assert m.rows == tuple(tuple(rf(e) for e in row) for row in expected)


def test_relabel_identity_and_swap():
    g = zw_edge()
    assert relabel(g, (1, 2)) == g
    swapped = relabel(g, (2, 1))
    assert swapped.colors == (W_COLOR, Z_COLOR)
    assert swapped.root == 2
    assert swapped.edges == frozenset({(1, 2)})


def test_relabel_rejects_non_bijection():
    with pytest.raises(ValueError):
        relabel(zw_edge(), (1, 1))


def test_relabel_conjugates_adjacency():
    rng = random.Random(42)
    for _ in range(10):
        g = random_colored_graph(rng, 6)
        perm = random_permutation(rng, g.n)
        a = colored_adjacency(g)
        b = colored_adjacency(relabel(g, perm))
        for i in range(1, g.n + 1):
            for j in range(1, g.n + 1):
                assert a.entry(i, j) == b.entry(perm[i - 1], perm[j - 1])


def test_relabel_then_inverse_is_identity():
    rng = random.Random(8)
    for _ in range(40):
        g = random_colored_graph(rng, 7)
        if rng.random() < 0.5:
            colors = list(g.colors)
            colors[rng.randrange(g.n)] = general_color(rf(z + rng.randint(-2, 2), 3))
            g = ColoredGraph(tuple(colors), g.edges, g.root)
        perm = random_permutation(rng, g.n)
        inverse = [0] * g.n
        for v, new in enumerate(perm, 1):
            inverse[new - 1] = v
        # dataclass equality compares colors, edges and root
        assert relabel(relabel(g, perm), inverse) == g


def test_star_product_matches_block_structure():
    product = star_product(SQUARE_ZWWW, TRIANGLE_ZZW)
    assert product.n == 6
    assert product.root == 1
    assert product.colors == (
        Z_COLOR,
        W_COLOR,
        W_COLOR,
        W_COLOR,
        Z_COLOR,
        W_COLOR,
    )
    assert product.edges == frozenset(
        {(1, 2), (2, 3), (3, 4), (1, 4), (1, 5), (1, 6), (5, 6)}
    )


def test_star_with_single_vertex_is_identity():
    g = SQUARE_ZWWW
    assert star_product(g, ColoredGraph.build(["z"])) == g


def test_star_vertex_count():
    g, h = SQUARE_ZWWW, TRIANGLE_ZZW
    assert star_product(g, h).n == g.n + h.n - 1


def test_star_rejects_mismatched_roots():
    with pytest.raises(ValueError, match="incompatible roots"):
        star_product(SQUARE_ZWWW, ColoredGraph.build(["w"]))


def test_comb_product_shape():
    g = ColoredGraph.build(["z", "z", "z", "w"], [(1, 2), (2, 3), (3, 4), (1, 4)], 4)
    h = ColoredGraph.build(["z", "w", "z"], [(1, 2), (1, 3), (2, 3)], 3)
    product = comb_product_z(g, h)
    assert product.n == g.n + 3 * (h.n - 1)
    assert product.root == g.root
    # copy at vertex 1 occupies 5, 6; at 2 occupies 7, 8; at 3 occupies 9, 10
    assert product.colors[4:] == (
        Z_COLOR,
        W_COLOR,
        Z_COLOR,
        W_COLOR,
        Z_COLOR,
        W_COLOR,
    )
    assert (5, 6) in product.edges and (1, 5) in product.edges and (1, 6) in product.edges
    assert (7, 8) in product.edges and (2, 7) in product.edges and (2, 8) in product.edges
    assert (9, 10) in product.edges and (3, 9) in product.edges and (3, 10) in product.edges


def test_comb_vertex_count_formula():
    rng = random.Random(13)
    for _ in range(10):
        g = random_colored_graph(rng, 6)
        h = random_colored_graph(rng, 5)
        colors = list(h.colors)
        colors[h.root - 1] = Z_COLOR
        h = ColoredGraph(tuple(colors), h.edges, h.root)
        z_count = sum(1 for c in g.colors if c.kind == "z")
        assert comb_product_z(g, h).n == g.n + z_count * (h.n - 1)


def test_comb_is_star_when_the_root_is_the_only_z_vertex():
    rng = random.Random(21)
    for _ in range(40):
        base = random_colored_graph(rng, 6)
        g = ColoredGraph(
            tuple(Z_COLOR if v == base.root else W_COLOR for v in range(1, base.n + 1)),
            base.edges,
            base.root,
        )
        h = random_colored_graph(rng, 5)
        colors = list(h.colors)
        colors[h.root - 1] = Z_COLOR
        h = ColoredGraph(tuple(colors), h.edges, h.root)
        assert comb_product_z(g, h) == star_product(g, h)


def test_comb_without_z_vertices_is_identity():
    g = ColoredGraph.build(["w", "w"], [(1, 2)], 1)
    h = ColoredGraph.build(["z", "w"], [(1, 2)], 1)
    assert comb_product_z(g, h) == g


def test_comb_rejects_non_z_root():
    g = zw_edge()
    h = ColoredGraph.build(["w", "z"], [(1, 2)], 1)
    with pytest.raises(ValueError, match="incompatible comb root"):
        comb_product_z(g, h)


def test_retract_pendant_triangle():
    reduced = retract(SIX_VERTEX, 4, {5, 6})
    assert reduced.n == 4
    assert reduced.root == 1
    assert reduced.edges == frozenset({(1, 2), (1, 3), (2, 4), (3, 4)})
    g_piece = rf(-w * z * z + w + 2 * z + 2, w * z - 1)
    assert reduced.color(4) == general_color(-g_piece)
    assert reduced.color(4).diagonal() == g_piece


def test_retract_empty_subgraph_keeps_diagonal():
    g = zw_edge()
    reduced = retract(g, 2, set())
    assert reduced == g
    assert reduced.color(2).diagonal() == W_COLOR.diagonal()


def test_retract_precondition_violations():
    with pytest.raises(ValueError, match="crosses"):
        retract(SIX_VERTEX, 5, {6})  # edge (4, 6) escapes past the cut
    with pytest.raises(ValueError, match="root"):
        retract(SIX_VERTEX, 4, {1, 2, 3, 5, 6})
    with pytest.raises(ValueError, match="cut"):
        retract(SIX_VERTEX, 4, {4, 5, 6})


def test_retract_names_a_zero_piece_function():
    # the piece z - (general 0) has the matrix [[-z, 1], [1, 0]], whose
    # inverse has a zero (1, 1) entry
    g = ColoredGraph.build(
        ["z", "z", general_color(rf(0))], [(1, 2), (2, 3)], 1
    )
    with pytest.raises(ValueError, match="cut vertex 2: the piece's representing function is 0"):
        retract(g, 2, {3})


def test_distance():
    assert distance(CONTACT_GRAPH, 1, 1) == 0
    assert distance(CONTACT_GRAPH, 1, 2) == 2
    assert distance(CONTACT_GRAPH, 1, 5) == 2
    two = ColoredGraph.build(["z", "z"])
    assert distance(two, 1, 2) == float("inf")


# ----------------------------------------------------------------------
# JSON


def test_json_roundtrip():
    for g in (CONTACT_GRAPH, SIX_VERTEX, zw_edge(2)):
        assert graph_from_json(graph_to_json(g)) == g


def test_json_general_color_roundtrip():
    g = ColoredGraph.build(
        ["z", general_color(rf(-w * z * z + w + 2 * z + 2, w * z - 1))],
        [(1, 2)],
        1,
    )
    assert graph_from_json(graph_to_json(g)) == g


def test_json_rejects_fractional_coloring():
    obj = {"vertices": [{"id": 1, "color": 0.5}], "edges": [], "root": 1}
    with pytest.raises(GraphFormatError, match="unsupported: fractional coloring"):
        graph_from_json(obj)


def test_json_errors_name_fields():
    with pytest.raises(GraphFormatError, match="vertices"):
        graph_from_json({"edges": [], "root": 1})
    with pytest.raises(GraphFormatError, match=r"vertices\[1\].id"):
        graph_from_json(
            {
                "vertices": [{"id": 1, "color": "z"}, {"id": 1, "color": "z"}],
                "edges": [],
                "root": 1,
            }
        )
    with pytest.raises(GraphFormatError, match=r"edges\[0\]: self-loop"):
        graph_from_json(
            {"vertices": [{"id": 1, "color": "z"}], "edges": [[1, 1]], "root": 1}
        )
    with pytest.raises(GraphFormatError, match=r"edges\[1\]: duplicate"):
        graph_from_json(
            {
                "vertices": [{"id": 1, "color": "z"}, {"id": 2, "color": "w"}],
                "edges": [[1, 2], [2, 1]],
                "root": 1,
            }
        )
    with pytest.raises(GraphFormatError, match="root"):
        graph_from_json(
            {"vertices": [{"id": 1, "color": "z"}], "edges": [], "root": 7}
        )


def test_json_vertices_any_order():
    obj = {
        "vertices": [{"id": 2, "color": "w"}, {"id": 1, "color": "z"}],
        "edges": [[2, 1]],
        "root": 2,
    }
    g = graph_from_json(obj)
    assert g == zw_edge(2)


# The parameters the seeded callers pass: the benchmark's dense, zero-label
# and comb jobs, the corpus builder, ``verify``'s component suite, and the
# star, comb and retract helpers.
_COLORED_GRAPH_CASES = [
    ((n,), {"min_vertices": n, "edge_prob": p, "connected": True})
    for p, sizes in ((0.3, (5, 6, 7, 8, 10, 11, 12, 13, 14, 15, 16, 17)), (0.4, (4, 6, 8)))
    for n in sizes
] + [
    ((3,), {"min_vertices": 2, "colors": ("z",), "connected": True}),
    ((4,), {}),
    ((5,), {}),
    ((6,), {}),
    ((7,), {}),
    ((5,), {"colors": ("z", "w")}),
    ((4,), {"colors": ("z",)}),
    ((6,), {"colors": ("z",)}),
    ((5,), {"min_vertices": 1}),
    ((8,), {"min_vertices": 1}),
]


@pytest.mark.parametrize(
    "generator, reference, cases",
    [
        (gen.random_colored_graph, reference_colored_graph, _COLORED_GRAPH_CASES),
        (
            gen.random_single_w_graph,
            reference_single_w_graph,
            [((n,), {}) for n in (1, 5, 6, 7, 8, 9, 10, 12)],
        ),
    ],
    ids=["colored", "single-w"],
)
def test_seeded_generators_keep_their_stream(generator, reference, cases):
    for args, kwargs in cases:
        for seed in range(100):
            mine, theirs = random.Random(seed), random.Random(seed)
            g = generator(mine, *args, **kwargs)
            h = reference(theirs, *args, **kwargs)
            case = (seed, args, kwargs)
            assert g.colors == h.colors, case
            assert list(g.edges) == list(h.edges), case
            assert g.root == h.root, case
            assert mine.random() == theirs.random(), case


def test_random_colored_graph_rejects_unknown_kinds_at_once():
    # "q" is never drawn from this seed, yet the palette is checked first
    with pytest.raises(ValueError, match="unknown color kind 'q'"):
        random_colored_graph(random.Random(0), 1, colors=("z",) * 10**3 + ("q",))
