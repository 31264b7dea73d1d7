import random

import pytest

from graphpick.gen import (
    disjoint_union,
    random_colored_graph,
    random_comb_pair,
    random_permutation,
    random_retract_instance,
    random_star_pair,
)
from graphpick.graphs import (
    ColoredGraph,
    colored_adjacency,
    comb_product_z,
    general_color,
    relabel,
    star_product,
)
from graphpick.linalg import determinant, inverse_entry, schur_reduce
from graphpick.nevanlinna import (
    reciprocal_transform,
    representing_function,
    verify_comb_identity,
    verify_retract_identity,
    verify_star_identity,
)
from graphpick.ratfun import Polynomial, RatFun
from oracles import cofactor_inverse_entry

z = Polynomial.variable("z")
w = Polynomial.variable("w")


def rf(num, den=1):
    return RatFun(num, den)


SIX_VERTEX = ColoredGraph.build(
    ["z", "w", "z", "z", "z", "w"],
    [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (4, 6), (5, 6)],
    1,
)

SQUARE_ZWWW = ColoredGraph.build(
    ["z", "w", "w", "w"], [(1, 2), (2, 3), (3, 4), (1, 4)], 1
)

TRIANGLE_ZZW = ColoredGraph.build(["z", "z", "w"], [(1, 2), (1, 3), (2, 3)], 1)

SIX_VERTEX_F = rf(
    -(w**2) * z**3 + 2 * w**2 * z + 3 * w * z**2 + 2 * w * z - w - z,
    w**2 * z**4
    - 3 * w**2 * z**2
    + w**2
    - 4 * w * z**3
    - 2 * w * z**2
    + 4 * w * z
    + 2 * w
    + 3 * z**2
    + 2 * z,
)

TRIANGLE_G = rf(-w * z * z + w + 2 * z + 2, w * z - 1)

SQUARE_G = rf(w**3 * z - 2 * w**2 - 2 * w * z, 2 * w - w**3)


def test_single_vertex_function():
    assert representing_function(ColoredGraph.build(["z"])) == rf(-1, z)
    assert representing_function(ColoredGraph.build(["w"])) == rf(-1, w)


def test_edge_function_adjugate():
    g = ColoredGraph.build(["z", "w"], [(1, 2)], 1)
    assert representing_function(g) == rf(w, 1 - z * w)
    assert representing_function(g, 2) == rf(z, 1 - z * w)


def test_six_vertex_function_value():
    assert representing_function(SIX_VERTEX) == SIX_VERTEX_F


def test_matches_cofactor_route():
    rng = random.Random(31)
    for _ in range(15):
        g = random_colored_graph(rng, 6)
        k = rng.randint(1, g.n)
        direct = inverse_entry(colored_adjacency(g), k)
        assert representing_function(g, k) == direct
        assert direct == cofactor_inverse_entry(colored_adjacency(g).rows, k, k)


def test_general_colors_supported():
    weight = rf(-w * z * z + w + 2 * z + 2, w * z - 1)
    g = ColoredGraph.build(
        ["z", "w", "z", general_color(-weight)],
        [(1, 2), (1, 3), (2, 4), (3, 4)],
        1,
    )
    assert representing_function(g) == SIX_VERTEX_F


def test_zero_diagonal_falls_back():
    g = ColoredGraph.build(
        [general_color(rf(0)), general_color(rf(0))], [(1, 2)], 1
    )
    # the matrix [[0, 1], [1, 0]] is its own inverse
    assert representing_function(g) == rf(0)
    # the inverse of [[-z, 1], [1, 0]] is [[0, 1], [1, z]]
    path = ColoredGraph.build(["z", general_color(rf(0))], [(1, 2)], 1)
    assert representing_function(path) == rf(0)
    assert representing_function(path, 2) == rf(z)


def test_singular_matrix_rejected():
    g = ColoredGraph.build([general_color(rf(0))])
    with pytest.raises(ValueError, match="singular colored matrix"):
        representing_function(g)


def test_reciprocal_transform_values():
    assert reciprocal_transform(ColoredGraph.build(["z"])) == rf(-z)
    assert reciprocal_transform(TRIANGLE_ZZW) == TRIANGLE_G
    assert reciprocal_transform(SQUARE_ZWWW) == SQUARE_G


def test_star_identity_square_triangle():
    report = verify_star_identity(SQUARE_ZWWW, TRIANGLE_ZZW)
    assert report.equal
    total = SQUARE_G + TRIANGLE_G
    expected_sum = rf(
        -2 * w**3 * z**2
        + w**3
        + 5 * w**2 * z
        + 2 * w**2
        + 4 * w * z**2
        - 4 * w
        - 6 * z
        - 4,
        (w * w - 2) * (w * z - 1),
    )
    assert total == expected_sum
    # the glued function differs from the plain sum by the doubled root loop
    assert report.lhs == total + rf(z)


def test_star_identity_with_zero_graph():
    report = verify_star_identity(SQUARE_ZWWW, ColoredGraph.build(["z"]))
    assert report.equal
    assert report.lhs == SQUARE_G


def test_star_identity_with_a_general_root():
    label = rf(z + 1, w - 2)
    root = general_color(label)
    g = ColoredGraph.build([root, "z", "w"], [(1, 2), (1, 3), (2, 3)])
    h = ColoredGraph.build([root, "w"], [(1, 2)])
    report = verify_star_identity(g, h)
    assert report.equal
    # the shared root's label counts once in the glued function, twice in the sum
    assert report.lhs == reciprocal_transform(g) + reciprocal_transform(h) + label


def test_star_identity_random():
    rng = random.Random(99)
    for _ in range(15):
        g, h = random_star_pair(rng, 5)
        assert verify_star_identity(g, h).equal


def test_comb_identity_cycle_example():
    g = ColoredGraph.build(
        ["z", "z", "z", "w"], [(1, 2), (2, 3), (3, 4), (1, 4)], 4
    )
    h = ColoredGraph.build(["z", "w", "z"], [(1, 2), (1, 3), (2, 3)], 3)
    report = verify_comb_identity(g, h)
    assert report.equal
    assert reciprocal_transform(h) == TRIANGLE_G
    t = -TRIANGLE_G
    expected_rhs = (2 * t - t**3) / (rf(w) * t**3 - 2 * rf(w) * t - 2 * t**2)
    assert report.rhs == expected_rhs


def test_comb_identity_single_vertex_attachment():
    g = SQUARE_ZWWW
    h = ColoredGraph.build(["z"])
    report = verify_comb_identity(g, h)
    assert report.equal
    assert comb_product_z(g, h) == g
    assert report.rhs == representing_function(g)


def test_comb_identity_random():
    rng = random.Random(123)
    for _ in range(10):
        g, h = random_comb_pair(rng, 4, 3)
        assert verify_comb_identity(g, h).equal


def test_comb_identity_all_z_specialization():
    rng = random.Random(7)
    for _ in range(8):
        g, h = random_comb_pair(rng, 4, 3, all_z=True)
        report = verify_comb_identity(g, h)
        assert report.equal
        assert report.lhs.degree("w") <= 0


def test_retract_identity_pendant_triangle():
    report = verify_retract_identity(SIX_VERTEX, 4, {5, 6})
    assert report.equal
    assert report.lhs == SIX_VERTEX_F


def test_retract_identity_empty():
    g = ColoredGraph.build(["z", "w"], [(1, 2)], 1)
    assert verify_retract_identity(g, 2, set()).equal


def test_retract_identity_random():
    rng = random.Random(2718)
    for _ in range(12):
        g, cut, ksub = random_retract_instance(rng)
        assert verify_retract_identity(g, cut, ksub).equal


def test_relabel_invariance():
    rng = random.Random(55)
    for _ in range(15):
        g = random_colored_graph(rng, 7)
        perm = random_permutation(rng, g.n)
        k = rng.randint(1, g.n)
        assert representing_function(g, k) == representing_function(
            relabel(g, perm), perm[k - 1]
        )


def test_component_invariance():
    rng = random.Random(66)
    for _ in range(12):
        g = random_colored_graph(rng, 5)
        extra = random_colored_graph(rng, 4)
        combined = disjoint_union(g, extra)
        assert representing_function(combined) == representing_function(g)


def test_schur_path_independence():
    rng = random.Random(4040)
    done = 0
    while done < 10:
        g = random_colored_graph(rng, 6)
        k = g.root
        matrix = colored_adjacency(g)
        keep = sorted({k} | {v for v in range(1, g.n + 1) if rng.random() < 0.5})
        if len(keep) == g.n:
            continue
        reduced = schur_reduce(matrix, keep)
        direct = representing_function(g, k)
        assert inverse_entry(reduced, keep.index(k) + 1) == direct
        assert cofactor_inverse_entry(reduced.rows, keep.index(k) + 1, keep.index(k) + 1) == (
            cofactor_inverse_entry(matrix.rows, k, k)
        )
        # a second reduction step down to the root alone
        solo = schur_reduce(reduced, [keep.index(k) + 1])
        assert inverse_entry(solo, 1) == direct
        done += 1


def test_star_associativity_via_functions():
    rng = random.Random(31415)
    for _ in range(6):
        g, h = random_star_pair(rng, 4)
        _, k = random_star_pair(rng, 4)
        colors = list(k.colors)
        colors[k.root - 1] = g.color(g.root)
        k = ColoredGraph(tuple(colors), k.edges, k.root)
        left = star_product(star_product(g, h), k)
        right = star_product(g, star_product(h, k))
        assert representing_function(left) == representing_function(right)
