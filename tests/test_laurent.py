import random

import pytest

from graphpick.gen import disjoint_union, random_colored_graph, random_permutation, random_single_w_graph
from graphpick.graphs import ColoredGraph, distance, relabel
from graphpick.laurent import (
    LaurentSeries,
    contact_order,
    expand_at_infinity,
    level_curve,
    verify_contact_theorem,
    walk_generating_series,
)
from graphpick.nevanlinna import representing_function
from graphpick.ratfun import LAM, Polynomial, RatFun, parse_ratfun

from oracles import contact_order_oracle, series_quotient

z = Polynomial.variable("z")
w = Polynomial.variable("w")
lam = Polynomial.variable("lam")


def rf(num, den=1):
    return RatFun(num, den)


CONTACT_GRAPH = ColoredGraph.build(
    ["z", "w", "z", "z", "z"],
    [(1, 3), (1, 4), (2, 3), (2, 5), (4, 5)],
    1,
)

CONTACT_F = rf(
    w * z**3 - w * z - 2 * z**2 + 1,
    -w * z**4 + 3 * w * z**2 - w + 2 * z**3 - 4 * z + 2,
)


# ----------------------------------------------------------------------
# expansion


def test_expand_geometric():
    # oracle: 1/(z^2 - 1) = sum_k z^(-2k) as a geometric series in z^-2
    s = expand_at_infinity(rf(1, z * z - 1), 6)
    assert s.start_order == 2
    assert s.truncation_order == 6
    assert [c for c in s.coefficients] == [rf(1), rf(0), rf(1), rf(0), rf(1)]


def test_expand_with_lam_coefficients():
    # oracle: lam/(1 + lam*z) is a geometric series in -1/(lam*z)
    s = expand_at_infinity(rf(lam, 1 + lam * z), 3)
    assert s.start_order == 1
    assert list(s.coefficients) == [rf(1), rf(-1, lam), rf(1, lam * lam)]


def test_expand_polynomial_part():
    s = expand_at_infinity(rf(z), 3)
    assert s.start_order == -1
    assert s.coefficient(-1) == rf(1)
    assert all(s.coefficient(k).is_zero for k in range(0, 4))


def test_expand_zero_and_out_of_window():
    s = expand_at_infinity(rf(0), 5)
    assert s.coefficients == ()
    far = expand_at_infinity(rf(1, z**7), 3)
    assert far.coefficients == ()


def test_expand_rejects_w():
    with pytest.raises(ValueError):
        expand_at_infinity(rf(w, z), 3)


def test_expand_residual_is_high_order():
    cases = [rf(1, z * z - 1), rf(z * z + 3, z**3 - 2 * z + 1), rf(2 * z + 1, z * z + z + 1)]
    big = 1e3
    for r in cases:
        n = 8
        s = expand_at_infinity(r, n)
        direct = r.num.evaluate(big, 0) / r.den.evaluate(big, 0)
        # the coefficients of a lam-free expansion are rational constants
        assert all(c.num.is_constant and c.den.is_constant for c in s.coefficients)
        summed = sum(
            (c.num.evaluate(0, 0) / c.den.evaluate(0, 0)) * big ** -(s.start_order + i)
            for i, c in enumerate(s.coefficients)
        )
        assert abs(direct - summed) <= 1e3 * big ** -(n + 1)


def test_expand_times_denominator_returns_numerator():
    # Multiplying the truncated series back by the denominator must give the
    # numerator exactly at every power of z the truncation still determines,
    # z^(deg den - order) and up.  Three hand-picked functions of z, then
    # denominators whose leading z-coefficient is a non-monomial polynomial
    # in lam, which graph inputs never produce.
    rng = random.Random(3)

    def rand_poly(dz, dl):
        return Polynomial.from_terms(
            {(ez, 0, el): rng.randint(-4, 4) for ez in range(dz + 1) for el in range(dl + 1)}
        )

    def z_profile(p):
        out = {}
        for (ez, _, el), c in p.terms():
            out[ez] = out.get(ez, rf(0)) + rf(c * lam**el)
        return out

    cases = [
        (rf(1, z * z - 1), 8),
        (rf(z * z + 3, z**3 - 2 * z + 1), 8),
        (rf(2 * z + 1, z * z + z + 1), 8),
    ]
    for _ in range(40):
        lead = rng.randint(1, 3) + lam + rng.randint(0, 2) * lam * lam
        dq = rng.randint(1, 3)
        r = rf(rand_poly(rng.randint(0, 4), 2), lead * z**dq + rand_poly(dq - 1, 2))
        b = z_profile(r.den)
        assert len(b[max(b)].num.terms()) > 1, "the reduced leading coefficient must stay non-monomial"
        cases.append((r, rng.randint(0, 8)))
    for r, order in cases:
        a, b = z_profile(r.num), z_profile(r.den)
        dq = max(b)
        s = expand_at_infinity(r, order)
        if s.coefficients:
            assert not s.coefficients[0].is_zero
        for e in range(dq - order, max(a) + 1):
            product = rf(0)
            for j, bj in b.items():
                product = product + bj * s.coefficient(j - e)
            assert product == a.get(e, rf(0))


def test_series_rendering():
    s = expand_at_infinity(rf(1, z * z - 1), 6)
    assert str(s) == "1*z^-2 + 1*z^-4 + 1*z^-6 + O(z^-7)"
    t = expand_at_infinity(rf(lam, 1 + lam * z), 2)
    assert str(t) == "1*z^-1 + (-1)/(lam)*z^-2 + O(z^-3)"
    # positive powers, a z^0 term, a polynomial coefficient, an all-zero
    # window and a leading minus sign
    assert str(expand_at_infinity(rf(z**2 + 1, z), 2)) == "1*z^1 + 1*z^-1 + O(z^-3)"
    assert str(expand_at_infinity(rf((lam + 1) * z**2 + 3, z - lam), 1)) == (
        "(lam + 1)*z^1 + (lam^2 + lam) + (lam^3 + lam^2 + 3)*z^-1 + O(z^-2)"
    )
    assert str(expand_at_infinity(rf(1, z**5), 2)) == "0 + O(z^-3)"
    assert str(expand_at_infinity(rf(-1, z**3), 4)) == "-1*z^-3 + O(z^-5)"
    # negative truncation orders: the O-term follows the terms' sign rule
    assert str(expand_at_infinity(rf(z), -3)) == "0 + O(z^2)"
    assert str(expand_at_infinity(rf(z), -1)) == "1*z^1 + O(1)"
    payload = s.to_json()
    assert payload["start_order"] == 2
    assert payload["coefficients"][0] == {"num": "1", "den": "1"}


def test_series_coefficient_accessor():
    s = expand_at_infinity(rf(1, z * z - 1), 6)
    assert s.coefficient(1).is_zero
    assert s.coefficient(2) == rf(1)
    with pytest.raises(ValueError):
        s.coefficient(7)


# ----------------------------------------------------------------------
# walk generating functions


def test_walk_series_single_vertex():
    g = ColoredGraph.build(["z"])
    s = walk_generating_series(g, 1, 1, 5)
    assert s.start_order == 1
    assert s.coefficient(1) == rf(-1)
    assert all(s.coefficient(k).is_zero for k in range(2, 6))


def test_walk_series_two_path():
    g = ColoredGraph.build(["z", "z"], [(1, 2)], 1)
    s = walk_generating_series(g, 1, 2, 8)
    # W_12 = -1/(z^2 - 1): odd orders vanish, even ones are -1
    for k in range(1, 9):
        assert s.coefficient(k) == (rf(-1) if k % 2 == 0 else rf(0))
    assert s.start_order == 2 == distance(g, 1, 2) + 1


def test_walk_series_diagonal_starts_at_one():
    rng = random.Random(8)
    for _ in range(5):
        g = random_colored_graph(rng, 5)
        i = rng.randint(1, g.n)
        assert walk_generating_series(g, i, i, 4).start_order == 1


def _matrix_power_walks(g: ColoredGraph, i: int, j: int, n: int) -> int:
    """(A^n)_ij, A the adjacency matrix: row i of A^n by n products with A."""
    row = [0] * (g.n + 1)
    row[i] = 1
    for _ in range(n):
        step = [0] * (g.n + 1)
        for u, v in g.edges:
            step[u] += row[v]
            step[v] += row[u]
        row = step
    return row[j]


def test_walk_series_counts_walks():
    rng = random.Random(17)
    cases = []
    for _ in range(8):
        g = random_colored_graph(rng, 5)
        cases.append((g, rng.randint(1, g.n), rng.randint(1, g.n), 10))
    # dense graphs and a long path, whose long series the recurrence runs on ints
    for n in range(8, 13):
        g = random_colored_graph(random.Random(n), n, min_vertices=n, edge_prob=0.5, connected=True)
        cases += [(g, 1, 1, 12), (g, 1, n, 12)]
    path = ColoredGraph.build(["z"] * 40, [(v, v + 1) for v in range(1, 40)])
    cases += [(path, 1, 40, 60), (path, 20, 21, 60)]
    for g, i, j, order in cases:
        s = walk_generating_series(g, i, j, order)
        for n in range(0, order):
            assert s.coefficient(n + 1) == rf(-_matrix_power_walks(g, i, j, n))
        d = distance(g, i, j)
        if d == float("inf"):
            assert s.coefficients == () or all(c.is_zero for c in s.coefficients)
        else:
            assert s.start_order == d + 1


@pytest.mark.parametrize("num", [1, 2 * z + 7], ids=["one", "linear"])
def test_constant_series_with_a_leading_coefficient_of_three(num):
    # b0 = 3, so the m-th coefficient is C_m / 3^(m+1) with C_m from the
    # fraction-free recurrence of oracles.series_quotient
    r = rf(num, 3 * z**2 + z + 5)
    a = [r.num.coefficients("z").get(e, Polynomial.zero()) for e in range(r.num.degree("z"), -1, -1)]
    b = [Polynomial.integer(c) for c in (3, 1, 5)]
    s = expand_at_infinity(r, 14)
    start = 2 - r.num.degree("z")
    want = series_quotient(a, b, 15 - start)
    assert s.start_order == start
    assert list(s.coefficients) == [rf(c, 3 ** (m + 1)) for m, c in enumerate(want)]


# ----------------------------------------------------------------------
# level curves and contact order


def test_level_curve_edge_function():
    f = rf(w, 1 - z * w)
    curve = level_curve(f)
    assert curve == rf(lam, 1 + lam * z)
    assert f.substitute("w", curve) == LAM


def test_level_curve_contact_example():
    curve = level_curve(CONTACT_F)
    assert CONTACT_F.substitute("w", curve) == LAM
    s = expand_at_infinity(curve, 4)
    assert s.coefficient(1) == rf(2)
    assert s.coefficient(2) == rf(0)
    assert s.coefficient(3) == rf(2)
    assert s.coefficient(4) == rf(2 * lam - 1, lam)


def test_level_curve_w_root_shape():
    # f = -1/(w + p(z)) solves to -p(z) - 1/lam
    p = z**2 + 3
    f = rf(-1, w + p)
    assert level_curve(f) == rf(-lam * p - 1, lam)


def test_level_curve_rejects_high_w_degree():
    with pytest.raises(ValueError, match="multiple w-vertices unsupported"):
        level_curve(rf(w * w, z))


def test_level_curve_rejects_w_free_input():
    with pytest.raises(ValueError, match="cannot solve"):
        level_curve(rf(1, z))


def test_contact_order_examples():
    assert contact_order(CONTACT_F) == 4
    edge = representing_function(ColoredGraph.build(["z", "w"], [(1, 2)], 1))
    assert contact_order(edge) == 2
    w_root = representing_function(ColoredGraph.build(["w", "z"], [(1, 2)], 1))
    assert contact_order(w_root) == 0


@pytest.mark.parametrize(
    "text, order",
    [
        ("w/z^5", -5),
        # orders above twice the z-degree of the denominator
        ("-2*z^5*w + 3*z^5", 5),
        ("(z^4*w - 2*z*w + z - 1)/(2*w)", 7),
    ],
)
def test_contact_order_pinned(text, order):
    f = parse_ratfun(text)
    assert contact_order(f) == order == contact_order_oracle(f)


def test_contact_order_matches_series_oracle_on_graphs():
    rng = random.Random(2410)
    for _ in range(30):
        f = representing_function(random_single_w_graph(rng, 12))
        assert contact_order(f) == contact_order_oracle(f)


def test_contact_order_matches_series_oracle_on_w_linear_functions():
    rng = random.Random(10695)

    def rand_poly():
        if rng.random() < 0.15:
            return Polynomial.zero()
        degree = rng.randint(0, 6)
        return Polynomial.from_terms({(e, 0, 0): rng.randint(-3, 3) for e in range(degree + 1)})

    checked = 0
    for _ in range(120):
        alpha, beta, gamma, delta = (rand_poly() for _ in range(4))
        den = gamma + delta * w
        f = rf(alpha + beta * w, den if den else 1)
        if f.degree("w") == 0:
            with pytest.raises(ValueError, match="cannot solve for w"):
                contact_order(f)
            continue
        assert contact_order(f) == contact_order_oracle(f), str(f)
        checked += 1
    assert checked > 80


def test_verify_contact_theorem_examples():
    report = verify_contact_theorem(CONTACT_GRAPH)
    assert (report.order, report.distance, report.consistent) == (4, 2, True)
    edge = ColoredGraph.build(["z", "w"], [(1, 2)], 1)
    assert verify_contact_theorem(edge).order == 2
    rooted_w = ColoredGraph.build(["w", "z", "z"], [(1, 2), (2, 3)], 1)
    rep = verify_contact_theorem(rooted_w)
    assert (rep.order, rep.distance, rep.consistent) == (0, 0, True)


def test_verify_contact_theorem_validation():
    with pytest.raises(ValueError, match="exactly one w"):
        verify_contact_theorem(ColoredGraph.build(["z", "z"], [(1, 2)], 1))
    with pytest.raises(ValueError, match="exactly one w"):
        verify_contact_theorem(ColoredGraph.build(["w", "w"], [(1, 2)], 1))
    with pytest.raises(ValueError, match="unreachable"):
        verify_contact_theorem(ColoredGraph.build(["z", "w"], [], 1))


def test_contact_theorem_random():
    rng = random.Random(909)
    for _ in range(25):
        g = random_single_w_graph(rng, 6)
        assert verify_contact_theorem(g).consistent


def test_contact_order_invariant_under_relabel_and_components():
    rng = random.Random(31337)
    for _ in range(6):
        g = random_single_w_graph(rng, 5)
        base = verify_contact_theorem(g).order
        perm = random_permutation(rng, g.n)
        assert verify_contact_theorem(relabel(g, perm)).order == base
        extra = random_colored_graph(rng, 3, colors=("z",))
        assert verify_contact_theorem(disjoint_union(g, extra)).order == base
