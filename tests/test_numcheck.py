import random

import pytest

from graphpick.gen import random_colored_graph, random_single_w_graph
from graphpick.graphs import ColoredGraph, general_color, star_product
from graphpick.nevanlinna import representing_function, verify_star_identity
from graphpick.gen import random_star_pair
from graphpick import numcheck
from graphpick.numcheck import eval_complex, pick_property_sample
from graphpick.ratfun import Polynomial, RatFun

from oracles import (
    PRIME,
    Unlucky,
    at_random_points,
    graph_matrix_mod,
    inverse_entry_mod,
    ratfun_mod,
    resolvent_oracle,
)

z = Polynomial.variable("z")
w = Polynomial.variable("w")


def rf(num, den=1):
    return RatFun(num, den)


SIX_VERTEX = ColoredGraph.build(
    ["z", "w", "z", "z", "z", "w"],
    [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (4, 6), (5, 6)],
    1,
)


def test_eval_complex_simple():
    assert eval_complex(rf(-1, z), 1j, 0) == 1j
    assert abs(eval_complex(rf(w, 1 - z * w), 1j, 1j) - 0.5j) < 1e-15


def test_eval_complex_pole_guard():
    with pytest.raises(ValueError, match="pole proximity"):
        eval_complex(rf(1, z), 1e-15, 0)


def test_pick_sample_gives_up_after_the_redraw_budget(monkeypatch):
    # every point lands on a pole: after count + _MAX_REDRAWS + 1 draws of
    # the upper halfplane the sampler stops
    calls = []

    def near_pole(r, zz, ww, lam=0j):
        calls.append(zz.imag > 0 and ww.imag > 0)
        raise ValueError("pole proximity")

    monkeypatch.setattr(numcheck, "eval_complex", near_pole)
    count = 7
    with pytest.raises(ValueError, match="^pole proximity: could not place samples$"):
        pick_property_sample(ColoredGraph.build(["z"]), count=count, seed=1)
    assert calls.count(True) == count + numcheck._MAX_REDRAWS + 1
    assert calls.count(False) == 0


@pytest.mark.parametrize("bad", [complex("nan+nanj"), complex(0.0, float("-inf"))])
def test_pick_sample_stops_on_a_non_finite_value(monkeypatch, bad):
    # a value past double precision is an error, not a pole to redraw
    values = [bad]

    def overflowed_once(r, zz, ww, lam=0j):
        return values.pop() if values else 1j

    monkeypatch.setattr(numcheck, "eval_complex", overflowed_once)
    with pytest.raises(ValueError, match="evaluation overflowed double precision"):
        pick_property_sample(ColoredGraph.build(["z"]), count=5, seed=1)
    assert not values


def test_pick_sample_reciprocal_of_z():
    report = pick_property_sample(ColoredGraph.build(["z"]), count=500, seed=3)
    assert report.passed
    assert report.worst_imag >= 0.0
    assert report.samples == 500 and report.seed == 3


def test_pick_sample_edge_graph():
    g = ColoredGraph.build(["z", "w"], [(1, 2)], 1)
    assert pick_property_sample(g, count=1000, seed=0).passed


def test_pick_sample_random_graphs():
    rng = random.Random(14)
    for _ in range(5):
        g = random_colored_graph(rng, 6)
        assert pick_property_sample(g, count=200, seed=rng.randint(0, 10**6)).passed


def _z_path(n):
    return ColoredGraph.build(["z"] * n, [(v, v + 1) for v in range(1, n)])


def test_pick_sample_on_the_80_path():
    assert pick_property_sample(_z_path(80), count=200, seed=0).passed


@pytest.mark.xfail(
    strict=True,
    reason="double-precision Horner on the expanded numerator and denominator "
    "loses all accuracy on the all-z path from n = 100 on",
)
def test_pick_sample_on_the_100_path():
    assert pick_property_sample(_z_path(100), count=200, seed=0).passed


def test_pick_sample_rejects_general_colors():
    g = ColoredGraph.build(["z", general_color(rf(1, z))], [(1, 2)], 1)
    with pytest.raises(ValueError, match="Pick property not asserted"):
        pick_property_sample(g)


def test_pick_sample_reproducible():
    g = ColoredGraph.build(["z", "w"], [(1, 2)], 1)
    a = pick_property_sample(g, count=100, seed=9)
    b = pick_property_sample(g, count=100, seed=9)
    assert a == b


def test_resolvent_single_vertex():
    g = ColoredGraph.build(["z"])
    assert abs(resolvent_oracle(g, 1, 2j, 1j) - 0.5j) < 1e-12


def test_resolvent_matches_symbolic_on_example():
    f = representing_function(SIX_VERTEX)
    want = eval_complex(f, 1j, 2j)
    got = resolvent_oracle(SIX_VERTEX, 1, 1j, 2j)
    assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_resolvent_matches_symbolic_random():
    rng = random.Random(21)
    for _ in range(20):
        g = random_colored_graph(rng, 7)
        k = rng.randint(1, g.n)
        zz = complex(rng.uniform(-4, 4), rng.uniform(0.1, 4))
        ww = complex(rng.uniform(-4, 4), rng.uniform(0.1, 4))
        f = representing_function(g, k)
        want = eval_complex(f, zz, ww)
        got = resolvent_oracle(g, k, zz, ww)
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_verified_identities_also_agree_numerically():
    """Both sides of the star identity equal the modular oracle's values.

    f_G, f_H and the product's f are solved mod 2^61 - 1 from the graphs'
    matrices, so neither side is checked through ``RatFun`` equality.
    """
    rng = random.Random(37)
    for _ in range(3):
        g, h = random_star_pair(rng, 4)
        report = verify_star_identity(g, h)
        assert report.equal

        def check(point):
            def reciprocal_root_value(graph):
                f = inverse_entry_mod(graph_matrix_mod(graph, point), graph.root, graph.root)
                if not f:
                    raise Unlucky
                return pow(f, -1, PRIME)

            lhs = reciprocal_root_value(star_product(g, h))
            g0 = ratfun_mod(g.color(g.root).diagonal(), point)
            rhs = (reciprocal_root_value(g) + reciprocal_root_value(h) - g0) % PRIME
            assert ratfun_mod(report.lhs, point) == lhs == rhs == ratfun_mod(report.rhs, point)

        for _ in range(5):
            at_random_points(rng, check)


def test_denominator_nonvanishing_on_upper_halfplane():
    # the colored matrix stays invertible off the reals, so f's denominator
    # cannot vanish at sampled halfplane points
    rng = random.Random(71)
    for _ in range(5):
        g = random_colored_graph(rng, 6)
        f = representing_function(g)
        for _ in range(50):
            zz = complex(rng.uniform(-5, 5), 5.0 * (1.0 - rng.random()))
            ww = complex(rng.uniform(-5, 5), 5.0 * (1.0 - rng.random()))
            assert abs(f.den.evaluate(zz, ww)) > 1e-12


def test_derivative_matches_central_differences():
    """Exactly equal to sympy's ``diff`` of representing functions, in z and w."""
    sympy = pytest.importorskip("sympy")

    def to_expr(f):
        num, den = (sympy.sympify(str(p).replace("^", "**")) for p in (f.num, f.den))
        return num / den

    # the first draw is the one-vertex graph, f = -1/w, whose z-derivative
    # is 0; the next four have every variable
    rng = random.Random(43)
    for _ in range(5):
        f = representing_function(random_single_w_graph(rng, 5))
        for var in ("z", "w"):
            want = sympy.diff(to_expr(f), sympy.Symbol(var))
            assert sympy.cancel(want - to_expr(f.derivative(var))) == 0
