import random

import pytest

from graphpick.gen import random_colored_graph, random_single_w_graph
from graphpick.graphs import ColoredGraph, general_color
from graphpick.nevanlinna import representing_function, verify_star_identity
from graphpick.gen import random_star_pair
from graphpick import numcheck
from graphpick.numcheck import eval_complex, pick_property_sample
from graphpick.ratfun import Polynomial, RatFun

from oracles import resolvent_oracle

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
    rng = random.Random(37)
    for _ in range(3):
        g, h = random_star_pair(rng, 4)
        report = verify_star_identity(g, h)
        assert report.equal
        for _ in range(10):
            zz = complex(rng.uniform(-3, 3), rng.uniform(0.2, 3))
            ww = complex(rng.uniform(-3, 3), rng.uniform(0.2, 3))
            lv = eval_complex(report.lhs, zz, ww)
            rv = eval_complex(report.rhs, zz, ww)
            assert abs(lv - rv) <= 1e-8 * max(1.0, abs(rv))


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
    rng = random.Random(43)
    f = representing_function(random_single_w_graph(rng, 5))
    df = f.derivative("z")
    for _ in range(6):
        zz = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2))
        ww = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2))
        h = 1e-5
        fd = (eval_complex(f, zz + h, ww) - eval_complex(f, zz - h, ww)) / (2 * h)
        exact = eval_complex(df, zz, ww)
        assert abs(fd - exact) <= 1e-5 * max(1.0, abs(exact))
