"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line with its elapsed time; every expected
value is exact and every runtime budget is asserted.
"""

import random
import time
from contextlib import contextmanager

from graphpick.gen import (
    disjoint_union,
    random_colored_graph,
    random_comb_pair,
    random_permutation,
    random_retract_instance,
    random_single_w_graph,
    random_star_pair,
)
from graphpick.graphs import ColoredGraph, colored_adjacency, distance, relabel
from graphpick.laurent import (
    expand_at_infinity,
    level_curve,
    verify_contact_theorem,
    walk_generating_series,
)
from graphpick.linalg import determinant, inverse_entry, schur_reduce
from graphpick.nevanlinna import (
    reciprocal_transform,
    representing_function,
    verify_comb_identity,
    verify_retract_identity,
    verify_star_identity,
)
from graphpick.numcheck import eval_complex, pick_property_sample
from graphpick.ratfun import Polynomial, RatFun
from graphpick.sticks import stick_matrix, stick_recurrence
from oracles import (
    at_gaussian,
    cofactor_inverse_entry,
    resolvent_oracle,
    stick_series_coefficients,
)
from sympy import QQ
from sympy.polys.domains import QQ_I
from sympy.polys.matrices import DomainMatrix

z = Polynomial.variable("z")
w = Polynomial.variable("w")
lam = Polynomial.variable("lam")


def rf(num, den=1):
    return RatFun(num, den)


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number} FAIL ({elapsed:.2f}s): {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s): {description}")
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
    )


SIX_VERTEX = ColoredGraph.build(
    ["z", "w", "z", "z", "z", "w"],
    [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (4, 6), (5, 6)],
    1,
)

SQUARE_ZWWW = ColoredGraph.build(
    ["z", "w", "w", "w"], [(1, 2), (2, 3), (3, 4), (1, 4)], 1
)

TRIANGLE_ZZW = ColoredGraph.build(["z", "z", "w"], [(1, 2), (1, 3), (2, 3)], 1)

CONTACT_GRAPH = ColoredGraph.build(
    ["z", "w", "z", "z", "z"],
    [(1, 3), (1, 4), (2, 3), (2, 5), (4, 5)],
    1,
)


def test_criterion_1_pendant_retraction():
    with criterion(1, "six-vertex function and its pendant retraction", 1.0):
        expected = rf(
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
        assert representing_function(SIX_VERTEX) == expected

        report = verify_retract_identity(SIX_VERTEX, 4, {5, 6})
        assert report.equal and report.rhs == expected
        piece = ColoredGraph.build(["z", "z", "w"], [(1, 2), (1, 3), (2, 3)], 1)
        assert reciprocal_transform(piece) == rf(
            -w * z * z + w + 2 * z + 2, w * z - 1
        )


def test_criterion_2_star_example():
    with criterion(2, "square/triangle star product identity", 1.0):
        g_square = reciprocal_transform(SQUARE_ZWWW)
        g_triangle = reciprocal_transform(TRIANGLE_ZZW)
        total = g_square + g_triangle
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
        report = verify_star_identity(SQUARE_ZWWW, TRIANGLE_ZZW)
        assert report.equal
        # the glued transform exceeds the plain sum by the root loop z
        assert report.lhs == total + rf(z)
        assert total == report.lhs - rf(z)


def test_criterion_3_contact_example():
    with criterion(3, "five-vertex level curve and contact order", 1.0):
        f = representing_function(CONTACT_GRAPH)
        assert f == rf(
            w * z**3 - w * z - 2 * z**2 + 1,
            -w * z**4 + 3 * w * z**2 - w + 2 * z**3 - 4 * z + 2,
        )
        curve = level_curve(f)
        series = expand_at_infinity(curve, 4)
        assert series.coefficient(1) == rf(2)
        assert series.coefficient(2) == rf(0)
        assert series.coefficient(3) == rf(2)
        assert series.coefficient(4) == rf(2 * lam - 1, lam)
        report = verify_contact_theorem(CONTACT_GRAPH)
        assert (report.order, report.distance, report.consistent) == (4, 2, True)


def test_criterion_4_contact_order_suite():
    with criterion(4, "contact order equals twice the distance, 200 graphs", 60.0):
        rng = random.Random(20240401)
        for _ in range(200):
            g = random_single_w_graph(rng, 8)
            report = verify_contact_theorem(g)
            assert report.consistent
            if g.color(g.root).kind == "w":
                assert report.order == 0


def test_criterion_5_identity_suites():
    with criterion(5, "six exact identity suites, 100 instances each", 120.0):
        rng = random.Random(50501)
        for _ in range(100):
            g, h = random_star_pair(rng, 7)
            assert verify_star_identity(g, h).equal

        rng = random.Random(50502)
        for i in range(100):
            g, h = random_comb_pair(rng, 6, 5, all_z=(i % 5 == 0))
            report = verify_comb_identity(g, h)
            assert report.equal
            if i % 5 == 0:
                assert report.lhs.degree("w") <= 0

        rng = random.Random(50503)
        for _ in range(100):
            g, cut, ksub = random_retract_instance(rng, max_base=5, max_pendant=3)
            assert g.n <= 8
            assert verify_retract_identity(g, cut, ksub).equal

        rng = random.Random(50504)
        for _ in range(100):
            g = random_colored_graph(rng, 7)
            perm = random_permutation(rng, g.n)
            k = rng.randint(1, g.n)
            assert representing_function(g, k) == representing_function(
                relabel(g, perm), perm[k - 1]
            )

        rng = random.Random(50505)
        for _ in range(100):
            g = random_colored_graph(rng, 5)
            extra = random_colored_graph(rng, 4)
            assert representing_function(disjoint_union(g, extra)) == (
                representing_function(g)
            )

        rng = random.Random(50506)
        done = 0
        while done < 100:
            g = random_colored_graph(rng, 6)
            keep = sorted(
                {g.root} | {v for v in range(1, g.n + 1) if rng.random() < 0.5}
            )
            if len(keep) == g.n:
                continue
            reduced = schur_reduce(colored_adjacency(g), keep)
            assert inverse_entry(reduced, keep.index(g.root) + 1) == (
                representing_function(g)
            )
            idx = keep.index(g.root) + 1
            assert cofactor_inverse_entry(reduced.rows, idx, idx) == (
                representing_function(g)
            )
            done += 1


def test_criterion_6_walk_series():
    with criterion(6, "walk series match integer matrix powers, 50 graphs", 30.0):
        rng = random.Random(60606)
        for _ in range(50):
            g = random_colored_graph(rng, 6)
            i = rng.randint(1, g.n)
            j = rng.randint(1, g.n)
            series = walk_generating_series(g, i, j, 10)

            size = g.n
            adj = [[0] * size for _ in range(size)]
            for a, b in g.edges:
                adj[a - 1][b - 1] = 1
                adj[b - 1][a - 1] = 1
            power = [[1 if r == c else 0 for c in range(size)] for r in range(size)]
            for n in range(0, 10):
                assert series.coefficient(n + 1) == rf(-power[i - 1][j - 1])
                power = [
                    [
                        sum(power[r][k] * adj[k][c] for k in range(size))
                        for c in range(size)
                    ]
                    for r in range(size)
                ]

            d = distance(g, i, j)
            if d != float("inf"):
                assert series.start_order == d + 1


def test_criterion_7_stick_determinants():
    with criterion(7, "stick determinants agree three ways to n=20", 5.0):
        rec = stick_recurrence(20)
        series = stick_series_coefficients(20)
        assert rec[1] == -z and rec[2] == z * z - 1 and rec[0] == Polynomial.one()
        for n in range(21):
            # T_0 = 1 is the empty determinant
            direct = determinant(stick_matrix(n)).num if n else Polynomial.one()
            assert direct == rec[n] == series[n]


def test_criterion_8_pick_sampling():
    with criterion(8, "halfplane positivity and boundary reality sampling", 60.0):
        rng = random.Random(80808)
        for _ in range(20):
            g = random_colored_graph(rng, 8)
            report = pick_property_sample(g, count=1000, seed=rng.randint(0, 10**9))
            assert report.passed
            assert report.worst_imag >= -1e-9
            assert report.to_json()["worst_residual"] == 0.0
            # boundary reality cannot fail: f has integer coefficients, so it
            # is real at real points; a few points guard eval_complex itself
            f = representing_function(g)
            real = random.Random(report.seed)
            for _ in range(5):
                try:
                    value = eval_complex(f, real.uniform(-5, 5), real.uniform(-5, 5))
                except ValueError:  # pole proximity
                    continue
                assert value.imag == 0.0


def test_criterion_8_pick_energy_identity():
    # x = A^-1 e_k gives conj(x)^T A x = conj(x_k); the adjacency part of the
    # form is real, so Im f = Im z * sum_z |x_v|^2 + Im w * sum_w |x_v|^2
    with criterion(8, "exact Pick energy identity, 40 graphs at Gaussian-rational points", 30.0):
        rng = random.Random(80809)

        def point():
            return QQ_I(
                QQ(rng.randint(-40, 40), rng.randint(1, 8)),
                QQ(rng.randint(1, 40), rng.randint(1, 8)),
            )

        for _ in range(40):
            g = random_colored_graph(rng, 8)
            n = g.n
            k = rng.randint(1, n)
            f = representing_function(g, k)
            for _ in range(3):
                zz, ww = point(), point()
                rows = [[QQ_I(0)] * n for _ in range(n)]
                for v in range(1, n + 1):
                    rows[v - 1][v - 1] = at_gaussian(g.color(v).diagonal(), zz, ww)
                for i, j in g.edges:
                    rows[i - 1][j - 1] = rows[j - 1][i - 1] = QQ_I(1)
                e_k = [[QQ_I(int(v == k))] for v in range(1, n + 1)]
                a = DomainMatrix(rows, (n, n), QQ_I)
                x = [xv for [xv] in a.lu_solve(DomainMatrix(e_k, (n, 1), QQ_I)).to_list()]
                assert at_gaussian(f, zz, ww) == x[k - 1]
                energy = sum(
                    (
                        (xv.x**2 + xv.y**2) * (zz.y if g.color(v).kind == "z" else ww.y)
                        for v, xv in enumerate(x, 1)
                    ),
                    QQ(0),
                )
                assert x[k - 1].y == energy > 0


def test_criterion_9_resolvent_oracle():
    with criterion(9, "symbolic functions match LU resolvents, 100 pairs", 10.0):
        rng = random.Random(90909)
        for _ in range(100):
            g = random_colored_graph(rng, 8)
            k = rng.randint(1, g.n)
            zz = complex(rng.uniform(-4, 4), rng.uniform(0.1, 4))
            ww = complex(rng.uniform(-4, 4), rng.uniform(0.1, 4))
            symbolic = eval_complex(representing_function(g, k), zz, ww)
            numeric = resolvent_oracle(g, k, zz, ww)
            assert abs(numeric - symbolic) <= 1e-8 * max(1.0, abs(symbolic))
