"""Independent oracles for the linear algebra and the contact order in graphpick.

These share no code with :mod:`graphpick.linalg`.  The exact oracles take
determinants by recursive cofactor expansion and inverse entries from the
adjugate, all in plain rational-function arithmetic.  Matrices are nested
sequences of entries (a ``SymMatrix``'s ``rows`` qualify), because minors
of a symmetric matrix need not be symmetric.  ``resolvent_oracle`` is the
floating-point one: a numpy LU solve at a single point.  The modular
oracles evaluate a matrix exactly at a random point modulo the prime
2^61 - 1 and solve it there by Gaussian elimination; comparing a symbolic
result with them at a few points is an identity test with no tolerance
(Schwartz-Zippel) that stays fast on graphs far beyond the cofactor oracles.
``contact_order_oracle`` reads the contact order off the level curve's
series at infinity instead of the closed-form degree count.
``reference_colored_graph`` and ``reference_single_w_graph`` are the seeded
graph generators of :mod:`graphpick.gen` as first written, which pin the
random stream that the benchmark's job sets and the committed corpus are
drawn from.
"""

import random

import numpy as np

from graphpick.graphs import Color, ColoredGraph, W_COLOR, Z_COLOR
from graphpick.laurent import expand_at_infinity, level_curve
from graphpick.numcheck import eval_complex
from graphpick.ratfun import Polynomial, RatFun


def cofactor_determinant(rows) -> RatFun:
    """Determinant by cofactor expansion along the first row."""
    rows = [[e if isinstance(e, RatFun) else RatFun(e) for e in row] for row in rows]
    n = len(rows)
    if n == 0:
        return RatFun(1)
    if n == 1:
        return rows[0][0]
    total = RatFun(0)
    for j, e in enumerate(rows[0]):
        if e.is_zero:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = e * cofactor_determinant(minor)
        total = total + (-term if j % 2 else term)
    return total


def cofactor_inverse_entry(rows, i: int, j: int) -> RatFun:
    """Entry (i, j) of the inverse, 1-based, as cofactor (j, i) over det."""
    rows = [list(row) for row in rows]
    det = cofactor_determinant(rows)
    if det.is_zero:
        raise ZeroDivisionError("singular matrix")
    minor = [row[: i - 1] + row[i:] for r, row in enumerate(rows, 1) if r != j]
    cof = cofactor_determinant(minor)
    return (-cof if (i + j) % 2 else cof) / det


def resolvent_oracle(g: ColoredGraph, k: int, z: complex, w: complex) -> complex:
    """Numeric (k, k) resolvent entry by LU solve with partial pivoting."""
    n = g.n
    if not (1 <= k <= n):
        raise ValueError(f"vertex {k} out of range 1..{n}")
    matrix = np.zeros((n, n), dtype=complex)
    for v in range(1, n + 1):
        d = g.color(v).diagonal()
        matrix[v - 1, v - 1] = eval_complex(d, z, w)
    for i, j in g.edges:
        matrix[i - 1, j - 1] = 1.0
        matrix[j - 1, i - 1] = 1.0
    rhs = np.zeros(n, dtype=complex)
    rhs[k - 1] = 1.0
    try:
        x = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"numerically singular colored matrix: {exc}") from exc
    return complex(x[k - 1])


def contact_order_oracle(f: RatFun, order: int = 40) -> int:
    """Contact order read off the level curve's expansion at infinity.

    It is the order of the first lam-dependent coefficient, searched up to
    z^-order.
    """
    series = expand_at_infinity(level_curve(f), order)
    for idx, c in enumerate(series.coefficients):
        # a reduced quotient depends on lam exactly when lam appears in it
        if c.degree("lam") > 0:
            return series.start_order + idx
    raise ValueError(f"no lam-dependent coefficient up to z^-{order}")


# ----------------------------------------------------------------------
# exact values at random points modulo a prime

PRIME = (1 << 61) - 1


class Unlucky(Exception):
    """A denominator or a pivot vanished modulo PRIME at the chosen point."""


def poly_mod(p: Polynomial, point) -> int:
    z, w, lam = point
    return sum(
        c * pow(z, ez, PRIME) * pow(w, ew, PRIME) * pow(lam, el, PRIME)
        for (ez, ew, el), c in p.terms()
    ) % PRIME


def ratfun_mod(f: RatFun, point) -> int:
    den = poly_mod(f.den, point)
    if not den:
        raise Unlucky
    return poly_mod(f.num, point) * pow(den, -1, PRIME) % PRIME


def graph_matrix_mod(g: ColoredGraph, point) -> list[list[int]]:
    """The colored adjacency matrix of g at ``point``, from its colors and edges."""
    n = g.n
    a = [[0] * n for _ in range(n)]
    for v in range(1, n + 1):
        a[v - 1][v - 1] = ratfun_mod(g.color(v).diagonal(), point)
    for i, j in g.edges:
        a[i - 1][j - 1] = a[j - 1][i - 1] = 1
    return a


def determinant_mod(a) -> int:
    """Determinant mod PRIME by Gaussian elimination with row swaps."""
    a = [list(row) for row in a]
    n = len(a)
    det = 1
    for c in range(n):
        r = next((r for r in range(c, n) if a[r][c]), None)
        if r is None:
            return 0
        if r != c:
            a[c], a[r] = a[r], a[c]
            det = -det
        det = det * a[c][c] % PRIME
        inv = pow(a[c][c], -1, PRIME)
        for r in range(c + 1, n):
            f = a[r][c] * inv % PRIME
            if f:
                a[r] = [(x - f * y) % PRIME for x, y in zip(a[r], a[c])]
    return det % PRIME


def inverse_entry_mod(a, i: int, j: int) -> int:
    """Entry (i, j) of the inverse mod PRIME, 1-based: Gauss-Jordan on A x = e_j.

    Raises ``Unlucky`` when the matrix is singular at this point.
    """
    n = len(a)
    aug = [list(row) + [int(r == j)] for r, row in enumerate(a, 1)]
    for c in range(n):
        r = next((r for r in range(c, n) if aug[r][c]), None)
        if r is None:
            raise Unlucky
        aug[c], aug[r] = aug[r], aug[c]
        inv = pow(aug[c][c], -1, PRIME)
        aug[c] = [x * inv % PRIME for x in aug[c]]
        for r in range(n):
            f = aug[r][c]
            if r != c and f:
                aug[r] = [(x - f * y) % PRIME for x, y in zip(aug[r], aug[c])]
    return aug[i - 1][n]


def at_random_points(rng, check) -> None:
    """Run ``check(point)`` at two random points where it is not ``Unlucky``.

    A nonzero polynomial of degree d vanishes at a random point with
    probability at most d/PRIME, so twenty unlucky draws mean that the
    matrix is singular or a denominator is identically zero.
    """
    lucky = 0
    for _ in range(20):
        try:
            check(tuple(rng.randrange(PRIME) for _ in range(3)))
        except Unlucky:
            continue
        lucky += 1
        if lucky == 2:
            return
    raise AssertionError("no lucky point in 20 draws")


def reference_colored_graph(
    rng: random.Random,
    max_vertices: int,
    *,
    min_vertices: int = 1,
    colors: tuple[str, ...] = ("z", "w"),
    edge_prob: float = 0.4,
    connected: bool = False,
) -> ColoredGraph:
    n = rng.randint(min_vertices, max_vertices)
    cs = [Color(rng.choice(colors)) for _ in range(n)]
    edges = set()
    if connected:
        for v in range(2, n + 1):
            u = rng.randint(1, v - 1)
            edges.add((u, v))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) not in edges and rng.random() < edge_prob:
                edges.add((i, j))
    return ColoredGraph(tuple(cs), frozenset(edges), rng.randint(1, n))


def reference_single_w_graph(rng: random.Random, max_vertices: int) -> ColoredGraph:
    """Connected graph with exactly one w vertex and a random root."""
    n = rng.randint(1, max_vertices)
    wv = rng.randint(1, n)
    cs = [W_COLOR if v == wv else Z_COLOR for v in range(1, n + 1)]
    edges = set()
    for v in range(2, n + 1):
        edges.add((rng.randint(1, v - 1), v))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) not in edges and rng.random() < 0.3:
                edges.add((i, j))
    return ColoredGraph(tuple(cs), frozenset(edges), rng.randint(1, n))
