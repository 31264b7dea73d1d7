"""Independent exact oracles for the benchmark's correctness checks.

Nothing here uses graphpick's arithmetic.  Colored matrices are solved over
``fractions.Fraction``, walk counts come from integer adjacency-matrix
powers and distances from a breadth-first search.  Program results are
read only through their public term lists (``Polynomial.terms()``) and
plain attributes, so a check never calls a function the tracer wraps.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction


class Singular(ArithmeticError):
    """The matrix (or a denominator) vanishes at the chosen point."""


def random_point(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A seeded rational point (z, w) with small numerators and denominators."""
    return (
        Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
    )


def eval_poly(p, z: Fraction, w: Fraction) -> Fraction:
    """Exact value of a polynomial at (z, w, lam=0).

    Works over integers: with z = a/q and w = b/q it sums
    c * a^i * b^j * q^(D-i-j) and divides by q^D once.
    """
    terms = [(ez, ew, c) for (ez, ew, el), c in p.terms() if el == 0]
    if not terms:
        return Fraction(0)
    q = z.denominator * w.denominator // math.gcd(z.denominator, w.denominator)
    a = z.numerator * (q // z.denominator)
    b = w.numerator * (q // w.denominator)
    deg = max(ez + ew for ez, ew, _ in terms)
    apow = [1]
    bpow = [1]
    qpow = [1]
    for _ in range(deg):
        apow.append(apow[-1] * a)
        bpow.append(bpow[-1] * b)
        qpow.append(qpow[-1] * q)
    total = sum(c * apow[ez] * bpow[ew] * qpow[deg - ez - ew] for ez, ew, c in terms)
    return Fraction(total, qpow[deg])


def eval_ratfun(f, z: Fraction, w: Fraction) -> Fraction:
    den = eval_poly(f.den, z, w)
    if den == 0:
        raise Singular("denominator vanishes at the point")
    return eval_poly(f.num, z, w) / den


def label_value(color, z: Fraction, w: Fraction) -> Fraction:
    if color.kind == "z":
        return z
    if color.kind == "w":
        return w
    return eval_ratfun(color.weight, z, w)


def colored_matrix(g, z: Fraction, w: Fraction) -> list[list[Fraction]]:
    """The colored adjacency matrix of ``g`` evaluated at (z, w)."""
    n = g.n
    rows = [[Fraction(0)] * n for _ in range(n)]
    for v in range(n):
        rows[v][v] = -label_value(g.colors[v], z, w)
    for i, j in g.edges:
        rows[i - 1][j - 1] = Fraction(1)
        rows[j - 1][i - 1] = Fraction(1)
    return rows


def solve_entry(rows: list[list[Fraction]], i: int, j: int) -> Fraction:
    """Entry (i, j) of the inverse (1-based): solve A x = e_j, return x_i.

    Gaussian elimination on sparse rows, then back substitution.
    """
    n = len(rows)
    m = [{c: v for c, v in enumerate(r) if v} for r in rows]
    rhs = [Fraction(int(k == j - 1)) for k in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if col in m[r]), None)
        if piv is None:
            raise Singular("matrix is singular at the point")
        m[col], m[piv] = m[piv], m[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        prow = m[col]
        pval = prow[col]
        for r in range(col + 1, n):
            head = m[r].get(col)
            if head is None:
                continue
            factor = head / pval
            row = m[r]
            for c, v in prow.items():
                value = row.get(c, 0) - factor * v
                if value:
                    row[c] = value
                else:
                    row.pop(c, None)
            rhs[r] -= factor * rhs[col]
    x = [Fraction(0)] * n
    for r in reversed(range(n)):
        acc = rhs[r] - sum(v * x[c] for c, v in m[r].items() if c > r)
        x[r] = acc / m[r][r]
    return x[i - 1]


def determinant(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    m = [list(r) for r in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor != 0:
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return det


def rep_value(g, z: Fraction, w: Fraction, vertex: int | None = None) -> Fraction:
    """Value of the representing function of ``g`` at (z, w)."""
    k = g.root if vertex is None else vertex
    return solve_entry(colored_matrix(g, z, w), k, k)


def check_at_points(rng: random.Random, expected, actual, points: int = 2) -> str | None:
    """Compare ``actual(z, w)`` with ``expected(z, w)`` at seeded points.

    Points where either side is singular are redrawn.  Returns a message
    on mismatch, ``None`` when every point agrees.
    """
    done = 0
    for _ in range(50):
        z, w = random_point(rng)
        try:
            want = expected(z, w)
            got = actual(z, w)
        except (Singular, ZeroDivisionError):
            continue
        if want != got:
            return f"value {got} != oracle {want} at z={z}, w={w}"
        done += 1
        if done == points:
            return None
    return "no regular point found"


def walk_counts(g, i: int, j: int, length: int) -> list[int]:
    """Number of walks of length 0..length from i to j."""
    adj: dict[int, list[int]] = {v: [] for v in range(1, g.n + 1)}
    for a, b in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    vec = {v: 0 for v in adj}
    vec[i] = 1
    out = []
    for _ in range(length + 1):
        out.append(vec[j])
        vec = {v: sum(vec[u] for u in adj[v]) for v in adj}
    return out


def bfs_distance(g, source: int, target: int) -> int | None:
    adj: dict[int, list[int]] = {v: [] for v in range(1, g.n + 1)}
    for a, b in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for v in frontier:
            for u in adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist.get(target)
