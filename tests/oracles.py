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
``at_gaussian`` evaluates a rational function exactly at a point of
sympy's Gaussian rationals, for comparison with sympy's exact linear solves.
``contact_order_oracle`` reads the contact order off the level curve's
series at infinity instead of the closed-form degree count.
``stick_series_coefficients`` reads the stick determinants off the series
of the generating function 1/(1 + z*x + x^2), through its own copy of the
fraction-free series division that :mod:`graphpick.laurent` runs.
``reference_colored_graph`` and ``reference_single_w_graph`` are the seeded
graph generators of :mod:`graphpick.gen` as first written, which pin the
random stream that the benchmark's job sets and the committed corpus are
drawn from.  ``subresultant_gcd`` and ``padded_prem`` are the polynomial gcd
that :mod:`graphpick.ratfun` used before its primitive remainder sequence: a
subresultant sequence (Collins 1967; Brown & Traub 1971) that takes every
content by its own recursion, so it shares no route with the heuristic gcd.
``reference_eliminate`` is :func:`graphpick.linalg.eliminate` as it was
before its updates were inlined: the same pivot order, block pivots, slot
and box, with every entry read and written through the ``refresh`` and
``store`` closures, packed by ``reference_integer_image`` and unpacked by
``reference_from_kronecker``, which packs every digit's key with ``_pack``.
It reads the matrix through ``SymMatrix.entry``, not through its storage.
``reference_evaluate`` is ``Polynomial.evaluate`` as it was before the
Horner plan: it builds the exponent tree and sorts each level at every
call, and its floating-point operations are the ones the plan must repeat.
"""

import math
import random
from collections import Counter
from functools import reduce
from typing import Collection

import numpy as np
from sympy.polys.domains import QQ_I

from graphpick import linalg
from graphpick.graphs import Color, ColoredGraph, W_COLOR, Z_COLOR
from graphpick.laurent import expand_at_infinity, level_curve
from graphpick.linalg import SymMatrix
from graphpick.numcheck import eval_complex
from graphpick.ratfun import (
    _P_ONE,
    _P_ZERO,
    _SHIFTS,
    _VAR_INDEX,
    VARIABLES,
    Polynomial,
    RatFun,
    _min_key,
    _monomial_content,
    _pack,
    _sign_fix,
    _unpack,
    poly_gcd,
    poly_lcm,
)


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


def at_gaussian(r: RatFun, zz, ww):
    """r at (zz, ww, lam = 0) in sympy's Gaussian rationals QQ_I."""
    num, den = (
        sum((QQ_I(c) * zz**ez * ww**ew for (ez, ew, el), c in p.terms() if not el), QQ_I(0))
        for p in (r.num, r.den)
    )
    return num / den


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


def series_quotient(a: list[Polynomial], b: list[Polynomial], count: int) -> list[Polynomial]:
    """Fraction-free numerators of the power-series quotient a(u)/b(u).

    Returns C_0..C_(count-1) with a/b = sum_m C_m u^m / b0^(m+1), from
    C_m = a_m*b0^m - sum_(i=1..m) b_i*C_(m-i)*b0^(i-1): polynomial products
    only, no division.  ``b[0]`` must be nonzero; missing a_m, b_i are 0.
    """
    b0 = b[0]
    powers = [_P_ONE]
    out: list[Polynomial] = []
    for m in range(count):
        acc = a[m] * powers[m] if m < len(a) else _P_ZERO
        for i in range(1, min(m, len(b) - 1) + 1):
            if b[i]:
                acc = acc - b[i] * out[m - i] * powers[i - 1]
        out.append(acc)
        powers.append(powers[m] * b0)
    return out


def stick_series_coefficients(max_n: int) -> list[Polynomial]:
    """Coefficients of the series expansion of 1/(1 + z*x + x^2) in x."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    z = Polynomial.variable("z")
    return series_quotient([_P_ONE], [_P_ONE, z, _P_ONE], max_n + 1)


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


def padded_prem(a: Polynomial, b: Polynomial, var: str) -> Polynomial:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b, degrees in var."""
    shift = _SHIFTS[_VAR_INDEX[var]]
    db = b.degree(var)
    lb = b.coefficients(var)[db]
    r = a
    steps = a.degree(var) - db + 1
    while r and (dr := r.degree(var)) >= db:
        off = (dr - db) << shift
        shifted = Polynomial({k + off: c for k, c in b._terms.items()})
        r = r * lb - shifted * r.coefficients(var)[dr]
        steps -= 1
    if steps > 0 and r:
        r = r * lb**steps
    return r


def subresultant_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """gcd(a, b) of nonzero polynomials over the integers, up to sign."""
    if a._terms == b._terms:
        return a
    da, db = a.max_degrees(), b.max_degrees()
    var = next((v for v, ea, eb in zip(VARIABLES, da, db) if ea or eb), None)
    if var is None:
        return Polynomial.integer(math.gcd(a._terms[0], b._terms[0]))
    if len(a._terms) == 1 or len(b._terms) == 1:
        key = _min_key(_monomial_content(a), _monomial_content(b))
        return Polynomial({key: math.gcd(a.content(), b.content())})

    ca = reduce(subresultant_gcd, a.coefficients(var).values())
    cb = reduce(subresultant_gcd, b.coefficients(var).values())
    a, b = a.exact_div(ca), b.exact_div(cb)
    c = subresultant_gcd(ca, cb)

    big, small = (a, b) if a.degree(var) >= b.degree(var) else (b, a)
    g = h = _P_ONE
    while True:
        if small.degree(var) == 0:
            return c
        delta = big.degree(var) - small.degree(var)
        r = padded_prem(big, small, var)
        if not r:
            break
        if r.degree(var) == 0:
            return c
        big, small = small, r.exact_div(g * h**delta)
        g = big.coefficients(var)[big.degree(var)]
        if delta == 1:
            h = g
        elif delta > 1:
            h = (g**delta).exact_div(h ** (delta - 1))
    return c * small.exact_div(reduce(subresultant_gcd, small.coefficients(var).values()))


def reference_evaluate(p: Polynomial, z: complex, w: complex, lam: complex = 0j) -> complex:
    """Nested Horner evaluation at a complex point."""
    tree: dict[int, dict[int, dict[int, int]]] = {}
    for k, c in p._terms.items():
        ez, ew, el = _unpack(k)
        tree.setdefault(ez, {}).setdefault(ew, {})[el] = c
    values = (complex(z), complex(w), complex(lam))

    def horner(level: dict, depth: int) -> complex:
        x = values[depth]
        acc = 0j
        prev = None
        for e in sorted(level, reverse=True):
            v = level[e]
            val = complex(v) if depth == 2 else horner(v, depth + 1)
            if prev is None:
                acc = val
            else:
                acc = acc * x ** (prev - e) + val
            prev = e
        return acc * x**prev if prev else acc

    return horner(tree, 0)


def reference_from_kronecker(value: int, slot: int, dz: int, dw: int) -> Polynomial:
    """The polynomial whose ``to_kronecker`` image is ``value``.

    Reads the balanced base-2^slot digits of ``value`` from one byte
    string, so the cost is linear in its size.
    """
    width = slot >> 3
    rz, rzw = dz + 1, (dz + 1) * (dw + 1)
    half, full = 1 << (slot - 1), 1 << slot
    sign = -1 if value < 0 else 1
    value = abs(value)
    # every digit is below 2^(slot-1), so nothing carries out of the top one
    data = value.to_bytes(width * (value.bit_length() // slot + 1), "little")
    out: dict[int, int] = {}
    carry = 0
    for e, at in enumerate(range(0, len(data), width)):
        d = int.from_bytes(data[at : at + width], "little") + carry
        carry = d >= half
        if carry:
            d -= full
        if d:
            ew, ez = divmod(e % rzw, rz)
            out[_pack(ez, ew, e // rzw)] = sign * d
    return Polynomial(out)


def reference_integer_image(b: dict[tuple[int, int], Polynomial]):
    """``(images, unpack, slot)`` of a Kronecker substitution injective on the entries.

    ``b`` holds the upper triangle of B, ``images`` maps each distinct entry
    to its image and ``slot`` is the digit width s.  Returns None when the
    image would be mostly zero digits or its digits too wide; see the module
    docstring.
    """
    # A dense z/w matrix has many positions but at most three distinct
    # entries (1, -z and -w), so each is sized and packed once: rows_of maps
    # an entry to the rows it sits in, once per position.
    rows_of: dict[Polynomial, list[int]] = {}
    for (i, j), p in b.items():
        rows_of.setdefault(p, []).extend((i, j) if i != j else (i,))
    degrees: dict[int, tuple[int, int, int]] = {}
    squares: dict[int, int] = {}
    for p, rows in rows_of.items():
        pd, square = p.max_degrees(), p.one_norm() ** 2
        for r, count in Counter(rows).items():
            degrees[r] = tuple(map(max, degrees.get(r, pd), pd))
            squares[r] = squares.get(r, 0) + count * square
    box = [sum(row[v] for row in degrees.values()) for v in range(3)]
    if math.prod(d + 1 for d in box) > linalg._DIGITS_PER_TERM * sum(map(len, b.values())):
        return None
    # Hadamard's bound on a minor of B, rounded up; an entry is a sum of at
    # most four minors
    bound = 4 * (1 + math.isqrt(math.prod(max(1, sq) for sq in squares.values()) - 1))
    slot = -(-(bound.bit_length() + 2) // 8) * 8
    if slot > linalg._MAX_SLOT:
        return None
    dz, dw, _ = box
    return (
        {p: p.to_kronecker(slot, dz, dw) for p in rows_of},
        lambda x: reference_from_kronecker(x, slot, dz, dw),
        slot,
    )


def reference_eliminate(m: SymMatrix, keep: Collection[int]):
    """Eliminate every index outside ``keep`` from a symmetric matrix.

    The matrix A is first scaled to the polynomial matrix B = D*A*D/c, with
    d_i the lcm of the denominators in row i and c the gcd of all d_i.
    Returns ``(left, pivot, scale, unpack, quotient)``: ``pivot`` is the
    determinant of the eliminated block of B, ``scale(i, j)`` is d_i*d_j/c,
    so that A_ij is B_ij / scale(i, j), and ``left`` holds the nonzero
    fraction-free entries among the indices not eliminated: the Schur
    complement entry (i, j) of A is ``left[i][j] / (pivot * scale(i, j))``.
    Besides ``keep``, ``left`` holds eliminable indices only when the
    eliminable block is singular, and then its Schur complement is zero
    there.  ``pivot`` and the entries of ``left`` are images: ``unpack``
    maps each to its polynomial, and ``+``, ``-``, ``*`` and exact ``//``
    act on them.  ``quotient(num, den, num_scale, den_scale)`` is the
    reduced ``RatFun`` of unpack(num) * num_scale over unpack(den) *
    den_scale, for nonzero images num and den that are sums of at most four
    minors of B; ``den`` defaults to the image of 1 and each scale to 1.
    """
    index = range(1, m.n + 1)
    rows = {i: {j: e for j in index if (e := m.entry(i, j))} for i in index}
    dens = {
        i: reduce(poly_lcm, {e.den for e in row.values()} - {_P_ONE}, _P_ONE)
        for i, row in rows.items()
    }
    c = reduce(poly_gcd, set(dens.values()), _P_ZERO)
    cofactors = {i: d.exact_div(c) for i, d in dens.items()}

    def scale(i: int, j: int) -> Polynomial:
        return dens[i] * cofactors[j]

    # with no denominators B is the matrix of numerators
    unit = all(d is _P_ONE for d in dens.values())
    b = {
        (i, j): e.num if unit else e.num * dens[i].exact_div(e.den) * cofactors[j]
        for i, row in rows.items()
        for j, e in row.items()
        if j >= i
    }
    image = reference_integer_image(b)
    if image is None:
        one, unpack, half = _P_ONE, lambda p: p, 0
    else:
        images, unpack, slot = image
        one = 1
        b = {ij: images[p] for ij, p in b.items()}
        # the coprimality rule of the module docstring holds while every
        # scale is 1
        half = 1 << (slot - 1) if unit else 0

    def quotient(num, den=one, num_scale=_P_ONE, den_scale=_P_ONE) -> RatFun:
        p, q = unpack(num), unpack(den)
        if half and math.gcd(num, den) < half:
            # p and q share no factor of positive degree, so their gcd is
            # the gcd of their contents
            c = math.gcd(p.content(), q.content())
            if c != 1:
                c = Polynomial.integer(c)
                p, q = p // c, q // c
            return RatFun._raw(*_sign_fix(p, q))
        return RatFun(p * num_scale, q * den_scale)

    # cell = [value, generation]; both triangles share one cell
    adj: dict[int, dict[int, list]] = {i: {} for i in rows}
    pivots = [one]

    def refresh(i: int, j: int, gen: int):
        cell = adj[i].get(j)
        if cell is None:
            return None
        if cell[1] < gen:
            cell[0] = cell[0] * pivots[gen] // pivots[cell[1]]
            cell[1] = gen
        return cell[0]

    def store(i: int, j: int, value, gen: int) -> None:
        if not value:
            adj[i].pop(j, None)
            adj[j].pop(i, None)
        else:
            cell = [value, gen]
            adj[i][j] = cell
            adj[j][i] = cell

    for (i, j), value in b.items():
        store(i, j, value, 0)

    free = {v for v in adj if v not in keep}
    partner = None
    while True:
        gen = len(pivots) - 1
        candidates = [v for v in free if v in adj[v]] if partner is None else [partner]
        partner = None
        if not candidates:
            # Add row and column v to row and column u, for eliminable u, v
            # with a_uv != 0.  This congruence keeps the Schur complement and
            # sets a_uu = 2*a_uv; eliminating u, then v (whose diagonal is
            # then -a_uv^2/prev), pivots on the block.  The entry bounds of
            # the module docstring need v to come right after u.
            pairs = [
                (len(adj[u]) + len(adj[v]), u, v) for u in free for v in adj[u] if v in free
            ]
            if not pairs:
                break
            _, u, partner = min(pairs)
            for x in adj[partner]:
                if x != u:
                    store(u, x, (refresh(u, x, gen) or 0) + refresh(partner, x, gen), gen)
            store(u, u, 2 * refresh(u, partner, gen), gen)
            candidates = [u]
        v = min(candidates, key=lambda u: (len(adj[u]), u))
        pivot = refresh(v, v, gen)
        prev = pivots[gen]
        pivots.append(pivot)
        nbrs = sorted(u for u in adj[v] if u != v)
        column = {u: refresh(u, v, gen) for u in nbrs}
        for a_idx, i in enumerate(nbrs):
            col_i = column[i]
            for j in nbrs[a_idx:]:
                m_ij = refresh(i, j, gen)
                fill = col_i * column[j]
                if m_ij is None:
                    new = -fill // prev
                else:
                    new = (m_ij * pivot - fill) // prev
                store(i, j, new, gen + 1)
        for u in nbrs:
            del adj[u][v]
        del adj[v]
        free.discard(v)

    gen = len(pivots) - 1
    left = {i: {j: refresh(i, j, gen) for j in adj[i]} for i in adj}
    return left, pivots[-1], scale, unpack, quotient


