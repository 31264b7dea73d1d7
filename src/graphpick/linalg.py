"""Exact linear algebra over rational-function entries.

Every matrix here is symmetric, and every operation is a thin wrapper
around one routine, :func:`eliminate`: symmetric fraction-free (Bareiss)
elimination of every index outside a ``keep`` set, in min-degree order,
after denominators are cleared by a diagonal scaling to a polynomial matrix
B.  Every intermediate entry is a minor of B, so every division is exact.
A step's work is inline arithmetic on cells that both triangles share: the
pivot is one ``min`` over (row length, index) of the eliminable indices
with a nonzero diagonal, its row is brought up to date once, and each pair
of its neighbours takes one product, difference and exact division in
place, after a lazy rescale if a step left the entry untouched.  Where
every eliminable diagonal entry is zero, a congruence and the next two
steps make up a 2x2 block pivot: the congruence brings two rows up to date
by the same rescale and adds one into the other in place.  The determinant
keeps no index, a Schur complement keeps the requested block, and an
inverse entry keeps its one or two indices and is one cofactor read off the
r x r block left, r = 1 included: the last pivot times the cofactor over
the determinant, both divided by that pivot r - 1 times, exact by
Sylvester's identity.

A ``SymMatrix`` stores the one triangle it is built from, each entry once;
only ``SymMatrix.from_rows``, the dense entry point, compares entries with
their mirrors.

The elimination runs on integers.  B is packed once by the Kronecker
substitution z -> X = 2^s, w -> X^(D_z+1), lam -> X^((D_z+1)(D_w+1))
(Harvey, JSC 2009); each product and exact division of polynomials then
becomes one integer operation, and callers unpack only what they read.
The substitution is one-to-one on every entry the loop makes, with both
bounds taken from B before any arithmetic:

* D_v, the sum over the rows of max_j deg_v(B_ij), bounds the v-degree of
  every minor of B;
* H, the ceiling of the square root of the product over the rows of
  max(1, sum_j |B_ij|_1^2), bounds every coefficient of every minor
  (Bareiss, Math. Comp. 1968, for the minors).  A coefficient is at most
  the polynomial's largest absolute value on the unit torus; there each
  entry is at most its 1-norm, and Hadamard's inequality bounds a minor by
  the product of its rows' 2-norms.  As sum a^2 <= (sum a)^2, H is never
  more than the product of the row 1-norms, and a slot sized by H is
  never wider than one sized by that product.

A block pivot adds row and column v to row and column u, then eliminates u
and at once v.  A minor holding both u and v is unchanged by that, and one
holding u alone is, by linearity in row and column u, a sum of at most four
minors of B.  So every entry has degrees at most D_v and coefficients of
absolute value at most 4H, and s >= bit_length(4H) + 2, rounded up to a
multiple of 8 so that the balanced base-2^s digits of an image unpack from
one byte string in linear time.  An entry is zero exactly when its image
is, so the order, the block pivots and ``keep`` act as they do on
polynomials.

Where B has no denominators, so that every scale is 1, a result p/q is
reduced without the polynomial gcd when the images prove it coprime.  Here
p and q are nonzero sums of at most four minors of B with images P and Q,
and if h = gcd(P, Q) < 2^(s-1), p and q share no factor of positive
degree, so their gcd is the gcd of their contents:

* every balanced digit of P and Q is at most 4H < 2^(s-2) in absolute
  value.  This is why the slot has ``+ 2``: one bit of margin makes the
  digits balanced, the second is this rule's;
* a common factor G of positive degree divides q, so its degrees lie in the
  box, and g(t) = G(t, t^(D_z+1), t^((D_z+1)(D_w+1))) is a nonconstant
  integer polynomial that divides q's digit polynomial q(t), with
  q(2^s) = Q;
* by Cauchy's bound every root r of q(t), so every root of g(t), has
  |r| < 1 + 2^(s-2), and the product over g's roots gives
  |g(2^s)| >= prod |2^s - r| > (3 * 2^(s-2) - 1)^deg(g) >= 2^(s-1);
* g(2^s) divides P and Q, hence h, so h < 2^(s-1) rules G out.

Where h >= 2^(s-1), h is lifted: u is the polynomial whose image is h, read
off h's balanced digits by the same unpacking, and g is u's primitive part
with a positive leading coefficient.  If g divides p and q exactly, g is
their gcd up to an integer, so p/g and q/g again share only the gcd of their
contents.  This is GCDHEU's acceptance test (Char, Geddes & Gonnet, JSC
1989) at the point 2^s:

* u(2^s) = h, so h = c * g(2^s) with c = u/g the signed content of u, and
  0 < |c| <= 2^(s-1), as every balanced digit is at most 2^(s-1);
* let D be the gcd of p and q.  The primitive g divides p and q, so
  D = g*k for a polynomial k.  Substitution is a ring map, so D(2^s)
  divides P and Q, hence h, and k(2^s) divides c;
* k divides q, so were its degree positive, Cauchy's bound as above would
  give |k(2^s)| > (3 * 2^(s-2) - 1)^deg(k) >= 2^(s-1) >= |c|, and k(2^s)
  could not divide c.  So k is an integer.

When a division is inexact (h then carries a factor that is no image of a
common factor, such as a power of 2^s shared by two images without a
constant digit) or the unpacking raises ``ValueError``, and for every matrix
with denominators, the result is reduced by ``RatFun`` and its polynomial
gcd.

The image spans prod(D_v + 1) digits of s bits, and the loop runs on
``Polynomial`` values instead when that box exceeds ``_DIGITS_PER_TERM``
times the number of terms of B (sparse high-degree input, where most digits
would be zero) or s exceeds ``_MAX_SLOT`` bits (large coefficients, where
CPython's quadratic long division loses to term-by-term arithmetic).  Exact
division is spelled ``//`` on both element types, so there is one loop.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Collection, Iterable, Sequence

from .ratfun import (
    _DIGITS_PER_TERM,
    Polynomial,
    RatFun,
    _is_one,
    _normalize_content_sign,
    _sign_fix,
    poly_gcd,
    poly_lcm,
)

_P_ONE = Polynomial.one()
_P_ZERO = Polynomial.zero()
_RF_ZERO = RatFun(0)
# Integer images are used while the box of digits they span is at most
# _DIGITS_PER_TERM digits per term of B, and their digits at most this many
# bits wide.
_MAX_SLOT = 256


def _in_range(n: int, *ks) -> bool:
    """Whether every k is a vertex of an n-vertex graph or a row of an n x n matrix.

    That is an exact ``int`` with 0 < k <= n: ``bool``, ``float`` and numpy
    integers are not.  This is the one check of a vertex or an index; only
    ``ColoredGraph``'s per-edge test and ``SymMatrix``'s per-entry test spell
    it inline.
    """
    for k in ks:
        if k.__class__ is not int or not 0 < k <= n:
            return False
    return True


class SymMatrix:
    """Sparse symmetric n x n matrix of rational functions; indices are 1-based.

    Built from ``{(i, j): entry}`` over one triangle, i <= j, each entry a
    ``RatFun`` or anything ``RatFun(entry)`` takes; stores that triangle and
    reads (i, j) and (j, i) alike.  ``from_rows`` is the dense entry point.
    """

    __slots__ = ("n", "_entries")

    def __init__(self, n: int, entries: dict[tuple[int, int], RatFun]):
        # (i, j) with i <= j -> nonzero entry
        stored: dict[tuple[int, int], RatFun] = {}
        for (i, j), e in entries.items():
            # _in_range's rule on every key, not on the set of distinct
            # indices, where True and 2.0 merge into 1 and 2; inline, as a
            # call per entry would add about half to the time this loop takes
            if not (i.__class__ is int is j.__class__ and 0 < i <= j <= n):
                if _in_range(n, i, j):
                    raise ValueError(f"matrix index ({i}, {j}) is below the diagonal")
                raise ValueError(f"matrix index {(i, j)} out of range for a {n}x{n} matrix")
            e = e if isinstance(e, RatFun) else RatFun(e)
            if e:
                stored[i, j] = e
        self.n = n
        self._entries = stored

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> SymMatrix:
        dense = [list(row) for row in rows]
        if any(len(row) != len(dense) for row in dense):
            raise ValueError("matrix rows must all have the same length")
        for r, row in enumerate(dense):
            if any(dense[c][r] != row[c] for c in range(r)):
                raise ValueError(f"matrix is not symmetric in row {r + 1}")
        return cls(
            len(dense),
            {(i, j): e for i, row in enumerate(dense, 1) for j, e in enumerate(row[i - 1 :], i)},
        )

    def entry(self, i: int, j: int) -> RatFun:
        if not _in_range(self.n, i, j):
            raise ValueError(f"index ({i}, {j}) out of range for a {self.n}x{self.n} matrix")
        return self._at(i, j)

    def _at(self, i: int, j: int) -> RatFun:
        return self._entries.get((i, j) if i <= j else (j, i), _RF_ZERO)

    @property
    def rows(self) -> tuple[tuple[RatFun, ...], ...]:
        """Dense view, row by row."""
        index = range(1, self.n + 1)
        return tuple(tuple(self._at(i, j) for j in index) for i in index)


def _integer_image(b: dict[tuple[int, int], Polynomial]):
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
        square = p.one_norm() ** 2
        for r in rows:
            squares[r] = squares.get(r, 0) + square
        pd = p.max_degrees()
        if any(pd):  # a constant adds nothing to a row's degrees
            for r in rows:
                degrees[r] = tuple(map(max, old, pd)) if (old := degrees.get(r)) else pd
    box = [sum(row[v] for row in degrees.values()) for v in range(3)]
    if math.prod(d + 1 for d in box) > _DIGITS_PER_TERM * sum(map(len, b.values())):
        return None
    # Hadamard's bound on a minor of B, rounded up; an entry is a sum of at
    # most four minors
    bound = 4 * (1 + math.isqrt(math.prod(max(1, sq) for sq in squares.values()) - 1))
    slot = -(-(bound.bit_length() + 2) // 8) * 8
    if slot > _MAX_SLOT:
        return None
    dz, dw, _ = box
    return (
        {p: p.to_kronecker(slot, dz, dw) for p in rows_of},
        lambda x: Polynomial.from_kronecker(x, slot, dz, dw),
        slot,
    )


def eliminate(m: SymMatrix, keep: Collection[int]):
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
    entries = m._entries
    index = range(1, m.n + 1)
    # with no denominators (each equal to 1 by value) B is the matrix of numerators
    unit = all(_is_one(e.den) for e in entries.values())
    if not unit:
        row_dens = {i: set() for i in index}
        for (i, j), e in entries.items():
            row_dens[i].add(e.den)
            row_dens[j].add(e.den)
        dens = {i: reduce(poly_lcm, ds - {_P_ONE}, _P_ONE) for i, ds in row_dens.items()}
        c = reduce(poly_gcd, set(dens.values()), _P_ZERO)
        cofactors = {i: d.exact_div(c) for i, d in dens.items()}

    def scale(i: int, j: int) -> Polynomial:
        return _P_ONE if unit else dens[i] * cofactors[j]

    b = {
        (i, j): e.num if unit else e.num * dens[i].exact_div(e.den) * cofactors[j]
        for (i, j), e in entries.items()
    }
    image = _integer_image(b)
    if image is None:
        one, unpack, half = _P_ONE, _identity, 0
    else:
        images, unpack, slot = image
        one = 1
        b = {ij: images[p] for ij, p in b.items()}
        # the coprimality and lift rules of the module docstring need every scale 1
        half = 1 << (slot - 1) if unit else 0

    def quotient(num, den=one, num_scale=_P_ONE, den_scale=_P_ONE) -> RatFun:
        p, q = unpack(num), unpack(den)
        if half:
            h = math.gcd(num, den)
            if h >= half:
                # the lift rule: the primitive part g of h's polynomial, when
                # it divides p and q, is their gcd up to an integer
                try:
                    g = _normalize_content_sign(unpack(h))
                    p, q = p.exact_div(g), q.exact_div(g)
                except ValueError:
                    return RatFun(p, q)
            # p and q share no factor of positive degree, so their gcd is
            # the gcd of their contents
            c = math.gcd(p.content(), q.content())
            if c != 1:
                c = Polynomial.integer(c)
                p, q = p // c, q // c
            return RatFun._raw(*_sign_fix(p, q))
        return RatFun(p * num_scale, q * den_scale)

    # cell = [value, generation]; both triangles share one cell
    adj: dict[int, dict[int, list]] = {i: {} for i in index}
    for (i, j), value in b.items():
        adj[i][j] = adj[j][i] = [value, 0]
    pivots = [one]

    free = {v for v in adj if v not in keep}
    partner = None
    while True:
        gen = len(pivots) - 1
        prev = pivots[gen]
        if partner is not None:
            v, partner = partner, None
        elif candidates := [(len(adj[u]), u) for u in free if u in adj[u]]:
            v = min(candidates)[1]
        else:
            # Add row and column p = partner to row and column v, for
            # eliminable v, p with a_vp != 0.  This congruence keeps the Schur
            # complement and sets a_vv = 2*a_vp; eliminating v, then p (whose
            # diagonal is then -a_vp^2/prev), pivots on the block.  The entry
            # bounds of the module docstring need p to come right after v.
            pairs = [
                (len(adj[u]) + len(adj[v]), u, v) for u in free for v in adj[u] if v in free
            ]
            if not pairs:
                break
            _, v, partner = min(pairs)
            # bring rows v and partner up to date as a pivot row is, then add
            # row partner into row v on the shared cells
            for cell in (*adj[v].values(), *adj[partner].values()):
                if cell[1] < gen:
                    cell[0], cell[1] = cell[0] * prev // pivots[cell[1]], gen
            row_v = adj[v]
            for x, (value, _) in adj[partner].items():
                if x != v:
                    cell = row_v[x] = adj[x][v] = row_v.get(x) or [0, gen]
                    cell[0] += value
                    if not cell[0]:
                        del row_v[x], adj[x][v]
            row_v[v] = [2 * row_v[partner][0], gen]
        row = adj.pop(v)
        free.discard(v)
        pivot, g = row.pop(v)
        if g < gen:
            pivot = pivot * prev // pivots[g]
        pivots.append(pivot)
        # the pivot row, brought up to date once, as (index, value, row) triples
        nbrs = []
        for u in sorted(row):
            value, g = row[u]
            if g < gen:
                value = value * prev // pivots[g]
            del adj[u][v]
            nbrs.append((u, value, adj[u]))
        for k, (i, col_i, row_i) in enumerate(nbrs):
            for j, col_j, row_j in nbrs[k:]:
                cell = row_i.get(j)
                if cell is None:
                    row_i[j] = row_j[i] = [-(col_i * col_j) // prev, gen + 1]
                    continue
                value, g = cell
                if g < gen:
                    value = value * prev // pivots[g]
                cell[0], cell[1] = (value * pivot - col_i * col_j) // prev, gen + 1
                if not cell[0]:
                    del row_i[j]
                    row_j.pop(i, None)

    gen, last = len(pivots) - 1, pivots[-1]
    left = {
        i: {j: x if g == gen else x * last // pivots[g] for j, (x, g) in row.items()}
        for i, row in adj.items()
    }
    return left, last, scale, unpack, quotient


def _identity(p: Polynomial) -> Polynomial:
    return p


def determinant(m: SymMatrix) -> RatFun:
    """Exact determinant; the zero rational function for singular input."""
    left, pivot, scale, _, quotient = eliminate(m, ())
    if left:
        return _RF_ZERO
    return quotient(
        pivot, den_scale=math.prod((scale(i, i) for i in range(1, m.n + 1)), start=_P_ONE)
    )


def _det(block: list[list]):
    """Determinant of a square block of at most four rows, by Laplace expansion; 1 if empty."""
    if len(block) < 2:
        return block[0][0] if block else 1
    total = 0
    for k, e in enumerate(block[0]):
        if e:
            e *= _det([row[:k] + row[k + 1 :] for row in block[1:]])
            total = total - e if k & 1 else total + e
    return total


def inverse_entry(m: SymMatrix, i: int, j: int | None = None) -> RatFun:
    """Entry (i, j) of the matrix inverse, (i, i) by default; indices are 1-based."""
    j = i if j is None else j
    if not _in_range(m.n, i, j):
        raise ValueError(f"index ({i}, {j}) out of range for a {m.n}x{m.n} matrix")
    left, pivot, scale, _, quotient = eliminate(m, {i, j})
    # The entry is scale(i, j) * pivot * cof_ji(L) / det L, L the r x r block
    # left, and the cofactor of a 1 x 1 block is 1.  Its indices off {i, j}
    # span a zero block, so L is singular once they outnumber {i, j}.  By
    # Sylvester's identity, pivot * cof_ji(L) and det L are pivot^(r-1) times
    # minors of B, which fit the image, so both divide by pivot r - 1 times.
    order = sorted(left)
    block = [[left[a].get(b, 0) for b in order] for a in order]
    det = _det(block) if len(order) <= 2 * len({i, j}) else 0
    if not det:
        raise ValueError("singular colored matrix")
    a, b = order.index(j), order.index(i)
    cof = (-1) ** (a + b) * _det([row[:b] + row[b + 1 :] for k, row in enumerate(block) if k != a])
    if not cof:
        return _RF_ZERO
    num = pivot * cof
    for _ in range(len(order) - 1):
        num, det = num // pivot, det // pivot
    return quotient(num, det, num_scale=scale(i, j))


def schur_reduce(m: SymMatrix, keep: Sequence[int]) -> SymMatrix:
    """Schur complement onto the 1-based index set ``keep``.

    The result is ordered by ascending kept index and has the same inverse
    entries as the original matrix on the kept block.
    """
    ks = sorted(set(keep))
    if not ks:
        raise ValueError("keep set must not be empty")
    if not _in_range(m.n, *ks):
        raise ValueError("keep set out of range")
    left, pivot, scale, _, quotient = eliminate(m, ks)
    if len(left) > len(ks):
        raise ValueError("singular block in Schur reduction")
    at = {k: a for a, k in enumerate(ks, 1)}
    return SymMatrix(
        len(ks),
        {
            (at[i], at[j]): quotient(e, pivot, den_scale=scale(i, j))
            for i in ks
            for j, e in left[i].items()
            if i <= j
        },
    )
