"""Exact linear algebra over rational-function entries.

Every matrix here is symmetric, and every operation is a thin wrapper
around one routine, :func:`eliminate`: symmetric fraction-free (Bareiss)
elimination of every index outside a ``keep`` set, in min-degree order,
after denominators are cleared by a diagonal scaling to a polynomial matrix
B.  Every intermediate entry is a minor of B, so every division is exact,
and entries a step does not touch are rescaled lazily.  Where every
eliminable diagonal entry is zero, a congruence and the next two steps make
up a 2x2 block pivot.  The determinant keeps no index, a Schur complement
keeps the requested block, and an inverse entry keeps its one or two indices
and is one cofactor read off the block left, exact by Sylvester's identity.

A ``SymMatrix`` is built from one triangle and stores each entry's mirror
itself; only ``SymMatrix.from_rows``, the dense entry point, compares
entries with their mirrors.

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

from .ratfun import _DIGITS_PER_TERM, Polynomial, RatFun, poly_gcd, poly_lcm

_P_ONE = Polynomial.one()
_P_ZERO = Polynomial.zero()
_RF_ZERO = RatFun(0)
_RF_ONE = RatFun(1)
# Integer images are used while the box of digits they span is at most
# _DIGITS_PER_TERM digits per term of B, and their digits at most this many
# bits wide.
_MAX_SLOT = 256


class SymMatrix:
    """Sparse symmetric n x n matrix of rational functions; indices are 1-based.

    Built from ``{(i, j): entry}`` over one triangle, i <= j, each entry a
    ``RatFun`` or anything ``RatFun(entry)`` takes; each nonzero entry is
    stored with its mirror.  ``from_rows`` is the dense entry point.
    """

    __slots__ = ("n", "_rows")

    def __init__(self, n: int, entries: dict[tuple[int, int], RatFun]):
        # index -> {index: nonzero entry}, both triangles
        rows: dict[int, dict[int, RatFun]] = {i: {} for i in range(1, n + 1)}
        for (i, j), e in entries.items():
            if i not in rows or j not in rows:
                raise ValueError(f"matrix index ({i}, {j}) out of range for a {n}x{n} matrix")
            if i > j:
                raise ValueError(f"matrix index ({i}, {j}) is below the diagonal")
            e = e if isinstance(e, RatFun) else RatFun(e)
            if e:
                rows[i][j] = rows[j][i] = e
        self.n = n
        self._rows = rows

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

    @classmethod
    def identity(cls, n: int) -> SymMatrix:
        return cls(n, {(i, i): _RF_ONE for i in range(1, n + 1)})

    def entry(self, i: int, j: int) -> RatFun:
        return self._rows[i].get(j, _RF_ZERO)

    @property
    def rows(self) -> tuple[tuple[RatFun, ...], ...]:
        """Dense view, row by row."""
        return tuple(tuple(self.entry(i, j) for j in self._rows) for i in self._rows)


def _integer_image(b: dict[tuple[int, int], Polynomial]):
    """``(pack, unpack)`` of a Kronecker substitution injective on the entries.

    ``b`` holds the upper triangle of B.  Returns None when the image would
    be mostly zero digits or its digits too wide; see the module docstring.
    """
    degrees: dict[int, list[int]] = {}
    squares: dict[int, int] = {}
    terms = 0
    for (i, j), p in b.items():
        terms += len(p)
        pd, square = p.max_degrees(), p.one_norm() ** 2
        for r in {i, j}:
            row = degrees.setdefault(r, [0, 0, 0])
            row[:] = map(max, row, pd)
            squares[r] = squares.get(r, 0) + square
    box = [sum(row[v] for row in degrees.values()) for v in range(3)]
    if math.prod(d + 1 for d in box) > _DIGITS_PER_TERM * terms:
        return None
    # Hadamard's bound on a minor of B, rounded up; an entry is a sum of at
    # most four minors
    bound = 4 * (1 + math.isqrt(math.prod(max(1, sq) for sq in squares.values()) - 1))
    slot = -(-(bound.bit_length() + 2) // 8) * 8
    if slot > _MAX_SLOT:
        return None
    dz, dw, _ = box
    return (
        lambda p: p.to_kronecker(slot, dz, dw),
        lambda x: Polynomial.from_kronecker(x, slot, dz, dw),
    )


def eliminate(m: SymMatrix, keep: Collection[int]):
    """Eliminate every index outside ``keep`` from a symmetric matrix.

    The matrix A is first scaled to the polynomial matrix B = D*A*D/c, with
    d_i the lcm of the denominators in row i and c the gcd of all d_i.
    Returns ``(left, pivot, scale, unpack)``: ``pivot`` is the determinant
    of the eliminated block of B, ``scale(i, j)`` is d_i*d_j/c, so that A_ij
    is B_ij / scale(i, j), and ``left`` holds the nonzero fraction-free
    entries among the indices not eliminated: the Schur complement entry
    (i, j) of A is ``left[i][j] / (pivot * scale(i, j))``.  Besides
    ``keep``, ``left`` holds eliminable indices only when the eliminable
    block is singular, and then its Schur complement is zero there.
    ``pivot`` and the entries of ``left`` are images: ``unpack`` maps each
    to its polynomial, and ``+``, ``-``, ``*`` and exact ``//`` act on them.
    """
    rows = m._rows
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
    image = _integer_image(b)
    if image is None:
        one, unpack = _P_ONE, _identity
    else:
        pack, unpack = image
        one = 1
        b = {ij: pack(p) for ij, p in b.items()}

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

    partner = None
    while True:
        gen = len(pivots) - 1
        free = {v for v in adj if v not in keep}
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

    gen = len(pivots) - 1
    left = {i: {j: refresh(i, j, gen) for j in adj[i]} for i in adj}
    return left, pivots[-1], scale, unpack


def _identity(p: Polynomial) -> Polynomial:
    return p


def determinant(m: SymMatrix) -> RatFun:
    """Exact determinant; the zero rational function for singular input."""
    left, pivot, scale, unpack = eliminate(m, ())
    if left:
        return _RF_ZERO
    return RatFun(
        unpack(pivot), math.prod((scale(i, i) for i in range(1, m.n + 1)), start=_P_ONE)
    )


def _det(block: list[list]):
    """Determinant of a square block of at most four rows, by Laplace expansion."""
    if len(block) == 2:
        (a, b), (c, d) = block
        return a * d - b * c
    if len(block) == 1:
        return block[0][0]
    minors = [[row[:k] + row[k + 1 :] for row in block[1:]] for k in range(len(block))]
    return sum((-1) ** k * e * _det(minors[k]) for k, e in enumerate(block[0]) if e)


def inverse_entry(m: SymMatrix, i: int, j: int | None = None) -> RatFun:
    """Entry (i, j) of the matrix inverse, (i, i) by default; indices are 1-based."""
    j = i if j is None else j
    if not (1 <= i <= m.n and 1 <= j <= m.n):
        raise ValueError(f"index ({i}, {j}) out of range for a {m.n}x{m.n} matrix")
    left, pivot, scale, unpack = eliminate(m, {i, j})
    # The entry is scale(i, j) * pivot * cof_ji(L) / det L, L the r x r block
    # left.  Its indices off {i, j} span a zero block, so L is singular once
    # they outnumber {i, j}.  By Sylvester's identity, det L and cof_ji(L) are
    # pivot^(r-1) and pivot^(r-2) times minors of B, which fit the image.
    order = sorted(left)
    block = [[left[a].get(b, 0) for b in order] for a in order]
    det = _det(block) if len(order) <= 2 * len({i, j}) else 0
    if not det:
        raise ValueError("singular colored matrix")
    if len(order) == 1:
        return RatFun(unpack(pivot) * scale(i, i), unpack(det))
    a, b = order.index(j), order.index(i)
    cof = (-1) ** (a + b) * _det([row[:b] + row[b + 1 :] for k, row in enumerate(block) if k != a])
    det //= pivot
    for _ in range(len(order) - 2):
        cof, det = cof // pivot, det // pivot
    return RatFun(unpack(cof) * scale(i, j), unpack(det))


def schur_reduce(m: SymMatrix, keep: Sequence[int]) -> SymMatrix:
    """Schur complement onto the 1-based index set ``keep``.

    The result is ordered by ascending kept index and has the same inverse
    entries as the original matrix on the kept block.
    """
    ks = sorted(set(keep))
    if not ks:
        raise ValueError("keep set must not be empty")
    if ks[0] < 1 or ks[-1] > m.n:
        raise ValueError("keep set out of range")
    left, pivot, scale, unpack = eliminate(m, ks)
    if len(left) > len(ks):
        raise ValueError("singular block in Schur reduction")
    at = {k: a for a, k in enumerate(ks, 1)}
    pivot = unpack(pivot)
    return SymMatrix(
        len(ks),
        {
            (at[i], at[j]): RatFun(unpack(e), pivot * scale(i, j))
            for i in ks
            for j, e in left[i].items()
            if i <= j
        },
    )
