"""Exact linear algebra over rational-function entries.

Every matrix here is symmetric, and every operation is a thin wrapper
around one routine, :func:`eliminate`: symmetric fraction-free (Bareiss)
elimination of every index outside a ``keep`` set, in min-degree order,
after denominators are cleared by a diagonal scaling D*A*D.  Every
intermediate entry is a bordered minor, so every division is exact, and
entries a step does not touch are rescaled lazily.  Where every eliminable
diagonal entry is zero, two steps make up a 2x2 block pivot.  The
determinant keeps no index, an inverse entry keeps its one or two indices,
and a Schur complement keeps the requested block.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Collection, Iterable, Sequence

from .ratfun import Polynomial, RatFun, poly_gcd, poly_lcm

_P_ONE = Polynomial.one()
_P_ZERO = Polynomial.zero()
_RF_ZERO = RatFun(0)
_RF_ONE = RatFun(1)


class SymMatrix:
    """Sparse symmetric n x n matrix of rational functions; indices are 1-based.

    Built from ``{(i, j): entry}`` with both triangles given; only the
    nonzero entries are kept.  ``from_rows`` is the dense entry point.
    """

    __slots__ = ("n", "_rows")

    def __init__(self, n: int, entries: dict[tuple[int, int], RatFun]):
        # index -> {index: nonzero entry}, both triangles
        rows: dict[int, dict[int, RatFun]] = {i: {} for i in range(1, n + 1)}
        asymmetric = []
        for (i, j), e in entries.items():
            if i not in rows or j not in rows:
                raise ValueError(f"matrix index ({i}, {j}) out of range for a {n}x{n} matrix")
            if entries.get((j, i), _RF_ZERO) != e:
                asymmetric.append(max(i, j))
            elif not e.is_zero:
                rows[i][j] = e
        if asymmetric:
            raise ValueError(f"matrix is not symmetric in row {min(asymmetric)}")
        self.n = n
        self._rows = rows

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> SymMatrix:
        dense = [list(row) for row in rows]
        if any(len(row) != len(dense) for row in dense):
            raise ValueError("matrix rows must all have the same length")
        return cls(
            len(dense),
            {
                (i, j): e if isinstance(e, RatFun) else RatFun(e)
                for i, row in enumerate(dense, 1)
                for j, e in enumerate(row, 1)
            },
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


def eliminate(m: SymMatrix, keep: Collection[int]):
    """Eliminate every index outside ``keep`` from a symmetric matrix.

    The matrix A is first scaled to the polynomial matrix B = D*A*D/c, with
    d_i the lcm of the denominators in row i and c the gcd of all d_i.
    Returns ``(left, pivot, scale)``: ``pivot`` is the determinant of the
    eliminated block of B, ``scale(i, j)`` is d_i*d_j/c, so that A_ij is
    B_ij / scale(i, j), and ``left`` holds the nonzero fraction-free
    entries among the indices not eliminated: the Schur complement entry
    (i, j) of A is ``left[i][j] / (pivot * scale(i, j))``.  Besides
    ``keep``, ``left`` holds eliminable indices only when the eliminable
    block is singular, and then its Schur complement is zero there.
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

    # cell = [value, generation]; both triangles share one cell
    adj: dict[int, dict[int, list]] = {i: {} for i in rows}
    pivots: list[Polynomial] = [_P_ONE]

    def refresh(i: int, j: int, gen: int) -> Polynomial | None:
        cell = adj[i].get(j)
        if cell is None:
            return None
        if cell[1] < gen:
            cell[0] = (cell[0] * pivots[gen]).exact_div(pivots[cell[1]])
            cell[1] = gen
        return cell[0]

    def store(i: int, j: int, value: Polynomial, gen: int) -> None:
        if value.is_zero:
            adj[i].pop(j, None)
            adj[j].pop(i, None)
        else:
            cell = [value, gen]
            adj[i][j] = cell
            adj[j][i] = cell

    for i, row in rows.items():
        for j, e in row.items():
            if j >= i:
                store(i, j, e.num * dens[i].exact_div(e.den) * cofactors[j], 0)

    while True:
        gen = len(pivots) - 1
        free = {v for v in adj if v not in keep}
        candidates = [v for v in free if v in adj[v]]
        if not candidates:
            # Add row and column v to row and column u, for eliminable u, v
            # with a_uv != 0.  This congruence keeps the Schur complement and
            # sets a_uu = 2*a_uv; eliminating u, then v, pivots on the block.
            pairs = [
                (len(adj[u]) + len(adj[v]), u, v) for u in free for v in adj[u] if v in free
            ]
            if not pairs:
                break
            _, u, v = min(pairs)
            for x in adj[v]:
                if x != u:
                    store(u, x, (refresh(u, x, gen) or _P_ZERO) + refresh(v, x, gen), gen)
            store(u, u, 2 * refresh(u, v, gen), gen)
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
                    new = (-fill).exact_div(prev)
                else:
                    new = (m_ij * pivot - fill).exact_div(prev)
                store(i, j, new, gen + 1)
        for u in nbrs:
            del adj[u][v]
        del adj[v]

    gen = len(pivots) - 1
    left = {i: {j: refresh(i, j, gen) for j in adj[i]} for i in adj}
    return left, pivots[-1], scale


def determinant(m: SymMatrix) -> RatFun:
    """Exact determinant; the zero rational function for singular input."""
    left, pivot, scale = eliminate(m, ())
    if left:
        return _RF_ZERO
    return RatFun(pivot, math.prod((scale(i, i) for i in range(1, m.n + 1)), start=_P_ONE))


def inverse_entry(m: SymMatrix, i: int, j: int | None = None) -> RatFun:
    """Entry (i, j) of the matrix inverse.

    Defaults to the diagonal entry (i, i).  Indices are 1-based.
    """
    if j is None:
        j = i
    n = m.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"index ({i}, {j}) out of range for a {n}x{n} matrix")
    left, pivot, scale = eliminate(m, {i, j})
    if i == j:
        if len(left) > 1:
            # The cofactor of (i, i) is singular, so by Jacobi's identity the
            # entry is 0 if A is invertible, which needs one index left next to i.
            if len(left) == 2 and any(r != i for r in left[i]):
                return _RF_ZERO
            raise ValueError("singular colored matrix")
        if i not in left[i]:
            raise ValueError("singular colored matrix")
        return RatFun(pivot * scale(i, i), left[i][i])
    if len(left) == 2:
        a_ij = left[i].get(j, _P_ZERO)
        a_ii = left[i].get(i, _P_ZERO)
        a_jj = left[j].get(j, _P_ZERO)
        det = (a_ii * a_jj - a_ij * a_ij).exact_div(pivot)
        if det.is_zero:
            raise ValueError("singular colored matrix")
        return RatFun(-a_ij * scale(i, j), det)
    # No Schur complement onto {i, j}.  Subtracting row and column j from
    # row and column i is a congruence after which the (j, j) inverse entry
    # is (e_i + e_j)^T A^-1 (e_i + e_j); polarize.
    a = m.entry
    moved = {(r, c): e for r, row in m._rows.items() for c, e in row.items()}
    for c in range(1, n + 1):
        moved[i, c] = moved[c, i] = a(i, c) - a(j, c)
    moved[i, i] = moved[i, i] - a(j, i) + a(j, j)
    diagonal = inverse_entry(m, i) + inverse_entry(m, j)
    return (inverse_entry(SymMatrix(n, moved), j) - diagonal) / 2


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
    left, pivot, scale = eliminate(m, ks)
    if len(left) > len(ks):
        raise ValueError("singular block in Schur reduction")
    at = {k: a for a, k in enumerate(ks, 1)}
    return SymMatrix(
        len(ks),
        {(at[i], at[j]): RatFun(e, pivot * scale(i, j)) for i in ks for j, e in left[i].items()},
    )
