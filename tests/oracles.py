"""Independent exact oracles for the linear algebra in graphpick.

These share no code with :mod:`graphpick.linalg`: determinants come from
recursive cofactor expansion and inverse entries from the adjugate, all in
plain rational-function arithmetic.  Matrices are nested sequences of
entries (a ``SymMatrix``'s ``rows`` qualify), because minors of a symmetric
matrix need not be symmetric.
"""

from graphpick.ratfun import RatFun


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
