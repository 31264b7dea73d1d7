"""Independent oracles for the linear algebra in graphpick.

These share no code with :mod:`graphpick.linalg`.  The exact oracles take
determinants by recursive cofactor expansion and inverse entries from the
adjugate, all in plain rational-function arithmetic.  Matrices are nested
sequences of entries (a ``SymMatrix``'s ``rows`` qualify), because minors
of a symmetric matrix need not be symmetric.  ``resolvent_oracle`` is the
floating-point one: a numpy LU solve at a single point.
"""

import numpy as np

from graphpick.graphs import ColoredGraph
from graphpick.numcheck import eval_complex
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
