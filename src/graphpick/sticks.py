"""Path-graph determinants: the recurrence, certified by elimination.

Run backwards, T_(n-2) = -z*T_(n-1) - T_n rebuilds a table from any two consecutive rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import ColoredGraph, colored_adjacency
from .linalg import SymMatrix, determinant
from .ratfun import Polynomial

_Z = Polynomial.variable("z")
_P_ONE = Polynomial.one()


def stick_matrix(n: int) -> SymMatrix:
    """Tridiagonal z-colored adjacency matrix of the path on n vertices."""
    if n < 1:
        raise ValueError("stick needs at least one vertex")
    return colored_adjacency(ColoredGraph.build(["z"] * n, [(v, v + 1) for v in range(1, n)]))


def stick_recurrence(max_n: int) -> list[Polynomial]:
    """T_0..T_max via T_n = -z*T_(n-1) - T_(n-2)."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    out = [_P_ONE, -_Z]
    for _ in range(2, max_n + 1):
        out.append(-_Z * out[-1] - out[-2])
    return out[: max_n + 1]


@dataclass(frozen=True)
class StickFamily:
    dets: tuple[Polynomial, ...]


def stick_determinants(max_n: int) -> StickFamily:
    """T_0..T_max from the recurrence, checked by elimination at n = max-1 and max.

    Those two rows rebuild every lower row by T_(n-2) = -z*T_(n-1) - T_n, so they
    certify the table.  T_0 = 1 is the empty determinant and is not eliminated.
    """
    rec = stick_recurrence(max_n)
    for n in range(max(1, max_n - 1), max_n + 1):
        if determinant(stick_matrix(n)).num != rec[n]:
            raise AssertionError(f"stick determinant routes disagree at n={n}")
    return StickFamily(tuple(rec))
