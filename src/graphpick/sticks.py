"""Path-graph determinants: recurrence, direct elimination, generating function."""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import ColoredGraph, colored_adjacency
from .laurent import series_quotient
from .linalg import SymMatrix, determinant
from .ratfun import Polynomial

_Z = Polynomial.variable("z")
_P_ONE = Polynomial.one()


def stick_matrix(n: int) -> SymMatrix:
    """Tridiagonal z-colored adjacency matrix of the path on n vertices."""
    if n < 1:
        raise ValueError("stick needs at least one vertex")
    return colored_adjacency(ColoredGraph.build(["z"] * n, [(v, v + 1) for v in range(1, n)]))


def stick_determinant_direct(n: int) -> Polynomial:
    """Determinant of the n-stick matrix by fraction-free elimination."""
    if n == 0:
        return _P_ONE
    det = determinant(stick_matrix(n))
    return det.num


def stick_recurrence(max_n: int) -> list[Polynomial]:
    """T_0..T_max via T_n = -z*T_(n-1) - T_(n-2)."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    out = [_P_ONE]
    if max_n >= 1:
        out.append(-_Z)
    for _ in range(2, max_n + 1):
        out.append(-_Z * out[-1] - out[-2])
    return out


def stick_series_coefficients(max_n: int) -> list[Polynomial]:
    """Coefficients of the series expansion of 1/(1 + z*x + x^2) in x."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    return series_quotient([_P_ONE], [_P_ONE, _Z, _P_ONE], max_n + 1)


@dataclass(frozen=True)
class StickFamily:
    max_n: int
    dets: tuple[Polynomial, ...]


def stick_determinants(max_n: int) -> StickFamily:
    """T_0..T_max, cross-checked three ways before being returned."""
    rec = stick_recurrence(max_n)
    series = stick_series_coefficients(max_n)
    for n in range(max_n + 1):
        direct = stick_determinant_direct(n)
        if direct != rec[n] or series[n] != rec[n]:
            raise AssertionError(f"stick determinant routes disagree at n={n}")
    return StickFamily(max_n, tuple(rec))
