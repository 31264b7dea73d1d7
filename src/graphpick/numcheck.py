"""Floating-point cross-checks for the exact machinery.

Double-precision evaluation of rational functions and seeded sampling of
the upper-halfplane positivity and real-boundary reality of representing
functions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from typing import Iterator

from .graphs import ColoredGraph
from .nevanlinna import representing_function
from .ratfun import RatFun

POLE_GUARD = 1e-12
IMAG_TOL = 1e-9
_MAX_REDRAWS = 10_000


def eval_complex(r: RatFun, z: complex, w: complex, lam: complex = 0j) -> complex:
    den = r.den.evaluate(z, w, lam)
    if abs(den) <= POLE_GUARD:
        raise ValueError("pole proximity")
    return r.num.evaluate(z, w, lam) / den


def _sample(f: RatFun, count: int, point, what: str) -> Iterator[complex]:
    """Yield f at ``count`` points drawn by ``point()``, redrawing those near a pole."""
    drawn = 0
    attempts = 0
    while drawn < count:
        if attempts > count + _MAX_REDRAWS:
            raise ValueError(f"pole proximity: could not place {what}")
        attempts += 1
        try:
            value = eval_complex(f, *point())
        except ValueError:
            continue
        drawn += 1
        yield value


@dataclass(frozen=True)
class SampleReport:
    """Outcome of a seeded sampling run; reproducible from the seed."""

    samples: int
    worst_imag: float
    worst_residual: float
    seed: int
    passed: bool

    def to_json(self) -> dict:
        return {
            "samples": self.samples,
            "worst_imag": self.worst_imag,
            "worst_residual": self.worst_residual,
            "seed": self.seed,
            "pass": self.passed,
        }


def pick_property_sample(
    g: ColoredGraph, count: int = 1000, seed: int = 0
) -> SampleReport:
    """Sample the halfplane-positivity and boundary-reality of f_G.

    Draws ``count`` points of the upper-halfplane square and ``count``
    real pairs (redrawing real points that land too close to a pole) and
    records the worst imaginary part seen on each side.
    """
    if not g.is_zw_colored():
        raise ValueError("Pick property not asserted for general colors")
    f = representing_function(g)
    rng = random.Random(seed)

    def upper() -> complex:
        return complex(rng.uniform(-5, 5), 5.0 * (1.0 - rng.random()))

    def real() -> complex:
        return complex(rng.uniform(-5, 5), 0.0)

    upper_values = _sample(f, count, lambda: (upper(), upper()), "samples")
    worst_imag = reduce(min, (v.imag for v in upper_values), float("inf"))
    real_values = _sample(f, count, lambda: (real(), real()), "real samples")
    worst_residual = reduce(max, (abs(v.imag) for v in real_values), 0.0)
    passed = worst_imag >= -IMAG_TOL and worst_residual <= IMAG_TOL
    return SampleReport(count, worst_imag, worst_residual, seed, passed)
