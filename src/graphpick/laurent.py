"""Series at infinity, walk generating functions, level curves, contact order.

A Laurent series here is a truncated expansion sum_k c_k z^(-k) whose
coefficients are rational functions of lam alone (plain rationals for walk
series).  Negative orders carry the polynomial part.

Every series comes from the one fraction-free power-series division in
``expand_at_infinity``: it takes ring products only and leaves the m-th
coefficient as C_m / b0^(m+1), which is reduced once when the series is
built.  The division runs on one of two element types, as
``linalg.eliminate`` does: Python ints when every z-coefficient it reads is
a constant, as in every walk series, and polynomials in lam otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Z_COLOR, ColoredGraph, colored_adjacency, distance
from .linalg import _in_range, inverse_entry
from .nevanlinna import representing_function
from .ratfun import Polynomial, RatFun

_P_ZERO = Polynomial.zero()
_P_ONE = Polynomial.one()
_RF_ZERO = RatFun(0)


@dataclass(frozen=True)
class LaurentSeries:
    """Truncated expansion at z = infinity.

    ``coefficients[i]`` multiplies z^-(start_order + i); the last one is
    the coefficient of z^-truncation_order, so ``truncation_order`` is not
    stored but read off as start_order + len(coefficients) - 1.  An
    all-zero truncated expansion has no coefficients and start_order just
    past the truncation.
    """

    start_order: int
    coefficients: tuple[RatFun, ...]

    @property
    def truncation_order(self) -> int:
        return self.start_order + len(self.coefficients) - 1

    def coefficient(self, k: int) -> RatFun:
        if k > self.truncation_order:
            raise ValueError(f"order {k} beyond truncation {self.truncation_order}")
        idx = k - self.start_order
        if idx < 0:
            return _RF_ZERO
        return self.coefficients[idx]

    def __str__(self):
        def power(k: int) -> str:
            return f"z^-{k}" if k > 0 else f"z^{-k}" if k < 0 else ""

        parts: list[str] = []
        for idx, c in enumerate(self.coefficients):
            if c.is_zero:
                continue
            ctext = f"({c.num})" if c.den == _P_ONE and len(c.num) > 1 else str(c)
            zk = power(self.start_order + idx)
            term = f"{ctext}*{zk}" if zk else ctext
            if not parts:
                parts.append(term)
            elif term.startswith("-"):
                parts.append(f" - {term[1:]}")
            else:
                parts.append(f" + {term}")
        if not parts:
            parts.append("0")
        parts.append(f" + O({power(self.truncation_order + 1) or 1})")
        return "".join(parts)

    def to_json(self) -> dict:
        return {
            "start_order": self.start_order,
            "truncation_order": self.truncation_order,
            "coefficients": [c.to_json() for c in self.coefficients],
        }


def expand_at_infinity(r: RatFun, order: int) -> LaurentSeries:
    """Expand a rational function of (z, lam) in powers of 1/z.

    The substitution z = 1/u turns the quotient into a power-series
    division at u = 0 of the z-coefficients, which are polynomials in lam.
    When all those it reads are constants the division runs on ints, and
    otherwise on the polynomials; ``RatFun`` takes either.
    """
    if r.degree("w") > 0:
        raise ValueError("expected a function of z and lam only")
    if r.is_zero:
        return LaurentSeries(order + 1, ())
    num_prof, den_prof = r.num.coefficients("z"), r.den.coefficients("z")
    dp, dq = max(num_prof), max(den_prof)
    start = dq - dp
    if start > order:
        return LaurentSeries(order + 1, ())
    count = order - start + 1
    a = [num_prof.get(dp - m, _P_ZERO) for m in range(min(count, dp + 1))]
    b = [den_prof.get(dq - m, _P_ZERO) for m in range(min(count, dq + 1))]
    # Every walk series has constant a_m and b_i, as A - zI has no lam: then
    # the recurrence runs on ints.
    if all(p.is_constant for p in (*a, *b)):
        a = [p.leading_coefficient() for p in a]
        b = [p.leading_coefficient() for p in b]
    # a/b = sum_m C_m u^m / b0^(m+1) with C_m = a_m*b0^m - sum_(i=1..m)
    # b_i*C_(m-i)*b0^(i-1): ring products only, no division until the one
    # RatFun per coefficient; missing a_m, b_i are 0.  The ints 0 and 1
    # start it on either element type.
    b0 = b[0]
    powers = [1]
    out = []
    for m in range(count):
        acc = a[m] * powers[m] if m < len(a) else 0
        for i in range(1, min(m, len(b) - 1) + 1):
            if b[i]:
                acc = acc - b[i] * out[m - i] * powers[i - 1]
        out.append(acc)
        powers.append(powers[m] * b0)
    coeffs = tuple(RatFun(c, powers[m + 1]) for m, c in enumerate(out))
    return LaurentSeries(start, coeffs)


def walk_generating_series(
    g: ColoredGraph, i: int, j: int, order: int
) -> LaurentSeries:
    """Expansion of the (i, j) entry of (A - zI)^(-1); colors are ignored.

    The coefficient of z^-(n+1) is minus the number of length-n walks
    from i to j.
    """
    n = g.n
    if not _in_range(n, i, j):
        raise ValueError("vertex out of range")
    # A - zI is the colored adjacency matrix of the all-z recoloring
    m = colored_adjacency(ColoredGraph((Z_COLOR,) * n, g.edges))
    return expand_at_infinity(inverse_entry(m, i, j), order)


def _w_coefficients(f: RatFun) -> tuple[Polynomial, Polynomial, Polynomial, Polynomial]:
    """(alpha, beta, gamma, delta) with f = (alpha + beta*w)/(gamma + delta*w)."""
    if f.degree("lam") > 0:
        raise ValueError("input already depends on lam")
    if f.num.degree("w") > 1 or f.den.degree("w") > 1:
        raise ValueError("multiple w-vertices unsupported")
    top, bottom = f.num.coefficients("w"), f.den.coefficients("w")
    beta, delta = top.get(1, _P_ZERO), bottom.get(1, _P_ZERO)
    if beta.is_zero and delta.is_zero:
        raise ValueError("cannot solve for w: the level-curve denominator vanishes")
    return top.get(0, _P_ZERO), beta, bottom.get(0, _P_ZERO), delta


def level_curve(f: RatFun) -> RatFun:
    """Solve f(z, w) = lam for w when f has degree one in w.

    With f = (alpha + beta*w)/(gamma + delta*w) the level curve is
    (lam*gamma - alpha)/(beta - lam*delta), a rational function of z and
    lam whose back-substitution into f returns exactly lam.
    """
    alpha, beta, gamma, delta = _w_coefficients(f)
    lam_p = Polynomial.variable("lam")
    return RatFun(lam_p * gamma - alpha, beta - lam_p * delta)


def contact_order(f: RatFun) -> int:
    """Order at infinity of the first lam-dependent level-curve coefficient.

    It is where L(l1) and L(l2), for independent l1, l2, first differ: the
    order at infinity of L(l1) - L(l2) = (l1 - l2)(beta*gamma - alpha*delta)
    / ((beta - l1*delta)(beta - l2*delta)), in which each beta - l*delta has
    z-degree max(deg beta, deg delta).  The numerator is nonzero: with beta
    or delta zero it is a product of nonzero polynomials, else num*delta =
    beta*den would make the reduced numerator, of w-degree one, divide beta.
    """
    alpha, beta, gamma, delta = _w_coefficients(f)
    cross = beta * gamma - alpha * delta
    return 2 * max(beta.degree("z"), delta.degree("z")) - cross.degree("z")


@dataclass(frozen=True)
class ContactReport:
    order: int
    distance: int
    consistent: bool

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "distance": self.distance,
            "consistent": self.consistent,
        }


def verify_contact_theorem(g: ColoredGraph) -> ContactReport:
    """Compare the contact order with twice the root-to-w distance.

    Requires a graph with exactly one w-colored vertex, every other vertex
    colored z, and the w vertex reachable from the root.
    """
    w_vertices = [v for v, c in enumerate(g.colors, 1) if c.kind == "w"]
    if len(w_vertices) != 1:
        raise ValueError("expected exactly one w-colored vertex")
    if any(c.kind == "general" for c in g.colors):
        raise ValueError("general colors are outside the contact-order statement")
    wv = w_vertices[0]
    d = distance(g, g.root, wv)
    if d == float("inf"):
        raise ValueError("w vertex unreachable from the root")
    f = representing_function(g)
    order = contact_order(f)
    return ContactReport(order, int(d), order == 2 * int(d))
