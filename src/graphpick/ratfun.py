"""Exact arithmetic for polynomials and rational functions in z, w, lam.

Polynomials carry arbitrary-precision integer coefficients in at most the
three variables z, w and lam (the level-curve parameter).  Each monomial is
packed into a single integer key ``ez<<40 | ew<<20 | el`` so that monomial
products are plain integer additions and the packed key itself is the
lexicographic tie-break of the graded-lex term order with z > w > lam.

Exact division runs in plain packed-key (lexicographic) order: the quotient
of an exact division is unique, so any monomial order gives the same result,
and a plain integer key is cheaper to order than the graded-lex key.  The
leading term of the remainder comes off a heap of its keys, so a quotient
of many terms costs no more per term than one of few.  Graded-lex order
stays where the output depends on it: ``terms()``, rendering and the sign
of ``leading_coefficient``.

``to_kronecker`` maps a polynomial to its integer image at z = X = 2^slot,
w = X^(dz+1), lam = X^((dz+1)(dw+1)), and ``from_kronecker`` reads the
polynomial back from the image's balanced base-2^slot digits.  The map is a ring
homomorphism, one-to-one on polynomials whose degrees and coefficients fit
the box and the slot, which is what lets ``linalg`` eliminate on integers.

Rational functions are quotients of two polynomials kept in a canonical
reduced form: numerator and denominator coprime, and the denominator's
leading coefficient positive under the term order.  Equality is therefore
plain structural comparison of the reduced pairs.

Every reduction takes its gcd by the heuristic GCDHEU (Char, Geddes &
Gonnet, JSC 1989; Geddes, Czapor & Labahn, *Algorithms for Computer
Algebra*, ch. 7), which ``_gcd_heu`` runs one variable at a time:

* Content split: the integer content both operands share and each
  operand's monomial content (its smallest exponents) come off, and the
  shared content times the gcd of the two monomials is multiplied back at
  the end.  What is left of an operand is divisible by no variable, so
  taking each monomial content off alone loses no common factor.  An
  operand's own integer content stays, because it can hold the image of a
  common factor: w + 1 becomes the integer xi + 1 once w is set to xi.
* Choice of xi: the last variable v present (lam, then w, then z) is set
  to xi = 2*min(|a|, |b|) + 2, with |.| the largest coefficient in absolute
  value, and the gcd of the two images is taken by the same route.
* Lift: the image gcd is read back xi-adically, each coefficient split
  into symmetric base-xi digits that become the coefficients of the powers
  of v, and its integer content is divided out.
* Acceptance: the lift is returned only when it divides both operands
  exactly.  With xi at least that bound, a lift that divides both is
  their gcd, so an unlucky xi costs time, never a wrong answer.
* Retries: up to ``_HEU_TRIES`` values of xi, each the last times
  73794/27011, are tried before the subresultant gcd ``_gcd_rec`` answers.
* Sparse rule: when the lower of the two v-degrees, plus 1, exceeds
  ``_DIGITS_PER_TERM`` times the operands' term count, both images would
  be mostly zero digits, so ``_gcd_rec`` answers at once.
"""

from __future__ import annotations

import heapq
import math
import re
from functools import reduce

__all__ = [
    "Polynomial",
    "RatFun",
    "poly_gcd",
    "poly_lcm",
    "parse_polynomial",
    "parse_ratfun",
    "ratfun_from_json",
    "Z",
    "W",
    "LAM",
]

VARIABLES = ("z", "w", "lam")
_VAR_INDEX = {"z": 0, "w": 1, "lam": 2, "lambda": 2, "λ": 2}
_SHIFTS = (40, 20, 0)
_MASK = 0xFFFFF
_EXP_LIMIT = 1 << 20
_LATEX_NAMES = ("z", "w", "\\lambda")
# A dense image (a Kronecker image in ``linalg``, an evaluation in the
# heuristic gcd) is used while it spans at most this many digits per term.
_DIGITS_PER_TERM = 16


def _pack(ez: int, ew: int, el: int) -> int:
    if not (0 <= ez < _EXP_LIMIT and 0 <= ew < _EXP_LIMIT and 0 <= el < _EXP_LIMIT):
        raise ValueError(f"monomial exponent out of range: ({ez}, {ew}, {el})")
    return (ez << 40) | (ew << 20) | el


def _unpack(key: int) -> tuple[int, int, int]:
    return key >> 40, (key >> 20) & _MASK, key & _MASK


def _total_degree(key: int) -> int:
    return (key >> 40) + ((key >> 20) & _MASK) + (key & _MASK)


def _grlex(key: int) -> tuple[int, int]:
    return _total_degree(key), key


class Polynomial:
    """Integer-coefficient polynomial in z, w, lam with packed monomial keys."""

    __slots__ = ("_terms", "_hash", "_degrees")

    def __init__(self, terms: dict[int, int]):
        # terms maps packed monomial -> nonzero coefficient; not copied.
        self._terms = terms
        self._hash: int | None = None
        self._degrees: tuple[int, int, int] | None = None

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def zero(cls) -> Polynomial:
        return _P_ZERO

    @classmethod
    def one(cls) -> Polynomial:
        return _P_ONE

    @classmethod
    def integer(cls, c: int) -> Polynomial:
        return cls({0: c}) if c else _P_ZERO

    @classmethod
    def variable(cls, name: str) -> Polynomial:
        vi = _VAR_INDEX.get(name)
        if vi is None:
            raise ValueError(f"unknown variable {name!r}")
        return _P_VARS[vi]

    @classmethod
    def from_terms(cls, terms: dict[tuple[int, int, int], int]) -> Polynomial:
        # distinct exponent triples pack to distinct keys, so nothing cancels
        return cls({_pack(ez, ew, el): c for (ez, ew, el), c in terms.items() if c})

    # ------------------------------------------------------------------
    # inspection

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 0 in self._terms)

    def constant_value(self) -> int:
        if not self._terms:
            return 0
        if len(self._terms) == 1 and 0 in self._terms:
            return self._terms[0]
        raise ValueError("polynomial is not constant")

    def terms(self) -> list[tuple[tuple[int, int, int], int]]:
        """Monomials with coefficients, graded-lex descending."""
        keys = sorted(self._terms, key=_grlex, reverse=True)
        return [(_unpack(k), self._terms[k]) for k in keys]

    def degree(self, var: str | None = None) -> int:
        """Degree in one variable, or total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        if var is None:
            return max(_total_degree(k) for k in self._terms)
        return self.max_degrees()[_VAR_INDEX[var]]

    def max_degrees(self) -> tuple[int, int, int]:
        """Degrees in z, w and lam; cached, as a polynomial never changes."""
        if self._degrees is None:
            dz = dw = dl = 0
            for k in self._terms:
                ez, ew, el = _unpack(k)
                if ez > dz:
                    dz = ez
                if ew > dw:
                    dw = ew
                if el > dl:
                    dl = el
            self._degrees = (dz, dw, dl)
        return self._degrees

    def one_norm(self) -> int:
        """Sum of the absolute values of the coefficients."""
        return sum(map(abs, self._terms.values()))

    def __len__(self) -> int:
        """Number of terms."""
        return len(self._terms)

    def leading_coefficient(self) -> int:
        if not self._terms:
            return 0
        return self._terms[max(self._terms, key=_grlex)]

    def content(self) -> int:
        """Positive gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self._terms.values():
            g = math.gcd(g, c)
            if g == 1:
                return 1
        return g

    # ------------------------------------------------------------------
    # ring arithmetic

    @staticmethod
    def _coerce(other) -> Polynomial | None:
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, int):
            return Polynomial.integer(other)
        return None

    def _merge(self, other, sign: int):
        """self + sign * other, for sign 1 or -1."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._terms)
        for k, c in o._terms.items():
            v = out.get(k, 0) + sign * c
            if v:
                out[k] = v
            elif k in out:
                del out[k]
        return Polynomial(out)

    def __add__(self, other):
        return self._merge(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._merge(other, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Polynomial({k: -c for k, c in self._terms.items()})

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._terms, o._terms
        if not a or not b:
            return _P_ZERO
        (az, aw, al), (bz, bw, bl) = self.max_degrees(), o.max_degrees()
        if az + bz >= _EXP_LIMIT or aw + bw >= _EXP_LIMIT or al + bl >= _EXP_LIMIT:
            raise ValueError("product exceeds the supported monomial degree")
        if len(a) > len(b):
            a, b = b, a
        out: dict[int, int] = {}
        get = out.get
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                v = get(k, 0) + c1 * c2
                if v:
                    out[k] = v
                elif k in out:
                    del out[k]
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial powers need a nonnegative integer exponent")
        out, base = _P_ONE, self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def exact_div(self, d: Polynomial) -> Polynomial:
        """Exact quotient self / d; raises ValueError when the division is inexact."""
        if d.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if not self._terms:
            return _P_ZERO
        if d is _P_ONE or d._terms == {0: 1}:
            return self
        if d.is_constant:
            dc = d._terms[0]
            out = {}
            for k, c in self._terms.items():
                q, r = divmod(c, dc)
                if r:
                    raise ValueError("inexact polynomial division")
                out[k] = q
            return Polynomial(out)
        # The leading remainder key comes off a max-heap of negated keys
        # (Monagan & Pearce 2007).  Every key pushed after a step is below the
        # key just divided out, so a popped key that is no longer in ``rem``
        # has cancelled and is skipped.
        rem = dict(self._terms)
        heap = [-k for k in rem]
        heapq.heapify(heap)
        quot: dict[int, int] = {}
        dkey = max(d._terms)
        dlc = d._terms[dkey]
        dz, dw, dl = _unpack(dkey)
        while heap:
            rkey = -heapq.heappop(heap)
            if rkey not in rem:
                continue
            ez, ew, el = _unpack(rkey)
            if ez < dz or ew < dw or el < dl:
                raise ValueError("inexact polynomial division")
            q, r = divmod(rem[rkey], dlc)
            if r:
                raise ValueError("inexact polynomial division")
            qkey = rkey - dkey
            quot[qkey] = q
            for k2, c2 in d._terms.items():
                kk = qkey + k2
                t = q * c2
                old = rem.get(kk)
                if old is None:
                    rem[kk] = -t
                    heapq.heappush(heap, -kk)
                elif old == t:
                    del rem[kk]
                else:
                    rem[kk] = old - t
        return Polynomial(quot)

    # exact division is the only division polynomials have
    __floordiv__ = exact_div

    def divides(self, other: Polynomial) -> bool:
        try:
            other.exact_div(self)
            return True
        except ValueError:
            return False

    def derivative(self, var: str) -> Polynomial:
        shift = _SHIFTS[_VAR_INDEX[var]]
        step = 1 << shift
        # lowering one exponent by one maps distinct keys to distinct keys
        return Polynomial(
            {k - step: c * e for k, c in self._terms.items() if (e := (k >> shift) & _MASK)}
        )

    def coefficients(self, var: str) -> dict[int, Polynomial]:
        """Split by powers of one variable: exponent -> coefficient polynomial."""
        shift = _SHIFTS[_VAR_INDEX[var]]
        buckets: dict[int, dict[int, int]] = {}
        for key, c in self._terms.items():
            e = (key >> shift) & _MASK
            buckets.setdefault(e, {})[key - (e << shift)] = c
        return {e: Polynomial(d) for e, d in buckets.items()}

    # ------------------------------------------------------------------
    # Kronecker images: z -> X = 2^slot, w -> X^(dz+1), lam -> X^((dz+1)(dw+1))

    def to_kronecker(self, slot: int, dz: int, dw: int) -> int:
        """The integer image; the inverse of ``from_kronecker``.

        ``slot`` is a multiple of 8, every coefficient is below 2^(slot-1) in
        absolute value, and the z- and w-degrees are at most dz and dw.
        """
        if not self._terms:
            return 0
        width = slot >> 3
        rz, rzw = dz + 1, (dz + 1) * (dw + 1)
        digits = {
            (k >> 40) + rz * ((k >> 20) & _MASK) + rzw * (k & _MASK): c
            for k, c in self._terms.items()
        }
        size = width * (max(digits) + 1)
        pos, neg = bytearray(size), bytearray(size)
        for e, c in digits.items():
            (pos if c > 0 else neg)[e * width : (e + 1) * width] = abs(c).to_bytes(width, "little")
        return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")

    @classmethod
    def from_kronecker(cls, value: int, slot: int, dz: int, dw: int) -> Polynomial:
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
        return cls(out)

    # ------------------------------------------------------------------
    # evaluation

    def evaluate(self, z: complex, w: complex, lam: complex = 0j) -> complex:
        """Nested Horner evaluation at a complex point."""
        if not self._terms:
            return 0j
        tree: dict[int, dict[int, dict[int, int]]] = {}
        for k, c in self._terms.items():
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

    # ------------------------------------------------------------------
    # comparisons, hashing

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __bool__(self):
        return bool(self._terms)

    # ------------------------------------------------------------------
    # rendering

    def _render(self, names: tuple[str, ...], power: str, joiner: str) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for exps, c in self.terms():
            factors = [
                name if e == 1 else power.format(name, e) for name, e in zip(names, exps) if e
            ]
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = joiner.join(factors)
            else:
                body = joiner.join([str(mag)] + factors)
            if not pieces:
                pieces.append(f"-{body}" if c < 0 else body)
            else:
                pieces.append(f" - {body}" if c < 0 else f" + {body}")
        return "".join(pieces)

    def __str__(self):
        return self._render(VARIABLES, "{}^{}", "*")

    def latex(self) -> str:
        return self._render(_LATEX_NAMES, "{}^{{{}}}", " ")

    def __repr__(self):
        return f"Polynomial({str(self)!r})"


_P_ZERO = Polynomial({})
_P_ONE = Polynomial({0: 1})
_P_VARS = (
    Polynomial({_pack(1, 0, 0): 1}),
    Polynomial({_pack(0, 1, 0): 1}),
    Polynomial({_pack(0, 0, 1): 1}),
)


def _normalize_content_sign(p: Polynomial) -> Polynomial:
    """Divide out the integer content and make the leading coefficient positive."""
    if p.is_zero:
        return _P_ZERO
    c = p.content()
    if p.leading_coefficient() < 0:
        c = -c
    if c == 1:
        return p
    return Polynomial({k: v // c for k, v in p._terms.items()})


# ----------------------------------------------------------------------
# multivariate gcd: contents stripped recursively, then a subresultant
# polynomial remainder sequence (Collins 1967; Brown & Traub 1971) in the
# first of z, w, lam present, run on the packed polynomials themselves.
# It is the heuristic gcd's fallback.


def _prem(a: Polynomial, b: Polynomial, var: str) -> Polynomial:
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


def _monomial_content(p: Polynomial) -> int:
    """Packed key of the largest monomial dividing the nonzero p."""
    keys = p._terms
    if 0 in keys:
        return 0
    return _pack(
        min(k >> 40 for k in keys),
        min((k >> 20) & _MASK for k in keys),
        min(k & _MASK for k in keys),
    )


def _min_key(k1: int, k2: int) -> int:
    """Packed key of the gcd of two monomials."""
    (z1, w1, l1), (z2, w2, l2) = _unpack(k1), _unpack(k2)
    return _pack(min(z1, z2), min(w1, w2), min(l1, l2))


def _gcd_rec(a: Polynomial, b: Polynomial) -> Polynomial:
    if a._terms == b._terms:
        return a
    da, db = a.max_degrees(), b.max_degrees()
    var = next((v for v, ea, eb in zip(VARIABLES, da, db) if ea or eb), None)
    if var is None:
        return Polynomial.integer(math.gcd(a._terms[0], b._terms[0]))
    if len(a._terms) == 1 or len(b._terms) == 1:
        key = _min_key(_monomial_content(a), _monomial_content(b))
        return Polynomial({key: math.gcd(a.content(), b.content())})

    ca = reduce(_gcd_rec, a.coefficients(var).values())
    cb = reduce(_gcd_rec, b.coefficients(var).values())
    a, b = a.exact_div(ca), b.exact_div(cb)
    c = _gcd_rec(ca, cb)

    big, small = (a, b) if a.degree(var) >= b.degree(var) else (b, a)
    g = h = _P_ONE
    while True:
        if small.degree(var) == 0:
            return c
        delta = big.degree(var) - small.degree(var)
        r = _prem(big, small, var)
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
    return c * small.exact_div(reduce(_gcd_rec, small.coefficients(var).values()))


# ----------------------------------------------------------------------
# heuristic gcd; the route is in the module docstring

_HEU_TRIES = 6


def _evaluate(p: Polynomial, shift: int, xi: int) -> Polynomial:
    """p with the variable at ``shift`` set to xi."""
    powers = {e: xi**e for e in {(k >> shift) & _MASK for k in p._terms}}
    out: dict[int, int] = {}
    for k, c in p._terms.items():
        e = (k >> shift) & _MASK
        kk = k - (e << shift)
        out[kk] = out.get(kk, 0) + c * powers[e]
    return Polynomial({k: c for k, c in out.items() if c})


def _lift(g: Polynomial, shift: int, xi: int) -> Polynomial:
    """The primitive part of g read back xi-adically, with symmetric digits."""
    half = xi // 2
    out: dict[int, int] = {}
    for k, c in g._terms.items():
        e = 0
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[k + (e << shift)] = d
            c = (c - d) // xi
            e += 1
    return _normalize_content_sign(Polynomial(out))


def _gcd_heu(a: Polynomial, b: Polynomial) -> Polynomial:
    """gcd(a, b) of nonzero polynomials over the integers, up to sign."""
    c = math.gcd(a.content(), b.content())
    ka, kb = _monomial_content(a), _monomial_content(b)
    mono = Polynomial({_min_key(ka, kb): c})
    if c != 1 or ka:
        a = Polynomial({k - ka: v // c for k, v in a._terms.items()})
    if c != 1 or kb:
        b = Polynomial({k - kb: v // c for k, v in b._terms.items()})
    if a.is_constant or b.is_constant:
        return mono
    if a._terms == b._terms:
        return mono * a
    da, db = a.max_degrees(), b.max_degrees()
    vi = 2 if da[2] or db[2] else 1 if da[1] or db[1] else 0
    if min(da[vi], db[vi]) + 1 > _DIGITS_PER_TERM * (len(a) + len(b)):
        return mono * _gcd_rec(a, b)
    shift = _SHIFTS[vi]
    xi = 2 * min(max(map(abs, a._terms.values())), max(map(abs, b._terms.values()))) + 2
    for _ in range(_HEU_TRIES):
        ea, eb = _evaluate(a, shift, xi), _evaluate(b, shift, xi)
        if ea and eb:
            g = _lift(_gcd_heu(ea, eb), shift, xi)
            if g.is_constant:
                return mono
            if g.divides(a) and g.divides(b):
                return mono * g
        xi = xi * 73794 // 27011
    return mono * _gcd_rec(a, b)


def _gcd_full(a: Polynomial, b: Polynomial) -> Polynomial:
    """Greatest common divisor of nonzero polynomials over the integers.

    Content included, with a positive leading coefficient.
    """
    return _positive_lead(_gcd_heu(a, b))


def _positive_lead(p: Polynomial) -> Polynomial:
    return -p if p.leading_coefficient() < 0 else p


def _is_one(p: Polynomial) -> bool:
    return p._terms == {0: 1}


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Greatest common divisor, normalized to content 1 with positive lead."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials")
    if a.is_zero:
        return _normalize_content_sign(b)
    if b.is_zero:
        return _normalize_content_sign(a)
    return _normalize_content_sign(_gcd_full(a, b))


def poly_lcm(a: Polynomial, b: Polynomial) -> Polynomial:
    """Least common multiple over the integers, positive leading coefficient."""
    if a.is_zero or b.is_zero:
        raise ValueError("lcm with a zero polynomial")
    return _positive_lead((a * b).exact_div(_gcd_full(a, b)))


# ----------------------------------------------------------------------
# rational functions


def _as_polynomial(value) -> Polynomial:
    p = Polynomial._coerce(value)
    if p is None:
        raise TypeError(f"cannot interpret {value!r} as a polynomial")
    return p


def _cancel(x: Polynomial, y: Polynomial) -> tuple[Polynomial, Polynomial]:
    """x and y divided by their gcd."""
    g = _gcd_full(x, y)
    if _is_one(g):
        return x, y
    return x.exact_div(g), y.exact_div(g)


class RatFun:
    """Reduced quotient of two integer polynomials in z, w, lam."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        p = _as_polynomial(num)
        q = _as_polynomial(den)
        if q.is_zero:
            raise ZeroDivisionError("zero denominator")
        self.num, self.den = (_P_ZERO, _P_ONE) if p.is_zero else _sign_fix(*_cancel(p, q))

    @classmethod
    def _raw(cls, num: Polynomial, den: Polynomial) -> RatFun:
        # internal: trusts that (num, den) is already in canonical form
        out = object.__new__(cls)
        out.num = num
        out.den = den
        return out

    # ------------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self):
        return bool(self.num)

    def degree(self, var: str | None = None) -> int:
        return max(self.num.degree(var), self.den.degree(var))

    def _coerce(self, other) -> RatFun | None:
        if isinstance(other, RatFun):
            return other
        if isinstance(other, (int, Polynomial)):
            return RatFun(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.num, self.den, o.num, o.den
        if b._terms == d._terms:
            return RatFun(a + c, b)
        g = _gcd_full(b, d)
        if _is_one(g):
            return RatFun._raw(*_sign_fix(a * d + c * b, b * d))
        b1 = b.exact_div(g)
        d1 = d.exact_div(g)
        t = a * d1 + c * b1
        t, g = _cancel(t, g)
        return RatFun._raw(*_sign_fix(t, g * b1 * d1))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return RatFun._raw(-self.num, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.num, self.den, o.num, o.den
        if a.is_zero or c.is_zero:
            return _RF_ZERO
        a, d = _cancel(a, d)
        c, b = _cancel(c, b)
        return RatFun._raw(*_sign_fix(a * c, b * d))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, e: int):
        if not isinstance(e, int):
            raise ValueError("rational powers need an integer exponent")
        base = self if e >= 0 else self.reciprocal()
        # powers of coprime polynomials stay coprime, and den's positive
        # leading coefficient stays positive
        return RatFun._raw(base.num ** abs(e), base.den ** abs(e))

    def reciprocal(self) -> RatFun:
        if self.num.is_zero:
            raise ZeroDivisionError("reciprocal of the zero rational function")
        return RatFun._raw(*_sign_fix(self.den, self.num))

    def substitute(self, var: str, value: RatFun) -> RatFun:
        """Exact composition self(var <- value) by homogenization."""
        d = max(self.num.degree(var), self.den.degree(var))
        if d <= 0:
            return self
        u, v = value.num, value.den
        upow = [_P_ONE]
        vpow = [_P_ONE]
        for _ in range(d):
            upow.append(upow[-1] * u)
            vpow.append(vpow[-1] * v)

        def homog(p: Polynomial) -> Polynomial:
            out = _P_ZERO
            for e, coeff in p.coefficients(var).items():
                out = out + coeff * upow[e] * vpow[d - e]
            return out

        new_den = homog(self.den)
        if new_den.is_zero:
            raise ZeroDivisionError("substitution makes the denominator vanish")
        return RatFun(homog(self.num), new_den)

    def derivative(self, var: str) -> RatFun:
        p, q = self.num, self.den
        return RatFun(p.derivative(var) * q - p * q.derivative(var), q * q)

    # ------------------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.den._terms == {0: 1}:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def latex(self) -> str:
        if self.den._terms == {0: 1}:
            return self.num.latex()
        return f"\\frac{{{self.num.latex()}}}{{{self.den.latex()}}}"

    def to_json(self) -> dict[str, str]:
        return {"num": str(self.num), "den": str(self.den)}

    def __repr__(self):
        return f"RatFun({str(self)!r})"


def _sign_fix(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    if den.leading_coefficient() < 0:
        return -num, -den
    return num, den


_RF_ZERO = RatFun(0)

Z = RatFun(Polynomial.variable("z"))
W = RatFun(Polynomial.variable("w"))
LAM = RatFun(Polynomial.variable("lam"))


# ----------------------------------------------------------------------
# parsing


# The grammar has no nesting, so the text is read by one anchored match per
# term.  Neighbouring pieces of the pattern match disjoint characters, so a
# failed match backtracks only over the run of signs and spaces it scanned.
_FACTOR = r"(?:\d+|(?:lambda|lam|λ|[zw])(?:\s*\^\s*\d+)?)"
_TERM_RE = re.compile(rf"([\s+-]*)({_FACTOR}(?:\s*\*\s*{_FACTOR})*)\s*")
_FACTOR_RE = re.compile(r"(\d+)|(lambda|lam|λ|[zw])(?:\s*\^\s*(\d+))?")


def parse_polynomial(text: str) -> Polynomial:
    """Parse a sum of signed terms, each a ``*``-product of integers and powers."""
    if not text.strip():
        raise ValueError("empty polynomial text")
    out: dict[int, int] = {}
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        # every term after the first is joined to the sum by a sign
        if m is None or (pos and not m[1]):
            raise ValueError(f"cannot parse polynomial near {text[pos:].lstrip()[:12]!r}")
        term = None
        for digits, var, exp in _FACTOR_RE.findall(m[2]):
            if digits:
                factor = Polynomial.integer(int(digits))
            else:
                exps = [0, 0, 0]
                exps[_VAR_INDEX[var]] = int(exp) if exp else 1
                factor = Polynomial({_pack(*exps): 1})
            # multiplied in order: a product already zero skips the degree check
            term = factor if term is None else term * factor
        sign = -1 if m[1].count("-") % 2 else 1
        for k, c in term._terms.items():
            v = out.get(k, 0) + sign * c
            if v:
                out[k] = v
            else:
                del out[k]
        pos = m.end()
    return Polynomial(out)


def parse_ratfun(text: str) -> RatFun:
    """Parse the canonical rendering: a polynomial or ``(num)/(den)``.

    Each side of the ``/`` may be wrapped in one pair of parentheses.
    """
    num, slash, den = text.partition("/")
    if not slash:
        return RatFun(parse_polynomial(text))
    if "/" in den:
        raise ValueError("more than one '/' in rational function")
    num, den = (
        s[1:-1] if s[:1] == "(" and s[-1:] == ")" else s for s in (num.strip(), den.strip())
    )
    return RatFun(parse_polynomial(num), parse_polynomial(den))


_ECHO_LIMIT = 60


def clipped_repr(value) -> str:
    """``repr(value)`` for an error message, cut after _ECHO_LIMIT characters."""
    text = repr(value)
    return text if len(text) <= _ECHO_LIMIT else text[:_ECHO_LIMIT] + "..."


def ratfun_from_json(obj: dict) -> RatFun:
    if not isinstance(obj, dict) or "num" not in obj or "den" not in obj:
        raise ValueError("rational-function JSON needs 'num' and 'den' strings")
    for field in ("num", "den"):
        if not isinstance(obj[field], str):
            raise ValueError(f"'{field}' must be a string, got {clipped_repr(obj[field])}")
    return RatFun(parse_polynomial(obj["num"]), parse_polynomial(obj["den"]))
