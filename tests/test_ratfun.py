import math
import random
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphpick import ratfun
from graphpick.ratfun import (
    LAM,
    VARIABLES,
    Polynomial,
    RatFun,
    W,
    Z,
    _gcd_full,
    _gcd_rec,
    _prem,
    parse_polynomial,
    parse_ratfun,
    poly_gcd,
    poly_lcm,
    ratfun_from_json,
)
from oracles import (
    PRIME,
    Unlucky,
    at_random_points,
    padded_prem,
    ratfun_mod,
    reference_evaluate,
    subresultant_gcd,
)

z = Polynomial.variable("z")
w = Polynomial.variable("w")
lam = Polynomial.variable("lam")
one = Polynomial.one()


def rf(num, den=1):
    return RatFun(num, den)


# ----------------------------------------------------------------------
# polynomial ring arithmetic


def test_add_cancellation():
    assert (z + 1) + (z - 1) == 2 * z


def test_difference_of_squares():
    assert (z + w) * (z - w) == z * z - w * w


def test_zero_annihilates():
    p = w**3 * z - 2 * w**2
    assert Polynomial.zero() * p == Polynomial.zero()
    assert Polynomial.zero().evaluate(1j, 2 - 1j, 3j) == 0j
    assert ratfun._normalize_content_sign(Polynomial.zero()) == Polynomial.zero()


def test_power_and_neg():
    assert (z - 1) ** 2 == z * z - 2 * z + 1
    assert -(z - w) == w - z


def test_power_equals_repeated_multiplication():
    for p in (z - 1, 2 * z * w - lam + 3, z - w**2, one, Polynomial.zero()):
        acc = one
        for e in range(12):
            assert p**e == acc
            acc = acc * p
    # the denominator z - 1 carries the sign of 1 - z; RatFun equality
    # compares the canonical numerator and denominator
    for f in (rf(z * w + 1, z - 2 * w), rf(-3 * lam, 1 - z), rf(0)):
        acc = rf(1)
        for e in range(8):
            assert f**e == acc
            if not f.is_zero:
                assert f**-e == rf(1) / acc
            acc = acc * f
    with pytest.raises(ZeroDivisionError):
        rf(0) ** -1


def test_large_powers_are_fast():
    start = time.perf_counter()
    assert one ** 10**7 == one
    assert rf(1) ** 10**6 == rf(1)
    assert rf(-1, z) ** 10**6 == rf(1, z ** 10**6)
    assert time.perf_counter() - start < 1.0


def test_power_respects_the_exponent_cap():
    assert z ** (2**20 - 1) == Polynomial.from_terms({(2**20 - 1, 0, 0): 1})
    with pytest.raises(ValueError, match="product exceeds the supported monomial degree"):
        z ** (2**20)
    with pytest.raises(ValueError, match="product exceeds the supported monomial degree"):
        rf(1, w) ** -(2**20)


def test_exact_division_roundtrip():
    p = (z + w + 1) * (z * w - 3)
    assert p.exact_div(z + w + 1) == z * w - 3
    with pytest.raises(ValueError):
        (z + 1).exact_div(w + 1)


def test_derivative_basics():
    assert (z * z).derivative("z") == 2 * z
    assert (z * w).derivative("lam") == Polynomial.zero()


# ----------------------------------------------------------------------
# gcd


def test_gcd_univariate():
    g = poly_gcd(z * z - 1, z - 1)
    assert g == z - 1
    # independent check: the gcd divides both inputs exactly
    assert g.divides(z * z - 1)
    assert g.divides(z - 1)


def _small_candidates():
    """Nonconstant polynomials c1*z + c2*w + c3 with coefficients in [-3, 3]."""
    for c1 in range(-3, 4):
        for c2 in range(-3, 4):
            for c3 in range(-3, 4):
                if c1 == 0 and c2 == 0:
                    continue
                yield c1 * z + c2 * w + c3


def test_gcd_coprime_by_enumeration():
    a, b = z * w, z + w
    for cand in _small_candidates():
        assert not (cand.divides(a) and cand.divides(b))
    assert poly_gcd(a, b) == one


def test_gcd_with_zero_normalizes():
    p = -2 * z * w + 4 * w
    g = poly_gcd(p, Polynomial.zero())
    assert g == z * w - 2 * w
    assert poly_gcd(Polynomial.zero(), p) == g
    with pytest.raises(ValueError):
        poly_gcd(Polynomial.zero(), Polynomial.zero())


def test_lcm():
    assert poly_lcm(z * w, z + w) == z * w * (z + w)
    with pytest.raises(ValueError):
        poly_lcm(z, Polynomial.zero())
    with pytest.raises(ValueError):
        poly_lcm(Polynomial.zero(), z)


@st.composite
def polynomials(draw, max_terms=4, max_exp=2, nonzero=False):
    n = draw(st.integers(1 if nonzero else 0, max_terms))
    terms = {}
    for _ in range(n):
        key = (
            draw(st.integers(0, max_exp)),
            draw(st.integers(0, max_exp)),
            draw(st.integers(0, max_exp)),
        )
        coeff = draw(st.integers(-9, 9))
        terms[key] = coeff
    p = Polynomial.from_terms(terms)
    if nonzero and p.is_zero:
        p = p + draw(st.integers(1, 9))
    return p


# exponents with gaps of 1 to 995, and 0 among them so that levels
# collapse; coefficients beyond a double's 53-bit significand round
_EVAL_EXPONENTS = st.sampled_from((0, 1, 2, 3, 5, 1000))
_EVAL_COORDS = st.sampled_from((0.0, -0.0, 0.5, -1.25, 3.0)) | st.floats(-4, 4)
_EVAL_POINTS = st.one_of(
    st.just(0j),
    st.builds(complex, _EVAL_COORDS),
    st.builds(lambda y: complex(0.0, y), _EVAL_COORDS),
    st.builds(complex, _EVAL_COORDS, _EVAL_COORDS),
)


def _evaluation(evaluate, p, point):
    """The bits of a value, or the arithmetic error that stopped it."""
    try:
        value = evaluate(p, *point)
    except ArithmeticError as exc:  # a power past a double's range overflows
        return type(exc).__name__
    return value.real.hex(), value.imag.hex()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.dictionaries(
        st.tuples(_EVAL_EXPONENTS, _EVAL_EXPONENTS, _EVAL_EXPONENTS),
        st.integers(-(2**70), 2**70),
        max_size=6,
    ),
    st.lists(st.tuples(_EVAL_POINTS, _EVAL_POINTS, _EVAL_POINTS), min_size=2, max_size=2),
)
@example({}, [(1j, 2 - 1j, 3j), (0j, 0j, 0j)])
@example({(0, 0, 0): 7}, [(1j, 2.0, 0j), (0j, -0.0, 0j)])
@example({(1000, 0, 0): 1, (0, 1, 0): 1}, [(0.5 + 0.5j, 3j, 0j), (1j, -1.25, 0j)])
@example({(3, 1, 0): -2}, [(-0.0 + 2j, 0.5, 0j), (3.0, 1j, 0j)])
@example({(1, 1, 0): 2, (0, 0, 1): -1, (0, 0, 0): 3}, [(1j, 2j, 0.5 - 1j), (0j, 1.0, 3j)])
def test_evaluate_matches_the_reference_bit_for_bit(terms, points):
    # the second point runs on the plan the first one built
    p = Polynomial.from_terms(terms)
    for point in points:
        assert _evaluation(Polynomial.evaluate, p, point) == _evaluation(
            reference_evaluate, p, point
        )


@settings(max_examples=60, deadline=None)
@given(polynomials(nonzero=True), polynomials(nonzero=True), polynomials(nonzero=True))
def test_gcd_is_associate_multiplicative(a, b, g):
    lhs = poly_gcd(a * g, b * g)
    rhs = poly_gcd(a, b) * g
    # equal up to normalization of sign/content
    q = poly_gcd(lhs, rhs)
    assert lhs.exact_div(q).is_constant
    assert rhs.exact_div(q).is_constant


def _gcd_oracle(a, b):
    """The subresultant gcd of the oracles, sign-normalized like _gcd_full."""
    g = subresultant_gcd(a, b)
    return -g if g.leading_coefficient() < 0 else g


@settings(max_examples=80, deadline=None)
@given(
    polynomials(nonzero=True, max_terms=5),
    polynomials(nonzero=True, max_terms=5),
    polynomials(nonzero=True, max_terms=3),
)
def test_heuristic_gcd_agrees_with_subresultant_gcd(a, b, g):
    lhs, rhs = a * g, b * g
    got = _gcd_full(lhs, rhs)
    assert got == _gcd_oracle(lhs, rhs)
    if g.degree() > 0:
        assert not got.is_constant


@st.composite
def planted_factors(draw):
    """A product of the common factors the content split and the lift meet."""
    exp, coeff = st.integers(0, 2), st.integers(-4, 4)
    factors = [
        Polynomial.from_terms({(draw(exp), draw(exp), draw(exp)): 1}),
        draw(coeff) * z + draw(coeff) * w + draw(coeff) * lam + draw(coeff),
        draw(coeff) * w ** draw(st.integers(1, 2)) + draw(coeff),
        draw(coeff) * lam ** draw(st.integers(1, 2)) + draw(coeff),
        Polynomial.integer(draw(st.integers(1, 30))),
    ]
    out = one
    for f in factors:
        if f and draw(st.booleans()):
            out = out * f
    return out


@settings(max_examples=80, deadline=None)
@given(
    polynomials(nonzero=True, max_terms=4),
    polynomials(nonzero=True, max_terms=4),
    planted_factors(),
)
def test_heuristic_gcd_finds_planted_factors(a, b, g):
    lhs, rhs = a * g, b * g
    got = _gcd_full(lhs, rhs)
    assert got == _gcd_oracle(lhs, rhs)
    assert g.divides(got)


def test_heuristic_gcd_constructed_cases():
    # the fixed point and prime of an earlier modular coprimality test: these
    # factors made its univariate images unlucky, so they stay as inputs
    prime = (1 << 61) - 1
    z0, w0 = 1_201_495_339_431_861_837, 652_843_192_457_880_719
    # common factor whose leading coefficients in z and in w both vanish at
    # (z0, w0) mod the prime
    unlucky = (w - w0) * (z - z0) + 1
    # coprime operands whose leading z-coefficients both vanish there
    dropped = (w - w0 - prime) * z**2 + z + 1
    cases = [
        # (a, b, gcd)
        ((z + 2) * unlucky, (z * w - 1) * unlucky, unlucky),
        (dropped, (w - w0) * z + 3, one),
        ((z**2 + w) * (w + 1), (z - lam) * (w + 1), w + 1),
        ((z * w + 1) * (lam**2 + 3), (z - w) * (lam**2 + 3), lam**2 + 3),
        (6 * (z * w + lam), 4 * (z - w + 1), Polynomial.integer(2)),
        (prime * (z + 1), z + 1, z + 1),
        (prime * (z + w), z + 2, one),
        (z**2 * w, z * (w + 1), z),
        (3 * z * w * lam, z + w + 1, one),
        (z**2 + w, z * w - lam, one),
        (z + w, Polynomial.integer(5), one),
    ]
    for a, b, gcd in cases:
        assert _gcd_full(a, b) == _gcd_full(b, a) == _gcd_oracle(a, b) == gcd


# At the first xi the image gcd of these operands is a proper multiple of
# the image of their gcd, and its lift fails the division check.
UNLUCKY_FIRST_XI = [
    (3 * z**2 + 6 * z, z**2 + 3 * z + 2, z + 2),
    (6 * z**2 * w - 3 * z * w, 4 * z**2 * w - w, 2 * z * w - w),
]


def test_heuristic_gcd_retries_after_an_unlucky_xi(monkeypatch):
    def no_fallback(a, b):
        raise AssertionError("the fallback gcd was reached")

    monkeypatch.setattr(ratfun, "_gcd_rec", no_fallback)
    for a, b, gcd in UNLUCKY_FIRST_XI:
        assert _gcd_full(a, b) == _gcd_full(b, a) == gcd


def test_heuristic_gcd_falls_back_when_every_xi_fails(monkeypatch):
    calls = []

    def spy(a, b):
        calls.append((a, b))
        return _gcd_rec(a, b)

    monkeypatch.setattr(ratfun, "_gcd_rec", spy)
    monkeypatch.setattr(ratfun, "_HEU_TRIES", 1)
    for a, b, gcd in UNLUCKY_FIRST_XI:
        calls.clear()
        assert _gcd_full(a, b) == gcd
        assert calls


@settings(max_examples=80, deadline=None)
@given(
    polynomials(nonzero=True, max_terms=5),
    polynomials(nonzero=True, max_terms=5),
    polynomials(nonzero=True, max_terms=3),
    st.sampled_from([0, 1, ratfun._HEU_TRIES]),
)
def test_fallback_gcd_gets_only_what_the_heuristic_leaves(a, b, g, tries):
    """``_gcd_rec`` gets unequal nonconstant operands, no shared content, no monomial factor."""

    def spy(x, y):
        assert math.gcd(x.content(), y.content()) == 1
        assert ratfun._monomial_content(x) == ratfun._monomial_content(y) == 0
        assert not x.is_constant and not y.is_constant
        assert x != y
        return _gcd_rec(x, y)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ratfun, "_gcd_rec", spy)
        mp.setattr(ratfun, "_HEU_TRIES", tries)
        got = _gcd_full(a * g, b * g)
    assert got == _gcd_oracle(a * g, b * g)


def _to_sympy(sympy, p):
    return sympy.Poly(sympy.sympify(str(p).replace("^", "**")), *sympy.symbols("z w lam"))


def test_heuristic_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    for _ in range(30):
        a, b, g = (
            Polynomial.from_terms(
                {
                    (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1)): rng.randint(-4, 4)
                    for _ in range(3)
                }
            )
            + rng.randint(1, 3)
            for _ in range(3)
        )
        ours = _to_sympy(sympy, _gcd_full(a * g, b * g))
        theirs = sympy.gcd(_to_sympy(sympy, a * g), _to_sympy(sympy, b * g))
        assert ours in (theirs, -theirs)


# cases that reach each branch of the subresultant oracle
GCD_CASES = [
    # z-degree gaps of 2 or more: the h = g^delta / h^(delta - 1) update;
    # in the first pair a wrong h makes a later division inexact
    (
        8 * z**7 + 2 * z**4 - z**3 + 4 * z**2 + 3 * z + 4,
        2 * z**6 + 3 * z**5 - z**3 + 2 * z + 2,
    ),
    ((z**5 + w * z + 1) * (z * w - 1), (w * z**2 + 3) * (z * w - 1)),
    ((w * z**6 + lam) * (z + w), ((w + 1) * z**3 - 2) * (z + w)),
    # nontrivial contents in w and in lam
    ((z * w + 1) * (w + 1) * (lam**2 + 3), (z - w) * (w + 1) ** 2 * (lam**2 + 3)),
    (3 * (z + lam) * (w + 1) * (lam**2 + 3), 6 * (z**2 - w) * (lam**2 + 3)),
    # no z: the recursion starts at w, or at lam
    ((w**2 - lam) * (w + lam + 1), (w * lam - 2) * (w + lam + 1)),
    ((lam**3 - 2) * (2 * lam + 4), 6 * (lam + 2) * (lam - 1)),
    # one monomial operand
    (3 * z**2 * w * lam, 6 * z**3 * lam**2 + 9 * z * w * lam),
    (z * w, z + w),
]


def _matches_sympy(gcd):
    sympy = pytest.importorskip("sympy")
    for a, b in GCD_CASES:
        for x, y in ((a, b), (b, a)):
            want = sympy.gcd(_to_sympy(sympy, x), _to_sympy(sympy, y))
            assert _to_sympy(sympy, gcd(x, y)) in (want, -want)


def test_subresultant_gcd_matches_sympy():
    """The subresultant oracle alone, on cases that reach each of its branches."""
    _matches_sympy(subresultant_gcd)


def test_primitive_gcd_matches_sympy():
    """The primitive remainder sequence of ``_gcd_rec`` alone, on the same cases."""
    _matches_sympy(_gcd_rec)


@settings(max_examples=80, deadline=None)
@given(
    polynomials(nonzero=True, max_terms=5, max_exp=3),
    polynomials(nonzero=True, max_terms=4),
    st.sampled_from(VARIABLES),
)
def test_pseudo_remainder(a, b, var):
    if a.degree(var) < b.degree(var):
        a, b = b, a
    da, db = a.degree(var), b.degree(var)
    r = padded_prem(a, b, var)
    assert r.degree(var) < db
    lead = b.coefficients(var)[db]
    assert b.divides(lead ** (da - db + 1) * a - r)


@settings(max_examples=80, deadline=None)
@given(
    polynomials(nonzero=True, max_terms=5, max_exp=3),
    polynomials(nonzero=True, max_terms=4),
    st.sampled_from(VARIABLES),
)
def test_unpadded_pseudo_remainder(a, b, var):
    """lc(b)^k * a - r is a multiple of b for a k no larger than the padding."""
    if a.degree(var) < b.degree(var):
        a, b = b, a
    da, db = a.degree(var), b.degree(var)
    r = _prem(a, b, var)
    assert r.degree(var) < db
    lead = b.coefficients(var)[db]
    assert any(b.divides(lead**k * a - r) for k in range(da - db + 2))


@pytest.mark.parametrize(
    "num, den, want",
    [
        # the lower z-degree is 1 (z comes off z^2*w + z): one image is
        # huge, the other small, and their integer gcd is cheap
        ("z^600000 + w", "z^2*w + z", "(z^600000 + w)/(z^2*w + z)"),
        # the monomial content w comes off, and again one z-image is small
        ("z^100000*w + w", "z^3*w - w", "(z^100000 + 1)/(z^3 - 1)"),
    ],
)
def test_sparse_high_degree_reduction_stays_fast(num, den, want):
    start = time.process_time()
    f = RatFun(parse_polynomial(num), parse_polynomial(den))
    assert time.process_time() - start < 0.5
    assert str(f) == want


# ----------------------------------------------------------------------
# exact division (runs in packed-key lex order)


@settings(max_examples=80, deadline=None)
@given(
    polynomials(nonzero=True, max_terms=5, max_exp=3),
    polynomials(nonzero=True, max_terms=4, max_exp=2),
)
def test_exact_division_recovers_the_cofactor(a, b):
    b = b * (z - 2 * w + lam + 1)
    # constant divisors and the zero dividend run the same loop
    for d in (b, Polynomial.integer(2), Polynomial.integer(-3), Polynomial.integer(10**40)):
        assert (a * d).exact_div(d) == a
        assert Polynomial.zero().exact_div(d) == Polynomial.zero()


@settings(max_examples=80, deadline=None)
@given(
    polynomials(nonzero=True, max_terms=5, max_exp=3),
    polynomials(nonzero=True, max_terms=4, max_exp=2),
    polynomials(max_terms=4, max_exp=2),
)
def test_exact_division_rejects_a_remainder(a, b, r):
    b = b * (z - 2 * w + lam + 1)
    # keep only the terms of r below b's total degree, so b cannot divide r
    r = Polynomial.from_terms({e: c for e, c in r.terms() if sum(e) < b.degree()})
    if r.is_zero:
        r = one
    with pytest.raises(ValueError):
        (a * b + r).exact_div(b)


def test_inexact_division_stops_early():
    for dividend, divisor in (
        (z**5, z - w),
        (z**200, z - w),
        (z**30, z - w - lam),
        (w**5, w - lam),
        (z**4 * w, z * w - lam),
        (lam**3, z + lam),
        ((z - w) ** 4 * (z + 1) + 1, z - w),
        (2 * z + 1, Polynomial.integer(2)),
        (6 * z * w - 4, Polynomial.integer(-3)),
        (10**40 * z + 10**39, Polynomial.integer(10**40)),
        (Polynomial.integer(10**41 + 1), Polynomial.integer(10**40)),
    ):
        with pytest.raises(ValueError):
            dividend.exact_div(divisor)


def test_long_exact_quotient_is_fast():
    # the leading remainder term comes off a heap, not a scan of the remainder
    q = Polynomial.from_terms({(e, 0, 0): 1 for e in range(1, 8001)})
    d = w + 1
    p = q * d
    start = time.perf_counter()
    assert p.exact_div(d) == q
    assert p // d == q
    assert time.perf_counter() - start < 0.5


def test_max_degrees_are_cached():
    p = z**3 * w + lam**2
    assert p.max_degrees() == (3, 1, 2)
    assert p.max_degrees() is p.max_degrees()
    assert Polynomial.zero().max_degrees() == (0, 0, 0)


# ----------------------------------------------------------------------
# Kronecker images


def test_kronecker_layout():
    # z -> X = 2^8, w -> X^(dz+1) = X^2, lam -> X^((dz+1)(dw+1)) = X^4
    assert (z + 3 * w * lam - 1).to_kronecker(8, 1, 1) == 2**8 + 3 * 2**48 - 1
    assert Polynomial.zero().to_kronecker(8, 0, 0) == 0
    assert Polynomial.from_kronecker(0, 8, 0, 0) == Polynomial.zero()
    assert Polynomial.from_kronecker(2**8 - 1, 8, 1, 1) == z - 1


@st.composite
def kronecker_cases(draw):
    slot = 8 * draw(st.integers(1, 9))
    top = (1 << (slot - 1)) - 1
    dz, dw, dl = (draw(st.integers(0, 4)) for _ in range(3))
    coefficients = st.one_of(st.integers(-top, top), st.sampled_from([top, -top, 1, -1]))
    terms = draw(
        st.dictionaries(
            st.tuples(st.integers(0, dz), st.integers(0, dw), st.integers(0, dl)),
            coefficients,
            max_size=12,
        )
    )
    return Polynomial.from_terms(terms), slot, dz, dw


@settings(max_examples=100, deadline=None)
@given(kronecker_cases(), kronecker_cases())
def test_kronecker_round_trip(case, other):
    p, slot, dz, dw = case
    image = p.to_kronecker(slot, dz, dw)
    assert Polynomial.from_kronecker(image, slot, dz, dw) == p
    assert Polynomial.from_kronecker(-image, slot, dz, dw) == -p
    # the image is the value at one point, so it respects sums and products
    q = other[0]
    if p.is_zero or q.is_zero:
        return
    size = p.one_norm() * q.one_norm()
    (pz, pw, pl), (qz, qw, ql) = p.max_degrees(), q.max_degrees()
    slot = 8 * ((size.bit_length() + 9) // 8)
    dz, dw = pz + qz, pw + qw
    image = p.to_kronecker(slot, dz, dw) * q.to_kronecker(slot, dz, dw)
    assert Polynomial.from_kronecker(image, slot, dz, dw) == p * q
    image = p.to_kronecker(slot, dz, dw) - q.to_kronecker(slot, dz, dw)
    assert Polynomial.from_kronecker(image, slot, dz, dw) == p - q


# ----------------------------------------------------------------------
# rational functions


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFun(1, Polynomial.zero())


def test_reduction_to_canonical_form():
    f = rf((z * z - 1) * w, (z - 1) * w * w)
    assert f == rf(z + 1, w)
    # denominator lead must be positive
    g = rf(w, 1 - z * w)
    assert g.den.leading_coefficient() > 0
    assert g == rf(-w, z * w - 1)


def test_additive_identity_and_inverse():
    a = rf(z + w, z * w - 1)
    assert a + RatFun(0) == a
    assert a * a.reciprocal() == RatFun(1)


def test_star_sum_value():
    # cross-checked numerically in test_numeric_consistency_of_operations
    a = rf(w**3 * z - 2 * w**2 - 2 * w * z, 2 * w - w**3)
    b = rf(-w * z * z + w + 2 * z + 2, w * z - 1)
    expected = rf(
        -2 * w**3 * z**2 + w**3 + 5 * w**2 * z + 2 * w**2 + 4 * w * z**2 - 4 * w - 6 * z - 4,
        (w * w - 2) * (w * z - 1),
    )
    assert a + b == expected
    # the denominators w^2 - 2 and w*z - 1 are coprime, as are z and w here
    assert a.den * b.den == expected.den
    assert str(rf(1, z) + rf(1, w)) == "(z + w)/(z*w)"
    assert str(rf(1, z + 1) - rf(1, z - 1)) == "(-2)/(z^2 - 1)"


def test_reciprocal_examples():
    f = rf(w * z - 1, -w * z * z + w + 2 * z + 2)
    assert f.reciprocal() == rf(-w * z * z + w + 2 * z + 2, w * z - 1)
    assert RatFun(1).reciprocal() == RatFun(1)
    assert rf(-1, z).reciprocal() == rf(-z)
    with pytest.raises(ZeroDivisionError):
        RatFun(0).reciprocal()


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        rf(1, z) / RatFun(0)


def test_substitute_hand_checked():
    f = rf(w, 1 - z * w)
    g = f.substitute("z", rf(-w))
    assert g == rf(w, 1 + w * w)

    def check(point):
        _, ww, ll = point
        assert ratfun_mod(g, point) == ratfun_mod(f, (-ww % PRIME, ww, ll))

    at_random_points(random.Random(7), check)


def test_substitute_missing_variable_is_identity():
    f = rf(w, w * w + 1)
    assert f.substitute("z", rf(123)) is f


def test_substitute_shift():
    f = rf(-1, z)
    assert f.substitute("z", rf(z + 1)) == rf(-1, z + 1)
    # an int or a Polynomial value is coerced as by the arithmetic operators
    assert parse_ratfun("z+1").substitute("z", 2) == RatFun(3)
    assert f.substitute("z", z + 1) == rf(-1, z + 1)
    with pytest.raises(TypeError):
        f.substitute("z", 2.0)


def test_substitute_vanishing_denominator():
    with pytest.raises(ZeroDivisionError):
        rf(1, z).substitute("z", RatFun(0))


def test_derivative_quotient_rule():
    f = rf(lam, 1 + lam * z)
    assert f.derivative("lam") == rf(1, (1 + lam * z) ** 2)
    assert rf(z, w).derivative("lam") == RatFun(0)
    assert rf(z * z).derivative("z") == rf(2 * z)


def test_derivative_matches_finite_differences():
    """Exactly equal to sympy's ``diff``, in every variable."""
    sympy = pytest.importorskip("sympy")

    def to_expr(f):
        return _to_sympy(sympy, f.num).as_expr() / _to_sympy(sympy, f.den).as_expr()

    cases = [rf(lam * z + 3, lam * lam + z + 2)] + [rf(a, b) for a, b in GCD_CASES]
    for f in cases:
        for var in VARIABLES:
            want = sympy.diff(to_expr(f), sympy.Symbol(var))
            assert sympy.cancel(want - to_expr(f.derivative(var))) == 0


@st.composite
def ratfuns(draw):
    num = draw(polynomials())
    den = draw(polynomials(nonzero=True))
    return RatFun(num, den)


@settings(max_examples=50, deadline=None)
@given(ratfuns(), ratfuns(), ratfuns())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=50, deadline=None)
@given(polynomials(nonzero=True), polynomials(nonzero=True), polynomials(nonzero=True))
def test_roundtrip_reduction(p, q, m):
    base = RatFun(p, q)
    blown = RatFun(base.num * m, base.den * m)
    assert blown.num == base.num
    assert blown.den == base.den


def _assert_canonical(f: RatFun) -> None:
    """Denominator lead positive, num and den coprime, zero stored as 0/1."""
    assert f.den.leading_coefficient() > 0
    if f.num.is_zero:
        assert f.den == one
    else:
        assert poly_gcd(f.num, f.den) == one
        assert math.gcd(f.num.content(), f.den.content()) == 1


@settings(max_examples=50, deadline=None)
@given(ratfuns(), ratfuns(), polynomials(nonzero=True), st.integers(-3, 3))
# 1/(z^2 + z) + 1/(z^2 - z) = 2/(z^2 - 1): denominators share z, and so do
# the cross sum 2z and the shared factor
@example(rf(1, z * z + z), rf(-1, -(z * z) + z), one, 1)
# coprime denominators, and a second operand that is zero
@example(rf(1, -z - 1), rf(0), -(w * w) + 2, -2)
def test_every_operation_returns_canonical_form(x, y, g, e):
    """The operations that trust their own reduction all leave it canonical."""
    # sharing g makes the denominators of x and y meet, so + takes Henrici's
    # route as well as the coprime one
    xg, yg = RatFun(x.num, x.den * g), RatFun(y.num, y.den * g)
    results = [x + y, xg + yg, x - y, xg - yg, x * y, xg * yg, -x]
    results += [x.derivative("z"), x.derivative("w")]
    if y:
        results += [x / y, xg / yg, y.reciprocal()]
    if x or e >= 0:
        results.append(x**e)
    try:
        results.append(x.substitute("z", y))
    except ZeroDivisionError:
        pass
    for f in results:
        _assert_canonical(f)


def test_numeric_consistency_of_operations():
    a = rf(w**3 * z - 2 * w**2 - 2 * w * z, 2 * w - w**3)
    b = rf(-w * z * z + w + 2 * z + 2, w * z - 1)
    cases = [
        (a + b, lambda x, y: x + y),
        (a - b, lambda x, y: x - y),
        (a * b, lambda x, y: x * y),
        (a / b, lambda x, y: x * pow(y, -1, PRIME)),
        # an int on the left runs the reflected operators
        (2 - a, lambda x, y: 2 - x),
        (2 / b, lambda x, y: 2 * pow(y, -1, PRIME)),
    ]

    def check(point):
        x, y = ratfun_mod(a, point), ratfun_mod(b, point)
        if not y:
            raise Unlucky
        for f, op in cases:
            assert ratfun_mod(f, point) == op(x, y) % PRIME

    rng = random.Random(3)
    for _ in range(5):
        at_random_points(rng, check)


# ----------------------------------------------------------------------
# rendering and parsing


def test_canonical_text():
    p = z**2 - 1
    assert str(p) == "z^2 - 1"
    assert str(-z) == "-z"
    assert str(Polynomial.zero()) == "0"
    assert str(2 * z * w**2 - 3 * lam) == "2*z*w^2 - 3*lam"
    assert str(rf(-1, z)) == "(-1)/(z)"
    assert str(rf(z - 1)) == "z - 1"


def test_grlex_ordering_in_text():
    p = -(w**2) * z**3 + 2 * w**2 * z + 3 * w * z**2 + 2 * w * z - w - z
    assert str(p) == "-z^3*w^2 + 3*z^2*w + 2*z*w^2 + 2*z*w - z - w"


def test_parse_roundtrip():
    samples = [
        "z^2 - 1",
        "-z",
        "0",
        "2*z*w^2 - 3*lam + 7",
        "-z^3*w^2 + 3*z^2*w + 2*z*w^2 + 2*z*w - z - w",
    ]
    for text in samples:
        assert str(parse_polynomial(text)) == text
    f = rf(w, 1 - z * w)
    assert parse_ratfun(str(f)) == f
    assert parse_ratfun("z - 1") == rf(z - 1)


def test_parse_accepts_lambda_spellings():
    assert parse_polynomial("lambda") == lam
    assert parse_polynomial("λ^2") == lam * lam


def test_parse_power_is_one_monomial():
    assert parse_polynomial("z^200000") == Polynomial.from_terms({(200000, 0, 0): 1})
    assert parse_polynomial("3*w^0*lam^2") == 3 * lam * lam
    with pytest.raises(ValueError, match="exponent out of range"):
        parse_polynomial("w^1048576")


def test_product_over_the_exponent_cap_is_rejected():
    big = parse_polynomial("z^600000")
    with pytest.raises(ValueError, match="product exceeds the supported monomial degree"):
        big * big
    with pytest.raises(ValueError, match="product exceeds the supported monomial degree"):
        parse_polynomial("z^600000*w") ** 2


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_polynomial("z ++")
    with pytest.raises(ValueError):
        parse_polynomial("q + 1")
    with pytest.raises(ValueError):
        parse_polynomial("")


# the grammar: a sum of terms, each a run of signs (at least one sign after
# the first term) and a "*"-product of integers and powers var^n; spaces may
# stand between any two tokens; a rational function is one polynomial or two
# joined by "/", each side in at most one pair of parentheses
@pytest.mark.parametrize(
    "text, value",
    [
        (" \t2 * z ^ 3 \n- w * lam ^ 2 + 7 ", rf(2 * z**3 - w * lam**2 + 7)),
        ("- - z", rf(z)),
        ("+ -z", rf(-z)),
        ("z - + - w", rf(z + w)),
        ("2*3*z*z", rf(6 * z**2)),
        ("λ^2", rf(lam**2)),
        ("lambda", rf(lam)),
        ("٣*z", rf(3 * z)),
        ("z^0", rf(one)),
        ("z - z", RatFun(0)),
        ("z   ", rf(z)),
        (" ( z + 1 ) / ( w ) ", rf(z + 1, w)),
        ("z + 1/w", rf(z + 1, w)),
        ("0*z^600000*z^600000", RatFun(0)),
    ],
)
def test_parse_accepts(text, value):
    assert parse_ratfun(text) == value
    if "/" not in text:
        assert parse_polynomial(text) == value.num


@pytest.mark.parametrize(
    "text",
    [
        "",
        "   ",
        "z +",
        "z w",
        "2z",
        "z^",
        "z^-1",
        "z^2^3",
        "*z",
        "(z)",
        "((z))/(1)",
        "z/w/1",
        "z/",
        "q + 1",
        "z + 2*",
        # over CPython's default limit on int() of a digit string
        "1" * 5000,
        # multiplied in order, the product overflows before the zero factor
        "z^600000*z^600000*0",
    ],
)
def test_parse_rejects(text):
    for parse in (parse_polynomial, parse_ratfun):
        with pytest.raises(ValueError):
            parse(text)


def test_parse_errors_quote_where_parsing_stopped():
    with pytest.raises(ValueError, match="empty"):
        parse_polynomial("  ")
    for text, rest in (("z + 2*w*", "'*'"), ("2z", "'z'"), ("z +", "'+'"), ("  q", "'q'")):
        with pytest.raises(ValueError, match=re.escape(rest)):
            parse_polynomial(text)


def test_parse_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        parse_ratfun("(z)/(0)")


_SPACES = st.sampled_from(["", "", " ", "  ", "\t", "\n"])


@st.composite
def noisy_renderings(draw):
    """A polynomial and a text for it in any spelling the grammar allows."""
    p = draw(polynomials(max_terms=5, max_exp=3))
    if p.is_zero:
        return p, draw(st.sampled_from(["0", " - 0 ", "0*z", "z - z", "2*w - w*2"]))

    def spaced(parts, sep=""):
        return sep.join(draw(_SPACES) + part + draw(_SPACES) for part in parts)

    text = draw(_SPACES)
    for i, (exps, c) in enumerate(p.terms()):
        signs = draw(st.lists(st.sampled_from("+-"), min_size=0 if i == 0 else 1, max_size=3))
        if signs.count("-") % 2 != (c < 0):
            signs.append("-")
        factors = []
        for name, e in zip(("z", "w", "lam"), exps):
            if name == "lam":
                name = draw(st.sampled_from(["lam", "lambda", "λ"]))
            if e == 1 and draw(st.booleans()):
                factors.append(name)
            elif e or draw(st.booleans()):
                factors.append(f"{name}{draw(_SPACES)}^{draw(_SPACES)}{e}")
        mag = abs(c)
        split = draw(st.sampled_from([d for d in range(1, mag + 1) if mag % d == 0]))
        if draw(st.booleans()):
            factors += [str(split), str(mag // split)]
        elif mag != 1 or not factors or draw(st.booleans()):
            factors.append(str(mag))
        text += spaced(signs) + spaced(draw(st.permutations(factors)), "*")
    return p, text + draw(_SPACES)


@settings(max_examples=200, deadline=None)
@given(noisy_renderings())
def test_parse_noisy_rendering(case):
    p, text = case
    assert parse_polynomial(text) == p
    assert parse_ratfun(f" ( {text} ) / ( 1 ) ") == RatFun(p)


def test_parse_is_linear_in_the_term_count():
    text = " + ".join(f"z^{i}" for i in range(1, 64001))
    start = time.perf_counter()
    p = parse_polynomial(text)
    assert time.perf_counter() - start < 5.0
    assert p.degree() == 64000 and len(p.terms()) == 64000


def test_json_roundtrip():
    f = rf(w, 1 - z * w)
    assert ratfun_from_json(f.to_json()) == f
    with pytest.raises(ValueError):
        ratfun_from_json({"num": "1"})


def test_latex():
    assert rf(-1, z).latex() == "\\frac{-1}{z}"
    assert (2 * lam * z**3).latex() == "2 z^{3} \\lambda"
    assert rf(2 * lam * z**3).latex() == "2 z^{3} \\lambda"


def test_module_constants():
    assert Z == rf(z) and W == rf(w) and LAM == rf(lam)


def test_equal_values_hash_equal():
    """Values that compare equal hash equal, so sets and dict keys agree with ==."""
    groups = [
        [0, Polynomial.zero(), RatFun(0), parse_polynomial("0")],
        [1, one, RatFun(1), rf(z, z), parse_ratfun("(2)/(2)")],
        [-3, Polynomial.integer(-3), rf(-6, 2), parse_polynomial("-3")],
        [10**40, Polynomial.integer(10**40), RatFun(10**40)],
        [z, parse_polynomial("z"), Z, rf(z * w, w)],
        [z - w, rf(z * z - w * w, z + w), parse_ratfun("z - w")],
        [rf(1, z), rf(2, 2 * z), parse_ratfun("1/z")],
        [rf(z, w + 1), rf(-z, -w - 1)],
        [rf(1, 2), rf(-3, -6)],
    ]
    for group in groups:
        for a in group:
            for b in group:
                assert a == b and hash(a) == hash(b)
        assert len(set(group)) == 1
    assert len({x for group in groups for x in group}) == len(groups)
    assert {1: "one"}[RatFun(1)] == "one"
    assert {parse_polynomial("z"): "z"}[Z] == "z"


def test_equality_matches_cross_multiplication():
    rng = random.Random(5)
    for _ in range(20):
        p = Polynomial.from_terms(
            {
                (rng.randint(0, 2), rng.randint(0, 2), 0): rng.randint(-5, 5)
                for _ in range(3)
            }
        )
        q = Polynomial.from_terms(
            {
                (rng.randint(0, 2), rng.randint(0, 2), 0): rng.randint(-5, 5)
                for _ in range(3)
            }
        ) + 1
        m = z + rng.randint(1, 3)
        a = RatFun(p, q)
        b = RatFun(p * m, q * m)
        assert (a == b) == (a.num * b.den == b.num * a.den)
        assert a == b
