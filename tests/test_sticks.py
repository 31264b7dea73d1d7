import pytest

from graphpick.ratfun import Polynomial, RatFun
from graphpick.sticks import (
    stick_determinant_direct,
    stick_determinants,
    stick_matrix,
    stick_recurrence,
)
from oracles import stick_series_coefficients

z = Polynomial.variable("z")


def test_stick_matrix_shapes():
    m1 = stick_matrix(1)
    assert m1.rows == ((RatFun(-z),),)
    m2 = stick_matrix(2)
    assert m2.rows == (
        (RatFun(-z), RatFun(1)),
        (RatFun(1), RatFun(-z)),
    )
    m3 = stick_matrix(3)
    assert m3.entry(1, 3) == RatFun(0)
    assert m3.entry(2, 3) == RatFun(1)
    assert m3.entry(3, 3) == RatFun(-z)
    with pytest.raises(ValueError):
        stick_matrix(0)


def test_small_determinants():
    family = stick_determinants(3)
    assert family.dets[0] == Polynomial.one()
    assert family.dets[1] == -z
    assert family.dets[2] == z * z - 1
    assert family.dets[3] == -(z**3) + 2 * z


def test_three_routes_agree_to_twenty():
    rec = stick_recurrence(20)
    series = stick_series_coefficients(20)
    for n in range(21):
        assert rec[n] == series[n]
        assert rec[n] == stick_determinant_direct(n)


def test_parity():
    rec = stick_recurrence(12)
    minus_z = RatFun(-z)
    for n, t in enumerate(rec):
        flipped = RatFun(t).substitute("z", minus_z)
        assert flipped == RatFun(t) * ((-1) ** n)


def test_family_is_validated_and_sized():
    family = stick_determinants(7)
    assert len(family.dets) == 8
