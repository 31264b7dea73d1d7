import time

import pytest

from graphpick import sticks
from graphpick.linalg import determinant
from graphpick.ratfun import Polynomial, RatFun
from graphpick.sticks import (
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
        # T_0 = 1 is the empty determinant
        assert rec[n] == (determinant(stick_matrix(n)).num if n else Polynomial.one())


def test_parity():
    rec = stick_recurrence(12)
    minus_z = RatFun(-z)
    for n, t in enumerate(rec):
        flipped = RatFun(t).substitute("z", minus_z)
        assert flipped == RatFun(t) * ((-1) ** n)


def test_family_is_validated_and_sized():
    family = stick_determinants(7)
    assert len(family.dets) == 8


def test_stick_table_stays_fast():
    """Two eliminations certify the table; one per row takes seconds at max 150."""
    start = time.process_time()
    stick_determinants(150)
    assert time.process_time() - start < 1.0


def test_a_wrong_recurrence_fails_the_check(monkeypatch):
    def plus_recurrence(max_n):
        out = [Polynomial.one(), -z]
        for _ in range(2, max_n + 1):
            out.append(-z * out[-1] + out[-2])
        return out[: max_n + 1]

    monkeypatch.setattr(sticks, "stick_recurrence", plus_recurrence)
    with pytest.raises(AssertionError):
        stick_determinants(7)


def test_a_wrong_second_row_fails_the_check(monkeypatch):
    """A table that obeys the recurrence with the right top row is caught at max - 1."""
    max_n = 7
    right = stick_recurrence(max_n)
    # built downward with T_(n-2) = -z*T_(n-1) - T_n from T_max and T_(max-1) + 1
    down = [right[max_n], right[max_n - 1] + 1]
    for _ in range(max_n - 1):
        down.append(-z * down[-1] - down[-2])
    table = down[::-1]
    assert all(table[n] == -z * table[n - 1] - table[n - 2] for n in range(2, max_n + 1))
    assert table[max_n] == right[max_n] and table[max_n - 1] != right[max_n - 1]

    monkeypatch.setattr(sticks, "stick_recurrence", lambda n: list(table))
    with pytest.raises(AssertionError, match=f"n={max_n - 1}"):
        stick_determinants(max_n)
