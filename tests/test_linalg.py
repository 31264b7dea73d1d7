import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix

from graphpick import linalg
from graphpick.gen import random_colored_graph
from graphpick.graphs import ColoredGraph, colored_adjacency, general_color
from graphpick.linalg import SymMatrix, determinant, inverse_entry, schur_reduce
from graphpick.nevanlinna import representing_function
from graphpick.ratfun import Polynomial, RatFun, parse_ratfun
from oracles import cofactor_determinant, cofactor_inverse_entry

z = Polynomial.variable("z")
w = Polynomial.variable("w")


def rf(num, den=1):
    return RatFun(num, den)


EDGE_ZW = SymMatrix.from_rows([[-z, 1], [1, -w]])

SIX_VERTEX = SymMatrix.from_rows(
    [
        [-z, 1, 1, 0, 0, 0],
        [1, -w, 0, 1, 0, 0],
        [1, 0, -z, 1, 0, 0],
        [0, 1, 1, -z, 1, 1],
        [0, 0, 0, 1, -z, 1],
        [0, 0, 0, 1, 1, -w],
    ]
)

CONTACT_FIVE = SymMatrix.from_rows(
    [
        [-z, 0, 1, 1, 0],
        [0, -w, 1, 0, 1],
        [1, 1, -z, 0, 0],
        [1, 0, 0, -z, 1],
        [0, 1, 0, 1, -z],
    ]
)


def test_determinant_two_by_two():
    assert determinant(EDGE_ZW) == rf(z * w - 1)


def test_determinant_stick_two():
    m = SymMatrix.from_rows([[-z, 1], [1, -z]])
    assert determinant(m) == rf(z * z - 1)


def test_determinant_identity():
    assert determinant(SymMatrix.identity(3)) == rf(1)


def test_determinant_empty_and_singular():
    assert determinant(SymMatrix.from_rows([])) == rf(1)
    sing = SymMatrix.from_rows([[1, 1], [1, 1]])
    assert determinant(sing) == rf(0)


def test_determinant_with_rational_entries():
    m = SymMatrix.from_rows(
        [
            [rf(1, z), rf(1)],
            [rf(1), rf(z)],
        ]
    )
    # det = 1/z * z - 1 = 0; then perturb
    assert determinant(m) == rf(0)
    m2 = SymMatrix.from_rows([[rf(1, z), rf(1)], [rf(1), rf(z + 1)]])
    assert determinant(m2) == rf(1, z)


def _random_ratfun_matrix(rng, n, rational=False, zero_diagonal=0):
    def cell():
        p = Polynomial.from_terms(
            {
                (rng.randint(0, 1), rng.randint(0, 1), 0): rng.randint(-3, 3)
                for _ in range(2)
            }
        )
        if rational and rng.random() < 0.3:
            return RatFun(p, z + rng.randint(1, 3))
        return RatFun(p)

    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            e = cell()
            rows[i][j] = e
            rows[j][i] = e
    for i in rng.sample(range(n), zero_diagonal):
        rows[i][i] = RatFun(0)
    return SymMatrix.from_rows(rows)


def test_determinant_matches_cofactor_oracle():
    rng = random.Random(2024)
    for trial in range(12):
        n = rng.randint(1, 5)
        m = _random_ratfun_matrix(rng, n, rational=(trial % 3 == 0))
        assert determinant(m) == cofactor_determinant(m.rows)


def test_symmetric_matrix_required():
    with pytest.raises(ValueError, match="not symmetric"):
        SymMatrix.from_rows([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="not symmetric"):
        SymMatrix.from_rows([[-z, 1, 0], [1, -w, rf(1, z)], [0, rf(1, w), 0]])


def test_sparse_constructor_checks_stored_entries():
    # one triangle in, both out; zero entries are dropped; a missing entry
    # reads as zero
    m = SymMatrix(3, {(1, 1): rf(-z), (1, 3): rf(1), (2, 2): rf(0)})
    zero = rf(0)
    assert m.rows == ((rf(-z), zero, rf(1)), (zero, zero, zero), (rf(1), zero, zero))
    assert determinant(m) == zero
    # int and Polynomial entries are taken as RatFun values
    assert determinant(SymMatrix(2, {(1, 1): 1, (2, 2): z})) == RatFun(z)
    # the dense entry point compares each entry with its mirror
    with pytest.raises(ValueError, match="not symmetric in row 3"):
        SymMatrix.from_rows([[0, 0, 1], [0, 0, 0], [2, 0, 0]])
    with pytest.raises(ValueError, match="not symmetric in row 2"):
        SymMatrix.from_rows([[0, 0, 0], [rf(z), 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError, match=r"index \(2, 1\) is below the diagonal"):
        SymMatrix(3, {(2, 1): rf(z)})
    for bad in ((1, 3), (0, 1), (2, -1)):
        for index in (bad, bad[::-1]):
            with pytest.raises(ValueError, match="out of range for a 2x2 matrix"):
                SymMatrix(2, {index: rf(1)})

def test_zero_diagonal_values():
    # the (1, 1) cofactor is the zero block [[0]]
    assert inverse_entry(SymMatrix.from_rows([[-z, 1], [1, 0]]), 1) == rf(0)
    # no Schur complement onto {1, 2}: the block left over is [[0]]
    three = SymMatrix.from_rows([[-z, 1, 1], [1, -w, 1], [1, 1, 0]])
    assert inverse_entry(three, 1, 2) == rf(1, z + w + 2)
    # every eliminable diagonal entry is zero: needs a 2x2 block pivot
    pair = SymMatrix.from_rows([[-z, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert inverse_entry(pair, 1) == rf(-1, z + 2)
    assert schur_reduce(pair, [1]).rows == ((rf(-z - 2),),)
    for m in (three, pair):
        for i in range(1, 4):
            for j in range(1, 4):
                assert inverse_entry(m, i, j) == cofactor_inverse_entry(m.rows, i, j)


def test_zero_diagonal_random_against_oracle():
    rng = random.Random(4242)
    for trial in range(40):
        n = rng.randint(2, 5)
        m = _random_ratfun_matrix(
            rng, n, rational=(trial % 4 == 0), zero_diagonal=rng.randint(1, n)
        )
        det = determinant(m)
        assert det == cofactor_determinant(m.rows)
        i, j = rng.randint(1, n), rng.randint(1, n)
        if det.is_zero:
            with pytest.raises(ValueError, match="singular colored matrix"):
                inverse_entry(m, i, j)
        else:
            assert inverse_entry(m, i, j) == cofactor_inverse_entry(m.rows, i, j)
        keep = sorted({i, j} | {v for v in range(1, n + 1) if rng.random() < 0.3})
        rest = [v for v in range(1, n + 1) if v not in keep]
        if not rest:
            continue

        def minor(rs, cs):
            return [[m.entry(r, c) for c in cs] for r in rs]

        block_det = cofactor_determinant(minor(rest, rest))
        if block_det.is_zero:
            with pytest.raises(ValueError, match="singular block"):
                schur_reduce(m, keep)
            continue
        reduced = schur_reduce(m, keep)
        for a, ka in enumerate(keep, 1):
            for b, kb in enumerate(keep, 1):
                # Schur complement entry as a ratio of bordered minors
                bordered = cofactor_determinant(minor(rest + [ka], rest + [kb]))
                assert reduced.entry(a, b) == bordered / block_det


def test_inverse_entry_one_by_one():
    m = SymMatrix.from_rows([[-z]])
    assert inverse_entry(m, 1) == rf(-1, z)


def test_inverse_entry_two_by_two_adjugate():
    # adjugate oracle: inverse of [[a,b],[c,d]] is [[d,-b],[-c,a]]/det
    det = rf(z * w - 1)
    assert inverse_entry(EDGE_ZW, 1) == rf(-w) / det
    assert inverse_entry(EDGE_ZW, 1) == rf(w, 1 - z * w)
    assert inverse_entry(EDGE_ZW, 2) == rf(-z) / det
    assert inverse_entry(EDGE_ZW, 1, 2) == rf(-1) / det


def test_inverse_entry_six_vertex_value():
    # cross-checked numerically in test_inverse_entry_matches_numeric_lu
    num = -(w**2) * z**3 + 2 * w**2 * z + 3 * w * z**2 + 2 * w * z - w - z
    den = (
        w**2 * z**4
        - 3 * w**2 * z**2
        + w**2
        - 4 * w * z**3
        - 2 * w * z**2
        + 4 * w * z
        + 2 * w
        + 3 * z**2
        + 2 * z
    )
    assert inverse_entry(SIX_VERTEX, 1) == rf(num, den)


def test_inverse_entry_rejects_singular():
    sing = SymMatrix.from_rows([[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="singular colored matrix"):
        inverse_entry(sing, 1)
    # a z-rooted star with three zero-label leaves: nothing can be eliminated,
    # so all four indices are left, more than twice the one index kept
    star = SymMatrix.from_rows([[-z, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]])
    # keeping {1, 2} leaves the zero-label pair {3, 4} as well: four indices,
    # but rows 3 and 4 are equal, so the leftover determinant is zero
    pair = SymMatrix.from_rows([[-z, 0, 1, 1], [0, -w, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]])
    for m, i, j, size in ((star, 1, 1, 4), (pair, 1, 2, 4), (sing, 1, 2, 2)):
        assert len(linalg.eliminate(m, {i, j})[0]) == size
        with pytest.raises(ValueError, match="singular colored matrix"):
            inverse_entry(m, i, j)


def test_schur_block_diagonal_is_projection():
    m = SymMatrix.from_rows(
        [
            [-z, 1, 0, 0],
            [1, -w, 0, 0],
            [0, 0, -z, 1],
            [0, 0, 1, -w],
        ]
    )
    reduced = schur_reduce(m, [1, 2])
    assert reduced.rows == EDGE_ZW.rows


def test_schur_keep_all_is_identity():
    assert schur_reduce(EDGE_ZW, [1, 2]).rows == EDGE_ZW.rows


def test_schur_contact_matrix_walk_data():
    reduced = schur_reduce(CONTACT_FIVE, [1, 2])
    zz = rf(z * z - 1)
    diag_extra = rf(1, z) + rf(z) / zz
    off = rf(1, z) + rf(1) / zz
    assert reduced.entry(1, 1) == rf(-z) + diag_extra
    assert reduced.entry(2, 2) == rf(-w) + diag_extra
    assert reduced.entry(1, 2) == off
    assert reduced.entry(2, 1) == off


def test_schur_rejects_singular_block():
    m = SymMatrix.from_rows(
        [
            [-z, 1, 1],
            [1, 1, 1],
            [1, 1, 1],
        ]
    )
    with pytest.raises(ValueError, match="singular block"):
        schur_reduce(m, [1])


def test_schur_consistency_random():
    rng = random.Random(77)
    done = 0
    while done < 10:
        n = rng.randint(2, 6)
        m = _random_ratfun_matrix(rng, n)
        if determinant(m).is_zero:
            continue
        k = rng.randint(1, n)
        keep = sorted({k} | {v for v in range(1, n + 1) if rng.random() < 0.5})
        rest = [v for v in range(1, n + 1) if v not in keep]
        if rest:
            block = SymMatrix.from_rows(
                [[m.entry(i, j) for j in rest] for i in rest]
            )
            if determinant(block).is_zero:
                continue
        reduced = schur_reduce(m, keep)
        assert inverse_entry(m, k) == inverse_entry(reduced, keep.index(k) + 1)
        assert inverse_entry(m, k) == cofactor_inverse_entry(m.rows, k, k)
        done += 1


def test_inverse_entry_matches_numeric_lu():
    rng = random.Random(5)
    for m in (EDGE_ZW, SIX_VERTEX, CONTACT_FIVE):
        n = m.n
        sym = inverse_entry(m, 1)
        for _ in range(4):
            zz = complex(rng.uniform(-3, 3), rng.uniform(0.5, 3))
            ww = complex(rng.uniform(-3, 3), rng.uniform(0.5, 3))
            numeric = np.array(
                [
                    [
                        m.entry(i, j).num.evaluate(zz, ww)
                        / m.entry(i, j).den.evaluate(zz, ww)
                        for j in range(1, n + 1)
                    ]
                    for i in range(1, n + 1)
                ],
                dtype=complex,
            )
            e1 = np.zeros(n, dtype=complex)
            e1[0] = 1.0
            want = np.linalg.solve(numeric, e1)[0]
            got = sym.num.evaluate(zz, ww) / sym.den.evaluate(zz, ww)
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


# ----------------------------------------------------------------------
# the integer and the polynomial element type of the elimination


def _upper(m):
    """The upper triangle of B for a matrix without denominators."""
    n = m.n
    return {
        (i, j): m.entry(i, j).num for i in range(1, n + 1) for j in range(i, n + 1) if m.entry(i, j)
    }


def test_routing_between_integer_images_and_polynomials():
    dense = colored_adjacency(
        random_colored_graph(random.Random(3), 17, min_vertices=17, edge_prob=0.3, connected=True)
    )
    assert linalg._integer_image(_upper(dense)) is not None
    # sparse and of high degree: the box would be mostly zero digits
    path = SymMatrix.from_rows([[-(z**100000) - w, 1], [1, -(z**100000) - w]])
    assert linalg._integer_image(_upper(path)) is None
    # coefficients near 10^40 in every row: the digits would be too wide
    heavy = SymMatrix.from_rows([[-z + 10**40, 1], [1, -w - 10**40]])
    assert linalg._integer_image(_upper(heavy)) is None


def test_sparse_high_degree_input_stays_fast():
    color = general_color(parse_ratfun("z^100000 + w"))
    g = ColoredGraph.build([color] * 4, [(1, 2), (2, 3), (3, 4)])
    start = time.process_time()
    f = representing_function(g)
    assert time.process_time() - start < 1.0
    assert str(f) == (
        "(-z^300000 - 3*z^200000*w - 3*z^100000*w^2 + 2*z^100000 - w^3 + 2*w)/"
        "(z^400000 + 4*z^300000*w + 6*z^200000*w^2 - 3*z^200000 + 4*z^100000*w^3"
        " - 6*z^100000*w + w^4 - 3*w^2 + 1)"
    )


def _eliminated(m, keep):
    left, pivot, _, unpack = linalg.eliminate(m, keep)
    return unpack(pivot), {i: {j: unpack(e) for j, e in row.items()} for i, row in left.items()}


def test_integer_images_match_polynomials(monkeypatch):
    """Both element types eliminate alike, block pivots and lam included."""
    rng = random.Random(77)

    def poly():
        return Polynomial.from_terms(
            {
                (rng.randint(0, 2), rng.randint(0, 1), rng.randint(0, 1)): rng.choice((-1, 1))
                * rng.choice((1, 2, 3, 10**12))
                for _ in range(rng.randint(1, 3))
            }
        )

    blocks = 0
    for trial in range(100):
        n = rng.randint(2, 6)
        entries = {}
        for a in range(1, n + 1):
            if rng.random() < 0.3:
                entries[a, a] = RatFun(poly(), z + 1 if rng.random() < 0.1 else 1)
            for b in range(a + 1, n + 1):
                if rng.random() < 0.6:
                    entries[a, b] = RatFun(poly() if rng.random() < 0.3 else 1)
        m = SymMatrix(n, entries)
        keep = {v for v in range(1, n + 1) if rng.random() < 0.25}
        results = []
        for limit in (0, 10**9):
            monkeypatch.setattr(linalg, "_DIGITS_PER_TERM", limit)
            monkeypatch.setattr(linalg, "_MAX_SLOT", limit)
            results.append(_eliminated(m, keep))
        assert results[0] == results[1], trial
        # every eliminable diagonal entry zero, two of them adjacent: the
        # first step is a block pivot
        free = [a for a in range(1, n + 1) if a not in keep]
        blocks += all((a, a) not in entries for a in free) and any(
            (a, b) in entries for a in free for b in free if a != b
        )
    assert blocks > 15


def _slot(unpack) -> int:
    """The digit width of an integer image.

    A digit is balanced, so 2^k reads back as itself exactly while k is
    below slot - 1.
    """
    k = 0
    while unpack(1 << k) == Polynomial.from_terms({(0, 0, 0): 1 << k}):
        k += 1
    return k + 1


def test_slot_holds_a_determinant_at_hadamards_bound():
    # Sylvester's Hadamard matrix of order 16: symmetric, entries +-1, and
    # rows orthogonal, so its determinant 2^32 reaches Hadamard's bound
    # 16^(16/2) exactly
    h = [[1]]
    for _ in range(4):
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    assert Matrix(h).det() == 2**32
    m = SymMatrix.from_rows(h)
    left, pivot, _, unpack = linalg.eliminate(m, ())
    assert not left and isinstance(pivot, int)
    assert unpack(pivot) == Polynomial.from_terms({(0, 0, 0): 2**32})
    assert determinant(m) == RatFun(2**32)
    # a slot one byte narrower reads the determinant back wrong
    slot = _slot(unpack)
    assert slot == 40
    assert Polynomial.from_kronecker(pivot, slot - 8, 0, 0) != unpack(pivot)


_COEFFICIENTS = st.sampled_from((1, 2, 3, 10**12)).flatmap(lambda c: st.sampled_from((c, -c)))
_POLYS = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 1)),
    _COEFFICIENTS,
    min_size=1,
    max_size=3,
).map(Polynomial.from_terms)


@st.composite
def _matrices(draw):
    """Matrices like those of ``test_integer_images_match_polynomials``."""
    n = draw(st.integers(2, 6))
    entries = {}
    for a in range(1, n + 1):
        if draw(st.booleans()):
            entries[a, a] = RatFun(draw(_POLYS), z + 1 if draw(st.booleans()) else 1)
        for b in range(a + 1, n + 1):
            if draw(st.booleans()):
                entries[a, b] = RatFun(draw(_POLYS) if draw(st.booleans()) else 1)
    return SymMatrix(n, entries)


class _Captured(Exception):
    pass


def _capture(b):
    raise _Captured(b)


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_slot_is_never_wider_than_the_product_of_row_norms(m):
    """Hadamard's bound never widens the slot of the 1-norm product bound."""
    # B as the elimination scales it from m
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_integer_image", _capture)
        with pytest.raises(_Captured) as caught:
            linalg.eliminate(m, ())
    (b,) = caught.value.args
    if not b:  # the zero matrix: no terms, so no image
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_DIGITS_PER_TERM", 10**9)
        patch.setattr(linalg, "_MAX_SLOT", 10**9)
        slot = _slot(linalg._integer_image(b)[1])
    norms = {}
    for (i, j), p in b.items():
        for r in {i, j}:
            norms[r] = norms.get(r, 0) + p.one_norm()
    bound = 4 * math.prod(max(1, norm) for norm in norms.values())
    assert slot <= -(-(bound.bit_length() + 2) // 8) * 8


@pytest.mark.parametrize("n", [200, 250])
def test_long_paths_take_the_integer_route(n, monkeypatch):
    g = ColoredGraph.build(["z"] * n, [(v, v + 1) for v in range(1, n)])
    assert linalg._integer_image(_upper(colored_adjacency(g))) is not None
    f = representing_function(g)
    monkeypatch.setattr(linalg, "_MAX_SLOT", 0)
    assert representing_function(g) == f
