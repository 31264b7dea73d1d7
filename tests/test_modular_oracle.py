"""Exact checks of the matrix operations at random points modulo a prime.

Every symbolic result is evaluated at random points mod 2^61 - 1 and
compared with the modular oracles of ``oracles.py``, which solve the
colored matrix at the same point without any ``graphpick.linalg`` code.
"""

import random
import signal
import time

import pytest

from graphpick import linalg
from graphpick.gen import random_colored_graph, random_retract_instance
from graphpick.graphs import (
    W_COLOR,
    Z_COLOR,
    ColoredGraph,
    colored_adjacency,
    comb_product_z,
    _renumber,
    general_color,
    retract,
    star_product,
)
from graphpick.linalg import determinant, inverse_entry, schur_reduce
from graphpick.nevanlinna import representing_function
from graphpick.ratfun import LAM, RatFun, W, Z, parse_ratfun
from oracles import (
    PRIME,
    Unlucky,
    at_random_points,
    determinant_mod,
    graph_matrix_mod,
    inverse_entry_mod,
    ratfun_mod,
)


def _path(rng, n):
    colors = [rng.choice("zw") for _ in range(n)]
    return ColoredGraph.build(colors, [(v, v + 1) for v in range(1, n)], rng.randint(1, n))


def _tree(rng, n):
    return random_colored_graph(rng, n, min_vertices=n, edge_prob=0.0, connected=True)


def _comb(rng, n):
    spine = ColoredGraph.build(["z"] * n, [(v, v + 1) for v in range(1, n)])
    tooth = ColoredGraph.build(["z", "w", "z"], [(1, 2), (2, 3)])
    return comb_product_z(spine, tooth)


def _sparse(rng, n):
    return random_colored_graph(rng, n, min_vertices=n, edge_prob=0.06, connected=True)


def _retracted(rng, _n):
    while True:
        g, cut, pendant = random_retract_instance(rng, max_base=8, max_pendant=4)
        reduced = retract(g, cut, pendant)
        if reduced.n > 2:
            return reduced


def _zero_label(rng, n):
    base = random_colored_graph(rng, n, min_vertices=n, edge_prob=0.5, connected=True)
    zero = general_color(RatFun(0))
    return ColoredGraph((Z_COLOR,) + (zero,) * (n - 1), base.edges, 1)


def _dense(rng, n):
    return random_colored_graph(rng, n, min_vertices=n, edge_prob=0.3, connected=True)


def _heavy_weights(rng, n, rational):
    """Zero labels next to weights with coefficients near 10^40, some with lam.

    Zero and constant labels leave every eliminable diagonal entry zero at
    some step, so the elimination has to pivot on a 2x2 block.  ``rational``
    adds the weight (lam - c)/(z + c), whose denominators scale the rows.
    """
    base = random_colored_graph(rng, n, min_vertices=n, edge_prob=0.5, connected=True)

    def weight():
        big = rng.choice((-1, 1)) * rng.randint(10**39, 10**41)
        choices = [RatFun(0), RatFun(0), RatFun(big), big * LAM + 1, Z * W - big, LAM - big * W]
        if rational:
            choices.append((LAM - big) / (Z + big))
        return rng.choice(choices)

    colors = (Z_COLOR,) + tuple(general_color(weight()) for _ in range(n - 1))
    return ColoredGraph(colors, base.edges, 1)


FAMILIES = [
    (_path, (12, 40)),
    (_tree, (12, 28)),
    (_comb, (4, 10)),
    (_sparse, (14, 16, 18, 20)),
    (_dense, (22, 25, 28)),
    (_retracted, (0,) * 6),
    (_zero_label, (4, 5, 6, 7)),
]

ALL_PAIRS_MAX_N = 7


def _agrees(rng, f, oracle):
    """``f`` equals ``oracle(point)`` at random points mod p."""

    def check(point):
        assert ratfun_mod(f, point) == oracle(point)

    at_random_points(rng, check)


def _check_graph(rng, g):
    n = g.n
    m = colored_adjacency(g)
    det = determinant(m)
    _agrees(rng, det, lambda p: determinant_mod(graph_matrix_mod(g, p)))
    if det.is_zero:
        with pytest.raises(ValueError, match="singular colored matrix"):
            inverse_entry(m, g.root)
        return

    def inverse_oracle(i, j):
        return lambda p: inverse_entry_mod(graph_matrix_mod(g, p), i, j)

    _agrees(rng, representing_function(g), inverse_oracle(g.root, g.root))
    # every pair on small graphs, where zero labels can leave zero-label
    # indices next to {i, j} in the block the elimination leaves
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for i, j in pairs if n <= ALL_PAIRS_MAX_N else [rng.sample(range(1, n + 1), 2)]:
        _agrees(rng, inverse_entry(m, i, j), inverse_oracle(i, j))
    keep = sorted({g.root, rng.randint(1, n)})
    rest = [v for v in range(1, n + 1) if v not in keep]
    try:
        reduced = schur_reduce(m, keep)
    except ValueError as exc:
        assert "singular block" in str(exc)

        def block_det(p):
            a = graph_matrix_mod(g, p)
            return determinant_mod([[a[r - 1][c - 1] for c in rest] for r in rest])

        _agrees(rng, RatFun(0), block_det)
        return
    # the inverse of a Schur complement is the kept block of the inverse
    a, b = rng.randint(1, len(keep)), rng.randint(1, len(keep))

    def schur_entry(p):
        mat = graph_matrix_mod(g, p)
        block = [[inverse_entry_mod(mat, r, c) for c in keep] for r in keep]
        return inverse_entry_mod(block, a, b)

    _agrees(rng, reduced.entry(a, b), schur_entry)
    _agrees(rng, inverse_entry(reduced, a, b), inverse_oracle(keep[a - 1], keep[b - 1]))


@pytest.mark.parametrize(
    "family, sizes", FAMILIES, ids=[family.__name__.strip("_") for family, _ in FAMILIES]
)
def test_matrix_operations_match_modular_oracle(family, sizes):
    rng = random.Random(f"modular-{family.__name__}")
    for n in sizes:
        _check_graph(rng, family(rng, n))


@pytest.mark.parametrize("route", ["routed", "integer"])
def test_heavy_weights_match_modular_oracle(route, monkeypatch):
    # Weights this large take the polynomial route unless it is overridden.
    # Forced onto integers, rows scaled by the rational weights' denominators
    # need slots of up to about 2000 bits, where CPython's quadratic division
    # takes seconds per graph from n = 10 on.  So that run draws polynomial
    # weights at every n, then rational ones up to n = 8, whose results the
    # image rule reduces before it multiplies the scales back.
    integer = route == "integer"
    if integer:
        monkeypatch.setattr(linalg, "_DIGITS_PER_TERM", 10**9)
        monkeypatch.setattr(linalg, "_MAX_SLOT", 10**9)
    rng = random.Random("modular-heavy-weights")
    cases = [(n, not integer) for n in (4, 5, 6, 8, 10, 12)]
    if integer:
        cases += [(n, True) for n in (4, 5, 6, 8)]
    scaled = 0
    for n, rational in cases:
        g = _heavy_weights(rng, n, rational)
        for k in (None, 1, rng.randint(2, n)):
            order = [v for v in range(1, n + 1) if v != k]
            sub = _renumber(g, order, order[0])
            m = colored_adjacency(sub)
            if integer:
                assert isinstance(linalg.eliminate(m, ())[1], int)
                scaled += any(e.den != 1 for row in m.rows for e in row)
            det = determinant(m)
            _agrees(rng, det, lambda p, sub=sub: determinant_mod(graph_matrix_mod(sub, p)))
            if not det.is_zero:
                f = representing_function(sub)
                _agrees(rng, f, lambda p, sub=sub: _root_value(sub, p))
    if integer:
        assert scaled >= 6


def test_tree_reduction_stays_fast():
    """The final gcd of this 40-vertex z/w tree is the monomial z^5*w."""
    rng = random.Random(5)
    g = _tree(rng, 40)
    start = time.process_time()
    f = representing_function(g)
    assert time.process_time() - start < 1.0
    _agrees(rng, f, lambda p: _root_value(g, p))


def test_sparse_labels_match_modular_oracle():
    """Labels with degree gaps near 1000 send final gcds to ``_gcd_rec``.

    On entry (2, 2), a pseudo-remainder padded to lc^(deg gap + 1) exceeds
    the exponent cap.
    """
    labels = [general_color(parse_ratfun(s)) for s in ("0", "w^666 - 1", "z^1000 + w")]
    g = ColoredGraph.build([Z_COLOR, *labels], [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    m = colored_adjacency(g)
    rng = random.Random(61)
    start = time.process_time()
    entries = {(i, j): inverse_entry(m, i, j) for i in range(1, 5) for j in range(i, 5)}
    assert time.process_time() - start < 5.0
    for (i, j), f in entries.items():
        _agrees(rng, f, lambda p, i=i, j=j: inverse_entry_mod(graph_matrix_mod(g, p), i, j))


def test_linear_divisor_ends_the_fallback_gcd():
    """A content's remainder sequence in w ends at a linear divisor.

    On entry (2, 2) it would otherwise pseudo-divide a two-term polynomial
    of degree 1000 by that divisor, 1000 steps on large coefficients.
    """
    labels = [general_color(parse_ratfun(s)) for s in ("w^1000 + z", "z^500*w + 1")]
    g = ColoredGraph.build([labels[0], W_COLOR, labels[1]], [(1, 2), (1, 3), (2, 3)])
    m = colored_adjacency(g)
    rng = random.Random(67)
    start = time.process_time()
    entries = {(i, j): inverse_entry(m, i, j) for i in range(1, 4) for j in range(i, 4)}
    assert time.process_time() - start < 6.0
    for (i, j), f in entries.items():
        _agrees(rng, f, lambda p, i=i, j=j: inverse_entry_mod(graph_matrix_mod(g, p), i, j))


class OverBudget(Exception):
    """A test's process-time bound ran out."""


def _raise_over_budget(signum, frame):
    raise OverBudget


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs signal.setitimer")
@pytest.mark.xfail(
    strict=True,
    raises=OverBudget,
    reason="the final gcd of entry (3, 3) stalls in _gcd_rec's remainder sequence",
)
def test_sparse_label_gcd_stall():
    """Every inverse entry of a 5-vertex sparse-label graph within 2 s of process time.

    The nine entries with i <= 2 take milliseconds each, and each of the
    other six runs past 2 s alone.  On entry (3, 3), ``_gcd_rec``
    pseudo-divides a z-degree-100 dividend by a divisor whose lead has
    w-degree near 2000, and ``_gcd_heu`` then takes the content of a
    31,400-term remainder.
    """
    labels = [general_color(parse_ratfun(s)) for s in ("w^1000 + z", "z^100 + w")]
    g = ColoredGraph.build(
        [*labels, W_COLOR, W_COLOR, W_COLOR],
        [(1, 3), (1, 5), (2, 3), (2, 4), (2, 5), (3, 5), (4, 5)],
    )
    m = colored_adjacency(g)
    previous = signal.signal(signal.SIGPROF, _raise_over_budget)
    signal.setitimer(signal.ITIMER_PROF, 2.0)
    try:
        entries = {(i, j): inverse_entry(m, i, j) for i in range(1, 6) for j in range(i, 6)}
    except OverBudget:
        # Raised afresh here: the handler's exception can carry a traceback
        # entry without a line number, which pytest fails to print.
        raise OverBudget from None
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
    rng = random.Random(71)
    for (i, j), f in entries.items():
        _agrees(rng, f, lambda p, i=i, j=j: inverse_entry_mod(graph_matrix_mod(g, p), i, j))


def test_retract_keeps_the_root_value_mod_p():
    rng = random.Random(31)
    for _ in range(6):
        g, cut, pendant = random_retract_instance(rng, max_base=8, max_pendant=4)
        reduced = retract(g, cut, pendant)
        # the cut's general color scales a row, and the image rule reduces f
        m = colored_adjacency(reduced)
        assert any(e.den != 1 for row in m.rows for e in row)
        assert isinstance(linalg.eliminate(m, ())[1], int)
        f = representing_function(reduced)
        _agrees(rng, f, lambda p: inverse_entry_mod(graph_matrix_mod(g, p), g.root, g.root))


# ----------------------------------------------------------------------
# the product identities, on graphs far beyond the cofactor oracles


def _inverse(x):
    if not x % PRIME:
        raise Unlucky
    return pow(x, -1, PRIME)


def _root_value(g, point):
    return inverse_entry_mod(graph_matrix_mod(g, point), g.root, g.root)


def test_star_identity_mod_p():
    """1/f of a star product is 1/f_g + 1/f_h plus the shared root's label."""
    rng = random.Random(47)
    for ng, nh in ((10, 10), (12, 11), (14, 13)):
        g = _dense(rng, ng)
        h = _dense(rng, nh)
        shared = g.color(g.root)
        colors = list(h.colors)
        colors[h.root - 1] = shared
        h = ColoredGraph(tuple(colors), h.edges, h.root)
        product = star_product(g, h)
        assert product.n == ng + nh - 1
        label = 0 if shared == Z_COLOR else 1

        def star(point, g=g, h=h, label=label):
            total = _inverse(_root_value(g, point)) + _inverse(_root_value(h, point))
            return _inverse(total + point[label])

        _agrees(rng, representing_function(product), star)


def test_comb_identity_mod_p():
    """A z-comb composes in the z slot: f(z, w) = f_g(-1/f_h(z, w), w)."""
    rng = random.Random(53)
    for ng, nh in ((10, 3), (12, 3), (10, 4)):
        g = _dense(rng, ng)
        h = _dense(rng, nh)
        colors = list(h.colors)
        colors[h.root - 1] = Z_COLOR
        h = ColoredGraph(tuple(colors), h.edges, h.root)
        product = comb_product_z(g, h)

        def comb(point, g=g, h=h):
            z = -_inverse(_root_value(h, point)) % PRIME
            return _root_value(g, (z,) + point[1:])

        _agrees(rng, representing_function(product), comb)
