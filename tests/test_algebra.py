"""Exact-arithmetic core: polynomials, Sturm counts, root isolation,
shifts, rational functions, and the resolvent identities."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perronbalance import algebra
from perronbalance.algebra import (
    DESCARTES_DEPTH,
    GCD_EVALUATIONS,
    IntPoly,
    NoRealRootError,
    RationalFunction,
    RationalInterval,
    RootEnclosure,
    SqrtRat,
    _shifted,
    _sturm_chain,
    count_roots_above,
    count_roots_in,
    horner_interval,
    isolate_largest_root,
    poly_gcd,
    poly_to_text,
    ray_verdict,
    refine_root,
    root_bound,
    root_count_info,
    squarefree_part,
    sturm_count,
    substitute_t,
)
from perronbalance.bounds import digit_sign_bits, packed_nonneg, scaled_eval
from perronbalance.graphs import (
    Graph,
    attach_path,
    complete_graph,
    enumerate_connected_graphs,
)
from perronbalance.spectral import resolvent_data
from perronbalance.tails import _rf_nonneg_on_closed

from oracles import (
    adjacency_rows,
    bareiss_det,
    charpoly_by_interpolation,
    horner_interval_four,
    isolate_largest_root_fractions,
    prs_gcd,
    refine_root_fractions,
    resolvent_identity_holds,
)

K3P3 = attach_path(complete_graph(3), 0, 3)


def rand_graph(rng, n):
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        g = Graph.from_edges(n, edges)
        if g.is_connected():
            return g


# -- characteristic polynomial and adjugate -----------------------------------

def test_char_poly_worked_example():
    rd = resolvent_data(K3P3)
    assert rd.char_poly == IntPoly([-1, 4, 8, -2, -6, 0, 1])


def test_char_poly_clique_with_pendant():
    g = attach_path(complete_graph(4), 0, 1)
    rd = resolvent_data(g)
    expect = IntPoly([1, 1]) ** 2 * IntPoly([2, -4, -2, 1])
    assert rd.char_poly == expect


def test_char_and_adjugate_trivial():
    rd = resolvent_data(Graph(1, (0,)))
    assert rd.char_poly == IntPoly([0, 1])
    assert rd.adjugate[0][0] == IntPoly([1])
    assert resolvent_identity_holds(rd, [[0]])


def test_resolvent_identity_random_graphs():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 10)
        g = rand_graph(rng, n)
        rd = resolvent_data(g)
        rows = adjacency_rows(g)
        assert resolvent_identity_holds(rd, rows)
        # symmetric adjugate
        for i in range(n):
            for j in range(i):
                assert rd.adjugate[i][j] == rd.adjugate[j][i]


def test_two_charpoly_algorithms_agree():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 8)
        g = rand_graph(rng, n)
        rows = adjacency_rows(g)
        assert charpoly_by_interpolation(rows) == resolvent_data(g).char_poly
        c = rng.randint(-3, 6)
        m = [[(c if i == j else 0) - rows[i][j] for j in range(n)]
             for i in range(n)]
        assert bareiss_det(m) == resolvent_data(g).char_poly.eval(c)


# -- Taylor shift --------------------------------------------------------------

def fraction_taylor_shift(coeffs, a):
    """Reference p(x + a) over the rationals, ascending coefficients."""
    c = [Fraction(x) for x in coeffs]
    for j in range(len(c) - 1):
        for i in range(len(c) - 2, j - 1, -1):
            c[i] += a * c[i + 1]
    while c and c[-1] == 0:
        c.pop()
    return c


def test_taylor_shift_examples():
    assert IntPoly([0, 0, 1]).shift_int(1).coeffs == (1, 2, 1)
    assert IntPoly([-3, 1]).shift_int(3).coeffs == (0, 1)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=9),
       st.integers(-10, 10))
def test_taylor_shift_roundtrip(coeffs, a):
    p = IntPoly(coeffs)
    assert p.shift_int(a).shift_int(-a) == p


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=7),
       st.integers(-5, 5),
       st.fractions(min_value=-5, max_value=5))
def test_taylor_shift_evaluation(coeffs, a, x):
    p = IntPoly(coeffs)
    assert p.shift_int(a).eval(x) == p.eval(x + a)


def test_scaled_integer_shift_sign_pattern():
    rng = random.Random(3)
    for _ in range(60):
        p = IntPoly([rng.randint(-40, 40) for _ in range(rng.randint(1, 9))])
        if p.is_zero():
            continue
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 32))
        # the point a as u/v, reduced or not
        k = rng.choice([1, 1, 2, 6])
        scaled = _shifted(p.coeffs, a.numerator * k, a.denominator * k)
        true = fraction_taylor_shift(p.coeffs, a)
        signs = [(c > 0) - (c < 0) for c in true]
        got = [(c > 0) - (c < 0) for c in scaled]
        assert got[:len(signs)] == signs


@st.composite
def _shift_sign_cases(draw):
    """(p, a, t, D): an integer p of degree <= D <= 28 and the point a/2^t,
    t = 0 for an integer point.  Most cases are built from a chosen sign
    pattern of the shifted coefficients: all nonnegative, only the leading
    one negative, or one or two others negative."""
    t = draw(st.integers(0, 8))
    b = 1 << t
    a = draw(st.integers(-6 * b, 6 * b))
    d = draw(st.integers(0, 28))
    pattern = draw(st.sampled_from(("random", "nonneg", "leading", "lower")))
    if pattern == "random":
        coeffs = draw(st.lists(st.integers(-10 ** 9, 10 ** 9),
                               min_size=d + 1, max_size=d + 1))
    else:
        g = draw(st.lists(st.integers(1, 10 ** 6), min_size=d + 1, max_size=d + 1))
        if pattern == "leading":
            g[d] = -g[d]
        elif pattern == "lower":
            for i in draw(st.lists(st.integers(0, d), min_size=1, max_size=2)):
                g[i] = -g[i]
        # b^d p(x) = sum g_k b^(d-k) (b x - a)^k, so p(a/b + y) = sum g_k y^k
        p = IntPoly()
        for k, gk in enumerate(g):
            p = p + IntPoly([-a, b]) ** k * (gk * b ** (d - k))
        coeffs = list(p.coeffs)
    extra = draw(st.integers(0, 28 - d)) if draw(st.booleans()) else 0
    return IntPoly(coeffs), a, t, d + extra


@settings(max_examples=200, deadline=None)
@given(_shift_sign_cases())
def test_packed_shift_sign_matches_coefficients(case):
    p, a, t, d = case
    x = Fraction(a, 2 ** t)
    k = scaled_eval([abs(c) for c in p.coeffs], 1 + abs(a), t, d).bit_length() + 1
    big_x = (1 << k) + a
    packed = scaled_eval(p.coeffs, big_x, t, d)
    shifted = fraction_taylor_shift(p.coeffs, x)
    want = all(c >= 0 for c in shifted)
    assert packed_nonneg(packed, digit_sign_bits(k, d)) == want
    # the digits are the shifted coefficients times 2^(t(D-j)), all within K
    digits = [c * 2 ** (t * (d - j)) for j, c in enumerate(shifted)]
    assert all(s.denominator == 1 and abs(s) < 2 ** (k - 1) for s in digits)
    assert packed == sum(int(s) << k * j for j, s in enumerate(digits))


# -- gcd and exact division ------------------------------------------------------

@st.composite
def _int_polys(draw, bits):
    """A polynomial of degree 0..5 (or zero) with coefficients of at most
    `bits` bits and a leading coefficient of either sign."""
    degree = draw(st.integers(-1, 5))
    if degree < 0:
        return IntPoly()
    low = draw(st.lists(st.integers(-2 ** bits, 2 ** bits),
                        min_size=degree, max_size=degree))
    return IntPoly(low + [draw(st.integers(1, 2 ** bits))
                          * draw(st.sampled_from((1, -1)))])


@st.composite
def _gcd_cases(draw):
    """f = c1 g p and h = c2 g q: a shared factor g of degree 0..4, the
    cofactors p, q of degree 0..5 or zero, contents c1, c2 of either sign,
    coefficients of 3, 60 or about 1,000 bits (the tail certificates reduce
    degree-20 fractions with ~1,050-bit coefficients)."""
    bits = draw(st.sampled_from((3, 60, 1000)))
    g = draw(_int_polys(bits).filter(lambda q: q.degree <= 4 and q))
    f, h = (draw(_int_polys(bits)) * g * draw(st.integers(-50, 50).filter(bool))
            for _ in range(2))
    return f, h


@settings(max_examples=200, deadline=None)
@given(_gcd_cases())
@example((IntPoly(), IntPoly()))
@example((IntPoly(), IntPoly([-6, 0, -4])))
@example((IntPoly([-7]), IntPoly([3, 1])))
def test_poly_gcd_matches_pseudo_remainder_sequence(case):
    f, h = case
    g = poly_gcd(f, h)
    assert g == prs_gcd(f, h)
    if g:
        assert g.leading > 0 and g.content() == 1
        f.divexact(g), h.divexact(g)


def test_poly_gcd_falls_back_when_every_evaluation_misleads(monkeypatch):
    """a = x - 5, b = x - c with c - 5 a multiple of every xi - 5 poly_gcd
    tries: gcd(a(xi), b(xi)) = xi - 5 > xi/2 gives back G = a, which does
    not divide b, so each evaluation is rejected and the pseudo-remainder
    sequence finds gcd 1."""
    xis = [2 * 5 + 29]
    while len(xis) < GCD_EVALUATIONS:
        xis.append(xis[-1] * 73794 // 27011)
    c = 5 + math.lcm(*(xi - 5 for xi in xis))
    calls = []
    prs = algebra._prs_gcd
    monkeypatch.setattr(algebra, "_prs_gcd", lambda a, b: calls.append(1) or prs(a, b))
    a, b = IntPoly([-5, 1]), IntPoly([-c, 1])
    assert poly_gcd(a, b) == prs_gcd(a, b) == IntPoly([1])
    assert calls == [1]
    assert poly_gcd(a * b, a * a) == a and calls == [1]


def test_divexact():
    x2m1 = IntPoly([-1, 0, 1])
    assert x2m1.divexact(IntPoly([-1, 1])) == IntPoly([1, 1])
    assert IntPoly([4, -6, 2]).divexact(IntPoly([-2])) == IntPoly([-2, 3, -1])
    assert IntPoly().divexact(IntPoly([3, 1])) == IntPoly()
    for num, den in ((IntPoly([1, 0, 1]), IntPoly([1, 1])),   # remainder 2
                     (IntPoly([1, 2]), IntPoly([2])),          # 1/2 not integral
                     (IntPoly([1, 0, 3]), IntPoly([0, 2])),    # 3/2 x
                     (IntPoly([1, 1]), x2m1)):                 # degree too low
        with pytest.raises(ValueError):
            num.divexact(den)
    with pytest.raises(ZeroDivisionError):
        x2m1.divexact(IntPoly())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(-30, 30, max_denominator=12), min_size=1,
                max_size=7, unique=True),
       st.integers(0, 7), st.integers(-9, 9).filter(bool))
def test_squarefree_part_of_p_times_q_squared(roots, split, c):
    # p and q have distinct rational roots, so p q is squarefree
    factors = [IntPoly([-r.numerator, r.denominator]) for r in roots]
    p = math.prod(factors[:split], start=IntPoly([c]))
    q = math.prod(factors[split:], start=IntPoly([1]))
    assert squarefree_part(p * q * q) == (p * q).primitive()


# -- Sturm counting -------------------------------------------------------------

def _sturm_above(p, a):
    """Reference count of the distinct real roots of p in (a, infinity): the
    Sturm chain on (a, M], every real root lying in (-M, M)."""
    M = root_bound(p)
    return sturm_count(p, RationalInterval(a, M)) if a < M else 0


def test_sturm_count_examples():
    p = IntPoly([-2, 0, 1])
    assert sturm_count(p, RationalInterval(1, 2)) == 1
    assert sturm_count(p, RationalInterval(2, 3)) == 0
    k3p3 = resolvent_data(K3P3).char_poly
    assert sturm_count(k3p3, RationalInterval(Fraction(22, 10), Fraction(23, 10))) == 1


def test_sturm_negative_leading_regression():
    # chain members must only be rescaled by positive constants; this
    # root-free palindromic polynomial once miscounted
    p = IntPoly([2, -8, 5, -4, 17, 4, 52, 4, 17, -4, 5, -8, 2])
    assert _sturm_above(p, Fraction(1)) == _sturm_above(p, Fraction(2)) + \
        sturm_count(p, RationalInterval(1, 2))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=2, max_size=8),
       st.fractions(min_value=-8, max_value=0),
       st.fractions(min_value=0, max_value=4),
       st.fractions(min_value=4, max_value=9))
def test_sturm_partition_additivity(coeffs, a, b, c):
    p = IntPoly(coeffs)
    if p.is_zero() or not (a < b < c):
        return
    whole = sturm_count(p, RationalInterval(a, c))
    parts = sturm_count(p, RationalInterval(a, b)) + \
        sturm_count(p, RationalInterval(b, c))
    assert whole == parts


def test_sturm_against_known_factorizations():
    rng = random.Random(19)
    for _ in range(60):
        roots = sorted(rng.randint(-6, 6) for _ in range(rng.randint(1, 5)))
        p = IntPoly([1])
        for r in roots:
            p = p * IntPoly([-r, 1])
        a = Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3]))
        b = a + Fraction(rng.randint(1, 10), 2)
        want = len({r for r in roots if a < r <= b})
        assert sturm_count(p, RationalInterval(a, b)) == want


@st.composite
def _interval_root_cases(draw):
    """(p, lo, hi, roots): p the product of scale, (den x - num)^m over
    chosen rational roots of multiplicity m <= 2, and nonreal pairs
    (d x - e)^2 + t; roots holds the real roots.  lo is nonzero with
    denominator 3, 5, 7 or 12 (or an integer), the width need not be
    dyadic, and the interval may be a point.  The roots are lo, hi,
    dyadic midpoints lo + w j/2^k, points inside, and points anywhere."""
    lo = Fraction(draw(st.integers(-20, 20).filter(bool)),
                  draw(st.sampled_from([1, 3, 5, 7, 12])))
    w = draw(st.one_of(st.just(Fraction(0)),
                       st.fractions(min_value=Fraction(1, 11), max_value=6,
                                    max_denominator=11)))
    hi = lo + w
    spots = st.one_of(
        st.just(lo), st.just(hi),
        st.tuples(st.integers(1, 4), st.integers(0, 7)).map(
            lambda kj: lo + w * Fraction(2 * kj[1] % 2 ** kj[0] + 1, 2 ** kj[0])),
        st.fractions(min_value=0, max_value=1, max_denominator=13).map(
            lambda f: lo + w * f),
        st.fractions(min_value=-25, max_value=25, max_denominator=9))
    chosen = draw(st.lists(st.tuples(spots, st.integers(1, 2)), max_size=6))
    p = IntPoly([draw(st.sampled_from([1, -1, 3]))])
    for r, m in chosen:
        p = p * IntPoly([-r.numerator, r.denominator]) ** m
    for d, e, t in draw(st.lists(st.tuples(st.integers(1, 60), st.integers(-150, 150),
                                           st.integers(1, 4)), max_size=2)):
        p = p * IntPoly([e * e + t, -2 * d * e, d * d])
    return p, lo, hi, {r for r, _ in chosen}


def _descartes_case(roots, lo, hi):
    p = IntPoly([1])
    for r in roots:
        p = p * IntPoly([-r.numerator, r.denominator])
    return p, lo, hi, set(roots)


@settings(max_examples=300, deadline=None)
@given(_interval_root_cases())
@example(_descartes_case([Fraction(2, 3), Fraction(5, 6)], Fraction(1, 3), Fraction(4, 3)))
@example(_descartes_case([Fraction(1, 3), Fraction(1, 2)], Fraction(1, 3), Fraction(4, 3)))
@example(_descartes_case([Fraction(-1, 5), Fraction(4, 15), Fraction(2, 5)],
                         Fraction(-1, 5), Fraction(2, 5)))
@example(_descartes_case([Fraction(3, 7)], Fraction(3, 7), Fraction(3, 7)))
def test_count_roots_in_matches_sturm(case):
    p, lo, hi, roots = case
    iv = RationalInterval(lo, hi)
    want = len({r for r in roots if lo < r <= hi})
    assert sturm_count(p, iv) == want
    assert count_roots_in(p, iv) == want


def test_count_roots_in_falls_back_on_a_double_root():
    # (3x - 1)^2 (x - 2): the double root 1/3 keeps two sign variations on
    # every subinterval around it, so the count goes to sturm_count once
    p = IntPoly([-1, 3]) ** 2 * IntPoly([-2, 1])
    before = root_count_info()
    assert count_roots_in(p, RationalInterval(Fraction(1, 5), 3)) == 2
    after = root_count_info()
    assert after["sturm"] - before["sturm"] == 1
    assert after["descartes"] - before["descartes"] == 1
    assert after["nodes"] - before["nodes"] > DESCARTES_DEPTH


@settings(max_examples=150, deadline=None)
@given(_interval_root_cases())
@example(_descartes_case([Fraction(1)], Fraction(3), Fraction(3)))
def test_count_roots_above_matches_sturm(case):
    # a ranges below, among and above the roots, up to past root_bound(p)
    p, a, _, roots = case
    want = len({r for r in roots if r > a})
    assert _sturm_above(p, a) == want
    assert count_roots_above(p, a) == want


# -- root isolation ---------------------------------------------------------------

def test_isolate_largest_examples():
    iv = isolate_largest_root(IntPoly([-2, 0, 1]), Fraction(1, 10 ** 9))
    assert iv.width <= Fraction(1, 10 ** 9)
    assert abs(iv.mid_float() - 2 ** 0.5) < 1e-8
    k3p3 = resolvent_data(K3P3).char_poly
    iv = isolate_largest_root(k3p3, Fraction(1, 10 ** 8))
    assert abs(iv.mid_float() - 2.2283) < 1e-4
    k3p4 = resolvent_data(attach_path(complete_graph(3), 0, 4)).char_poly
    iv4 = isolate_largest_root(k3p4, Fraction(1, 10 ** 8))
    assert abs(iv4.mid_float() - 2.2332) < 1e-4


def test_isolate_largest_is_isolating():
    rng = random.Random(23)
    for _ in range(60):
        p = IntPoly([rng.randint(-20, 20) for _ in range(rng.randint(2, 9))])
        if p.degree < 1:
            continue
        try:
            iv = isolate_largest_root(p, Fraction(1, 2 ** 30))
        except NoRealRootError:
            assert _sturm_above(p, -root_bound(p)) == 0
            continue
        if iv.width == 0:
            assert p.sign_at(iv.lo) == 0
        else:
            assert sturm_count(p, iv) == 1
        assert _sturm_above(p, iv.hi) == 0


def test_isolate_no_real_roots():
    with pytest.raises(NoRealRootError):
        isolate_largest_root(IntPoly([1, 0, 1]))


def test_root_enclosure_narrows_in_place_and_never_widens():
    p = resolvent_data(K3P3).char_poly
    first = isolate_largest_root(p, Fraction(1, 2 ** 20))
    enc = RootEnclosure(p, first)
    steps = [Fraction(1, 2 ** k) for k in (24, 31, 31, 40, 52)]
    for eps in steps:
        got = enc.refine(eps)
        assert got is enc.iv and got.width <= eps
        # continuing the bisection equals refining the first interval at once
        assert got == refine_root(p, first, eps)
        assert count_roots_in(p, got) == 1
    narrow = enc.iv
    assert enc.refine(Fraction(1, 2 ** 10)) is narrow
    assert enc.iv is narrow
    # a rational root hit by bisection stays a point
    sq = RootEnclosure(IntPoly([-1, 0, 1]), RationalInterval(0, 2))
    assert sq.refine(Fraction(1, 2 ** 30)) == RationalInterval(1, 1)
    assert sq.refine(Fraction(1, 2 ** 60)) == RationalInterval(1, 1)


def _canonical_cell(p, eps):
    """Reference isolation by Sturm counts alone (_sturm_above for the roots
    above a point): with w the largest power of two <= eps, the cell
    (m*w, (m+1)*w] holding the largest root, or that root when it is a
    multiple of w; a cell holding another root too is halved until it
    isolates one."""
    M = root_bound(p)
    if _sturm_above(p, -M) == 0:
        raise NoRealRootError("polynomial has no real roots")
    w = Fraction(1)
    while w > eps:
        w /= 2
    while 2 * w <= eps:
        w *= 2
    lo, hi = math.floor(-M / w), math.ceil(M / w)       # cell indices
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _sturm_above(p, mid * w) >= 1:
            lo = mid
        else:
            hi = mid
    lo, hi = lo * w, hi * w
    if p.sign_at(hi) == 0:
        return RationalInterval(hi, hi)
    while sturm_count(p, RationalInterval(lo, hi)) != 1:
        mid = (lo + hi) / 2
        if _sturm_above(p, mid) >= 1:
            lo = mid
        else:
            hi = mid
    return RationalInterval(lo, hi)


def test_isolate_hint_on_smaller_root_is_not_a_point():
    # (x - 1)(x^2 - 3): the rounded hint 1 is a root, but not the largest
    p = IntPoly([-1, 1]) * IntPoly([-3, 0, 1])
    iv = isolate_largest_root(p, Fraction(1, 2 ** 30), hint=1.0)
    assert iv.width > 0 and iv.lo ** 2 < 3 < iv.hi ** 2
    assert iv == _canonical_cell(p, Fraction(1, 2 ** 30))


def test_isolate_bracket_holding_three_roots():
    # roots 1/3, 1/2 and 2/3 all lie in (0, 1], the width-1 start cell of
    # the hint 0.9; the first midpoint 1/2 is a root with a root above it,
    # and p is not increasing above 0, so a root count sends lo to 1/2
    p = IntPoly([-1, 3]) * IntPoly([-1, 2]) * IntPoly([-2, 3])
    assert p.sign_at(0) < 0 and p.certifies_no_roots_above(1)
    assert not p.derivative().certifies_no_roots_above(0)
    iv = isolate_largest_root(p, Fraction(1, 2 ** 30), hint=0.9)
    assert iv.lo < Fraction(2, 3) < iv.hi
    assert iv == _canonical_cell(p, Fraction(1, 2 ** 30))


@pytest.mark.parametrize("roots, want", [
    # 1/3 and 2/5 share the cell (1/4, 1/2]; the closing count halves it once
    ((Fraction(1, 3), Fraction(2, 5)), (Fraction(3, 8), Fraction(1, 2))),
    # 3/8 and 2/5 share it too, and the halving leaves the root 3/8 at lo
    ((Fraction(3, 8), Fraction(2, 5)), (Fraction(3, 8), Fraction(1, 2))),
])
def test_isolate_two_roots_in_one_cell(roots, want):
    p = IntPoly([1])
    for r in roots:
        p = p * IntPoly([-r.numerator, r.denominator])
    for hint in (None, 0.4, 0.3):
        iv = isolate_largest_root(p, Fraction(1, 4), hint)
        assert (iv.lo, iv.hi) == want and sturm_count(p, iv) == 1
    # refining from there narrows onto 2/5, not onto a root at lo
    got = refine_root(p, iv, Fraction(1, 2 ** 30))
    assert got.lo < Fraction(2, 5) < got.hi and got.width == Fraction(1, 2 ** 30)


def test_isolate_exact_hint_needs_no_sturm_chain():
    k4 = resolvent_data(complete_graph(4)).char_poly      # (x - 3)(x + 1)^3
    _sturm_chain.cache_clear()
    assert isolate_largest_root(k4, Fraction(1, 2 ** 40), hint=3.0) == \
        RationalInterval.point(3)
    assert _sturm_chain.cache_info().misses == 0


def test_isolate_nonreal_roots_counts_without_sturm_chain():
    # roots 3 and 2 +- i/10: with a wide bracket at a coarse eps the final
    # lo stays below the largest root of p' (about 2.66), so the p' test
    # fails and the closing check is a root count, which Descartes
    # bisection settles without a Sturm chain
    p = IntPoly([-3, 1]) * IntPoly([401, -400, 100])
    _sturm_chain.cache_clear()
    iv = isolate_largest_root(p, 2, hint=3.4)
    assert _sturm_chain.cache_info().misses == 0
    assert not p.derivative().certifies_no_roots_above(iv.lo)
    assert iv.width <= 2 and iv.lo < 3 <= iv.hi and sturm_count(p, iv) == 1
    assert iv == _canonical_cell(p, 2)
    # roots 1/3 and 2 +- i/10: both roots of p' lie above 1/3, so the p'
    # test never holds and the refinement runs on root counts throughout
    p = IntPoly([-1, 3]) * IntPoly([401, -400, 100])
    iv = isolate_largest_root(p, Fraction(1, 2 ** 30))
    assert not p.derivative().certifies_no_roots_above(iv.lo)
    assert iv.lo < Fraction(1, 3) < iv.hi and sturm_count(p, iv) == 1
    assert iv == _canonical_cell(p, Fraction(1, 2 ** 30))


_ROOTS = st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=3),
                  max_size=5)
# (d x - e)^2 + t with t >= 1: the nonreal pair (e +- i sqrt(t)) / d
_PAIRS = st.lists(st.tuples(st.integers(1, 3), st.integers(-12, 12),
                            st.integers(1, 9)), max_size=2)


@settings(max_examples=150, deadline=None)
@given(_ROOTS, _PAIRS, st.sampled_from([1, 2, -3]),
       st.sampled_from([Fraction(1, 2 ** 30), Fraction(1, 2 ** 8), Fraction(1, 3), 2, 8]),
       st.one_of(st.none(),
                 st.floats(min_value=-8, max_value=8),
                 st.floats(min_value=-1e4, max_value=1e4),
                 st.sampled_from([math.nan, math.inf, -math.inf]),
                 st.integers(-6, 6).map(float),
                 st.tuples(st.sampled_from(range(5)),
                           st.sampled_from([0.0, 1e-9, -1e-7, 3e-4, 0.4, -0.6]))))
# roots 29/10 and 3 both lie in the cell (2, 4], and the nonreal pair 3 +- i
# keeps the p' test from holding, so the closing count separates them
@example([Fraction(29, 10), Fraction(3)], [(1, 3, 1)], 1, 2, None)
# root_bound is 2, so the Cauchy start cell must widen to the cell width 8
@example([Fraction(1, 2)], [], 1, 8, None)
def test_isolate_matches_sturm_only_reference(roots, pairs, scale, eps, hint):
    # the result is the reference's canonical cell, whatever the hint
    p = IntPoly([scale])
    for r in roots:
        p = p * IntPoly([-r.numerator, r.denominator])
    for d, e, t in pairs:
        p = p * IntPoly([e * e + t, -2 * d * e, d * d])
    if isinstance(hint, tuple):
        # a hint near one of the real roots, not necessarily the largest
        k, off = hint
        hint = float(roots[k % len(roots)]) + off if roots else off
    if p.degree < 1:
        return
    try:
        want = _canonical_cell(p, eps)
    except NoRealRootError:
        with pytest.raises(NoRealRootError):
            isolate_largest_root(p, eps, hint)
        return
    got = isolate_largest_root(p, eps, hint)
    assert (got.lo, got.hi) == (want.lo, want.hi)
    assert got == isolate_largest_root(p, eps)
    assert got.width <= eps


def _poly_from(roots=(), pairs=(), scale=1):
    """scale * prod (q x - r) over the rational roots r/q, times
    (d x - e)^2 + t for each (d, e, t) in pairs."""
    p = IntPoly([scale])
    for r in roots:
        r = Fraction(r)
        p = p * IntPoly([-r.numerator, r.denominator])
    for d, e, t in pairs:
        p = p * IntPoly([e * e + t, -2 * d * e, d * d])
    return p


W30 = Fraction(1, 2 ** 30)


@pytest.mark.parametrize("p, eps, hints", [
    # the largest root at a cell end: the root itself, a multiple of w
    (_poly_from([Fraction(1, 2), -3]), Fraction(1, 2 ** 10), [None, 0.5, 0.3, 0.75]),
    (_poly_from([3, -1]), W30, [None, 3.0, 2.9999999, 3.5]),
    # a midpoint of the start cell (0, 1] is the largest root, p(mid) = 0
    (_poly_from([Fraction(3, 4), -2]), W30, [None, 0.9, 0.6]),
    # a midpoint is a root with the largest root above it
    (_poly_from([Fraction(1, 2), Fraction(7, 8)]), W30, [None, 0.9, 0.5]),
    # eps >= 1: cells of width 1, 2 and 8
    (IntPoly([-2, 0, 1]), 1, [None, 1.4, 7.0]),
    (IntPoly([-50, 0, 1]), 3, [None, 7.07, -7.07, 100.0]),
    (_poly_from([5, -1]), 8, [None, 5.0, 13.0]),
    (_poly_from([Fraction(1, 2)]), 8, [None, 0.5]),
    # hints far off, NaN, infinite, huge and subnormal
    (IntPoly([-2, 0, 1]), W30, [math.nan, math.inf, -math.inf, 1e300, -1e300,
                                5e-324, 2 ** 0.5 + 5 * 2 ** -30, 2 ** 0.5 - 7 * 2 ** -30,
                                2 ** 0.5 + 3 * 2 ** -20, 2 ** 0.5 - 0.1]),
    # nonreal roots keep the p' test from holding: the closing count runs
    (_poly_from([3], [(10, 20, 1)]), 2, [None, 3.4]),
    (_poly_from([Fraction(29, 10), 3], [(1, 3, 1)]), 2, [None, 2.95]),
    (_poly_from([Fraction(1, 3)], [(10, 20, 1)]), W30, [None, 0.3]),
    (_poly_from([Fraction(1, 3), Fraction(2, 5)]), Fraction(1, 4), [None, 0.4, 0.3]),
    (_poly_from([Fraction(3, 8), Fraction(2, 5)]), Fraction(1, 4), [None, 0.4]),
    # no real root at all
    (_poly_from([], [(1, 2, 3), (2, -1, 1)]), W30, [None, 1.0]),
])
def test_isolate_matches_fraction_oracle(p, eps, hints):
    # the integer bisection returns the Fraction reference's interval, with
    # the same root counts in the same order
    for hint in hints:
        before = root_count_info()
        try:
            want = isolate_largest_root_fractions(p, eps, hint)
        except NoRealRootError:
            with pytest.raises(NoRealRootError):
                isolate_largest_root(p, eps, hint)
            continue
        mid = root_count_info()
        got = isolate_largest_root(p, eps, hint)
        after = root_count_info()
        assert (got.lo, got.hi) == (want.lo, want.hi)
        assert {k: after[k] - mid[k] for k in after} == \
            {k: mid[k] - before[k] for k in mid}


@pytest.mark.parametrize("p, lo, hi, eps", [
    # non-dyadic brackets, ends over different denominators
    (IntPoly([-2, 0, 5]), Fraction(1, 3), Fraction(2, 3), Fraction(1, 10 ** 9)),
    (IntPoly([-2, 0, 5]), Fraction(3, 7), Fraction(5, 6), Fraction(1, 7)),
    (IntPoly([-2, 0, 5]), Fraction(-5, 6), Fraction(-3, 7), W30),
    # the midpoint 7/12 of (1/3, 5/6] is the root
    (IntPoly([-7, 12]), Fraction(1, 3), Fraction(5, 6), W30),
    # a root at hi, a root at lo (never returned), a bracket already narrow
    (IntPoly([-7, 12]), Fraction(1, 3), Fraction(7, 12), W30),
    (IntPoly([-7, 12]) * IntPoly([-9, 10]), Fraction(7, 12), Fraction(19, 20), W30),
    (IntPoly([-2, 0, 5]), Fraction(1, 3), Fraction(2, 3), 1),
    # eps above 1 and a wide bracket
    (IntPoly([-50, 0, 1]), Fraction(-1, 3), Fraction(31, 3), 2),
])
def test_refine_root_matches_fraction_oracle(p, lo, hi, eps):
    iv = RationalInterval(lo, hi)
    got, want = refine_root(p, iv, eps), refine_root_fractions(p, iv, eps)
    assert (got.lo, got.hi) == (want.lo, want.hi) and got.width <= eps


@settings(max_examples=150, deadline=None)
@given(_ROOTS, _PAIRS, st.fractions(-7, 7, max_denominator=30),
       st.fractions(0, 9, max_denominator=30),
       st.sampled_from([W30, Fraction(1, 3 ** 9), Fraction(2, 7), 1, 3]))
def test_refine_root_matches_fraction_oracle_random(roots, pairs, lo, width, eps):
    # any bracket: both bisect on the same signs, or both refuse it
    p = _poly_from(roots, pairs)
    iv = RationalInterval(lo, lo + width)
    try:
        want = refine_root_fractions(p, iv, eps)
    except ValueError:
        with pytest.raises(ValueError):
            refine_root(p, iv, eps)
        return
    got = refine_root(p, iv, eps)
    assert (got.lo, got.hi) == (want.lo, want.hi)


def test_perron_root_sign_change():
    # the top adjacency eigenvalue is simple: signs differ across it
    for g in enumerate_connected_graphs(5):
        p = resolvent_data(g).char_poly
        iv = isolate_largest_root(p, Fraction(1, 2 ** 20))
        if iv.width == 0:
            assert p.sign_at(iv.lo) == 0
        else:
            assert p.sign_at(iv.lo) < 0 < p.sign_at(iv.hi)
            assert sturm_count(p, iv) == 1


# -- ray nonnegativity -------------------------------------------------------------

def q_poly_worked_example(beta: Fraction) -> IntPoly:
    from perronbalance.bounds import KernelContext
    from perronbalance.graphs import RootedKernel
    ctx = KernelContext(RootedKernel(K3P3, 0))
    return ctx.q_poly(1 << 5, 1 << 5, beta)[0]


def test_nonneg_on_ray_trivial():
    assert ray_verdict(IntPoly([0, 0, 1]), 0, 0) == ("coefficients", None)


def test_nonneg_on_ray_worked_example_pair():
    lam = isolate_largest_root(
        resolvent_data(attach_path(complete_graph(3), 0, 4)).char_poly,
        Fraction(1, 2 ** 30))
    q = q_poly_worked_example(Fraction(21, 4))
    kind, witness = ray_verdict(q, lam.lo, lam.hi)
    assert kind == "fail"
    assert witness >= lam.hi and q.eval(witness) < 0
    good = ray_verdict(q_poly_worked_example(Fraction(41, 8)), lam.lo, lam.hi)
    assert good == ("coefficients", None)


def test_nonneg_on_ray_never_both():
    rng = random.Random(31)
    for _ in range(80):
        p = IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(1, 7))])
        a = Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
        kind, witness = ray_verdict(p, a, a)
        assert kind in ("coefficients", "sturm", "fail")
        if kind == "fail":
            assert p.eval(witness) < 0 and witness >= a
        else:
            assert witness is None


def test_ray_verdict_tangency_undecided_and_fail_between_roots():
    # (x - 2)^2 (x + 1) touches zero at 2 and is positive elsewhere above 0
    tangent = IntPoly([-2, 1]) ** 2 * IntPoly([1, 1])
    assert ray_verdict(tangent, Fraction(0), Fraction(0)) == ("sturm", None)
    # x - 1 changes sign at 1, inside [lo, hi] = [0, 2], and is positive above
    assert ray_verdict(IntPoly([-1, 1]), Fraction(0), Fraction(2)) == ("undecided", None)
    # (x - 3)(x - 4) is positive at hi = 2 and negative only between its roots
    q = IntPoly([-3, 1]) * IntPoly([-4, 1])
    kind, witness = ray_verdict(q, Fraction(2), Fraction(2))
    assert q.sign_at(2) > 0 and kind == "fail" and 3 < witness < 4


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.fractions(min_value=-6, max_value=6, max_denominator=4),
                          st.integers(1, 2)), max_size=5),
       _PAIRS, st.sampled_from([1, -2]),
       st.fractions(min_value=-6, max_value=6, max_denominator=4))
@example([(Fraction(0), 1), (Fraction(1), 2)], [], 1, Fraction(0))
@example([(Fraction(0), 1), (Fraction(1), 1)], [], 1, Fraction(0))
@example([(Fraction(1), 1), (Fraction(2), 1)], [], 1, Fraction(0))
@example([(Fraction(0), 1), (Fraction(1), 1), (Fraction(3), 1)], [], 1, Fraction(0))
def test_ray_verdict_matches_root_multiplicities(roots, pairs, scale, a):
    # above a, q changes sign exactly at its roots of odd multiplicity, and
    # is positive far out iff its leading coefficient is; with lo = hi = a
    # the verdict is never "undecided"
    q = IntPoly([scale])
    mult = {}
    for r, m in roots:
        q = q * IntPoly([-r.numerator, r.denominator]) ** m
        mult[r] = mult.get(r, 0) + m
    for d, e, t in pairs:
        q = q * IntPoly([e * e + t, -2 * d * e, d * d])
    nonneg = scale > 0 and all(m % 2 == 0 for r, m in mult.items() if r > a)
    kind, witness = ray_verdict(q, a, a)
    if nonneg:
        assert kind in ("coefficients", "sturm")
    else:
        assert kind == "fail" and witness >= a and q.sign_at(witness) < 0


# -- substitution lam = t + 1/t -----------------------------------------------------

def test_substitute_t_examples():
    lam = RationalFunction(IntPoly([0, 1]), IntPoly([1]))
    t = substitute_t(lam)
    assert t.num == IntPoly([1, 0, 1]) and t.den == IntPoly([0, 1])
    s_k4 = RationalFunction(IntPoly([1]), IntPoly([-3, 1]))
    st_ = substitute_t(s_k4)
    assert st_.num == IntPoly([0, 1]) and st_.den == IntPoly([1, -3, 1])


def test_substitute_t_evaluation_identity():
    rng = random.Random(37)
    f = RationalFunction(IntPoly([1, -2, 0, 1]), IntPoly([5, 1, 1]))
    fhat = substitute_t(f)
    pts = [Fraction(2)] + [Fraction(rng.randint(5, 40), rng.randint(1, 3))
                           for _ in range(10)]
    for t0 in pts:
        if t0 <= 1:
            continue
        lam0 = t0 + 1 / t0
        assert fhat.eval(t0) == f.eval(lam0)
    assert substitute_t(f).eval(2) == f.eval(Fraction(5, 2))


# -- interval evaluation and signs ---------------------------------------------------

def test_eval_interval_examples():
    sq = IntPoly([0, 0, 1])
    iv = sq.eval_interval(RationalInterval(1, 2))
    assert iv.lo == 1 and iv.hi == 4
    f = RationalFunction(IntPoly([1]), IntPoly([-3, 1]))
    iv = f.eval_interval(RationalInterval(Fraction(31, 10), Fraction(32, 10)))
    assert iv.lo == 5 and iv.hi == 10
    p = resolvent_data(K3P3).char_poly
    root = isolate_largest_root(p, Fraction(1, 2 ** 20))
    assert p.eval_interval(root).contains_zero()


def _interval_horner_reference(coeffs, lo, hi):
    """Rational interval Horner: acc -> acc*[lo, hi] + c from [0, 0]."""
    a = b = Fraction(0)
    for c in reversed(coeffs):
        ps = (a * lo, a * hi, b * lo, b * hi)
        a, b = min(ps) + c, max(ps) + c
    return a, b


_NEG = st.fractions(min_value=-5, max_value=Fraction(-1, 1000), max_denominator=2 ** 45)
_POS = st.fractions(min_value=Fraction(1, 1000), max_value=5, max_denominator=2 ** 45)
_ANY = st.fractions(min_value=-5, max_value=5, max_denominator=10 ** 9)
_INTERVALS = st.one_of(
    st.tuples(_NEG, _NEG).map(sorted),          # negative
    st.tuples(_NEG, _POS),                       # straddles zero
    _ANY.map(lambda x: (x, x)),                  # single point
    st.tuples(_ANY, _ANY).map(sorted),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=13), _INTERVALS)
def test_eval_interval_matches_rational_horner(coeffs, ends):
    lo, hi = ends
    p = IntPoly(coeffs)
    got = p.eval_interval(RationalInterval(lo, hi))
    assert (got.lo, got.hi) == _interval_horner_reference(p.coeffs, lo, hi)


_DEN = st.sampled_from([1, 3, 2 ** 30])


@st.composite
def _horner_cases(draw):
    """(coeffs, lo, hi, den): mixed-sign coefficients and [lo, hi]/den with
    lo >= 0, hi <= 0, straddling 0, or a point."""
    den = draw(_DEN)
    coeffs = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=13))
    mag = st.integers(0, 5 * den)
    kind = draw(st.sampled_from(("nonneg", "nonpos", "straddle", "point")))
    if kind == "point":
        lo = hi = draw(st.integers(-5 * den, 5 * den))
    else:
        lo, hi = sorted((draw(mag), draw(mag)))
        if kind == "nonpos":
            lo, hi = -hi, -lo
        elif kind == "straddle":
            lo, hi = -lo - 1, hi + 1
    return coeffs, lo, hi, den


@settings(max_examples=200, deadline=None)
@given(_horner_cases())
@example(([3, -5, 1], 0, 0, 1))
@example(([0, 0, 0, 7], -2, 2, 3))
@example(([-1, 4, -4, 1], 2 ** 30, 2 ** 31, 2 ** 30))
def test_horner_interval_matches_four_products(case):
    coeffs, lo, hi, den = case
    assert horner_interval(coeffs, lo, hi, den) == \
        horner_interval_four(coeffs, lo, hi, den)


def test_width_at_most_matches_fraction_width():
    """The integer width test against hi - lo <= eps in Fractions: unequal
    denominators, points, and eps an int, a point width or in between."""
    rng = random.Random(83)
    for _ in range(500):
        lo = Fraction(rng.randrange(-50, 50), rng.randrange(1, 40))
        iv = RationalInterval(lo, lo + Fraction(rng.randrange(0, 30), rng.randrange(1, 40)))
        for eps in (0, 1, iv.width, Fraction(rng.randrange(1, 50), rng.randrange(1, 60))):
            assert iv.width_at_most(eps) == (iv.width <= eps)


def test_eval_interval_width_shrinks():
    p = resolvent_data(K3P3).char_poly
    w1 = p.eval_interval(RationalInterval(2, Fraction(21, 10))).width
    w2 = p.eval_interval(RationalInterval(2, Fraction(201, 100))).width
    assert w2 < w1


def test_sign_on_interval():
    f = RationalFunction(IntPoly([1]), IntPoly([-3, 1]))
    assert _rf_nonneg_on_closed(f, Fraction(311, 100), Fraction(318, 100))
    assert not _rf_nonneg_on_closed(-f, Fraction(311, 100), Fraction(318, 100))
    g = RationalFunction(IntPoly([-3, 1]), IntPoly([1]))
    assert not _rf_nonneg_on_closed(g, Fraction(2), Fraction(4))
    assert _rf_nonneg_on_closed(g, Fraction(3), Fraction(4))
    # a pole inside the interval is never certified
    assert not _rf_nonneg_on_closed(f, Fraction(2), Fraction(4))


# -- serialization ----------------------------------------------------------------

def test_poly_text_roundtrip():
    p = IntPoly([-1, 4, 8, -2, -6, 0, 1])
    terms = p.to_text().split(" + ")
    assert terms[:3] == ["-1", "4*x", "8*x^2"]
    assert [int(t.split("*")[0]) for t in terms] == list(p.coeffs)
    q = [Fraction(3, 4), Fraction(-2), Fraction(0), Fraction(5, 7)]
    assert [Fraction(t.split("*")[0]) for t in poly_to_text(q).split(" + ")] == q


# -- quadratic irrationals ----------------------------------------------------------

def test_sqrt_rat_signs():
    b_star = SqrtRat(Fraction(5, 2), Fraction(3, 2), 3)
    assert (b_star - Fraction(21, 4)).sign() < 0
    assert (b_star - 5).sign() > 0
    assert (SqrtRat(4, 2, 3) - Fraction(23, 3)).sign() < 0
    perfect = SqrtRat(1, 1, 4)
    assert perfect.is_rational() and perfect.as_fraction() == 3


def test_sqrt_rat_enclosure():
    val = SqrtRat(4, 2, 3)
    iv = val.enclosure(Fraction(1, 10 ** 12))
    assert iv.width <= Fraction(1, 10 ** 12)
    assert abs(iv.mid_float() - (4 + 2 * 3 ** 0.5)) < 1e-10


def test_sqrt_interval():
    for d in (2, 3, 10 ** 9 + 7):
        iv = SqrtRat(0, 1, d).enclosure(Fraction(1, 10 ** 10))
        assert iv.lo * iv.lo <= d <= iv.hi * iv.hi
        assert iv.width <= Fraction(1, 10 ** 10)
    assert SqrtRat(0, 1, 4).enclosure(Fraction(1, 10 ** 10)) == RationalInterval.point(2)
