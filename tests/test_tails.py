"""Pendant-path analytics: limit eigendata, profile functions, and the two
tail certificates."""

import random
from fractions import Fraction

import pytest

from perronbalance import algebra
from perronbalance.algebra import (
    IntPoly,
    RationalFunction,
    RationalInterval,
    RootEnclosure,
    SqrtRat,
    _sturm_chain,
    isolate_largest_root,
    root_count_info,
    substitute_t,
)
from perronbalance.graphs import (
    attach_path,
    complete_graph,
    path_graph,
    star_graph,
)
from perronbalance.spectral import (
    BETA_STAR,
    BETA_TR,
    GammaEnclosure,
    LAMBDA_K4_INF,
    LAMBDA_S5_INF,
    certified_below,
    gamma_enclosure,
    kp_infinite_gamma,
    lambda_enclosure,
    sp_infinite_gamma,
)
from perronbalance.tails import (
    TailContext,
    _rf_nonneg_on_enclosed,
    check_gamma_lower,
    check_gamma_upper,
    cond8_monotone_floor,
    infinite_tail_eigendata,
    lambda_sandwich_audit,
    r_enclosure_of_lambda,
)

from oracles import interval_sub, perron_enclosure


@pytest.fixture(scope="module")
def k4_ctx():
    return TailContext(complete_graph(4), 0, exact_limit_ratio=BETA_STAR)


@pytest.fixture(scope="module")
def s5_ctx():
    return TailContext(star_graph(5), 0, exact_limit_ratio=BETA_TR)


def overlaps(iv: RationalInterval, other: RationalInterval) -> bool:
    return iv.lo <= other.hi and other.lo <= iv.hi


# -- context construction ---------------------------------------------------------

def test_context_k4_profile_functions(k4_ctx):
    assert k4_ctx.S == RationalFunction(IntPoly([1]), IntPoly([-3, 1]))
    assert k4_ctx.T == RationalFunction(IntPoly([7, -4, 1]),
                                        IntPoly([9, 12, -2, -4, 1]))


def test_context_s5_profile_functions(s5_ctx):
    assert s5_ctx.S == RationalFunction(IntPoly([4, 1]), IntPoly([-4, 0, 1]))
    assert s5_ctx.T == RationalFunction(IntPoly([4, 0, 1]),
                                        IntPoly([16, 0, -8, 0, 1]))


def test_context_rejects_small_eigenvalue():
    with pytest.raises(ValueError):
        TailContext(path_graph(3), 0)


def test_j_hat_exact_coefficients(k4_ctx, s5_ctx):
    jk = k4_ctx.J_hat
    assert jk.num == IntPoly([4, 8, 9, 3, -3, -3, -1, 1])
    assert jk.den == IntPoly([6, -6, -19, 23, -7, 7, -5, 1])
    js = s5_ctx.J_hat
    assert js.num == IntPoly([9, 12, 10, 4, 1])
    assert js.den == IntPoly([9, 0, -2, 0, 1])


def test_j_hat_matches_lambda_profile(k4_ctx):
    # at rational t > 1 the t-profile equals the lam-profile with lam=t+1/t
    rng = random.Random(97)
    for _ in range(10):
        t0 = Fraction(rng.randint(28, 80), 10)
        lam0 = t0 + 1 / t0
        s = k4_ctx.S.eval(lam0)
        tt = k4_ctx.T.eval(lam0)
        j_lam = (s + t0 / (t0 - 1)) ** 2 / (tt + t0 * t0 / (t0 * t0 - 1))
        assert k4_ctx.J_hat.eval(t0) == j_lam


# -- limiting eigendata -------------------------------------------------------------

def test_limit_eigendata_k4(k4_ctx):
    ed = infinite_tail_eigendata(k4_ctx, Fraction(1, 10 ** 10))
    r_inf = SqrtRat(1, 1, 3)          # 1 + sqrt(3)
    assert overlaps(ed.t_inf, r_inf.enclosure(Fraction(1, 10 ** 12)))
    assert overlaps(ed.lam_inf, LAMBDA_K4_INF.enclosure(Fraction(1, 10 ** 12)))
    assert overlaps(ed.gamma_inf, BETA_STAR.enclosure(Fraction(1, 10 ** 12)))
    assert ed.gamma_inf.width <= Fraction(1, 10 ** 10)


def test_limit_eigendata_s5(s5_ctx):
    ed = infinite_tail_eigendata(s5_ctx, Fraction(1, 10 ** 10))
    r_inf = SqrtRat(0, 1, 3)
    assert overlaps(ed.t_inf, r_inf.enclosure(Fraction(1, 10 ** 12)))
    assert overlaps(ed.lam_inf, LAMBDA_S5_INF.enclosure(Fraction(1, 10 ** 12)))
    assert overlaps(ed.gamma_inf, BETA_TR.enclosure(Fraction(1, 10 ** 12)))


def test_limit_closed_forms_cross_check():
    # the star and clique limit formulas agree with the certified route
    for p in (4, 5, 6):
        ctx = TailContext(complete_graph(p), 0)
        ed = infinite_tail_eigendata(ctx, Fraction(1, 10 ** 9))
        closed = kp_infinite_gamma(p).enclosure(Fraction(1, 10 ** 11))
        assert overlaps(ed.gamma_inf, closed)
        if p >= 4:
            sctx = TailContext(star_graph(p), 0) if p >= 5 else None
            if sctx is not None:
                sed = infinite_tail_eigendata(sctx, Fraction(1, 10 ** 9))
                sclosed = sp_infinite_gamma(p).enclosure(Fraction(1, 10 ** 11))
                assert overlaps(sed.gamma_inf, sclosed)
    assert sp_infinite_gamma(6).as_fraction() == Fraction(15, 2)


def test_geometric_tail_eigenvector_truncated(k4_ctx):
    # the limit vector (resolvent column, geometric tail) satisfies the
    # eigenvalue equation on a long finite stretch except at the frontier
    m = 30
    g = attach_path(complete_graph(4), 0, m)
    t_iv = k4_ctx.t_inf.refine(Fraction(1, 2 ** 70))
    lam_iv = k4_ctx.lam_inf(Fraction(1, 2 ** 60))
    from perronbalance.spectral import resolvent_data
    rd = resolvent_data(complete_graph(4))
    pvals = rd.char_poly.eval_interval(lam_iv)
    weights = []
    for u in range(4):
        weights.append(rd.adjugate[u][0].eval_interval(lam_iv).div(pvals))
    # path weights t^-i starting at 1 for the vertex adjacent to the base
    tpow = RationalInterval(1, 1)
    for i in range(m):
        weights.append(tpow)
        tpow = tpow.div(t_iv)
    for v in range(g.n - 1):          # all but the truncation frontier
        acc = lam_iv.mul_interval(weights[v])
        for u in g.neighbors(v):
            acc = interval_sub(acc, weights[u])
        assert acc.contains_zero(), v


def test_alpha_interpolation_reproduces_finite_perron():
    # the two-rate interpolation with the closed-form coefficient matches
    # the certified Perron vector of the finite-tail graph along the path
    k = 5
    h = complete_graph(4)
    g = attach_path(h, 0, k)
    lam = lambda_enclosure(g, Fraction(1, 2 ** 50))
    t_iv = r_enclosure_of_lambda(lam.lo, Fraction(1, 2 ** 50))
    t_hi = r_enclosure_of_lambda(lam.hi, Fraction(1, 2 ** 50))
    t = RationalInterval(t_iv.lo, t_hi.hi)
    pd = perron_enclosure(g, Fraction(1, 10 ** 10))
    # alpha = -t^-k / (t^k - t^-k)
    tk = t
    for _ in range(k - 1):
        tk = tk.mul_interval(t)
    tmk = tk.recip()
    alpha = interval_sub(RationalInterval(0, 0), tmk).div(interval_sub(tk, tmk))
    # normalize the certified vector at the first path vertex
    x0 = pd.weights[4]
    for i in range(k):
        ti = RationalInterval(1, 1)
        for _ in range(i):
            ti = ti.mul_interval(t)
        expect = alpha.mul_interval(ti).add(
            interval_sub(RationalInterval(1, 1), alpha).mul_interval(ti.recip()))
        got = pd.weights[4 + i].div(x0)
        assert overlaps(got, expect), i


# -- finite-path certificates --------------------------------------------------------

def test_gamma_lower_k4(k4_ctx):
    cert = check_gamma_lower(k4_ctx, 1)
    assert cert.passed
    assert [c.passed for c in cert.conditions] == [True, True]


def test_gamma_lower_s5(s5_ctx):
    cert = check_gamma_lower(s5_ctx, 1)
    assert cert.passed


def test_gamma_lower_s5_narrows_the_shared_t_inf():
    # condition (i) narrows the context's one enclosure of t_inf for six
    # rounds before the value comparison decides; the evidence prints r_k
    # from its first isolation and t_inf as those rounds left it
    ctx = TailContext(star_graph(5), 0, exact_limit_ratio=BETA_TR)
    before = ctx.t_inf.iv
    cert = check_gamma_lower(ctx, 1)
    after = ctx.t_inf.iv
    assert cert.passed and cert.conditions[0].branch == "value-comparison"
    assert before.lo <= after.lo and after.hi <= before.hi
    assert after.width <= before.width / 2 ** 40
    assert cert.conditions[0].evidence.endswith(", %s]" % after.hi)


def test_rf_nonneg_on_enclosed_narrows_both_endpoints():
    # f = x - a with a between the first lower end of sqrt(2) and sqrt(2):
    # the outer interval of the first enclosures holds a sign change, the
    # narrowed ones do not
    left = RootEnclosure(IntPoly([-2, 0, 1]),
                         isolate_largest_root(IntPoly([-2, 0, 1]), Fraction(1, 2 ** 10)))
    right = RootEnclosure(IntPoly([-3, 0, 1]),
                          isolate_largest_root(IntPoly([-3, 0, 1]), Fraction(1, 2 ** 10)))
    first_left, first_right = left.iv, right.iv
    sqrt2 = isolate_largest_root(IntPoly([-2, 0, 1]), Fraction(1, 2 ** 60))
    a = (first_left.lo + sqrt2.lo) / 2
    f = RationalFunction(IntPoly([-a.numerator, a.denominator]), IntPoly([1]))
    assert _rf_nonneg_on_enclosed(f, left, right)
    assert first_left.lo < left.iv.lo and left.iv.hi <= first_left.hi
    assert right.iv.width < first_right.width
    # a genuine root inside gives up after six rounds
    g = RationalFunction(IntPoly([-3, 2]), IntPoly([1]))     # 2x - 3
    assert not _rf_nonneg_on_enclosed(g, left, right)


def test_gamma_increasing_chain_below_limit():
    prev = None
    for k in range(1, 9):
        g = attach_path(complete_graph(4), 0, k)
        assert certified_below(GammaEnclosure(g).refine, BETA_STAR)
        val = gamma_enclosure(g, Fraction(1, 10 ** 9))
        if prev is not None:
            assert val.lo > prev.hi
        prev = val
    prev = None
    for k in range(1, 9):
        g = attach_path(star_graph(5), 0, k)
        assert certified_below(GammaEnclosure(g).refine, BETA_TR)
        val = gamma_enclosure(g, Fraction(1, 10 ** 9))
        if prev is not None:
            assert val.lo > prev.hi
        prev = val


# -- branching-tail certificates --------------------------------------------------------

@pytest.fixture(scope="module")
def k4p1_ctx():
    return TailContext(attach_path(complete_graph(4), 0, 1), 4, o=0,
                       exact_limit_ratio=BETA_STAR)


@pytest.fixture(scope="module")
def s5p4_ctx():
    return TailContext(attach_path(star_graph(5), 0, 4), 8, o=0,
                       exact_limit_ratio=BETA_TR)


def test_gamma_upper_k4(k4p1_ctx):
    cert = check_gamma_upper(k4p1_ctx, 2, Fraction(311, 100),
                             Fraction(318, 100), Fraction(1))
    assert cert.passed
    assert len(cert.conditions) == 8
    assert cond8_monotone_floor(k4p1_ctx, 2)


def test_gamma_upper_s5(s5p4_ctx):
    cert = check_gamma_upper(s5p4_ctx, 4, Fraction(2312, 1000),
                             Fraction(234, 100), Fraction(3, 2))
    assert cert.passed
    assert cond8_monotone_floor(s5p4_ctx, 4)


def _fallbacks_during(run):
    before = root_count_info()
    cert = run()
    after = root_count_info()
    assert after["descartes"] > before["descartes"]
    return cert, after["sturm"] - before["sturm"]


def test_gamma_upper_s5_counts_roots_without_sturm():
    # a fresh context, so the counts are those of a cold certificate
    ctx = TailContext(attach_path(star_graph(5), 0, 4), 8, o=0,
                      exact_limit_ratio=BETA_TR)
    _sturm_chain.cache_clear()
    cert, fallbacks = _fallbacks_during(lambda: check_gamma_upper(
        ctx, 4, Fraction(2312, 1000), Fraction(234, 100), Fraction(3, 2)))
    assert cert.passed
    assert fallbacks == 0
    assert _sturm_chain.cache_info().misses == 0


def test_gamma_lower_s5_falls_back_once_at_the_tangency():
    # the conjugate product w2 of the value comparison has a double root at
    # t_inf, which no Descartes bisection isolates
    ctx = TailContext(star_graph(5), 0, exact_limit_ratio=BETA_TR)
    cert, fallbacks = _fallbacks_during(lambda: check_gamma_lower(ctx, 1))
    assert cert.passed
    assert cert.conditions[0].branch == "value-comparison"
    assert fallbacks == 1


def test_tail_certificates_settle_every_gcd_by_evaluation(monkeypatch):
    """With poly_gcd's pseudo-remainder fallback made to raise, the four
    tail certificates (K4 and S5, lower and upper) still pass from fresh
    contexts: every gcd they reduce by is found by integer evaluation."""
    def no_fallback(a, b):
        raise AssertionError("poly_gcd fell back to the pseudo-remainder sequence")

    calls = []
    gcd = algebra.poly_gcd
    monkeypatch.setattr(algebra, "_prs_gcd", no_fallback)
    monkeypatch.setattr(algebra, "poly_gcd", lambda f, g: calls.append(1) or gcd(f, g))
    _sturm_chain.cache_clear()
    k4 = TailContext(complete_graph(4), 0, exact_limit_ratio=BETA_STAR)
    s5 = TailContext(star_graph(5), 0, exact_limit_ratio=BETA_TR)
    assert check_gamma_lower(k4, 1).passed
    assert check_gamma_lower(s5, 1).passed
    k4p1 = TailContext(attach_path(complete_graph(4), 0, 1), 4, o=0,
                       exact_limit_ratio=BETA_STAR)
    assert check_gamma_upper(k4p1, 2, Fraction(311, 100), Fraction(318, 100),
                             Fraction(1)).passed
    s5p4 = TailContext(attach_path(star_graph(5), 0, 4), 8, o=0,
                       exact_limit_ratio=BETA_TR)
    assert check_gamma_upper(s5p4, 4, Fraction(2312, 1000), Fraction(234, 100),
                             Fraction(3, 2)).passed
    assert len(calls) > 100


def test_gamma_upper_ordering_errors(k4p1_ctx):
    with pytest.raises(ValueError):
        check_gamma_upper(k4p1_ctx, 2, Fraction(32, 10), Fraction(318, 100),
                          Fraction(1))
    with pytest.raises(ValueError):
        check_gamma_upper(k4p1_ctx, 2, Fraction(311, 100), Fraction(318, 100),
                          Fraction(1, 2))
    with pytest.raises(ValueError):
        check_gamma_upper(k4p1_ctx, 1, Fraction(311, 100), Fraction(318, 100),
                          Fraction(1))


def test_cond8_monotone_audit(k4p1_ctx):
    # once the floor applies, the branch-weight condition passing at k0
    # implies it for larger tail lengths; audited directly
    for k in (2, 3, 4):
        cert = check_gamma_upper(k4p1_ctx, k, Fraction(311, 100),
                                 Fraction(318, 100), Fraction(1))
        assert cert.conditions[-1].passed, k


# -- eigenvalue sandwich ------------------------------------------------------------------

def test_lambda_sandwich():
    assert lambda_sandwich_audit(complete_graph(4), 0, 3)
    assert lambda_sandwich_audit(star_graph(5), 0, 5)


def test_lambda_monotone_chain_below_limit():
    ctx = TailContext(complete_graph(4), 0)
    lam_inf = ctx.lam_inf(Fraction(1, 2 ** 50))
    prev = None
    for k in range(1, 9):
        lam = lambda_enclosure(attach_path(complete_graph(4), 0, k),
                               Fraction(1, 2 ** 50))
        assert lam.hi < lam_inf.lo
        if prev is not None:
            assert lam.lo > prev.hi
        prev = lam
