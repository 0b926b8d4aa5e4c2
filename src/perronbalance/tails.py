"""Pendant-path analytics: limiting eigendata and tail certificates.

For a connected graph H with attachment vertex v, the Perron weights along
a pendant path attached at v follow the linear recurrence with
characteristic roots t and 1/t, where lam = t + 1/t.  Substituting
t for lam turns every quantity of interest into a rational function with
integer coefficients:

  * the limit eigenvalue of H plus an infinite path solves
    B_vv(lam) = t, an integer polynomial equation in t;
  * the limiting balance ratio is jhat(t) evaluated there, with jhat the
    ratio profile of (resolvent column of v, geometric tail);
  * the finite-path comparison (ratio below the limit for every tail
    length) reduces to a monotonicity and a positivity check of rational
    functions on an interval;
  * the branching-tail certificate (ratio above the limit whenever the
    tail branches) reduces to eight interval sign conditions.

Every verdict is certified with exact arithmetic.  An algebraic interval
end is an algebra.RootEnclosure narrowed in place on demand, t_inf being
one per TailContext; a sign check runs on the outer rational interval.
Roots in an interval are counted by algebra.count_roots_in, Descartes
bisection on integer Taylor shifts, which hands a count to a Sturm chain
only when bisection cannot separate the roots: of the certificates' counts
that is the double root of the conjugate product at t_inf, where the
finite-path comparison is tangent to the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import (
    IntPoly,
    RationalFunction,
    RationalInterval,
    RootEnclosure,
    SqrtRat,
    count_roots_above,
    count_roots_in,
    isolate_largest_root,
    substitute_t,
)
from .graphs import Graph, attach_fork, attach_path, write_graph6
from .spectral import lambda_enclosure, resolvent_data

T_EPS = Fraction(1, 2 ** 40)


def _t_poly_of_charpoly(p: IntPoly) -> IntPoly:
    """Clear p(t + 1/t): the largest real root is r(lam_max) when
    lam_max > 2."""
    f = substitute_t(RationalFunction.from_poly(p))
    return f.num


def _r_poly(lam: Fraction) -> IntPoly:
    """t^2 - lam t + 1 cleared of denominators; for lam > 2 its larger root
    r(lam) is the growth rate of Perron weights along a pendant path."""
    return IntPoly([lam.denominator, -lam.numerator, lam.denominator])


def r_enclosure_of_lambda(lam: Fraction, eps: Fraction = T_EPS) -> RationalInterval:
    """Enclosure of r(lam), the larger root of t^2 - lam t + 1, rational lam > 2."""
    lam = Fraction(lam)
    return isolate_largest_root(_r_poly(lam), eps,
                                hint=(float(lam) + math.sqrt(max(0.0, float(lam) ** 2 - 4))) / 2)


class TailContext:
    """Exact tail data for a base graph H with attachment vertex v.

    Requires a certified top eigenvalue >= 2 (attach path segments first if
    the base is below; the boundary case equal to 2 is accepted and handled
    with open-interval checks).
    """

    def __init__(self, base: Graph, v: int, o: Optional[int] = None,
                 exact_limit_ratio: Optional[SqrtRat] = None):
        if not base.is_connected():
            raise ValueError("base graph must be connected")
        self.base = base
        self.v = v
        self.o = o
        lam_h = lambda_enclosure(base)
        if lam_h.hi < 2:
            raise ValueError("base top eigenvalue certified below 2; "
                             "attach a path segment first")
        if lam_h.lo < 2 and lam_h.width > 0:
            raise ValueError("base top eigenvalue not separated from 2")
        self.lam_h = lam_h
        rd = resolvent_data(base)
        self.char = rd.char_poly
        p2 = self.char * self.char
        col = rd.column(v)
        self.S = RationalFunction(sum(col, IntPoly()), self.char)
        self.T = RationalFunction(sum((c * c for c in col), IntPoly()), p2)
        self.B_vv = RationalFunction(col[v], self.char)
        self.B_ov = (RationalFunction(col[o], self.char)
                     if o is not None else None)
        self.S_hat = substitute_t(self.S)
        self.T_hat = substitute_t(self.T)
        t = RationalFunction(IntPoly([0, 1]), IntPoly([1]))
        one = RationalFunction(IntPoly([1]), IntPoly([1]))
        self._t = t
        self._one = one
        geo1 = t / (t - one)                      # sum of the geometric tail
        geo2 = (t * t) / (t * t - one)            # sum of its squares
        num = (self.S_hat + one + geo1 - one)     # S_hat + t/(t-1)
        self.J_hat = (num * num) / (self.T_hat + geo2)
        self.f_hat = (self.T_hat + one) * t - self.S_hat - geo1
        # t-infinity: largest root of the cleared form of B_vv(t + 1/t) = t
        bvv_hat = substitute_t(self.B_vv)
        wpoly = bvv_hat.num - (bvv_hat.den.shifted_degree(1))
        self.t_inf = RootEnclosure(wpoly, isolate_largest_root(wpoly, T_EPS))
        # uniqueness beyond r(lam_H): exactly one crossing
        r_h_hi = self._r_of_lam_h_upper()
        if count_roots_above(wpoly, r_h_hi) != 1:
            raise ArithmeticError("limit-rate equation not uniquely solvable")
        if (self.t_inf.iv.lo <= r_h_hi
                and self.t_inf.refine(Fraction(1, 2 ** 60)).lo <= r_h_hi):
            raise ArithmeticError("limit rate not separated from the base rate")
        self.exact_limit_ratio = exact_limit_ratio

    def _r_of_lam_h_upper(self) -> Fraction:
        lam_hi = self.lam_h.hi
        if lam_hi <= 2:
            return Fraction(1)
        return r_enclosure_of_lambda(lam_hi).hi

    # -- enclosures derived from t_inf -----------------------------------------

    def lam_inf(self, eps: Fraction = Fraction(1, 2 ** 40)) -> RationalInterval:
        t = self.t_inf.refine(eps / 4)
        return t.add(t.recip())

    def gamma_inf(self, eps: Fraction = Fraction(1, 10 ** 10)) -> RationalInterval:
        cur = Fraction(1, 2 ** 40)
        for _ in range(40):
            t = self.t_inf.refine(cur)
            try:
                iv = self.J_hat.eval_interval(t)
                if iv.width <= eps:
                    return iv
            except ZeroDivisionError:
                pass
            cur = cur / 2 ** 10
        raise ArithmeticError("failed to enclose the limiting ratio")


@dataclass(frozen=True)
class TailEigendata:
    t_inf: RationalInterval
    lam_inf: RationalInterval
    gamma_inf: RationalInterval


def infinite_tail_eigendata(ctx: TailContext,
                            eps: Fraction = Fraction(1, 10 ** 10)) -> TailEigendata:
    """Certified enclosures of the limit growth rate, eigenvalue, and ratio."""
    gamma = ctx.gamma_inf(eps)
    lam = ctx.lam_inf(eps)
    return TailEigendata(ctx.t_inf.iv, lam, gamma)


# ---------------------------------------------------------------------------
# certified sign checks on intervals with algebraic endpoints
# ---------------------------------------------------------------------------

def _rf_nonneg_on_closed(f: RationalFunction, a: Fraction, b: Fraction) -> bool:
    """Certify f >= 0 on [a, b] (strictly positive except possibly at a).

    Requires the reduced denominator to be root-free on [a, b]; the
    numerator may vanish at a but not inside.  Both root counts on (a, b]
    are count_roots_in's: the condition (iv)-(viii) polynomials have degree
    up to 26 and carry the rational upper end of the limit ratio, about
    1,050 bits, which makes Sturm chains of them slow, while one Descartes
    test of their Taylor shift to [a, b] settles each count.
    """
    if a > b:
        raise ValueError("empty interval")
    den, num = f.den, f.num
    iv = RationalInterval(a, b)
    if den.sign_at(a) == 0 or (a != b and count_roots_in(den, iv) > 0):
        return False
    sden = den.sign_at(b)
    if num.is_zero():
        return True
    if a != b and count_roots_in(num, iv) > 0:
        return False
    if num.sign_at(a) * sden < 0:
        return False
    return num.sign_at(b) * sden > 0


def _rf_nonneg_on_enclosed(f: RationalFunction, left: RootEnclosure,
                           right: RootEnclosure) -> bool:
    """Certify f >= 0 between the roots held by two enclosures.

    Works on the outer rational interval [left.lo, right.hi]; on failure
    both enclosures are narrowed in place a few times before giving up,
    which separates spurious sign trouble inside the enclosure slivers from
    a genuine violation.
    """
    for _ in range(6):
        lo, hi = left.iv, right.iv
        if _rf_nonneg_on_closed(f, lo.lo, hi.hi):
            return True
        eps = (lo.width + hi.width) / 2 ** 8 or Fraction(1, 2 ** 80)
        left.refine(eps)
        right.refine(eps)
    return False


@dataclass(frozen=True)
class ConditionResult:
    name: str
    passed: bool
    branch: str
    evidence: str

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "branch": self.branch, "evidence": self.evidence}


@dataclass(frozen=True)
class TailCertificate:
    """Machine-checked verdict for one tail argument."""

    which: str
    base_id: str
    params: dict
    conditions: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def to_json_dict(self) -> dict:
        return {
            "which": self.which,
            "base": self.base_id,
            "params": {k: str(v) for k, v in self.params.items()},
            "passed": self.passed,
            "conditions": [c.to_json_dict() for c in self.conditions],
        }


# ---------------------------------------------------------------------------
# finite path below the limit
# ---------------------------------------------------------------------------

def check_gamma_lower(ctx: TailContext, k0: int) -> TailCertificate:
    """Certify that finite pendant paths stay below the limiting ratio.

    Conditions, in the t-coordinate on (r_k0, t_inf) with r_k0 the growth
    rate at tail length k0:

      (i)  the profile ratio jhat is nondecreasing (derivative >= 0), and
      (ii) fhat(t) = (That+1) t - Shat - t/(t-1) >= 0.

    A pass implies the ratio of H with a length-k tail is strictly below
    the limit for every k >= k0.
    """
    hk = attach_path(ctx.base, ctx.v, k0)
    lam_k = lambda_enclosure(hk)
    if lam_k.lo <= 2:
        raise ValueError("tail-length floor must push the eigenvalue above 2")
    tpoly = _t_poly_of_charpoly(resolvent_data(hk).char_poly)
    # each condition narrows r_k from this first isolation, which it prints
    r_k = isolate_largest_root(tpoly, T_EPS)
    jp = ctx.J_hat.derivative()
    ok_i = _rf_nonneg_on_enclosed(jp, RootEnclosure(tpoly, r_k), ctx.t_inf)
    branch_i = "derivative"
    if not ok_i and ctx.exact_limit_ratio is not None:
        ok_i = _exact_gap_positive(ctx, ctx.J_hat, ctx.exact_limit_ratio,
                                   r_k, ctx.t_inf.iv, above=False,
                                   tangent_at="right")
        branch_i = "value-comparison"
    cond_i = ConditionResult(
        "profile ratio nondecreasing below the limit rate", ok_i, branch_i,
        "sign of the derivative numerator on [%s, %s]" % (r_k.lo, ctx.t_inf.iv.hi))
    ok_ii = _rf_nonneg_on_enclosed(ctx.f_hat, RootEnclosure(tpoly, r_k), ctx.t_inf)
    cond_ii = ConditionResult(
        "perturbation slack nonnegative", ok_ii, "direct",
        "fhat >= 0 on [%s, %s]" % (r_k.lo, ctx.t_inf.iv.hi))
    return TailCertificate(
        "finite-path-below-limit", write_graph6(ctx.base),
        {"v": ctx.v, "k0": k0}, (cond_i, cond_ii))


def _exact_gap_positive(ctx: TailContext, f: RationalFunction, target: SqrtRat,
                        left: RationalInterval, right: RationalInterval,
                        above: bool, tangent_at: str) -> bool:
    """Certify f > target (above=True) or f < target on the open interval
    whose endpoints are enclosed by left/right.

    A tangency is tolerated only at the declared endpoint, which must be
    the limit rate t_inf of the context: there f equals the limit ratio by
    construction, and a single counted root inside that endpoint's
    enclosure is therefore the endpoint itself.  Root counting stays
    rational via the conjugate product; sample signs are exact in the
    quadratic field.  The counts are count_roots_in's.  At a tangency the
    conjugate product has a double root at t_inf, which Descartes bisection
    cannot isolate, and that one count falls back to a Sturm chain.
    """
    num, den = f.num, f.den
    # roots of num - target*den are among the roots of the rational product
    # (num - target*den)(num - conj(target)*den)
    tsum = Fraction(2 * target.a)
    tprod = Fraction(target.a * target.a - target.b * target.b * target.m)
    lcm = tsum.denominator * tprod.denominator // math.gcd(
        tsum.denominator, tprod.denominator)
    w2 = ((num * num) * lcm - (num * den) * int(tsum * lcm)
          + (den * den) * int(tprod * lcm))
    a, b = left.lo, right.hi
    if left.hi >= right.lo:
        return False
    iv = RationalInterval(a, b)
    if den.sign_at(a) == 0 or count_roots_in(den, iv) > 0:
        return False
    # the tangent endpoint must really be the limit rate with f equal to
    # the target there (the target is the exact limit ratio)
    t_enc = ctx.t_inf.iv
    tangent = left if tangent_at == "left" else right
    if not (tangent.lo <= t_enc.hi and t_enc.lo <= tangent.hi):
        return False
    try:
        f_at = f.eval_interval(t_enc)
        texact = target.enclosure(Fraction(1, 2 ** 80))
        if not f_at.intersects(texact):
            return False
    except ZeroDivisionError:
        return False
    inner = count_roots_in(w2, RationalInterval(left.hi, right.lo))
    edge_l = count_roots_in(w2, RationalInterval(a, left.hi))
    edge_r = count_roots_in(w2, RationalInterval(right.lo, b))
    allow_l = 1 if tangent_at == "left" else 0
    allow_r = 1 if tangent_at == "right" else 0
    if inner > 0 or edge_l > allow_l or edge_r > allow_r:
        return False
    x = (left.hi + right.lo) / 2
    gap = SqrtRat(Fraction(num.eval(x)) / Fraction(den.eval(x)), 0, target.m) - target
    return gap.sign() > 0 if above else gap.sign() < 0


# ---------------------------------------------------------------------------
# branching tail above the limit
# ---------------------------------------------------------------------------

def check_gamma_upper(ctx: TailContext, k: int, lambda1: Fraction,
                      lambda2: Fraction, c: Fraction) -> TailCertificate:
    """Certify the eight branching-tail conditions.

    A pass proves: any connected graph containing H plus a length-k pendant
    path at v as an induced subgraph, with the root o of maximal weight,
    the path's far end branching (two or more outside neighbors), and no
    other vertex of the subgraph having outside neighbors, has balance
    ratio strictly above the limiting ratio of H with an infinite path.

    lambda1 < lambda2 bracket the eigenvalue window handled by direct
    ratio bounds; c calibrates the weight threshold along the path.
    c = 1 is accepted (and flagged) although the general statement asks for
    c > 1; the slack it buys is not used by the argument.
    """
    if ctx.o is None or ctx.B_ov is None:
        raise ValueError("branching-tail certificate needs the root vertex")
    lambda1, lambda2, c = Fraction(lambda1), Fraction(lambda2), Fraction(c)
    if not lambda1 < lambda2:
        raise ValueError("need lambda1 < lambda2")
    if c < 1:
        raise ValueError("need c >= 1")
    if k < 2:
        raise ValueError("branch distance floor k >= 2")
    conds = []

    # certified enclosures of the limit data
    beta_iv = ctx.gamma_inf(Fraction(1, 2 ** 50))
    lam_iv = ctx.lam_inf(Fraction(1, 2 ** 50))
    # conditions (v)-(viii) start from, and print, this enclosure of t_inf
    t_inf = ctx.t_inf.iv
    if not lam_iv.hi < lambda1:
        raise ValueError("lambda1 must exceed the limit eigenvalue")
    beta_hi = beta_iv.hi

    # (i) 2*lam_inf + 3 > beta_inf
    ok = 2 * lam_iv.lo + 3 > beta_iv.hi
    conds.append(ConditionResult(
        "transfer margin: 2*lam+3 above the limit ratio", ok, "interval",
        "2*%s+3 > %s" % (lam_iv.lo, beta_iv.hi)))

    # (ii) B_ov(lambda2) <= 1: exact rational comparison
    pl2 = ctx.char.eval(lambda2)
    ok = pl2 > 0 and ctx.B_ov.eval(lambda2) <= 1
    conds.append(ConditionResult(
        "root weight at the window top at most the path start", ok, "exact",
        "B_ov(%s) = %s" % (lambda2, ctx.B_ov.eval(lambda2))))

    # (iii) B_vv(lambda1) >= 1/t_inf
    q = ctx.B_vv.eval(lambda1)
    ok = False
    t_loc = RootEnclosure(ctx.t_inf.poly, t_inf)
    for _ in range(6):
        if q * t_loc.iv.lo >= 1:
            ok = True
            break
        if q * t_loc.iv.hi < 1:
            break
        t_loc.refine(t_loc.iv.width / 2 ** 10)
    conds.append(ConditionResult(
        "attachment weight at the window bottom at least the inverse rate",
        ok, "interval", "B_vv(%s)*t_inf in [%s, %s]"
        % (lambda1, float(q * t_loc.iv.lo), float(q * t_loc.iv.hi))))

    # (iv) (S+1)^2/(T+1) > beta on [lambda1, lambda2]
    one = RationalFunction.constant(1)
    ratio4 = ((ctx.S + one) * (ctx.S + one)) / (ctx.T + one)
    ok = _rf_nonneg_on_closed(ratio4 - RationalFunction.constant(beta_hi),
                              lambda1, lambda2)
    conds.append(ConditionResult(
        "two-vertex window bound", ok, "rational-upper",
        "(S+1)^2/(T+1) - %s > 0 on [%s, %s]" % (beta_hi, lambda1, lambda2)))

    # r' = r(lambda1); each condition narrows r' from this first isolation
    rp_poly = _r_poly(lambda1)
    r_prime = isolate_largest_root(rp_poly, T_EPS)

    # (v) jhat nondecreasing on (t_inf, r'), weak fallback jhat > beta there
    jp = ctx.J_hat.derivative()
    ok = _rf_nonneg_on_enclosed(jp, ctx.t_inf, RootEnclosure(rp_poly, r_prime))
    branch = "derivative"
    if not ok and ctx.exact_limit_ratio is not None:
        ok = _exact_gap_positive(ctx, ctx.J_hat, ctx.exact_limit_ratio,
                                 t_inf, r_prime, above=True,
                                 tangent_at="left")
        branch = "value-comparison"
    conds.append(ConditionResult(
        "profile ratio nondecreasing past the limit rate", ok, branch,
        "jhat' >= 0 on [%s, %s]" % (t_inf.lo, r_prime.hi)))

    # (vi), (vii): augmented ratios above beta on (t_inf, r')
    t, onet = ctx._t, ctx._one
    cconst = RationalFunction.constant(c)
    for name, extra1, extra2 in (
            ("augmented ratio at weight c", cconst, cconst * cconst),
            ("augmented ratio at weight c*t", cconst * t, cconst * cconst * t * t)):
        num = ctx.S_hat + onet + extra1
        ratio = (num * num) / (ctx.T_hat + onet + extra2)
        ok = _rf_nonneg_on_enclosed(ratio - RationalFunction.constant(beta_hi),
                                    ctx.t_inf, RootEnclosure(rp_poly, r_prime))
        conds.append(ConditionResult(name, ok, "rational-upper",
                                     "above %s on [%s, %s]"
                                     % (beta_hi, t_inf.lo, r_prime.hi)))

    # (viii) the k-dependent lower bound on the branch weight
    geo1 = t / (t - onet)
    tk = RationalFunction(IntPoly([1]), IntPoly([0] * k + [1]))
    factor = onet - ((t + onet) / (t - onet)) * tk
    # decreasing the leading coefficient 2/beta is conservative only if the
    # factor it multiplies is nonnegative; certify that first
    ok_factor = _rf_nonneg_on_enclosed(factor, ctx.t_inf,
                                       RootEnclosure(rp_poly, r_prime))
    two_over_beta = RationalFunction.constant(Fraction(2) / beta_hi)
    lhs = (two_over_beta * (ctx.S_hat + geo1) * factor
           - RationalFunction.constant(2 * k) * tk)
    lhs = lhs / ((t * t * t) / (t * t - onet))
    ok = ok_factor and _rf_nonneg_on_enclosed(
        lhs - RationalFunction.constant(c), ctx.t_inf,
        RootEnclosure(rp_poly, r_prime))
    monotone_note = ""
    floor = Fraction(2) + Fraction(1, k * (k + 1))
    if lam_iv.lo >= floor:
        monotone_note = ("; limit eigenvalue >= %s so the condition is "
                         "monotone in the branch distance" % floor)
    conds.append(ConditionResult(
        "branch-weight floor at tail length %d" % k, ok, "rational-upper",
        "k-term bound >= %s on [%s, %s]%s"
        % (c, t_inf.lo, r_prime.hi, monotone_note)))

    params = {"k": k, "lambda1": lambda1, "lambda2": lambda2, "c": c,
              "c_flag": "c = 1 accepted" if c == 1 else ""}
    return TailCertificate("branching-tail-above-limit",
                           write_graph6(ctx.base), params, tuple(conds))


def cond8_monotone_floor(ctx: TailContext, k0: int) -> bool:
    """True when the limit eigenvalue certifies that the branch-weight
    condition only needs checking at the minimal tail length k0."""
    lam_iv = ctx.lam_inf(Fraction(1, 2 ** 40))
    return lam_iv.lo >= Fraction(2) + Fraction(1, k0 * (k0 + 1))


# ---------------------------------------------------------------------------
# eigenvalue sandwich
# ---------------------------------------------------------------------------

def j_hat_samples(ctx: TailContext, t_lo: Fraction, t_hi: Fraction,
                  samples: int) -> list:
    """Sample the t-profile ratio on a rational grid, for plotting."""
    t_lo, t_hi = Fraction(t_lo), Fraction(t_hi)
    rows = []
    for k in range(samples):
        t = t_lo + (t_hi - t_lo) * Fraction(k, max(1, samples - 1))
        rows.append((float(t), float(ctx.J_hat.eval(t))))
    return rows


def lambda_sandwich_audit(base: Graph, v: int, k: int) -> bool:
    """Certify lam(H + path_k) < lam(H + infinite path) < lam(H + fork_k)."""
    ctx = TailContext(base, v)
    lam_inf = ctx.lam_inf(Fraction(1, 2 ** 40))
    path, fork = (RootEnclosure(resolvent_data(h).char_poly, lambda_enclosure(h))
                  for h in (attach_path(base, v, k), attach_fork(base, v, k, 2)))
    for _ in range(6):
        if path.iv.hi < lam_inf.lo and lam_inf.hi < fork.iv.lo:
            return True
        lam_inf = ctx.lam_inf(lam_inf.width / 2 ** 10 or Fraction(1, 2 ** 80))
        for enc in (path, fork):
            enc.refine(enc.iv.width / 2 ** 10 or Fraction(1, 2 ** 80))
    return False
