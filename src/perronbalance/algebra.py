"""Exact univariate polynomial arithmetic and certified real-root tools.

Everything in this module is exact: integer polynomials, rational
intervals, Taylor shifts, gcds by integer evaluation with an exact-division
check, root counts by Descartes bisection with Sturm sequences as the
fallback, root bisection and interval Horner on integer numerators over one
denominator, rational functions reduced over the integers, and exact signs
of quadratic irrationals a + b*sqrt(m) against each other and rationals.
Floating point appears only as a root-location hint, which changes no
output; every returned enclosure or sign verdict is certified by integer or
rational arithmetic.

Conventions: polynomial coefficients are stored ascending (coeffs[k] is
the coefficient of x^k) with trailing zeros trimmed, and intervals are
closed rational intervals [lo, hi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence, Union

Rat = Union[int, Fraction]


def _sign(x) -> int:
    return (x > 0) - (x < 0)


# ---------------------------------------------------------------------------
# integer polynomials
# ---------------------------------------------------------------------------

class IntPoly:
    """Univariate polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise TypeError("IntPoly coefficients must be int, got %r" % type(c))
        self.coeffs = tuple(cs)

    @classmethod
    def _from_ints(cls, cs: list) -> "IntPoly":
        """Trusted constructor for the ring operations: cs is a fresh list
        of ints, trimmed here without the per-coefficient type check."""
        while cs and cs[-1] == 0:
            cs.pop()
        p = object.__new__(cls)
        p.coeffs = tuple(cs)
        return p

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return "IntPoly(%s)" % (list(self.coeffs),)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly._from_ints(out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return IntPoly._from_ints(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly._from_ints([-c for c in self.coeffs])

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly._from_ints([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPoly._from_ints(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "IntPoly":
        out = IntPoly([1])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def shifted_degree(self, k: int) -> "IntPoly":
        """Multiply by x^k."""
        if not self.coeffs:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive(self) -> "IntPoly":
        """Primitive part with positive leading coefficient."""
        if not self.coeffs:
            return self
        g = self.content()
        if self.leading < 0:
            g = -g
        return IntPoly([c // g for c in self.coeffs])

    def reduce_content(self) -> "IntPoly":
        """Divide by the positive content, preserving the sign.

        Sturm chains may only be rescaled by positive constants, so chain
        members use this rather than primitive().
        """
        if not self.coeffs:
            return self
        g = self.content()
        if g <= 1:
            return self
        return IntPoly([c // g for c in self.coeffs])

    # -- evaluation ----------------------------------------------------------

    def eval(self, x: Rat) -> Fraction:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return Fraction(acc)

    def sign_at(self, x: Rat) -> int:
        """Exact sign of p(x) at a rational point, by _cleared."""
        q = Fraction(x)
        return _sign(_cleared(self.coeffs, q.numerator, q.denominator))

    def eval_interval(self, iv: "RationalInterval") -> "RationalInterval":
        """Interval Horner enclosure of p over iv.

        Runs on integer numerators over the common denominator of the
        endpoints (horner_interval) and gives exactly the endpoints of
        rational interval Horner, acc -> acc*iv + c from acc = [0, 0].
        """
        if not self.coeffs:
            return RationalInterval(Fraction(0), Fraction(0))
        lo, hi, den = iv.numerators()
        a, b = horner_interval(self.coeffs, lo, hi, den)
        scale = den ** self.degree
        return RationalInterval(Fraction(a, scale), Fraction(b, scale))

    # -- shifts ---------------------------------------------------------------

    def shift_int(self, a: int) -> "IntPoly":
        """Taylor shift p(x + a) by an integer, in-place Horner scheme."""
        c = list(self.coeffs)
        n = len(c)
        for j in range(n - 1):
            for i in range(n - 2, j - 1, -1):
                c[i] += a * c[i + 1]
        return IntPoly._from_ints(c)

    def certifies_no_roots_above(self, q: Rat) -> bool:
        """True if the shifted coefficients prove p has no real root > q.

        All shifted coefficients >= 0 with a positive one means p(q+y) > 0
        for y > 0.  For polynomials with all real roots (characteristic
        polynomials of symmetric matrices) this test succeeds for every q
        strictly above the largest root.
        """
        q = Fraction(q)
        s = _shifted(self.coeffs, q.numerator, q.denominator)
        return bool(s) and min(s) >= 0

    # -- exact division -------------------------------------------------------

    def divexact(self, g: "IntPoly") -> "IntPoly":
        """Exact quotient self / g by integer long division; raises
        ValueError as soon as the division is not exact."""
        if g.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        num = list(self.coeffs)
        gd, gl, gs = g.degree, g.leading, g.coeffs[:-1]
        out = [0] * max(0, len(num) - gd)
        for i in range(len(num) - 1, gd - 1, -1):
            q, r = divmod(num[i], gl)
            if r:
                raise ValueError("inexact polynomial division")
            out[i - gd] = q
            if q:
                for j, c in enumerate(gs, i - gd):
                    num[j] -= q * c
        if any(num[:gd]):
            raise ValueError("inexact polynomial division")
        return IntPoly._from_ints(out)

    # -- text form -------------------------------------------------------------

    def to_text(self) -> str:
        return poly_to_text([Fraction(c) for c in self.coeffs])


def horner_interval(coeffs: Sequence[int], lo: int, hi: int,
                    den: int) -> tuple:
    """Interval Horner on integer numerators.

    For ascending coefficients of degree m = len(coeffs) - 1 and the
    interval [lo/den, hi/den], den > 0, returns integers (a, b) such that
    [a/den^m, b/den^m] is exactly the rational interval Horner enclosure.
    After k steps the accumulator is [a, b]/den^(k-1): its product with
    [lo, hi]/den is the min and max of four integer products (den^k > 0
    keeps their order), and adding c adds c*den^k to both ends.  Signs pick
    the two products (Moore 1966): for lo >= 0, as on every eigenvalue
    enclosure, [a*lo, b*hi] if a >= 0, [a*hi, b*lo] if b <= 0, else
    [a*hi, b*hi]; hi <= 0 mirrors this, and only when both intervals
    straddle 0 are all four formed.  The ends need not be dyadic.
    """
    a = b = 0
    s = 1
    for c in reversed(coeffs):
        if lo >= 0:
            a, b = a * (lo if a >= 0 else hi), b * (hi if b >= 0 else lo)
        elif hi <= 0:
            a, b = b * (lo if b >= 0 else hi), a * (hi if a >= 0 else lo)
        elif a >= 0:
            a, b = b * lo, b * hi
        elif b <= 0:
            a, b = a * hi, a * lo
        else:
            a, b = min(a * hi, b * lo), max(a * lo, b * hi)
        cs = c * s
        a += cs
        b += cs
        s *= den
    return a, b


def _cleared(cs: Sequence[int], u: int, v: int) -> int:
    """v^d p(u/v) = sum_k c_k u^k v^(d-k) by integer Horner, d = deg p; for
    v > 0 it has the sign of p(u/v), whether or not u/v is reduced."""
    acc = 0
    vp = 1
    for c in reversed(cs):
        acc = acc * u + c * vp
        vp *= v
    return acc


def _shifted(cs: Sequence[int], u: int, v: int) -> tuple:
    """The Taylor shift by u of v^d p(y/v) = sum_k c_k v^(d-k) y^k, v > 0:
    sum_k t_k v^(d-k) y^k with t the coefficients of p(u/v + y), so it has
    their signs whether or not u/v is reduced.  For p != 0 the last one is
    not 0, so min >= 0 is certifies_no_roots_above(u/v)."""
    d = len(cs) - 1
    return IntPoly._from_ints([c * v ** (d - k) for k, c in enumerate(cs)]).shift_int(u).coeffs


def poly_to_text(coeffs: Sequence[Fraction]) -> str:
    """Serialize ascending coefficients as "c0 + c1*x + c2*x^2 + ..."."""
    if not coeffs:
        return "0"
    parts = []
    for k, c in enumerate(coeffs):
        c = Fraction(c)
        if k == 0:
            parts.append(str(c))
        elif k == 1:
            parts.append("%s*x" % c)
        else:
            parts.append("%s*x^%d" % (c, k))
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# rational intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalInterval:
    """Closed interval with exact rational endpoints, lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @staticmethod
    def point(x: Rat) -> "RationalInterval":
        x = Fraction(x)
        return RationalInterval(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def width_at_most(self, eps: Rat) -> bool:
        """Whether hi - lo <= eps, decided on the integer numerators."""
        lo, hi, den = self.numerators()
        return (hi - lo) * eps.denominator <= eps.numerator * den

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def mid_float(self) -> float:
        return float(self.mid)

    def numerators(self) -> tuple:
        """(lo_num, hi_num, den): the endpoints over den = lcm of their
        denominators."""
        dl, dh = self.lo.denominator, self.hi.denominator
        den = math.lcm(dl, dh)
        return (self.lo.numerator * (den // dl),
                self.hi.numerator * (den // dh), den)

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def add(self, other: "RationalInterval") -> "RationalInterval":
        return RationalInterval(self.lo + other.lo, self.hi + other.hi)

    def add_scalar(self, c: Rat) -> "RationalInterval":
        return RationalInterval(self.lo + c, self.hi + c)

    def mul_interval(self, other: "RationalInterval") -> "RationalInterval":
        vals = (self.lo * other.lo, self.lo * other.hi,
                self.hi * other.lo, self.hi * other.hi)
        return RationalInterval(min(vals), max(vals))

    def mul_scalar(self, c: Rat) -> "RationalInterval":
        c = Fraction(c)
        if c >= 0:
            return RationalInterval(self.lo * c, self.hi * c)
        return RationalInterval(self.hi * c, self.lo * c)

    def recip(self) -> "RationalInterval":
        if self.contains_zero():
            raise ZeroDivisionError("interval contains zero")
        return RationalInterval(1 / self.hi, 1 / self.lo)

    def div(self, other: "RationalInterval") -> "RationalInterval":
        return self.mul_interval(other.recip())

    def intersects(self, other: "RationalInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __repr__(self):
        return "[%s, %s]" % (self.lo, self.hi)


# ---------------------------------------------------------------------------
# Sturm sequences and root counting
# ---------------------------------------------------------------------------

def _prem_keep_sign(f: IntPoly, g: IntPoly) -> IntPoly:
    """Remainder of f by g scaled only by positive constants.

    Each elimination step either divides exactly or multiplies the running
    remainder by |lc(g)|, so the result is a positive multiple of the true
    remainder and sign sequences built from it match the classical chain.
    """
    if f.degree < g.degree:
        return f
    gl = g.leading
    r = f
    while not r.is_zero() and r.degree >= g.degree:
        k = r.degree - g.degree
        c = r.leading
        if c % gl == 0:
            r = r - g.shifted_degree(k) * (c // gl)
        else:
            r = r * gl - g.shifted_degree(k) * c
            if gl < 0:
                r = -r
    return r


# Evaluation points poly_gcd tries before the pseudo-remainder sequence.
GCD_EVALUATIONS = 6


def poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd over the integers (sign-normalized, leading > 0) by
    integer evaluation (Char, Geddes & Gonnet, J. Symbolic Comput. 7, 1989).

    With a, b the primitive parts, |.| the largest absolute coefficient and
    xi > 2 min(|a|, |b|) + 2, G has the digits of h = gcd(a(xi), b(xi)) in
    base xi, each in (-xi/2, xi/2], as coefficients, and pp(G) is returned
    only if it divides a and b exactly.  Then it is the gcd g = pp(G) q:
    g(xi) divides h = cont(G) pp(G)(xi), not 0 as xi exceeds the roots of
    a, so q(xi) divides cont(G) and |q(xi)| <= |G| <= xi/2; a root r of q
    is one of a and of b, so |r| < 1 + min(|a|, |b|) < xi/2 (Cauchy), and a
    nonconstant q would have |q(xi)| >= prod |xi - r| > xi/2.  So q is a
    constant, 1 as g and pp(G) are primitive with leading coefficients > 0.
    Else xi grows; after GCD_EVALUATIONS points, _prs_gcd decides.
    """
    a, b = f.primitive(), g.primitive()
    if not (a and b):
        return a or b
    xi = 2 * min(max(map(abs, a.coeffs)), max(map(abs, b.coeffs))) + 29
    for _ in range(GCD_EVALUATIONS):
        h = math.gcd(a.eval(xi).numerator, b.eval(xi).numerator)
        digits, half = [], (xi - 1) // 2
        while h:
            digits.append((h + half) % xi - half)
            h = (h - digits[-1]) // xi
        G = IntPoly._from_ints(digits).primitive()
        try:
            a.divexact(G)
            b.divexact(G)
            return G
        except ValueError:
            xi = xi * 73794 // 27011
    return _prs_gcd(a, b)


def _prs_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """poly_gcd's fallback: the primitive pseudo-remainder sequence."""
    while not b.is_zero():
        a, b = b, _prem_keep_sign(a, b).primitive()
    return a


def squarefree_part(p: IntPoly) -> IntPoly:
    if p.degree <= 0:
        return p.primitive() if p.coeffs else p
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p.primitive()
    return p.primitive().divexact(g).primitive()


@lru_cache(maxsize=512)
def _sturm_chain(coeffs: tuple) -> tuple:
    p = squarefree_part(IntPoly(coeffs))
    chain = [p, p.derivative().reduce_content()]
    while not chain[-1].is_zero():
        r = _prem_keep_sign(chain[-2], chain[-1])
        if r.is_zero():
            break
        chain.append((-r).reduce_content())
    return tuple(chain)


def _variations_at(chain, x: Fraction) -> int:
    signs = [q.sign_at(x) for q in chain]
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def sturm_count(p: IntPoly, interval: RationalInterval) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi],
    from the Sturm chain of its squarefree part.

    count_roots_in is the root counter; this is its fallback for the roots
    that bisection cannot separate, a multiple root above all.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    chain = _sturm_chain(p.coeffs)
    return _variations_at(chain, interval.lo) - _variations_at(chain, interval.hi)


# Bisection depth past which count_roots_in hands the count to sturm_count:
# a multiple root, or roots closer than (hi - lo)/2^DESCARTES_DEPTH, keep
# the Descartes bound above 1 on every subinterval around them.
DESCARTES_DEPTH = 24

# count_roots_in calls, bisection nodes visited, and Sturm fallbacks.
_ROOT_COUNTS = {"descartes": 0, "nodes": 0, "sturm": 0}


def root_count_info() -> dict:
    """How many count_roots_in calls ran, how many bisection nodes they
    visited, and how many fell back to sturm_count."""
    return dict(_ROOT_COUNTS)


def _sign_variations(coeffs: Sequence[int]) -> int:
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def count_roots_in(p: IntPoly, interval: RationalInterval) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi],
    as sturm_count, by Descartes bisection (Collins & Akritas 1976).

    With lo = a/b, _shifted(a, b) is b^d p(lo + x/b); scaling x by
    w = (hi - lo)*b = u/v and clearing v^d gives p1, a positive multiple of
    p(lo + (hi - lo) y), so the roots of p in (lo, hi) are those of p1 in
    (0, 1).  For a polynomial q of degree d, the roots of q in (0, 1) are the
    positive roots of (1 + y)^d q(1/(1 + y)) = reverse(q)(y + 1), counted
    with multiplicity; by Descartes' rule of signs the sign variations of
    its coefficients bound that number and have its parity, so 0 variations
    mean no root and 1 means exactly one, a simple one.  A node with more
    splits into 2^d q(y/2) and 2^d q((1 + y)/2), the two halves of (0, 1);
    the midpoint is a root iff the right half vanishes at 0, and is counted
    there once.  A root at lo is never counted (p1 vanishes at 0, outside
    every open subinterval) and a root at hi is counted by sign_at(hi).
    Bisection ends at a node of depth DESCARTES_DEPTH, and the whole count
    is then sturm_count's.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    _ROOT_COUNTS["descartes"] += 1
    lo, hi = interval.lo, interval.hi
    if lo == hi:
        return 0
    s = _shifted(p.coeffs, lo.numerator, lo.denominator)
    w = (hi - lo) * lo.denominator
    u, v = w.numerator, w.denominator
    d = len(s) - 1
    found = 1 if p.sign_at(hi) == 0 else 0
    p1 = IntPoly._from_ints([c * u ** k * v ** (d - k) for k, c in enumerate(s)])
    stack = [(p1, 0)]
    while stack:
        q, depth = stack.pop()
        _ROOT_COUNTS["nodes"] += 1
        reverse = IntPoly._from_ints(list(q.coeffs[::-1]))
        var = _sign_variations(reverse.shift_int(1).coeffs)
        if var < 2:
            found += var
            continue
        if depth == DESCARTES_DEPTH:
            _ROOT_COUNTS["sturm"] += 1
            return sturm_count(p, interval)
        left = IntPoly._from_ints([c << (d - k) for k, c in enumerate(q.coeffs)])
        right = left.shift_int(1)
        if right.coeffs[0] == 0:
            found += 1
        stack += [(left, depth + 1), (right, depth + 1)]
    return found


def root_bound(p: IntPoly) -> int:
    """Cauchy bound: all real roots lie in (-M, M)."""
    if p.degree < 0:
        return 1
    lead = abs(p.leading)
    m = max(abs(c) for c in p.coeffs)
    return 1 + (m + lead - 1) // lead


def count_roots_above(p: IntPoly, a: Rat) -> int:
    """Number of distinct real roots of p in (a, +infinity).

    Every real root lies in (-M, M) with M = root_bound(p), so these are
    the roots count_roots_in finds in (a, M], and none when a >= M.
    """
    M = root_bound(p)
    if a >= M:
        return 0
    return count_roots_in(p, RationalInterval(a, M))


class NoRealRootError(ValueError):
    pass


_START_EXPONENTS = (-20, -10, -4, 0)


def isolate_largest_root(p: IntPoly, eps: Rat = Fraction(1, 2 ** 40),
                         hint: float | None = None) -> RationalInterval:
    """Certified isolating interval around the largest real root of p,
    fixed by p and eps alone.

    With w the largest power of two <= eps, it is the aligned dyadic cell
    (m*w, (m+1)*w] that holds the largest root, or that root itself when it
    is a multiple of w.  Should the cell hold a smaller root too, the
    closing count of _refine_largest halves it on until it isolates one.

    p is replaced by its primitive part, so its leading coefficient is
    positive and p(x) -> +infinity as x -> +infinity.  A start cell (lo, hi]
    holds the largest root when p(lo) < 0, which puts a root above lo, and
    p.certifies_no_roots_above(hi), which puts none above hi.  A float hint
    only picks the cells tried: the aligned cells of width w, 2^-20, 2^-10,
    2^-4 and 1 (those not below w) that hold the hint, each followed by its
    two neighbours (the index ceil(hint/width) is exact on the double's
    integer ratio).  Failing those, the start is (0, 2^K] if a root lies
    above 0 and otherwise (-2^K, 0], with 2^K >= root_bound(p) and >= w.
    Every start is an aligned cell of width at least w, and halving keeps a
    cell, integer numerators over a power of two, aligned, so
    _refine_largest reaches the same cell from each.
    """
    if p.degree < 1:
        raise NoRealRootError("constant polynomial has no roots")
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    e = eps.numerator.bit_length() - eps.denominator.bit_length()
    if eps.denominator << max(e, 0) > eps.numerator << max(-e, 0):
        e -= 1
    w = Fraction(1 << max(e, 0), 1 << max(-e, 0))
    p = p.primitive()
    cs = p.coeffs
    if hint is not None and math.isfinite(hint):
        hn, hd = hint.as_integer_ratio()
        for j in [e] + [c for c in _START_EXPONENTS if c > e]:
            a, b = 1 << max(j, 0), 1 << max(-j, 0)
            m = -(-hn * b // (hd * a)) - 1
            for k in (m, m - 1, m + 1):
                if _cleared(cs, k * a, b) < 0 and min(_shifted(cs, (k + 1) * a, b)) >= 0:
                    return _refine_largest(p, k * a, (k + 1) * a, b, w)
    top = int(max(1 << (root_bound(p) - 1).bit_length(), w))
    if count_roots_above(p, 0):
        return _refine_largest(p, 0, top, 1, w)
    if count_roots_in(p, RationalInterval(-top, 0)):
        return _refine_largest(p, -top, 0, 1, w)
    raise NoRealRootError("polynomial has no real roots")


def _refine_largest(p: IntPoly, lo: int, hi: int, v: int,
                    eps: Fraction) -> RationalInterval:
    """Halve (lo/v, hi/v] around the largest real root of p to width <= eps
    and certify that the result contains no other root.

    Requires p primitive, so its leading coefficient is positive, and the
    largest real root in (lo/v, hi/v].  Then no root lies above hi and
    p > 0 on (hi, infinity).  Each step keeps the invariant, and each
    decision is the one a count of the roots above mid would make:

    (a) p(mid) < 0.  Since p(x) -> +infinity, a root lies in (mid, infinity),
        so in (mid, hi]: set lo = mid.  An exact zero at hi is the largest
        root for the same reason.  Neither needs a count.
    (b) p(mid) = 0.  mid is the largest root iff no root lies above it.
        That is proved by (c), or by p.certifies_no_roots_above(mid);
        count_roots_above decides only when both fail.  If a root lies
        above, set lo = mid.
    (c) Once p'.certifies_no_roots_above(lo) holds, p' > 0 on (lo, infinity),
        so p is strictly increasing there and has at most one root in it.
        For every later mid > lo, p(mid) > 0 then leaves no root above mid,
        so hi = mid on the sign alone, and the closing check "exactly one
        root in (lo, hi]" needs no count: the rest is _bisect with the sign
        +1 at hi.  The test is made at entry and again each time lo moves,
        until it holds.  It holds whenever every root of p', real or not,
        has real part below lo: the real factors of p'(lo + y) are then
        y + a and y^2 + b*y + c with a, b, c > 0, whose product has positive
        coefficients.  For a characteristic polynomial every root is real,
        and the test holds once lo passes the largest root of p', which
        lies below the largest root of p.

    Until (c) holds, root counts still run: a step with p(mid) > 0 sets
    hi = mid when p.certifies_no_roots_above(mid) holds and otherwise asks
    count_roots_above, and the closing check is count_roots_in on (lo, hi],
    followed by bisection on those counts until the interval isolates one
    root.  By the above, that can happen only while some root of p' has
    real part at or above lo: for a p with nonreal roots possibly to the
    end, and otherwise when eps is coarser than the distance from the
    bracket to the largest root of p'.
    """
    cs = p.coeffs
    if _cleared(cs, hi, v) == 0:
        return RationalInterval.point(Fraction(hi, v))
    dp = p.derivative().coeffs
    en, ed = eps.numerator, eps.denominator
    rising = min(_shifted(dp, lo, v)) >= 0
    while not rising and (hi - lo) * ed > en * v:
        mid = lo + hi
        lo, hi, v = lo << 1, hi << 1, v << 1
        s = _sign(_cleared(cs, mid, v))
        if s < 0:
            lo = mid
            rising = min(_shifted(dp, lo, v)) >= 0
        elif min(_shifted(cs, mid, v)) >= 0 \
                or count_roots_above(p, Fraction(mid, v)) == 0:
            if s == 0:
                return RationalInterval.point(Fraction(mid, v))
            hi = mid
        else:
            # a root lies above mid, so (c) cannot hold at mid
            lo = mid
    if rising:
        return _bisect(cs, lo, hi, v, en, ed, 1)
    lo, hi = Fraction(lo, v), Fraction(hi, v)
    iv = RationalInterval(lo, hi)
    if count_roots_in(p, iv) != 1:
        # shrink further until separated
        for _ in range(200):
            mid = (lo + hi) / 2
            if count_roots_above(p, mid) >= 1:
                lo = mid
            else:
                hi = mid
            iv = RationalInterval(lo, hi)
            if count_roots_in(p, iv) == 1:
                break
        else:
            raise ArithmeticError("failed to separate largest root")
    return iv


def _bisect(cs: Sequence[int], lo: int, hi: int, v: int, en: int, ed: int,
            shi: int) -> RationalInterval:
    """Halve (lo/v, hi/v] to width <= en/ed around the one root of p in it,
    where p changes sign to shi != 0, its sign at hi/v.  Halving doubles
    lo, hi and v, so the midpoint is the integer lo + hi of the old ends."""
    width, bound = (hi - lo) * ed, en * v
    while width > bound:
        mid = lo + hi
        lo, hi, v, bound = lo << 1, hi << 1, v << 1, bound << 1
        s = _sign(_cleared(cs, mid, v))
        if s == 0:
            return RationalInterval.point(Fraction(mid, v))
        if s == shi:
            hi = mid
        else:
            lo = mid
    return RationalInterval(Fraction(lo, v), Fraction(hi, v))


def refine_root(p: IntPoly, iv: RationalInterval, eps: Rat) -> RationalInterval:
    """Shrink an isolating interval of a simple root of p to width <= eps.

    The root is the only one in (lo, hi], and p changes sign across it, so
    each decision compares the sign at mid with the sign at hi.  A root of
    p at lo, outside (lo, hi], is never returned.  The ends are halved as
    integer numerators over their common denominator (_bisect).
    """
    eps = Fraction(eps)
    lo, hi, v = iv.numerators()
    if (hi - lo) * eps.denominator <= eps.numerator * v:
        return iv
    shi = _sign(_cleared(p.coeffs, hi, v))
    if shi == 0:
        return RationalInterval.point(iv.hi)
    if _sign(_cleared(p.coeffs, lo, v)) == shi:
        raise ValueError("interval endpoints do not bracket a sign change")
    return _bisect(p.coeffs, lo, hi, v, eps.numerator, eps.denominator, shi)


class RootEnclosure:
    """A simple real root of poly held as its isolating interval iv, which
    refine(eps) narrows in place and never widens.  Bisection continues
    where the last request stopped, so the result equals refining the first
    interval straight to the last eps."""

    __slots__ = ("poly", "iv")

    def __init__(self, poly: IntPoly, iv: RationalInterval):
        self.poly = poly
        self.iv = iv

    def refine(self, eps: Rat) -> RationalInterval:
        self.iv = refine_root(self.poly, self.iv, eps)
        return self.iv


# ---------------------------------------------------------------------------
# positivity certificates
# ---------------------------------------------------------------------------

def ray_verdict(q: IntPoly, lo: Fraction, hi: Fraction) -> tuple:
    """Certify q >= 0 on the ray [x0, infinity) whose start x0 is only known
    to lie in [lo, hi].

    Returns (kind, witness) from the first rung that decides.
    "coefficients": q is not zero and its coefficients shifted to lo are
    nonnegative (certifies_no_roots_above).
    "fail": q(witness) < 0 exactly, at hi or at the first negative point
    of _root_separating_points(q, hi); witness >= hi, so the inequality is
    false on the true ray.  "sturm": q(lo) >= 0 and q > 0 at the points of
    _root_separating_points(q, lo), one in each gap between the roots of q
    above lo, so q >= 0 on [lo, infinity) and touches zero only at its
    roots (tangencies).  The counts are count_roots_in's; the name "sturm"
    is the one reports read.  "undecided": the sign trouble may lie inside
    [lo, hi]; tighten the enclosure of x0 and ask again.
    """
    if q.certifies_no_roots_above(lo):
        return "coefficients", None
    if q.sign_at(hi) < 0:
        return "fail", hi
    for x in _root_separating_points(q, hi):
        if q.sign_at(x) < 0:
            return "fail", x
    if q.sign_at(lo) >= 0 and all(
            q.sign_at(x) > 0 for x in _root_separating_points(q, lo)):
        return "sturm", None
    return "undecided", None


def _root_separating_points(q: IntPoly, a: Fraction) -> list:
    """Rational points above a, none a root of q, with one in each gap
    between a and the distinct roots of q above it and one above them all.

    (a, M] with M = max(root_bound(q), a + 1) is bisected into cells
    (l, h] counted by count_roots_in, until the cell at a holds no root and
    every other cell at most one.  A midpoint that is a root moves toward
    h, which is not.  The right ends are the points: the one of the cell at
    a lies below the first root, and the one of a cell holding a root lies
    above it and below the next.
    """
    M = max(Fraction(root_bound(q)), a + 1)
    cells = [(a, M, count_roots_in(q, RationalInterval(a, M)))]
    points = []
    while cells:
        l, h, n = cells.pop()
        if n > 1 or n == 1 and l == a:
            m = (l + h) / 2
            while q.sign_at(m) == 0:
                m = (m + h) / 2
            k = count_roots_in(q, RationalInterval(l, m))
            cells += [(l, m, k), (m, h, n - k)]
        else:
            points.append(h)
    return sorted(points)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RationalFunction:
    """Quotient of integer polynomials, stored gcd-reduced by poly_gcd
    (integer evaluation, checked by exact division).

    The denominator has positive leading coefficient and the pair carries
    no common integer content.  Arithmetic is among rational functions
    only; from_poly and constant make the operands.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: IntPoly, den: IntPoly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        # over a constant denominator the polynomial gcd is 1; the integer
        # content is cleared below
        if den.degree > 0 and not num.is_zero():
            g = poly_gcd(num, den)
            if g.degree > 0 or abs(g.leading) > 1:
                num = num.divexact(g)
                den = den.divexact(g)
        if num.is_zero():
            den = IntPoly([1])
        c = math.gcd(num.content() or 0, den.content())
        if c > 1:
            num = IntPoly([x // c for x in num.coeffs])
            den = IntPoly([x // c for x in den.coeffs])
        if den.leading < 0:
            num, den = -num, -den
        self.num, self.den = num, den

    @staticmethod
    def from_poly(p: IntPoly) -> "RationalFunction":
        return RationalFunction(p, IntPoly([1]))

    @staticmethod
    def constant(c: Rat) -> "RationalFunction":
        c = Fraction(c)
        return RationalFunction(IntPoly([c.numerator]), IntPoly([c.denominator]))

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalFunction)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return "(%s) / (%s)" % (self.num.to_text(), self.den.to_text())

    def __add__(self, o: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * o.den + o.num * self.den,
                                self.den * o.den)

    def __sub__(self, o: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * o.den - o.num * self.den,
                                self.den * o.den)

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __mul__(self, o: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * o.num, self.den * o.den)

    def __truediv__(self, o: "RationalFunction") -> "RationalFunction":
        if o.num.is_zero():
            raise ZeroDivisionError
        return RationalFunction(self.num * o.den, self.den * o.num)

    def derivative(self) -> "RationalFunction":
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den)

    def eval(self, x: Rat) -> Fraction:
        d = self.den.eval(x)
        if d == 0:
            raise ZeroDivisionError("pole at %s" % x)
        return self.num.eval(x) / d

    def eval_interval(self, iv: RationalInterval) -> RationalInterval:
        den_iv = self.den.eval_interval(iv)
        if den_iv.contains_zero():
            raise ZeroDivisionError("denominator interval contains zero")
        return self.num.eval_interval(iv).div(den_iv)


def substitute_t(f: RationalFunction) -> RationalFunction:
    """Substitute lam = t + 1/t, returning an exact rational function of t.

    The substitution clears the radical in r(lam) = (lam + sqrt(lam^2-4))/2:
    with t = r(lam) and t > 1 the two functions agree.
    """
    def lift(p: IntPoly) -> tuple[IntPoly, int]:
        # p(t + 1/t) = phat(t) / t^deg
        d = p.degree
        if d < 0:
            return IntPoly(), 0
        acc = IntPoly()
        t2p1 = IntPoly([1, 0, 1])
        for k in range(d + 1):
            if p.coeffs[k]:
                acc = acc + (t2p1 ** k).shifted_degree(d - k) * p.coeffs[k]
        return acc, d

    nhat, dn = lift(f.num)
    dhat, dd = lift(f.den)
    if dd >= dn:
        return RationalFunction(nhat.shifted_degree(dd - dn), dhat)
    return RationalFunction(nhat, dhat.shifted_degree(dn - dd))


# ---------------------------------------------------------------------------
# characteristic polynomial and adjugate
# ---------------------------------------------------------------------------

class ResolventData:
    """Characteristic polynomial P(x) = det(xI - A) of a graph and the
    adjugate adj(xI - A), entrywise integer polynomials.

    The adjugate is read by column: column(j) is the tuple of entries
    adj[i][j], i = 0..n-1, built by column_of(j) on first request and kept.
    The full matrix, adjugate[i][j], is assembled from the columns on first
    access, after which column_of is dropped.  A is symmetric, so is its
    adjugate, and column j serves as row j.
    """

    __slots__ = ("char_poly", "n", "_column_of", "_columns", "_adjugate")

    def __init__(self, char_poly: IntPoly, n: int,
                 column_of: Callable[[int], tuple]):
        self.char_poly = char_poly
        self.n = n
        self._column_of = column_of
        self._columns = {}
        self._adjugate = None

    def column(self, j: int) -> tuple:
        got = self._columns.get(j)
        if got is None:
            got = self._columns[j] = tuple(self._column_of(j))
        return got

    @property
    def adjugate(self) -> tuple:
        """The n x n tuple of IntPoly, adjugate[i] = column(i)."""
        if self._adjugate is None:
            self._adjugate = tuple(self.column(j) for j in range(self.n))
            self._column_of = None
        return self._adjugate


# ---------------------------------------------------------------------------
# quadratic irrationals a + b*sqrt(m)
# ---------------------------------------------------------------------------

class SqrtRat:
    """Exact real number a + b*sqrt(m), a and b rational, m a positive
    square-free integer: the value the certificates compare against.

    It supports what a comparison needs: a difference with another such
    number of the same radicand or with a rational, the exact sign of that
    difference, and rational enclosures of any width.
    """

    __slots__ = ("a", "b", "m")

    def __init__(self, a: Rat, b: Rat = 0, m: int = 3):
        a, b = Fraction(a), Fraction(b)
        if m <= 0:
            raise ValueError("m must be positive")
        # extract square factors so equal values share a radicand
        k = 2
        while k * k <= m:
            while m % (k * k) == 0:
                m //= k * k
                b *= k
            k += 1
        if m == 1:
            a, b, m = a + b, Fraction(0), 3
        self.a, self.b, self.m = a, b, m

    def __sub__(self, other: "SqrtRat | Rat") -> "SqrtRat":
        if not isinstance(other, SqrtRat):
            return SqrtRat(self.a - Fraction(other), self.b, self.m)
        if self.b and other.b and self.m != other.m:
            raise ValueError("mixed radicands")
        m = self.m if self.b else other.m
        return SqrtRat(self.a - other.a, self.b - other.b, m)

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return _sign(a)
        if a == 0:
            return _sign(b)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 to m*b^2
        lhs, rhs = a * a, self.m * b * b
        if a > 0:
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return -1 if lhs > rhs else (1 if lhs < rhs else 0)

    def __eq__(self, other):
        try:
            return (self - other).sign() == 0
        except (TypeError, ValueError):
            return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.m if self.b else 0))

    def __repr__(self):
        if self.b == 0:
            return str(self.a)
        return "(%s + %s*sqrt(%d))" % (self.a, self.b, self.m)

    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not rational")
        return self.a

    def enclosure(self, eps: Rat = Fraction(1, 2 ** 60)) -> RationalInterval:
        """Rational interval of width <= eps containing the exact value."""
        eps = Fraction(eps)
        if self.b == 0:
            return RationalInterval.point(self.a)
        bits = 4
        while True:
            scale = 1 << bits
            s_lo = Fraction(math.isqrt(self.m * scale * scale), scale)
            s_hi = s_lo + Fraction(1, scale)
            sq = RationalInterval(s_lo, s_hi)
            iv = sq.mul_scalar(self.b).add_scalar(self.a)
            if iv.width <= eps:
                return iv
            bits *= 2
