"""Exact univariate polynomial arithmetic and certified real-root tools.

Everything in this module is exact: integer polynomials, rational
intervals, Sturm sequences, Taylor shifts, and rational functions reduced
over the integers.  Floating point appears only as a root-location hint;
every returned enclosure or sign verdict is certified by integer or
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
from typing import Iterable, Sequence, Union

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
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return Fraction(acc)

    def sign_at(self, x: Rat) -> int:
        """Exact sign of p(x) at a rational point, integer arithmetic only.

        Uses the cleared Horner form v^d * p(u/v) = sum c_k u^k v^(d-k).
        """
        d = self.degree
        if d < 0:
            return 0
        q = Fraction(x)
        u, v = q.numerator, q.denominator
        acc = 0
        vp = 1
        for k in range(d, -1, -1):
            acc = acc * u + self.coeffs[k] * vp
            if k:
                vp *= v
        return _sign(acc)

    def eval_interval(self, iv: "RationalInterval") -> "RationalInterval":
        acc = RationalInterval(Fraction(0), Fraction(0))
        for c in reversed(self.coeffs):
            acc = acc.mul_interval(iv).add_scalar(c)
        return acc

    # -- shifts ---------------------------------------------------------------

    def shift_int(self, a: int) -> "IntPoly":
        """Taylor shift p(x + a) by an integer, in-place Horner scheme."""
        c = list(self.coeffs)
        n = len(c)
        for j in range(n - 1):
            for i in range(n - 2, j - 1, -1):
                c[i] += a * c[i + 1]
        return IntPoly._from_ints(c)

    def shift_scaled(self, q: Rat) -> "IntPoly":
        """Integer polynomial whose coefficients have the same signs as those
        of p(x + q) for rational q.

        With q = a/b, returns sum_k (b^(d-k) * ptilde_k) x^k where ptilde is
        the true shifted polynomial; each coefficient is scaled by a positive
        power of b, so the sign pattern is preserved exactly.
        """
        q = Fraction(q)
        a, b = q.numerator, q.denominator
        if b == 1:
            return self.shift_int(a)
        d = self.degree
        if d < 0:
            return self
        scaled = [self.coeffs[k] * b ** (d - k) for k in range(d + 1)]
        return IntPoly._from_ints(scaled).shift_int(a)

    def all_coeffs_nonneg_shifted(self, q: Rat) -> bool:
        return all(c >= 0 for c in self.shift_scaled(q).coeffs)

    def certifies_no_roots_above(self, q: Rat) -> bool:
        """True if the shifted coefficients prove p has no real root > q.

        All shifted coefficients >= 0 with a positive one means p(q+y) > 0
        for y > 0.  For polynomials with all real roots (characteristic
        polynomials of symmetric matrices) this test succeeds for every q
        strictly above the largest root.
        """
        s = self.shift_scaled(q).coeffs
        return bool(s) and all(c >= 0 for c in s) and any(c > 0 for c in s)

    # -- exact division -------------------------------------------------------

    def divexact(self, g: "IntPoly") -> "IntPoly":
        """Exact quotient self / g; raises if the division is not exact."""
        if g.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        num = [Fraction(c) for c in self.coeffs]
        gd, gl = g.degree, g.leading
        out = [Fraction(0)] * max(0, len(num) - gd)
        for i in range(len(num) - 1, gd - 1, -1):
            q = num[i] / gl
            out[i - gd] = q
            if q:
                for j, gc in enumerate(g.coeffs):
                    num[i - gd + j] -= q * gc
        if any(num[: gd if gd > 0 else len(num)]):
            if any(num):
                raise ValueError("inexact polynomial division")
        res = []
        for q in out:
            if q.denominator != 1:
                raise ValueError("inexact polynomial division")
            res.append(q.numerator)
        return IntPoly(res)

    # -- text form -------------------------------------------------------------

    def to_text(self, var: str = "x") -> str:
        return poly_to_text([Fraction(c) for c in self.coeffs], var)


def poly_to_text(coeffs: Sequence[Fraction], var: str = "x") -> str:
    """Serialize ascending coefficients as "c0 + c1*x + c2*x^2 + ..."."""
    if not coeffs:
        return "0"
    parts = []
    for k, c in enumerate(coeffs):
        c = Fraction(c)
        if k == 0:
            parts.append(str(c))
        elif k == 1:
            parts.append("%s*%s" % (c, var))
        else:
            parts.append("%s*%s^%d" % (c, var, k))
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

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def mid_float(self) -> float:
        return float(self.mid)

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def strictly_positive(self) -> bool:
        return self.lo > 0

    def add(self, other: "RationalInterval") -> "RationalInterval":
        return RationalInterval(self.lo + other.lo, self.hi + other.hi)

    def add_scalar(self, c: Rat) -> "RationalInterval":
        return RationalInterval(self.lo + c, self.hi + c)

    def sub(self, other: "RationalInterval") -> "RationalInterval":
        return RationalInterval(self.lo - other.hi, self.hi - other.lo)

    def neg(self) -> "RationalInterval":
        return RationalInterval(-self.hi, -self.lo)

    def mul_interval(self, other: "RationalInterval") -> "RationalInterval":
        vals = (self.lo * other.lo, self.lo * other.hi,
                self.hi * other.lo, self.hi * other.hi)
        return RationalInterval(min(vals), max(vals))

    def mul_scalar(self, c: Rat) -> "RationalInterval":
        c = Fraction(c)
        if c >= 0:
            return RationalInterval(self.lo * c, self.hi * c)
        return RationalInterval(self.hi * c, self.lo * c)

    def square(self) -> "RationalInterval":
        if self.lo >= 0:
            return RationalInterval(self.lo * self.lo, self.hi * self.hi)
        if self.hi <= 0:
            return RationalInterval(self.hi * self.hi, self.lo * self.lo)
        return RationalInterval(Fraction(0), max(self.lo * self.lo, self.hi * self.hi))

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


def poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd over the integers (sign-normalized, leading > 0)."""
    a, b = f.primitive(), g.primitive()
    while not b.is_zero():
        r = _prem_keep_sign(a, b)
        a, b = b, r.primitive() if not r.is_zero() else IntPoly()
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


def _variations_at_inf(chain, positive: bool) -> int:
    signs = []
    for q in chain:
        if q.is_zero():
            continue
        s = _sign(q.leading)
        if not positive and q.degree % 2 == 1:
            s = -s
        signs.append(s)
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def sturm_count(p: IntPoly, interval: RationalInterval) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi]."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    chain = _sturm_chain(p.coeffs)
    return _variations_at(chain, interval.lo) - _variations_at(chain, interval.hi)


def count_roots_above(p: IntPoly, a: Rat) -> int:
    """Number of distinct real roots of p in (a, +infinity)."""
    chain = _sturm_chain(p.coeffs)
    return _variations_at(chain, Fraction(a)) - _variations_at_inf(chain, True)


def count_real_roots(p: IntPoly) -> int:
    chain = _sturm_chain(p.coeffs)
    return _variations_at_inf(chain, False) - _variations_at_inf(chain, True)


def root_bound(p: IntPoly) -> int:
    """Cauchy bound: all real roots lie in (-M, M)."""
    if p.degree < 0:
        return 1
    lead = abs(p.leading)
    m = max(abs(c) for c in p.coeffs)
    return 1 + (m + lead - 1) // lead


class NoRealRootError(ValueError):
    pass


def isolate_largest_root(p: IntPoly, eps: Rat = Fraction(1, 2 ** 40),
                         hint: float | None = None) -> RationalInterval:
    """Certified isolating interval of width <= eps around the largest real
    root of p, containing no other root.

    A float hint (for instance from power iteration) only seeds the search;
    all certifications are exact.  Returns a degenerate interval when the
    largest root is rational and gets hit exactly.
    """
    if p.degree < 1:
        raise NoRealRootError("constant polynomial has no roots")
    eps = Fraction(eps)
    p = p.primitive()
    M = root_bound(p)

    lo = hi = None
    if hint is not None and math.isfinite(hint):
        # exact hit for near-integer hints (regular graphs, cycles, ...)
        cand = round(hint)
        if abs(hint - cand) < 1e-6 and p.sign_at(cand) == 0 \
                and count_roots_above(p, cand) == 0:
            return RationalInterval.point(Fraction(cand))
        # try geometric widening around the hint before falling back to Sturm
        for w_exp in (-20, -10, -4, 0):
            w = Fraction(1, 1) * Fraction(2) ** w_exp
            a = _dyadic_below(Fraction(hint) - w)
            b = _dyadic_above(Fraction(hint) + w)
            sa = p.sign_at(a)
            if sa == 0:
                a -= Fraction(1, 2 ** 30)
                sa = p.sign_at(a)
            if sa < 0 and p.certifies_no_roots_above(b):
                lo, hi = a, b
                break
    if lo is None:
        chain = _sturm_chain(p.coeffs)
        total = _variations_at(chain, Fraction(-M)) - _variations_at_inf(chain, True)
        if total == 0:
            raise NoRealRootError("polynomial has no real roots")
        lo, hi = Fraction(-M), Fraction(M)
        # bisect for the largest root: keep count((mid, hi]) >= 1 on the right
        while True:
            mid = (lo + hi) / 2
            above = _variations_at(chain, mid) - _variations_at_inf(chain, True)
            if above >= 1:
                lo = mid
            else:
                hi = mid
            if hi - lo <= Fraction(1, 4):
                break

    # refine [lo, hi] keeping the largest root inside
    exact = _refine_largest(p, lo, hi, eps)
    return exact


def _dyadic_below(x: Fraction, bits: int = 30) -> Fraction:
    scale = 1 << bits
    return Fraction(math.floor(x * scale), scale)


def _dyadic_above(x: Fraction, bits: int = 30) -> Fraction:
    scale = 1 << bits
    return Fraction(math.ceil(x * scale), scale)


def _refine_largest(p: IntPoly, lo: Fraction, hi: Fraction, eps: Fraction) -> RationalInterval:
    """Shrink [lo, hi] around the largest root to width <= eps.

    Invariant: the largest real root of p lies in (lo, hi].  The left edge
    moves on a negative sign of p; the right edge moves only when a
    shifted-coefficient certificate proves no roots above the midpoint.
    On exit the interval provably contains exactly one root.
    """
    if p.sign_at(hi) == 0 and count_roots_above(p, hi) == 0:
        return RationalInterval(hi, hi)
    sturm_needed = False
    while hi - lo > eps:
        mid = (lo + hi) / 2
        s = p.sign_at(mid)
        if s == 0:
            # mid is a root; largest iff nothing above
            if count_roots_above(p, mid) == 0:
                return RationalInterval(mid, mid)
            lo = mid
            continue
        if s < 0 and count_roots_above(p, mid) >= 1:
            lo = mid
        elif p.certifies_no_roots_above(mid):
            hi = mid
        else:
            above = count_roots_above(p, mid)
            if above >= 1:
                lo = mid
            else:
                hi = mid
            sturm_needed = True
    # certify exactly one root in (lo, hi]
    iv = RationalInterval(lo, hi)
    if sturm_count(p, iv) != 1:
        # shrink further until separated
        for _ in range(200):
            mid = (lo + hi) / 2
            if count_roots_above(p, mid) >= 1:
                lo = mid
            else:
                hi = mid
            iv = RationalInterval(lo, hi)
            if sturm_count(p, iv) == 1:
                break
        else:
            raise ArithmeticError("failed to separate largest root")
    return iv


def refine_root(p: IntPoly, iv: RationalInterval, eps: Rat) -> RationalInterval:
    """Shrink an isolating interval of a simple root of p to width <= eps."""
    eps = Fraction(eps)
    if iv.width <= eps:
        return iv
    lo, hi = iv.lo, iv.hi
    slo = p.sign_at(lo)
    shi = p.sign_at(hi)
    if slo == 0:
        return RationalInterval(lo, lo)
    if shi == 0:
        return RationalInterval(hi, hi)
    if slo * shi > 0:
        raise ValueError("interval endpoints do not bracket a sign change")
    while hi - lo > eps:
        mid = (lo + hi) / 2
        sm = p.sign_at(mid)
        if sm == 0:
            return RationalInterval(mid, mid)
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return RationalInterval(lo, hi)


# ---------------------------------------------------------------------------
# positivity certificates
# ---------------------------------------------------------------------------

def ray_verdict(q: IntPoly, lo: Fraction, hi: Fraction) -> tuple:
    """Certify q >= 0 on the ray [x0, infinity) whose start x0 is only known
    to lie in [lo, hi].

    Returns (kind, witness).  "coefficients": the coefficients of q shifted
    to lo are nonnegative.  "sturm": q(lo) > 0 and no root above lo, or q
    >= 0 at sample points between its roots above lo (tangencies).  "fail":
    q(witness) < 0 exactly at a rational witness >= hi, so the inequality is
    false on the true ray.  "undecided": the sign trouble may lie inside
    [lo, hi]; tighten the enclosure of x0 and ask again.
    """
    if q.all_coeffs_nonneg_shifted(lo):
        return "coefficients", None
    s = q.sign_at(lo)
    if s > 0 and count_roots_above(q, lo) == 0:
        return "sturm", None
    witness = find_negative_point_on_ray(q, hi)
    if witness is not None:
        return "fail", witness
    if s >= 0 and _nonneg_with_tangencies(q, lo):
        return "sturm", None
    return "undecided", None


def find_negative_point_on_ray(q: IntPoly, a: Fraction) -> Fraction | None:
    """A rational x >= a with q(x) < 0, or None if sampling finds none."""
    if q.sign_at(a) < 0:
        return a
    pts = _root_separating_points(q, a)
    for x in pts:
        if q.sign_at(x) < 0:
            return x
    return None


def _root_separating_points(q: IntPoly, a: Fraction) -> list:
    """Rational sample points interleaving the roots of q in (a, inf)."""
    n = count_roots_above(q, a)
    if n == 0:
        return [a + 1]
    M = Fraction(root_bound(q))
    lo, hi = a, M
    cuts = [lo, hi]
    # bisect until each root is in its own cell
    frontier = [(lo, hi, n)]
    for _ in range(4000):
        if not frontier:
            break
        l, h, cnt = frontier.pop()
        if cnt <= 1 or h - l < Fraction(1, 2 ** 40):
            continue
        m = (l + h) / 2
        cuts.append(m)
        cl = sturm_count(q, RationalInterval(l, m))
        ch = cnt - cl
        if cl > 1:
            frontier.append((l, m, cl))
        if ch > 1:
            frontier.append((m, h, ch))
    cuts = sorted(set(cuts))
    return [(x + y) / 2 for x, y in zip(cuts, cuts[1:])] + [M + 1]


def _nonneg_with_tangencies(q: IntPoly, a: Fraction) -> bool:
    pts = _root_separating_points(q, a)
    return all(q.sign_at(x) >= 0 for x in pts) and q.sign_at(a) >= 0


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RationalFunction:
    """Quotient of integer polynomials, stored gcd-reduced.

    The denominator has positive leading coefficient and the pair carries
    no common integer content.
    """

    __slots__ = ("num", "den", "var")

    def __init__(self, num: IntPoly, den: IntPoly, var: str = "lam", reduce: bool = True):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if reduce and not num.is_zero():
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
        self.num, self.den, self.var = num, den, var

    @staticmethod
    def from_poly(p: IntPoly, var: str = "lam") -> "RationalFunction":
        return RationalFunction(p, IntPoly([1]), var, reduce=False)

    @staticmethod
    def constant(c: Rat, var: str = "lam") -> "RationalFunction":
        c = Fraction(c)
        return RationalFunction(IntPoly([c.numerator]), IntPoly([c.denominator]), var)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalFunction)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return "(%s) / (%s)" % (self.num.to_text(self.var), self.den.to_text(self.var))

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, IntPoly):
            return RationalFunction.from_poly(other, self.var)
        return RationalFunction.constant(other, self.var)

    def __add__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        return RationalFunction(self.num * o.den + o.num * self.den,
                                self.den * o.den, self.var)

    __radd__ = __add__

    def __sub__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        return RationalFunction(self.num * o.den - o.num * self.den,
                                self.den * o.den, self.var)

    def __rsub__(self, other) -> "RationalFunction":
        return self._coerce(other).__sub__(self)

    def __neg__(self):
        return RationalFunction(-self.num, self.den, self.var, reduce=False)

    def __mul__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        return RationalFunction(self.num * o.num, self.den * o.den, self.var)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o.num.is_zero():
            raise ZeroDivisionError
        return RationalFunction(self.num * o.den, self.den * o.num, self.var)

    def __rtruediv__(self, other) -> "RationalFunction":
        return self._coerce(other).__truediv__(self)

    def derivative(self) -> "RationalFunction":
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den, self.var)

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
        return RationalFunction(nhat.shifted_degree(dd - dn), dhat, "t")
    return RationalFunction(nhat, dhat.shifted_degree(dn - dd), "t")


# ---------------------------------------------------------------------------
# characteristic polynomial and adjugate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResolventData:
    """Characteristic polynomial P(x) = det(xI - A) and the adjugate
    polynomial matrix adj(xI - A), entrywise integer polynomials."""

    char_poly: IntPoly
    adjugate: tuple          # n x n tuple of IntPoly

    @property
    def n(self) -> int:
        return len(self.adjugate)

    def verify(self, A: Sequence[Sequence[int]]) -> bool:
        """Check (xI - A) * adjugate == char_poly * I coefficient-exactly,
        plus symmetry of the adjugate for symmetric input."""
        n = self.n
        x = IntPoly([0, 1])
        for i in range(n):
            for j in range(n):
                # entry (i,j) of (xI - A) @ adjugate
                total = x * self.adjugate[i][j]
                for k in range(n):
                    if A[i][k]:
                        total = total - self.adjugate[k][j] * A[i][k]
                want = self.char_poly if i == j else IntPoly()
                if total != want:
                    return False
        if all(A[i][j] == A[j][i] for i in range(n) for j in range(n)):
            for i in range(n):
                for j in range(i):
                    if self.adjugate[i][j] != self.adjugate[j][i]:
                        return False
        return True


def bareiss_det(A: Sequence[Sequence[int]]) -> int:
    """Fraction-free determinant of an integer matrix (Bareiss)."""
    n = len(A)
    M = [[int(x) for x in row] for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for r in range(k + 1, n):
                if M[r][k]:
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def charpoly_by_interpolation(A: Sequence[Sequence[int]]) -> IntPoly:
    """Characteristic polynomial via determinant evaluations at integer
    points; independent of the Faddeev-LeVerrier route."""
    n = len(A)
    pts = list(range(n + 1))
    vals = []
    for c in pts:
        M = [[(c if i == j else 0) - A[i][j] for j in range(n)] for i in range(n)]
        vals.append(bareiss_det(M))
    # Newton divided differences, exact
    coeffs = [Fraction(v) for v in vals]
    for j in range(1, n + 1):
        for i in range(n, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (pts[i] - pts[i - j])
    # expand Newton form
    poly = [Fraction(0)] * (n + 1)
    acc = [Fraction(1)]
    for j in range(n + 1):
        for d, a in enumerate(acc):
            poly[d] += coeffs[j] * a
        new = [Fraction(0)] * (len(acc) + 1)
        for d, a in enumerate(acc):
            new[d] -= pts[j] * a
            new[d + 1] += a
        acc = new
    return IntPoly([int(c) for c in poly])


# ---------------------------------------------------------------------------
# quadratic irrationals a + b*sqrt(m)
# ---------------------------------------------------------------------------

class SqrtRat:
    """Exact element a + b*sqrt(m) of a real quadratic field, m a positive
    non-square integer.  Supports exact arithmetic and sign determination."""

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

    def _check(self, other: "SqrtRat"):
        if self.b and other.b and self.m != other.m:
            raise ValueError("mixed radicands")

    def _coerce(self, other) -> "SqrtRat":
        if isinstance(other, SqrtRat):
            self._check(other)
            return other
        return SqrtRat(other, 0, self.m)

    def __add__(self, other):
        o = self._coerce(other)
        m = self.m if self.b else o.m
        return SqrtRat(self.a + o.a, self.b + o.b, m)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        m = self.m if self.b else o.m
        return SqrtRat(self.a - o.a, self.b - o.b, m)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __neg__(self):
        return SqrtRat(-self.a, -self.b, self.m)

    def __mul__(self, other):
        o = self._coerce(other)
        m = self.m if self.b else o.m
        return SqrtRat(self.a * o.a + self.b * o.b * m,
                       self.a * o.b + self.b * o.a, m)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        denom = o.a * o.a - o.b * o.b * (o.m if o.b else self.m)
        if denom == 0:
            raise ZeroDivisionError
        inv = SqrtRat(o.a / denom, -o.b / denom, o.m if o.b else self.m)
        return self * inv

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

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

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __hash__(self):
        return hash((self.a, self.b, self.m if self.b else 0))

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.m)

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


def sqrt_interval(x: Rat, eps: Rat = Fraction(1, 2 ** 40)) -> RationalInterval:
    """Certified enclosure of sqrt(x) for rational x >= 0."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return RationalInterval.point(0)
    eps = Fraction(eps)
    bits = 8
    while True:
        scale = 1 << bits
        n = x.numerator * scale * scale
        lo_num = math.isqrt(n // x.denominator)
        lo = Fraction(lo_num, scale)
        while lo * lo > x:
            lo -= Fraction(1, scale)
        hi = lo + Fraction(2, scale)
        while (hi - Fraction(1, scale)) ** 2 >= x:
            hi -= Fraction(1, scale)
        if hi - lo <= eps and lo * lo <= x <= hi * hi:
            return RationalInterval(lo, hi)
        bits *= 2
