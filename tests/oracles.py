"""Independent checks and graph helpers that only the tests use."""

import math
from fractions import Fraction
from typing import Sequence

from hypothesis import strategies as st

from perronbalance.algebra import (
    IntPoly,
    NoRealRootError,
    RationalInterval,
    count_roots_above,
    count_roots_in,
    root_bound,
)
from perronbalance.graphs import Graph, _bits


def prs_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd (leading coefficient > 0) by the primitive
    pseudo-remainder sequence: Euclid's algorithm in which each remainder
    step first scales by the divisor's leading coefficient, so every
    quotient digit is an integer."""
    a, b = f.primitive(), g.primitive()
    while b:
        r = list(a.coeffs)
        while len(r) >= len(b.coeffs):
            k, c = len(r) - len(b.coeffs), r[-1]
            r = [x * b.leading for x in r]
            for j, bc in enumerate(b.coeffs):
                r[k + j] -= c * bc
            while r and r[-1] == 0:
                r.pop()
        a, b = b, IntPoly(r).primitive()
    return a


def induced(g: Graph, vertices: Sequence[int]) -> Graph:
    """Induced subgraph; vertex k of the result is vertices[k]."""
    idx = {v: i for i, v in enumerate(vertices)}
    adj = [0] * len(vertices)
    for v in vertices:
        for u in _bits(g.adj[v]):
            if u in idx:
                adj[idx[v]] |= 1 << idx[u]
    return Graph(len(vertices), tuple(adj))


@st.composite
def connected_graphs(draw):
    """A random spanning tree plus random extra edges, on 1..8 vertices."""
    n = draw(st.integers(1, 8))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    extra = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges |= {e for e, keep in zip(pairs, extra) if keep}
    return Graph.from_edges(n, sorted(edges))


def adjacency_rows(g: Graph) -> list:
    return [[g.adj[v] >> u & 1 for u in range(g.n)] for v in range(g.n)]


def resolvent_identity_holds(rd, A: Sequence[Sequence[int]]) -> bool:
    """Check (xI - A) * adjugate == char_poly * I coefficient-exactly,
    plus symmetry of the adjugate for symmetric input."""
    n = rd.n
    x = IntPoly([0, 1])
    for i in range(n):
        for j in range(n):
            # entry (i,j) of (xI - A) @ adjugate
            total = x * rd.adjugate[i][j]
            for k in range(n):
                if A[i][k]:
                    total = total - rd.adjugate[k][j] * A[i][k]
            want = rd.char_poly if i == j else IntPoly()
            if total != want:
                return False
    if all(A[i][j] == A[j][i] for i in range(n) for j in range(n)):
        for i in range(n):
            for j in range(i):
                if rd.adjugate[i][j] != rd.adjugate[j][i]:
                    return False
    return True


def residual_contains_zero(pd, g: Graph) -> bool:
    """Eigenvalue-equation residual check on PerronData: lam*w_v - sum_nbr
    w_u must admit zero for every vertex.

    The weights are an adjugate column, so rows other than the column
    index satisfy the equation identically; the column row's residual is
    the characteristic polynomial, which vanishes at the eigenvalue.
    """
    for v in range(g.n):
        acc = pd.lam.mul_interval(pd.weights[v])
        for u in g.neighbors(v):
            acc = acc.sub(pd.weights[u])
        if not acc.contains_zero():
            return False
    return True


def horner_interval_four(coeffs: Sequence[int], lo: int, hi: int, den: int) -> tuple:
    """algebra.horner_interval with the min and max of all four integer
    products in every step, whatever the signs."""
    a = b = 0
    s = 1
    for c in reversed(coeffs):
        p, q, r, t = a * lo, a * hi, b * lo, b * hi
        cs = c * s
        a = min(p, q, r, t) + cs
        b = max(p, q, r, t) + cs
        s *= den
    return a, b


_START_WIDTHS = tuple(Fraction(1, 2 ** k) for k in (20, 10, 4, 0))


def isolate_largest_root_fractions(p: IntPoly, eps=Fraction(1, 2 ** 40),
                                   hint=None) -> RationalInterval:
    """algebra.isolate_largest_root with every cell end a Fraction: the same
    start cells, the same decisions and the same root counts, in the same
    order."""
    if p.degree < 1:
        raise NoRealRootError("constant polynomial has no roots")
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    w = Fraction(2) ** (eps.numerator.bit_length() - eps.denominator.bit_length())
    if w > eps:
        w /= 2
    p = p.primitive()
    if hint is not None and math.isfinite(hint):
        for width in [w] + [c for c in _START_WIDTHS if c > w]:
            m = math.ceil(Fraction(hint) / width) - 1
            for lo in (m * width, (m - 1) * width, (m + 1) * width):
                if p.sign_at(lo) < 0 and p.certifies_no_roots_above(lo + width):
                    return _refine_largest_fractions(p, lo, lo + width, w)
    top = Fraction(max(1 << (root_bound(p) - 1).bit_length(), w))
    if count_roots_above(p, 0):
        return _refine_largest_fractions(p, Fraction(0), top, w)
    if count_roots_in(p, RationalInterval(-top, 0)):
        return _refine_largest_fractions(p, -top, Fraction(0), w)
    raise NoRealRootError("polynomial has no real roots")


def _refine_largest_fractions(p: IntPoly, lo: Fraction, hi: Fraction,
                              eps: Fraction) -> RationalInterval:
    """algebra._refine_largest on Fractions; its docstring has the proofs."""
    if p.sign_at(hi) == 0:
        return RationalInterval(hi, hi)
    dp = p.derivative()
    rising = dp.certifies_no_roots_above(lo)
    while hi - lo > eps:
        mid = (lo + hi) / 2
        s = p.sign_at(mid)
        if s < 0:
            lo = mid
            rising = rising or dp.certifies_no_roots_above(lo)
        elif rising or p.certifies_no_roots_above(mid) \
                or count_roots_above(p, mid) == 0:
            if s == 0:
                return RationalInterval(mid, mid)
            hi = mid
        else:
            lo = mid
    iv = RationalInterval(lo, hi)
    if not rising and count_roots_in(p, iv) != 1:
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


def refine_root_fractions(p: IntPoly, iv: RationalInterval, eps) -> RationalInterval:
    """algebra.refine_root on Fractions: bisection comparing the sign at the
    midpoint with the sign at hi."""
    eps = Fraction(eps)
    if iv.width <= eps:
        return iv
    lo, hi = iv.lo, iv.hi
    shi = p.sign_at(hi)
    if shi == 0:
        return RationalInterval(hi, hi)
    if p.sign_at(lo) == shi:
        raise ValueError("interval endpoints do not bracket a sign change")
    while hi - lo > eps:
        mid = (lo + hi) / 2
        sm = p.sign_at(mid)
        if sm == 0:
            return RationalInterval(mid, mid)
        if sm == shi:
            hi = mid
        else:
            lo = mid
    return RationalInterval(lo, hi)
