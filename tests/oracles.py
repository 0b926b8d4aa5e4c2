"""Independent checks and graph helpers that only the tests use."""

import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Sequence

from hypothesis import strategies as st

from perronbalance.algebra import (
    IntPoly,
    NoRealRootError,
    RationalInterval,
    RootEnclosure,
    count_roots_above,
    count_roots_in,
    horner_interval,
    root_bound,
)
from perronbalance.graphs import Graph, _bits, _canon, _orbit_closure, _orbit_minima
from perronbalance.spectral import DEFAULT_EPS, lambda_enclosure, resolvent_data


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


def interval_sub(a: RationalInterval, b: RationalInterval) -> RationalInterval:
    """The interval of x - y over x in a and y in b."""
    return RationalInterval(a.lo - b.hi, a.hi - b.lo)


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
            acc = interval_sub(acc, pd.weights[u])
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


def schema_text() -> str:
    """The JSON schema the report documents validate against."""
    return resources.files("perronbalance").joinpath(
        "data/report.schema.json").read_text()


def write_edge_list(g: Graph) -> str:
    """The edge-list text that graphs.parse_edge_list reads."""
    return "%d; %s" % (g.n, ", ".join("%d-%d" % e for e in g.edges()))


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


# -- the column-based oracle for gamma and the Perron vector ---------------------

@dataclass(frozen=True)
class PerronData:
    """Certified Perron data: eigenvalue enclosure plus entrywise positive
    enclosures of an (unnormalized) Perron vector."""

    lam: RationalInterval
    weights: tuple                # RationalInterval per vertex
    normalization: str


class ColumnEnclosure:
    """The top eigenvalue of a connected graph as one RootEnclosure, lam,
    and the adjugate column of its first maximum-degree vertex evaluated on
    it, which at the top eigenvalue is a positive eigenvector (the adjugate
    is positive and of rank one there).

    lam starts as lambda_enclosure(g, lam_eps) and narrows in place, 16-fold
    per round, until a request is met: every weight positive (gamma is None
    until then) and, unless lam is an exact point, the asked width.  Weights
    are integer pairs (a, b) over scale = den^(n-1), den the common
    denominator of lam's ends: [a/scale, b/scale] is interval Horner.
    """

    def __init__(self, g: Graph, lam_eps: Fraction = Fraction(1, 2 ** 30)):
        rd = resolvent_data(g)
        degs = g.degrees()
        self.n = g.n
        self.vertex = degs.index(max(degs))
        # leading zeros put every entry on the scale of degree n - 1
        self._col = [e.coeffs + (0,) * (g.n - len(e.coeffs))
                     for e in rd.column(self.vertex)]
        self.lam = RootEnclosure(rd.char_poly, lambda_enclosure(g, lam_eps))
        self._round_eps = lam_eps
        self._evaluate()

    def _evaluate(self) -> None:
        lo, hi, den = self.lam.iv.numerators()
        nums = self._nums = [horner_interval(cs, lo, hi, den) for cs in self._col]
        self._scale = den ** (self.n - 1)
        self._gamma = None
        if all(a > 0 for a, _ in nums):
            # on one scale: gamma in [S_lo^2/Q_hi, S_hi^2/Q_lo], S the sum of
            # the numerators and Q the sum of their squares, all positive
            s_lo, s_hi = sum(a for a, _ in nums), sum(b for _, b in nums)
            q_lo, q_hi = sum(a * a for a, _ in nums), sum(b * b for _, b in nums)
            self._gamma = RationalInterval(Fraction(s_lo * s_lo, q_hi),
                                           Fraction(s_hi * s_hi, q_lo))

    def _narrow_until(self, met) -> None:
        for _ in range(220):
            if self._gamma is not None and (self.lam.iv.lo == self.lam.iv.hi or met()):
                return
            self._round_eps = self._round_eps * Fraction(1, 16)
            self.lam.refine(self._round_eps)
            self._evaluate()
        raise ArithmeticError("failed to refine the adjugate-column enclosure")

    def refine(self, eps: Fraction) -> RationalInterval:
        """Enclosure of gamma(G) with width <= eps."""
        self._narrow_until(lambda: self._gamma.width_at_most(eps))
        return self._gamma

    def weights(self, eps: Fraction) -> PerronData:
        """Perron vector enclosure, every entry of relative width <= eps."""
        self._narrow_until(lambda: all(Fraction(b - a, a) <= eps for a, b in self._nums))
        scale = self._scale
        return PerronData(self.lam.iv, tuple(
            RationalInterval(Fraction(a, scale), Fraction(b, scale)) for a, b in self._nums),
            "adjugate column of vertex %d, unnormalized" % self.vertex)


def perron_enclosure(g: Graph, eps: Fraction = DEFAULT_EPS) -> PerronData:
    """Perron vector enclosure from the adjugate column of a maximum-degree
    vertex, refined until every entry has relative width <= eps."""
    return ColumnEnclosure(g, DEFAULT_EPS).weights(eps)


def vertex_orbits(g: Graph) -> list:
    """Automorphism orbits of the vertices, each in increasing order, by
    least vertex."""
    gens = _canon(g, None)[2]()
    return [_bits(_orbit_closure(1 << v, gens))
            for v in _orbit_minima(range(g.n), gens)]


def master_vertex(g: Graph, eps: Fraction = Fraction(1, 2 ** 60)) -> int:
    """A vertex of certified maximal Perron weight (lowest id within ties).

    Refines one Perron enclosure until one weight interval dominates, with
    an orbit escape hatch: vertices in one automorphism orbit carry equal
    weight, so comparing orbit representatives suffices.
    """
    orbits = vertex_orbits(g)
    reps = [orb[0] for orb in orbits]
    rep_of = {}
    for orb in orbits:
        for v in orb:
            rep_of[v] = orb[0]
    enc = ColumnEnclosure(g, DEFAULT_EPS)
    cur = Fraction(1, 2 ** 20)
    for _ in range(6):
        ws = enc.weights(cur).weights
        best = max(reps, key=lambda v: ws[v].lo)
        if all(rep_of[v] == rep_of[best] or ws[best].lo > ws[v].hi
               for v in range(g.n)):
            return min(v for v in range(g.n) if rep_of[v] == rep_of[best])
        if cur <= eps:
            break
        cur = cur * Fraction(1, 2 ** 10)
    raise ArithmeticError("failed to separate a maximal-weight vertex")
