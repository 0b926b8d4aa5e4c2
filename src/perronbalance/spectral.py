"""Certified spectral quantities of small graphs.

The central object is the balance ratio of the Perron vector x of a
connected graph,

    gamma(G) = (sum_v x_v)^2 / (sum_v x_v^2),

which lies in [1, n] and equals n exactly for regular graphs.  All
enclosures are produced by exact rational arithmetic: the top eigenvalue is
isolated as the largest root of the characteristic polynomial, and the
Perron vector is read off a column of the adjugate adj(lam*I - A), which is
rank-one and entrywise positive at the top eigenvalue.

Both polynomials come from resolvent_data: for a tree by Schwenk's
recurrence over its rooted subtrees, memoised on their sorted subtree
codes, and for any other graph by one integer Faddeev-LeVerrier pass.
Adjugate columns are built on demand; a table row reads one column, so
the full n x n matrix is built only where a caller asks for it.

A ColumnEnclosure holds the eigenvalue as one algebra.RootEnclosure with
the adjugate column and narrows it in place, so each request continues
where the last one stopped.  The column is evaluated on integer numerators
over one denominator (algebra.horner_interval), with exactly the endpoints
of rational interval Horner, so the gamma enclosure needs only sums of
integers and two fractions.

Floating point is used only to seed root searches, and changes no output.
The seed for the top eigenvalue (_power_iteration_hint) takes one power
step on the degree vector, whose Collatz-Wielandt ratio bounds lambda_1
from above, and runs float Newton on the characteristic polynomial from
there: the polynomial is real-rooted, so the iterates fall monotonically
to lambda_1 and the isolation starts in its final cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, partial
from typing import Callable, Union

from .algebra import (
    IntPoly,
    RationalInterval,
    ResolventData,
    RootEnclosure,
    SqrtRat,
    horner_interval,
    isolate_largest_root,
)
from .graphs import (
    Graph,
    bifork_graph,
    canonical_form,
    canonical_relabel,
    cycle_graph,
    e_graph,
    enumerate_connected_graphs,
    enumerate_trees,
    fork_graph,
    path_graph,
    subtree_codes,
    write_graph6,
)

DEFAULT_EPS = Fraction(1, 2 ** 40)

Threshold = Union[int, Fraction, SqrtRat]


# ---------------------------------------------------------------------------
# resolvent data: Schwenk's recurrence for trees, Faddeev-LeVerrier otherwise
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def resolvent_data(g: Graph) -> ResolventData:
    """Characteristic polynomial and adjugate of (xI - A_G), the adjugate
    built column by column on demand.

    A tree takes the char poly and the column of its column vertex (the
    one the Perron enclosures read) from Schwenk's recurrence over its
    rooted subtrees (_tree_resolvent).  Any other graph, and any other
    column of a tree, comes from one integer Faddeev-LeVerrier pass
    (_faddeev_leverrier), run when first needed: readers of further tree
    columns (kernel contexts, tail bases) mostly want the full matrix,
    which that pass packs faster than n rerootings.  The polynomials are
    unique, so both routes give the same ones.
    """
    if not g.is_tree():
        return _faddeev_leverrier(g)
    j = _column_vertex(g)
    char, col = _tree_resolvent(g, j)
    full = cache(partial(_faddeev_leverrier, g))
    return ResolventData(char, g.n, lambda v: full().column(v), {j: col})


def _faddeev_leverrier(g: Graph) -> ResolventData:
    """char poly and adjugate of (xI - A_G) by integer Faddeev-LeVerrier,
    using neighbor-row sums so each step is O(n^2 * avg_degree) integer
    additions.  The pass keeps the entries of the integer matrices M_k,
    k = 0..n-1, in one flat list; the coefficients of adj[i][j] are the
    (i, j) entries of M_{n-1}, ..., M_0."""
    n = g.n
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    cs = [1]
    flat = [v for row in M for v in row]
    for k in range(1, n + 1):
        AM = []
        for i in range(n):
            row = [0] * n
            mask = g.adj[i]
            while mask:
                low = mask & -mask
                t = low.bit_length() - 1
                mask ^= low
                mt = M[t]
                for j in range(n):
                    row[j] += mt[j]
            AM.append(row)
        tr = sum(AM[i][i] for i in range(n))
        c = -(tr // k)
        if -tr != c * k:
            raise ArithmeticError("trace not divisible in Faddeev-LeVerrier")
        cs.append(c)
        M = AM
        for i in range(n):
            M[i][i] += c
        if k < n:
            flat.extend(v for row in M for v in row)
    char = IntPoly._from_ints([cs[n - k] for k in range(n + 1)])
    step = n * n

    def column_of(j: int) -> list:
        return [IntPoly._from_ints(flat[i * n + j::step][::-1]) for i in range(n)]

    return ResolventData(char, n, column_of)


# phi(T), phi(T - r) and, for each child subtree code c, the product of phi
# over the other child subtrees, keyed by the sorted-subtree code of the
# rooted tree T with root r; filled by _tree_resolvent
_SUBTREE_PHI: dict[bytes, tuple] = {}

_ONE = IntPoly([1])


def _times(a: IntPoly, b: IntPoly) -> IntPoly:
    """a * b, skipping the empty products (_ONE itself) that leaves, paths
    and the root give."""
    if a is _ONE:
        return b
    if b is _ONE:
        return a
    return a * b


def _product(polys) -> IntPoly:
    out = _ONE
    for p in polys:
        out = _times(out, p)
    return out


def _tree_resolvent(g: Graph, j: int) -> tuple:
    """(char poly, adjugate column j) of a tree by Schwenk's recurrence
    (Schwenk, LNM 406, 1974; Godsil, Algebraic Combinatorics, ch. 2).

    Rooted at j, with T_v the subtree of v and c running over its children,

        phi(T_v) = x * prod_c phi(T_c) - sum_c phi(T_c - c) * prod_{c' != c} phi(T_c'),

    where phi(T_c - c) is the product over the children of c.  Entry i of
    the column is adj[i][j] = phi(T - P), P the path from j to i: the product
    of phi over the subtrees hanging off P before i, kept as a running
    product from the root down, times phi(T_i - i).  Every rooted subtree is
    memoised on its code (graphs.subtree_codes) in _SUBTREE_PHI.
    """
    codes: dict = {}
    subtree_codes(g, j, codes)
    for (v, parent), code in codes.items():     # children first
        if code in _SUBTREE_PHI:
            continue
        kids = [codes[(u, v)] for u in g.neighbors(v) if u != parent]
        phis = [_SUBTREE_PHI[c][0] for c in kids]
        others = {}
        for k, c in enumerate(kids):
            if c not in others:
                others[c] = _product(phis[:k] + phis[k + 1:])
        minus = _product(phis)
        phi = IntPoly._from_ints([0, *minus.coeffs])
        for c in kids:
            phi = phi - _times(_SUBTREE_PHI[c][1], others[c])
        _SUBTREE_PHI[code] = (phi, minus, others)
    col = [_ONE] * g.n
    above = {j: _ONE}
    for (v, parent), code in reversed(codes.items()):   # parents first
        _, minus, others = _SUBTREE_PHI[code]
        acc = above.pop(v)
        col[v] = _times(acc, minus)
        for u in g.neighbors(v):
            if u != parent:
                above[u] = _times(acc, others[codes[(u, v)]])
    return _SUBTREE_PHI[codes[(j, -1)]][0], tuple(col)


# Newton steps allowed to the hint; from the Collatz-Wielandt start the
# table graphs and the kernel attachments need at most 25
_NEWTON_CAP = 64


def _power_iteration_hint(g: Graph, p: IntPoly) -> float:
    """Float estimate of the top eigenvalue of a connected graph g, p its
    characteristic polynomial.  It only picks where isolate_largest_root
    starts its search, so no output bit depends on how it rounds.

    One power step on the degree vector d gives the Collatz-Wielandt bound
    u = max_v (A d)_v / d_v, the largest mean degree of a neighbourhood,
    which is >= lambda_1 because d is positive on a connected graph.  Float
    Newton on p then starts from u.  p is real-rooted, so above its largest
    root p, p' and p'' are positive: p is convex and increasing there, each
    Newton step lands between lambda_1 and the current point, and the
    iterates fall monotonically to lambda_1.  The loop stops when rounding
    breaks that picture (p <= 0, p' <= 0, or a step that does not decrease
    x) or after _NEWTON_CAP steps.  On a regular graph u is the degree,
    which is lambda_1, and p(u) = 0 returns it before any step.

    The name is kept from the power iteration this replaced: the benchmark
    traces it as the span spectral.power_hint.
    """
    if g.n == 1:
        return 0.0
    degs = g.degrees()
    x = max(sum(degs[w] for w in g.neighbors(v)) / d for v, d in enumerate(degs))
    cs = [float(c) for c in reversed(p.coeffs)]
    for _ in range(_NEWTON_CAP):
        f = df = 0.0
        for c in cs:
            df = df * x + f
            f = f * x + c
        if f <= 0 or df <= 0:
            break
        x_new = x - f / df
        if not x_new < x:
            break
        x = x_new
    return x


# ---------------------------------------------------------------------------
# eigenvalue and Perron vector enclosures
# ---------------------------------------------------------------------------

def lambda_enclosure(g: Graph, eps: Fraction = DEFAULT_EPS) -> RationalInterval:
    """Certified enclosure of the largest adjacency eigenvalue."""
    if not g.is_connected():
        raise ValueError("graph is disconnected")
    char = resolvent_data(g).char_poly
    return isolate_largest_root(char, eps, hint=_power_iteration_hint(g, char))


@dataclass(frozen=True)
class PerronData:
    """Certified Perron data: eigenvalue enclosure plus entrywise positive
    enclosures of an (unnormalized) Perron vector."""

    lam: RationalInterval
    weights: tuple                # RationalInterval per vertex
    normalization: str

    def residual_contains_zero(self, g: Graph) -> bool:
        """Eigenvalue-equation residual check: lam*w_v - sum_nbr w_u must
        admit zero for every vertex.

        The weights are an adjugate column, so rows other than the column
        index satisfy the equation identically; the column row's residual is
        the characteristic polynomial, which vanishes at the eigenvalue.
        """
        for v in range(g.n):
            acc = self.lam.mul_interval(self.weights[v])
            for u in g.neighbors(v):
                acc = acc.sub(self.weights[u])
            if not acc.contains_zero():
                return False
        return True


def _column_vertex(g: Graph) -> int:
    degs = g.degrees()
    best = max(degs)
    return degs.index(best)


GAMMA_LAMBDA_EPS = Fraction(1, 2 ** 30)


class ColumnEnclosure:
    """The top eigenvalue of a connected graph as one RootEnclosure, lam,
    and the adjugate column of a maximum-degree vertex evaluated on it,
    which at the top eigenvalue is a positive eigenvector (the adjugate is
    positive and of rank one there).

    lam starts as lambda_enclosure(g, lam_eps) and narrows in place, 16-fold
    per round, until a request is met: every weight positive (gamma is None
    until then) and, unless lam is an exact point, the asked width.  Weights
    are integer pairs (a, b) over scale = den^(n-1), den the common
    denominator of lam's ends: [a/scale, b/scale] is interval Horner.
    """

    def __init__(self, g: Graph, lam_eps: Fraction = GAMMA_LAMBDA_EPS):
        if not g.is_connected():
            raise ValueError("graph is disconnected")
        rd = resolvent_data(g)
        self.n = g.n
        self.vertex = _column_vertex(g)
        # leading zeros put every entry on the scale of degree n - 1
        self._col = [e.coeffs + (0,) * (g.n - len(e.coeffs))
                     for e in rd.column(self.vertex)]
        self.lam = RootEnclosure(rd.char_poly, lambda_enclosure(g, lam_eps))
        self._round_eps = lam_eps
        self._rounds = 0
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
        while self._gamma is None or not (self.lam.iv.width == 0 or met()):
            if self.lam.iv.width == 0:
                raise ArithmeticError("adjugate column not positive at exact eigenvalue")
            self._rounds += 1
            if self._rounds == 220:
                raise ArithmeticError("failed to refine the adjugate-column enclosure")
            self._round_eps = self._round_eps * Fraction(1, 16)
            self.lam.refine(self._round_eps)
            self._evaluate()

    def refine(self, eps: Fraction) -> RationalInterval:
        """Enclosure of gamma(G) with width <= eps; gamma is scale-invariant,
        so the unnormalized column serves."""
        self._narrow_until(lambda: self._gamma.width <= eps)
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


@dataclass(frozen=True)
class GammaValue:
    """Certified enclosure of the balance ratio of a graph."""

    value: RationalInterval
    method: str

    def midpoint(self) -> float:
        return self.value.mid_float()


def gamma_enclosure(g: Union[Graph, ColumnEnclosure],
                    eps: Fraction = Fraction(1, 10 ** 8)) -> GammaValue:
    """Certified enclosure of gamma(G) with width <= eps, from a graph or
    from the first request to a fresh ColumnEnclosure the caller keeps."""
    enc = g if isinstance(g, ColumnEnclosure) else ColumnEnclosure(g)
    return GammaValue(enc.refine(eps), "certified")


# ---------------------------------------------------------------------------
# certified comparisons against thresholds
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256, typed=True)
def threshold_enclosure(threshold: Threshold, eps: Fraction) -> RationalInterval:
    if isinstance(threshold, SqrtRat):
        return threshold.enclosure(eps)
    return RationalInterval.point(Fraction(threshold))


def certified_below(refine: Callable[[Fraction], RationalInterval],
                    threshold: Threshold,
                    eps0: Fraction = Fraction(1, 10 ** 6)) -> bool:
    """Decide value < threshold by joint refinement of both enclosures;
    refine(eps) encloses the value with width <= eps (ColumnEnclosure.refine
    returns at once when eps is already met).  A value equal to a rational
    threshold is not below it once both enclosures are the same point.
    """
    eps = eps0
    for _ in range(60):
        iv = refine(eps)
        th = threshold_enclosure(threshold, eps)
        if iv.hi < th.lo:
            return True
        if iv.lo > th.hi or (iv.width == 0 and iv == th):
            return False
        eps = eps / 2 ** 8
    raise ArithmeticError("comparison undecided at maximal refinement")


# named limiting constants, exact in Q(sqrt(3))
BETA_STAR = SqrtRat(Fraction(5, 2), Fraction(3, 2), 3)    # limit ratio of K4 + infinite path
BETA_TR = SqrtRat(4, 2, 3)                                # limit ratio of S5 + infinite path
LAMBDA_K4_INF = SqrtRat(Fraction(1, 2), Fraction(3, 2), 3)
LAMBDA_S5_INF = SqrtRat(0, Fraction(4, 3), 3)             # 4/sqrt(3) = (4/3)sqrt(3)


def kp_infinite_gamma(p: int) -> SqrtRat:
    """Exact limit of gamma(K_p + path of length k) as k grows."""
    m = p * p - 4
    a = Fraction((p - 1) * (2 * p - 3), 2 * (2 * p - 5))
    b = Fraction((p - 1) * (2 * p + 1), 2 * (p + 2) * (2 * p - 5))
    return SqrtRat(a, b, m)


def sp_infinite_gamma(p: int) -> SqrtRat:
    """Exact limit of gamma(S_p + path) = (p-1)(sqrt(p-2)+1)^2 / (2(p-3))."""
    a = Fraction((p - 1) * (p - 1), 2 * (p - 3))
    b = Fraction(p - 1, p - 3)
    return SqrtRat(a, b, p - 2)


# ---------------------------------------------------------------------------
# closed forms for the lambda <= 2 families
# ---------------------------------------------------------------------------

def gamma_family_closed_form(family: str, n: int) -> float:
    """Display-level closed forms for the graphs with top eigenvalue <= 2.

    Path and fork values are trigonometric and evaluated in floating point;
    cycle, bi-fork, and the hatted exceptional values are exact rationals.
    Certified work never relies on these: the proof pipeline re-derives
    every needed instance through the exact path.
    """
    if family == "Path":
        if n < 1:
            raise ValueError("path needs n >= 1")
        t = math.pi / (n + 1)
        return (2 / (n + 1)) * (math.sin(t) / (1 - math.cos(t))) ** 2
    if family == "D":
        if n < 4:
            raise ValueError("fork family needs n >= 4")
        t = math.pi / (2 * (n - 1))
        return (1 / (2 * (n - 1))) * (1 + math.sin(t) / (1 - math.cos(t))) ** 2
    if family == "Cycle":
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return float(n)
    if family == "Dhat":
        if n < 5:
            raise ValueError("bi-fork family needs n >= 5")
        return (n - 2) ** 2 / (n - 3)
    fixed = {
        "E6": None, "E7": None, "E8": None,
        "E6hat": 6.0, "E7hat": 6.75, "E8hat": 7.5,
    }
    if family in fixed:
        if fixed[family] is not None:
            return fixed[family]
        return gamma_enclosure(e_graph(family)).midpoint()
    raise ValueError("unknown family %r" % family)


def lambda_le_2_graphs(n: int) -> list:
    """All connected graphs on n vertices with top eigenvalue <= 2, as
    (name, graph) pairs, from the classical characterization."""
    out = [("Path", path_graph(n))]
    if n >= 4:
        out.append(("D", fork_graph(n)))
    if n >= 3:
        out.append(("Cycle", cycle_graph(n)))
    if n >= 5:
        out.append(("Dhat", bifork_graph(n)))
    sizes = {"E6": 6, "E7": 7, "E8": 8, "E6hat": 7, "E7hat": 8, "E8hat": 9}
    for name, sz in sizes.items():
        if sz == n:
            out.append((name, e_graph(name)))
    return out


# ---------------------------------------------------------------------------
# the degree-based lower bound
# ---------------------------------------------------------------------------

def beta_d(d: int, eps: Fraction = Fraction(1, 10 ** 9)) -> RationalInterval:
    """Certified enclosure of the degree-based balance-ratio lower bound.

    For master degree d the bound is (3*lam_d + 1)/2 where lam_d is the
    unique root of (1+x)^3 = (d+1)(3x+1) between sqrt(d) and d.
    """
    if d < 3:
        raise ValueError("degree bound needs d >= 3")
    poly = IntPoly([1 - (d + 1), 3 - 3 * (d + 1), 3, 1])   # (1+x)^3 - (d+1)(3x+1)
    iv = isolate_largest_root(poly, eps * Fraction(2, 3))
    if not (iv.hi > 1 and iv.lo < d + 1):
        raise ArithmeticError("unexpected root location for degree bound")
    return iv.mul_scalar(3).add_scalar(1).mul_scalar(Fraction(1, 2))


def two_sqrt_d_plus_3_exceeds(d: int, threshold: Fraction) -> bool:
    """Exact check of 2*sqrt(d) + 3 > threshold for integer d."""
    rhs = Fraction(threshold) - 3
    if rhs <= 0:
        return True
    return 4 * d > rhs * rhs


# ---------------------------------------------------------------------------
# master vertex identification
# ---------------------------------------------------------------------------

def vertex_orbits(g: Graph) -> list:
    """Automorphism orbits of the vertices, via rooted canonical forms."""
    codes = {}
    for v in range(g.n):
        codes.setdefault(canonical_form(g, v), []).append(v)
    return sorted(codes.values())


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


# ---------------------------------------------------------------------------
# exhaustive tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TableRow:
    graph6: str
    gamma: GammaValue
    lam: RationalInterval


@lru_cache(maxsize=64)
def min_gamma_table(n: int, kind: str, threshold: Threshold,
                    eps: Fraction = Fraction(1, 10 ** 6)) -> tuple:
    """Exhaustive balance-ratio table for all connected graphs or trees on n
    vertices, sorted ascending, plus the certified count below threshold.
    Each row encloses gamma and lambda with width <= eps.

    Returns (rows, count_below).
    """
    if kind == "graph":
        items = enumerate_connected_graphs(n)
    elif kind == "tree":
        items = enumerate_trees(n)
    else:
        raise ValueError("kind must be 'graph' or 'tree'")
    rows = []
    below = 0
    for g in items:
        enc = ColumnEnclosure(g)
        # the first isolation narrowed to eps, on a copy: gamma narrows
        # enc.lam on a schedule of its own
        lam = enc.lam.iv
        if lam.width > eps:
            lam = RootEnclosure(enc.lam.poly, lam).refine(eps)
        gv = gamma_enclosure(enc, eps)
        rows.append(TableRow(write_graph6(canonical_relabel(g)), gv, lam))
        if certified_below(enc.refine, threshold, eps):
            below += 1
    rows.sort(key=lambda r: (r.gamma.value.mid, r.graph6))
    return tuple(rows), below
