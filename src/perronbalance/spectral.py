"""Certified spectral quantities of small graphs.

The central object is the balance ratio of the Perron vector x of a
connected graph,

    gamma(G) = (sum_v x_v)^2 / (sum_v x_v^2),

which lies in [1, n] and equals n exactly for regular graphs.  All
enclosures are produced by exact rational arithmetic: the top eigenvalue is
isolated as the largest root of the characteristic polynomial, and the
Perron vector is read off a column of the adjugate adj(lam*I - A), which is
rank-one and entrywise positive at the top eigenvalue.

Floating point is used only to seed root searches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Union

from .algebra import (
    IntPoly,
    RationalInterval,
    ResolventData,
    SqrtRat,
    isolate_largest_root,
    refine_root,
)
from .graphs import (
    Graph,
    bifork_graph,
    canonical_form,
    cycle_graph,
    enumerate_connected_graphs,
    enumerate_trees,
    fork_graph,
    path_graph,
    write_graph6,
)

DEFAULT_EPS = Fraction(1, 2 ** 40)

Threshold = Union[int, Fraction, SqrtRat]


# ---------------------------------------------------------------------------
# resolvent data for graphs (fast integer Faddeev-LeVerrier)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def resolvent_data(g: Graph) -> ResolventData:
    """char poly and adjugate of (xI - A_G), using neighbor-row sums so each
    step is O(n^2 * avg_degree) integer additions."""
    n = g.n
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    cs = [1]
    mats = [[row[:] for row in M]]
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
            mats.append([row[:] for row in M])
    char = IntPoly([cs[n - k] for k in range(n + 1)])
    adj = tuple(
        tuple(IntPoly([mats[n - 1 - d][i][j] for d in range(n)]) for j in range(n))
        for i in range(n))
    return ResolventData(char, adj)


def _power_iteration_hint(g: Graph, iters: int = 80) -> float:
    """Float estimate of the top eigenvalue via (A+I) power iteration."""
    n = g.n
    x = [1.0] * n
    lam = 1.0
    for _ in range(iters):
        y = []
        for v in range(n):
            s = x[v]
            mask = g.adj[v]
            while mask:
                low = mask & -mask
                s += x[low.bit_length() - 1]
                mask ^= low
            y.append(s)
        lam = max(abs(t) for t in y)
        if lam == 0:
            return 0.0
        x = [t / lam for t in y]
    return lam - 1.0


# ---------------------------------------------------------------------------
# eigenvalue and Perron vector enclosures
# ---------------------------------------------------------------------------

def lambda_enclosure(g: Graph, eps: Fraction = DEFAULT_EPS) -> RationalInterval:
    """Certified enclosure of the largest adjacency eigenvalue."""
    if not g.is_connected():
        raise ValueError("graph is disconnected")
    char = resolvent_data(g).char_poly
    return isolate_largest_root(char, eps, hint=_power_iteration_hint(g))


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


def _refine_column(g: Graph, lam_eps: Fraction, accept,
                   lam: RationalInterval | None = None):
    """Evaluate the adjugate column of a maximum-degree vertex on an
    eigenvalue enclosure that starts at width lam_eps and shrinks by 16 per
    round, until accept(lam, weights, exact) returns a result.

    lam, when given, is the starting enclosure lambda_enclosure(g, lam_eps)
    already computed by the caller.

    accept is called only once every weight is strictly positive; exact
    says the eigenvalue is rational and hit exactly, so the weights are
    exact and accept must return.  At the top eigenvalue the adjugate is a
    positive rank-one matrix, so the column of any vertex is a valid
    positive eigenvector.
    """
    if not g.is_connected():
        raise ValueError("graph is disconnected")
    rd = resolvent_data(g)
    j = _column_vertex(g)
    col = [rd.adjugate[i][j] for i in range(g.n)]
    if lam is None:
        lam = lambda_enclosure(g, lam_eps)
    for _ in range(220):
        weights = [p.eval_interval(lam) for p in col]
        if all(w.strictly_positive() for w in weights):
            got = accept(lam, weights, lam.width == 0)
            if got is not None:
                return got
        if lam.width == 0:
            raise ArithmeticError("adjugate column not positive at exact eigenvalue")
        lam_eps = lam_eps * Fraction(1, 16)
        lam = refine_root(rd.char_poly, lam, lam_eps)
    raise ArithmeticError("failed to refine the adjugate-column enclosure")


def perron_enclosure(g: Graph, eps: Fraction = DEFAULT_EPS) -> PerronData:
    """Perron vector enclosure from the adjugate column of a maximum-degree
    vertex, refined until every entry has relative width <= eps."""
    def accept(lam, weights, exact):
        if exact or all(w.width / w.lo <= eps for w in weights):
            return PerronData(lam, tuple(weights),
                              "adjugate column of vertex %d, unnormalized"
                              % _column_vertex(g))
        return None

    return _refine_column(g, DEFAULT_EPS, accept)


@dataclass(frozen=True)
class GammaValue:
    """Certified enclosure of the balance ratio of a graph."""

    value: RationalInterval
    graph_id: str
    method: str                   # "certified" | "closed-form" | "float-hint"

    def midpoint(self) -> float:
        return self.value.mid_float()


GAMMA_LAMBDA_EPS = Fraction(1, 2 ** 30)


def gamma_enclosure(g: Graph, eps: Fraction = Fraction(1, 10 ** 8),
                    lam: RationalInterval | None = None) -> GammaValue:
    """Certified enclosure of gamma(G) with width <= eps.

    Scale-invariant in the Perron normalization, so the unnormalized
    adjugate column is used directly.  The eigenvalue enclosure starts at
    lam, which must be lambda_enclosure(g, GAMMA_LAMBDA_EPS), computed here
    when not given.
    """
    def accept(lam, ws, exact):
        s = ws[0]
        for w in ws[1:]:
            s = s.add(w)
        sq = ws[0].square()
        for w in ws[1:]:
            sq = sq.add(w.square())
        iv = s.square().div(sq)
        if exact or iv.width <= eps:
            return GammaValue(iv, write_graph6(g), "certified")
        return None

    return _refine_column(g, GAMMA_LAMBDA_EPS, accept, lam)


def gamma_refiner(g: Graph) -> Callable[[Fraction], RationalInterval]:
    return lambda eps: gamma_enclosure(g, eps).value


# ---------------------------------------------------------------------------
# certified comparisons against thresholds
# ---------------------------------------------------------------------------

def threshold_enclosure(threshold: Threshold, eps: Fraction) -> RationalInterval:
    if isinstance(threshold, SqrtRat):
        return threshold.enclosure(eps)
    return RationalInterval.point(Fraction(threshold))


def certified_below(refine: Callable[[Fraction], RationalInterval],
                    threshold: Threshold,
                    eps0: Fraction = Fraction(1, 10 ** 6),
                    first: RationalInterval | None = None) -> bool:
    """Decide value < threshold by joint refinement of both enclosures.

    first, when given, is refine(eps0) already computed by the caller, and
    serves as the first round.  A value equal to a rational threshold is not
    below it once both enclosures are the same point.
    """
    eps = eps0
    for k in range(60):
        iv = first if k == 0 and first is not None else refine(eps)
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
        from .graphs import e_graph
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
    from .graphs import e_graph
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

    Refines until one weight interval dominates, with an orbit escape hatch:
    vertices in one automorphism orbit carry equal weight, so comparing
    orbit representatives suffices.
    """
    orbits = vertex_orbits(g)
    reps = [orb[0] for orb in orbits]
    rep_of = {}
    for orb in orbits:
        for v in orb:
            rep_of[v] = orb[0]
    cur = Fraction(1, 2 ** 20)
    for _ in range(6):
        pd = perron_enclosure(g, cur)
        ws = pd.weights
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

    Returns (rows, count_below).
    """
    if kind == "graph":
        items = enumerate_connected_graphs(n)
    elif kind == "tree":
        items = enumerate_trees(n)
    else:
        raise ValueError("kind must be 'graph' or 'tree'")
    from .graphs import canonical_relabel
    rows = []
    below = 0
    for g in items:
        lam = lambda_enclosure(g, GAMMA_LAMBDA_EPS)
        gv = gamma_enclosure(g, eps, lam)
        rows.append(TableRow(write_graph6(canonical_relabel(g)), gv, lam))
        if certified_below(gamma_refiner(g), threshold, eps, first=gv.value):
            below += 1
    rows.sort(key=lambda r: (r.gamma.value.mid, r.graph6))
    return tuple(rows), below
