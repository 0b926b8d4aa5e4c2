"""Certified spectral quantities of small graphs.

The central object is the balance ratio of the Perron vector x of a
connected graph,

    gamma(G) = (sum_v x_v)^2 / (sum_v x_v^2),

which lies in [1, n] and equals n exactly for regular graphs.  All
enclosures are produced by exact rational arithmetic: the top eigenvalue is
isolated as the largest root of the characteristic polynomial phi, and
gamma is read off two polynomials at it,

    gamma = W(lambda_1) / phi'(lambda_1),   W = 1^T adj(xI - A) 1,

because at a simple eigenvalue the adjugate is phi'(lambda) x x^T for a
unit eigenvector x.  W/phi is the walk generating function, so W comes
from the walk counts 1^T A^k 1 and the coefficients of phi alone
(_walk_numerator), for any graph.

phi comes from resolvent_data: for a tree by Schwenk's recurrence in one
bottom-up pass, and for any other graph by bordering its last vertex over
the cached integer Faddeev-LeVerrier pass of the rest (bordered_char_poly),
which for a table row the level below has made.  The pass of the graph
itself gives, on first request, the adjugate columns that kernel contexts
and tail bases read.  One cache (top_root) keeps the first isolation of
each top eigenvalue at each width, for the tables and the kernel sweeps.

A GammaEnclosure holds the eigenvalue as one algebra.RootEnclosure and
narrows it in place, so each request continues where the last one
stopped.  W and phi' are evaluated on integer numerators over one
denominator (algebra.horner_interval, two products per step on an
enclosure above 0), with exactly the endpoints of rational interval Horner;
they share one scale, so the gamma enclosure is two fractions of integers,
and table rows sort on an integer prefix of the gamma midpoint.

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
from functools import lru_cache
from itertools import zip_longest
from operator import mul
from typing import Callable, Optional, Union

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
    _bits,
    bifork_graph,
    canonical_relabel,
    cycle_graph,
    e_graph,
    enumerate_connected_graphs,
    enumerate_trees,
    fork_graph,
    path_graph,
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

    A tree takes its char poly from Schwenk's recurrence
    (_tree_char_poly), whose traversal also tells a tree from a
    disconnected graph with n - 1 edges.  Any other graph borders vertex
    n - 1 over the Faddeev-LeVerrier pass of g minus that vertex
    (bordered_char_poly); g has n >= 2 vertices then.  The adjugate comes
    from the pass of g itself, run only when a column is first asked for
    (kernel contexts, tail bases).  The char poly is unique, so every
    route gives the same one.
    """
    char = _tree_char_poly(g) if g.edge_count() == g.n - 1 else None
    if char is None:
        m = g.n - 1
        below = Graph(m, tuple(row & ~(1 << m) for row in g.adj[:m]))
        char = bordered_char_poly(_fl_pass(below), g.adj[m])
    return ResolventData(char, g.n, lambda v: _fl_pass(g).column(v))


@lru_cache(maxsize=4096)
def _fl_pass(g: Graph) -> ResolventData:
    """The Faddeev-LeVerrier pass of g, kept for the graphs bordered over g
    and for g's own adjugate columns."""
    return _faddeev_leverrier(g)


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


def bordered_char_poly(resolvent: ResolventData, mask: int) -> IntPoly:
    """Characteristic polynomial of G plus one new vertex joined to the
    vertex set U given as a bitmask, from the resolvent data of G: the
    bordered determinant x*phi_G(x) - 1_U^T adj(xI - A_G) 1_U (Schwenk,
    LNM 406, 1974; Godsil, Algebraic Combinatorics, 1993, ch. 4).  The
    quadratic form is read off the U x U block of the symmetric adjugate
    as its diagonal plus twice the entries above it, summed
    coefficientwise in one pass; an empty U gives x*phi_G."""
    vs = _bits(mask)
    col = resolvent.column
    upper = [col(j)[i].coeffs for k, j in enumerate(vs) for i in vs[:k]]
    terms = upper + upper + [col(j)[j].coeffs for j in vs]
    return IntPoly._from_ints([xp - sum(cs) for xp, *cs in zip_longest(
        (0,) + resolvent.char_poly.coeffs, *terms, fillvalue=0)])


_ONE = IntPoly([1])


def _times(a: IntPoly, b: IntPoly) -> IntPoly:
    """a * b, skipping the empty products (_ONE itself) that leaves give."""
    if a is _ONE:
        return b
    if b is _ONE:
        return a
    return a * b


def _tree_char_poly(g: Graph) -> Optional[IntPoly]:
    """Characteristic polynomial of a tree by Schwenk's recurrence
    (Schwenk, LNM 406, 1974; Godsil, Algebraic Combinatorics, ch. 2), or
    None when the search from vertex 0 misses a vertex: a graph with n - 1
    edges is a tree iff it is connected.

    Rooted at vertex 0, with T_v the subtree of v and c running over its
    children, f_v = phi(T_v) and g_v = phi(T_v - v) = prod_c f_c satisfy

        f_v = x * prod_c f_c - sum_c g_c * prod_{c' != c} f_c'.

    One bottom-up pass accumulates, per vertex, P = prod f_c and
    S = sum_c g_c prod_{c' != c} f_c' over the children seen so far: each
    child c updates S <- S*f_c + g_c*P, then P <- P*f_c.  At the end
    f_v = x*P - S and g_v = P.
    """
    parent = [-1] * g.n
    order = [0]
    seen = 1
    for v in order:
        for u in g.neighbors(v):
            if not seen >> u & 1:
                seen |= 1 << u
                parent[u] = v
                order.append(u)
    if len(order) < g.n:
        return None
    prod = [_ONE] * g.n
    acc = [None] * g.n          # S; None while it is the zero polynomial
    for v in reversed(order):
        p, s = prod[v], acc[v]
        f = IntPoly._from_ints([0, *p.coeffs])
        if s is not None:
            f = f - s
        u = parent[v]
        if u < 0:
            return f
        term = _times(p, prod[u])
        acc[u] = term if acc[u] is None else acc[u] * f + term
        prod[u] = _times(prod[u], f)


def _walk_numerator(g: Graph, char: IntPoly) -> list:
    """Ascending coefficients w_0..w_(n-1) of W = 1^T adj(xI - A) 1, from
    the walk counts N_k = 1^T A^k 1 and the coefficients a_i of char.

    With w_j = sum_{k=0}^{n-1-j} a_(j+k+1) N_k.  Proof: (xI - A)^-1 =
    sum_{k>=0} A^k x^(-k-1) for large x, so W/phi = sum_k N_k x^(-k-1)
    and W = phi * sum_k N_k x^(-k-1).  W is a polynomial of degree n - 1,
    so it is the polynomial part of that product; a term with k >= n
    carries x^(n-k-1), a negative power, and drops out, which leaves the
    sum above.  N_0 = n and N_1 is the degree sum; each further N_k takes
    one sparse product A * (A^(k-1) 1) over the edge list, n - 2 in all.
    """
    n = g.n
    edges = g.edges()
    walks = g.degrees()
    counts = [n, sum(walks)]
    for _ in range(n - 2):
        nxt = [0] * n
        for u, v in edges:
            nxt[u] += walks[v]
            nxt[v] += walks[u]
        walks = nxt
        counts.append(sum(walks))
    a = char.coeffs
    return [sum(map(mul, a[j + 1:], counts)) for j in range(n)]


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
# eigenvalue and gamma enclosures
# ---------------------------------------------------------------------------

# First isolation of the top eigenvalue, keyed on (char poly coefficients,
# eps), which fix isolate_largest_root's cell whatever the hint, so
# cospectral graphs share one entry.
_TOP_ROOT: dict = {}
_TOP_ROOT_COUNTS = {"hits": 0, "misses": 0}


def top_root_cache_info() -> dict:
    """Hit and miss counts and size of the shared first-isolation cache."""
    return dict(_TOP_ROOT_COUNTS, size=len(_TOP_ROOT))


def top_root(char: IntPoly, eps: Fraction,
             graph: Callable[[], Graph]) -> RationalInterval:
    """Enclosure of width <= eps of the largest root of char, the char poly
    of the connected graph graph(), from the shared cache.  A miss builds
    the graph and seeds the isolation with _power_iteration_hint, which
    starts it in its final cell."""
    key = (char.coeffs, eps)
    got = _TOP_ROOT.get(key)
    if got is None:
        _TOP_ROOT_COUNTS["misses"] += 1
        got = _TOP_ROOT[key] = isolate_largest_root(
            char, eps, hint=_power_iteration_hint(graph(), char))
    else:
        _TOP_ROOT_COUNTS["hits"] += 1
    return got


def lambda_enclosure(g: Graph, eps: Fraction = DEFAULT_EPS) -> RationalInterval:
    """Certified enclosure of the largest adjacency eigenvalue."""
    if not g.is_connected():
        raise ValueError("graph is disconnected")
    return top_root(resolvent_data(g).char_poly, eps, lambda: g)


GAMMA_LAMBDA_EPS = Fraction(1, 2 ** 30)


class GammaEnclosure:
    """gamma(G) of a connected graph as W(lambda_1)/phi'(lambda_1), with the
    top eigenvalue held as one RootEnclosure, lam.

    At a simple eigenvalue lambda with unit eigenvector x, adj(lambda I - A)
    = phi'(lambda) x x^T, so W(lambda) = 1^T adj(lambda I - A) 1 =
    phi'(lambda) (1^T x)^2, and gamma = W(lambda_1)/phi'(lambda_1) at the
    Perron vector.  W comes from walk counts (_walk_numerator); W/phi is
    the walk generating function (Godsil, Algebraic Combinatorics, 1993,
    ch. 4).  W and phi' both have degree n - 1 and leading coefficient n,
    so their horner_interval numerators share the scale den^(n-1), which
    cancels: gamma lies in [W_lo/phi'_hi, W_hi/phi'_lo] once both lower
    ends are > 0.

    lam starts as lambda_enclosure(g, lam_eps), which rejects a disconnected
    g with ValueError, and narrows in place, 16-fold per round, until a
    request is met: both lower ends positive (gamma is None until then)
    and, unless lam is an exact point, the asked width.
    At an exact point gamma is defined at once: lambda_1 is simple on a
    connected graph, so phi'(lambda_1) > 0 and W(lambda_1) =
    phi'(lambda_1) gamma > 0.  Elsewhere both enclosures shrink to these
    positive values as lam narrows, so the loop ends; its round cap is a
    guard only.
    """

    def __init__(self, g: Graph, lam_eps: Fraction = GAMMA_LAMBDA_EPS):
        iv = lambda_enclosure(g, lam_eps)   # the one connectivity check
        char = resolvent_data(g).char_poly
        self._walk = _walk_numerator(g, char)
        self._slope = char.derivative().coeffs
        self.lam = RootEnclosure(char, iv)
        self._round_eps = lam_eps
        self._rounds = 0
        self._evaluate()

    def _evaluate(self) -> None:
        lo, hi, den = self.lam.iv.numerators()
        w_lo, w_hi = horner_interval(self._walk, lo, hi, den)
        d_lo, d_hi = horner_interval(self._slope, lo, hi, den)
        self._gamma = None
        if w_lo > 0 and d_lo > 0:
            self._gamma = RationalInterval(Fraction(w_lo, d_hi), Fraction(w_hi, d_lo))

    def refine(self, eps: Fraction) -> RationalInterval:
        """Enclosure of gamma(G) with width <= eps."""
        while self._gamma is None or not (self.lam.iv.lo == self.lam.iv.hi
                                          or self._gamma.width_at_most(eps)):
            self._rounds += 1
            if self._rounds == 220:
                raise ArithmeticError("failed to refine the gamma enclosure")
            self._round_eps = self._round_eps * Fraction(1, 16)
            self.lam.refine(self._round_eps)
            self._evaluate()
        return self._gamma


def gamma_enclosure(g: Union[Graph, GammaEnclosure],
                    eps: Fraction = Fraction(1, 10 ** 8)) -> RationalInterval:
    """Certified enclosure of gamma(G) with width <= eps, from a graph or
    from the first request to a fresh GammaEnclosure the caller keeps."""
    enc = g if isinstance(g, GammaEnclosure) else GammaEnclosure(g)
    return enc.refine(eps)


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
    refine(eps) encloses the value with width <= eps (GammaEnclosure.refine
    returns at once when eps is already met).  A value equal to a rational
    threshold is not below it once both enclosures are the same point.
    """
    eps = eps0
    for _ in range(60):
        iv = refine(eps)
        th = threshold_enclosure(threshold, eps)
        if iv.hi < th.lo:
            return True
        if iv.lo > th.hi or (iv.lo == iv.hi and iv == th):
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
        return gamma_enclosure(e_graph(family)).mid_float()
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
# exhaustive tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TableRow:
    graph6: str
    gamma: RationalInterval
    lam: RationalInterval


def _row_order(r: TableRow) -> tuple:
    """(mid, graph6) order, led by floor(mid*2^64), which is monotone in mid,
    so that Fractions are compared only on a tie."""
    mid = r.gamma.mid
    return (mid.numerator << 64) // mid.denominator, mid, r.graph6


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
        enc = GammaEnclosure(g)
        # the first isolation narrowed to eps, on a copy: gamma narrows
        # enc.lam on a schedule of its own
        lam = enc.lam.iv
        if not lam.width_at_most(eps):
            lam = RootEnclosure(enc.lam.poly, lam).refine(eps)
        gv = gamma_enclosure(enc, eps)
        rows.append(TableRow(write_graph6(canonical_relabel(g)), gv, lam))
        if certified_below(enc.refine, threshold, eps):
            below += 1
    rows.sort(key=_row_order)
    return tuple(rows), below
