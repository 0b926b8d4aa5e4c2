"""The kernel-extension bounding engine.

For a rooted connected graph (H, o) and lam > lam_H, the resolvent
B = (lam*I - A_H)^{-1} expresses the Perron weights inside H through the
weights just outside.  Writing P for the characteristic polynomial and
working with the polynomial matrix P*B = adj(lam*I - A_H), define for
nonempty vertex sets U, V of H:

    P * Bt_{u,U}   = sum_{v in U} adj[u][v]          (partial column sums)
    P * s_U        = sum_u P * Bt_{u,U}              (column totals)
    P^2 * c_{U,V}  = sum_u (P*Bt_{u,U})(P*Bt_{u,V})  (column inner products)

If every vertex outside H attaches to H through a set in a family of
allowed boundary sets, and the root has maximal Perron weight, then the
balance ratio of the Perron vector restricted to the closed neighborhood
of H is at least

    min over U,V   (s_U + 1)(s_V + 1) / (c_{U,V} + Bt_{o,U}/2 + Bt_{o,V}/2)

minimized over lam >= max(lam_U, lam_V), where lam_U is the top eigenvalue
of H plus one new vertex joined to U.  Clearing denominators turns each
pair check into the nonnegativity of one integer polynomial Q_{U,V} on a
ray, certified here by shifted-coefficient signs, with a fallback that
samples Q once between each two of its roots (algebra.ray_verdict).

All pair data come from the partial column sums P*Bt_{u,U}, built once
per boundary set: the cascade uses them as polynomials, the packed test
below as integers at a grid point.  The characteristic polynomial of H plus
a vertex joined to U is the bordered determinant x*P(x) - 1_U^T adj 1_U
(spectral.bordered_char_poly), read off the U x U block of the adjugate, so
no resolvent of the larger graph and no partial column sum is formed for
it.  The first isolation of lam_U comes from the top-root cache of
spectral (spectral.top_root), keyed on that polynomial and the width and
shared with the tables' eigenvalues.

Most pairs are settled without forming Q at all.  At a grid point x <= lo
just below the shift point, the coefficient signs of Q(x + y) are read off
one integer: a scaled value of Q at x + 2^(K-8), whose base-2^K digits are
those coefficients (Kronecker substitution), with K chosen from a majorant
that holds for every pair of the kernel.  That integer is affine in the
indicator vector of the second set V: every V-dependent term of Q is a sum
over v in V of data of adjugate column v, so for a fixed first set U and
grid point it is c_U + sum_{v in V} w_U[v] (_PackedSet).  verify_extension
runs this test inline and keeps the first sets' data for the sweep, forming
each weight w_U[v] on first use from the adjugate columns at that point,
for a singleton U = {u} by the identity adj^2 = P' adj - P adj' in place
of an n-term inner product: a pair it settles costs |V| integer additions
and a sign test and leaves no verdict.  Only a pair that fails it goes to check_pair, which builds Q_{U,V}
and runs the full cascade.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import combinations, combinations_with_replacement, zip_longest
from operator import mul
from typing import Iterable, Optional, Sequence

from .algebra import IntPoly, RationalInterval, ray_verdict, refine_root
from .graphs import RootedKernel, _bits
from .spectral import (
    bordered_char_poly,
    lambda_enclosure,
    resolvent_data,
    top_root,
)

LAMBDA_EPS = Fraction(1, 2 ** 30)

# Upgrading a bound on the restricted vector to the whole graph needs the
# bound to stay below 2*lam+3 (> 7 when lam > 2); when the closed
# neighborhood of H is known to reach distance 2 from the root the margin
# improves to 2*lam + 2/(lam^2-1) + 3 > 23/3.
GUARD_PLAIN = Fraction(7)
GUARD_DIST2 = Fraction(23, 3)


def subset_mask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@lru_cache(maxsize=None)
def mask_vertices(mask: int) -> tuple:
    return tuple(_bits(mask))


# Pair checks settled by the packed coefficient test (inline in
# verify_extension), those that ran the full cascade (check_pair), and the
# per-vertex weights the packed test formed.
_PAIR_COUNTS = {"packed": 0, "cascade": 0, "weights": 0}


def pair_check_info() -> dict:
    """How many pair checks the packed test settled, how many ran the
    cascade, and how many per-vertex weights of the packed test were
    formed."""
    return dict(_PAIR_COUNTS)


# The packed test shifts to x = floor(lo * 2^PACK_BITS) / 2^PACK_BITS <= lo.
PACK_BITS = 8


def grid_index(lo: Fraction) -> int:
    """floor(lo * 2^PACK_BITS), the index of the packed test's grid point."""
    return (lo.numerator << PACK_BITS) // lo.denominator


def scaled_eval(coeffs: Sequence[int], x: int, bits: int, m: int) -> int:
    """2^(bits*m) * p(x / 2^bits), an integer, for ascending integer
    coefficients of degree at most m."""
    acc = 0
    shift = bits * (m - len(coeffs) + 1)
    for c in reversed(coeffs):
        acc = acc * x + (c << shift)
        shift += bits
    return acc


def scaled_derivative_eval(coeffs: Sequence[int], x: int, bits: int,
                           m: int) -> int:
    """scaled_eval of the derivative: 2^(bits*m) * p'(x / 2^bits)."""
    return scaled_eval([k * c for k, c in enumerate(coeffs)][1:], x, bits, m)


def digit_sign_bits(k: int, d: int) -> int:
    """The top bit of each of the lowest d base-2^k digits."""
    return ((1 << k * d) - 1) // ((1 << k) - 1) << (k - 1)


def packed_nonneg(n: int, sign: int) -> bool:
    """Whether n = sum_{i<=d} s_i 2^(k*i) has every s_i >= 0, given that
    every |s_i| < 2^(k-1), where sign = digit_sign_bits(k, d).

    Such a sum is the balanced base-2^k expansion of n, which is unique, and
    |n| < 2^(k(d+1)-1).  If every s_i >= 0, the s_i are the plain base-2^k
    digits of n, so n >= 0 and no digit has its top bit set.  Conversely, if
    n >= 0 and none of the digits 0..d-1 has its top bit set, digit d is
    below 2^(k-1) by the bound on n, so all plain digits lie in
    [0, 2^(k-1)) and are the balanced ones.  Both tests are needed: a
    negative s_d alone leaves the lower digits unchanged, and a negative
    lower digit with a positive s_d leaves n > 0.
    """
    return n >= 0 and not n & sign


class _GridPoint:
    """The packed test's grid point X = 2^K + a of one kernel at one beta:
    the sign mask digit_sign_bits(K, 2n) of packed_nonneg for its digit
    width K, P_X = 2^(n*PACK_BITS) P(X / 2^PACK_BITS), the same scaling of
    P' as dpx = 2^((n-1)*PACK_BITS) P'(X / 2^PACK_BITS), and the adjugate
    columns at X / 2^PACK_BITS with their totals, evaluated on first use."""

    __slots__ = ("x", "sign", "px", "dpx", "tots", "_resolvent", "_cols")

    def __init__(self, resolvent, x: int, k: int):
        p, n = resolvent.char_poly.coeffs, resolvent.n
        self.x = x
        self.sign = digit_sign_bits(k, 2 * n)
        self.px = scaled_eval(p, x, PACK_BITS, n)
        self.dpx = scaled_derivative_eval(p, x, PACK_BITS, n - 1)
        self.tots: dict[int, int] = {}
        self._resolvent = resolvent
        self._cols: dict[int, tuple] = {}

    def column(self, v: int) -> tuple:
        """Column v of the adjugate at X / 2^PACK_BITS, each entry times
        2^((n-1)*PACK_BITS); its total goes to tots[v]."""
        got = self._cols.get(v)
        if got is None:
            rd = self._resolvent
            got = self._cols[v] = tuple(
                scaled_eval(e.coeffs, self.x, PACK_BITS, rd.n - 1)
                for e in rd.column(v))
            self.tots[v] = sum(got)
        return got


class _PackedSet(dict):
    """The packed integer of one first set U at one grid point and beta, as
    an affine function of the second set: N(U, V) = c + sum_{v in V} self[v].
    packed_nonneg(N(U, V), grid.sign) decides whether q(x + y), q the pair
    polynomial of KernelContext.q_poly, has all its coefficients >= 0 as a
    polynomial in y, at the grid point x = a/b, b = 2^PACK_BITS.  The
    weight of a vertex is formed on first use and kept; being a dict lets
    the sweep sum the kept weights by plain lookups, with __missing__
    forming the others.

    The test.  Let D = 2n >= deg q, write q(x + y) = sum_k r_k y^k and
    put s_k = b^(D-k) r_k, a positive multiple of r_k (an integer: r_k
    is a sum of q_j C(j,k) a^(j-k) / b^(j-k), j <= D).  For X = 2^K + a,

        N = b^D q(X/b) = b^D q(x + 2^K/b) = sum_{k<=D} s_k 2^(K*k),

    and if every |s_k| < 2^(K-1), packed_nonneg(N, digit_sign_bits(K, D))
    decides whether every s_k >= 0.  N is built from the integers col_v[u] =
    b^(n-1) adj[u][v](X/b) (grid.column), their sums T_W[u] = sum_{v in W}
    col_v[u] = b^(n-1) (P*Bt_{u,W})(X/b), and P_X = b^n P(X/b):

        A_W = b^n (P s_W + P)(X/b)   = b * sum_u T_W[u] + P_X,
        b^D (P^2 Bt_{o,W})(X/b)      = b * T_W[o] * P_X,
        b^D (P^2 c_{U,V})(X/b)       = b^2 * sum_u T_U[u] T_V[u],

    so that, with beta = num/den,

        N = 2 den A_U A_V - num (2 b^2 T_U.T_V + b (T_U[o] + T_V[o]) P_X).

    The affine form.  Every factor of N that depends on V is a sum over
    v in V: A_V = P_X + b * sum_v tot_v, where tot_v = sum_u col_v[u]
    (grid.tots), T_V[o] = sum_v col_v[o] and T_U.T_V = sum_v T_U.col_v.
    Hence N = c_U + sum_{v in V} w_U[v], where

        c_U    = 2 den A_U P_X - num b T_U[o] P_X,
        w_U[v] = 2 den b A_U tot_v - num (2 b^2 T_U.col_v + b col_v[o] P_X),

    and only the weights of vertices some pair asks for are formed.

    Singleton first sets.  For U = {u}, T_U.col_v is b^(2n-2) (adj^2)[u][v]
    at X/b, adj being symmetric.  With R = (xI - A)^-1, adj = P R and
    R' = -R^2, so adj' = P' R - P R^2 and, multiplying by P,

        adj^2 = P' adj - P adj',   T_U.col_v = dpx t[v] - P_X D,

    scaled by b^(2n-2): dpx = b^(n-1) P'(X/b) (grid.dpx), t[v] = b^(n-1)
    adj[u][v](X/b) and D = b^(n-2) adj'[u][v](X/b), a Horner pass by the
    K-bit X.  Two products of ~nK bits replace the n of the inner product.
    Singletons are the first sets of all 3,088 weights of the tree-kernel
    stage but of 2,309 of 22,313 in the graph-kernel stage, where summing D
    over a larger U measured slower (at ~800 bits the derivative evaluations
    cost more than the products saved): a larger U keeps T_U.col_v.

    The digit width.  For any polynomial p of degree <= D,

        sum_k |s_k| <= sum_k b^(D-k) sum_{j>=k} |p_j| C(j,k) |a|^(j-k)
                       / b^(j-k)
                     = sum_j |p_j| b^(D-j) (1 + |a|)^j
                     = b^D |p|((1 + |a|)/b),

    |p| the polynomial of absolute coefficients.  Every q of the kernel
    at this beta has |q| <= KernelContext._majorant(beta) coefficientwise,
    because absolute values of sums and products are majorized by the sums
    and products of the absolute values.  K (KernelContext._grid_point) is
    one more than the bit length of b^D times that majorant at
    (1 + |a|)/b; then every |s_k| < 2^(K-1) for every nonempty U, V,
    whatever family the caller checks.
    """

    __slots__ = ("c", "_t", "_grid", "_root", "_num", "_ta", "_to", "_adj_u")

    def __init__(self, grid: _GridPoint, vertices: tuple, root: int,
                 beta: Fraction):
        cols = [grid.column(v) for v in vertices]
        t = cols[0] if len(cols) == 1 else tuple(map(sum, zip(*cols)))
        px, num = grid.px, beta.numerator
        a_u = (sum(t) << PACK_BITS) + px
        self._ta = 2 * beta.denominator * a_u
        self._to = num * px
        self.c = self._ta * px - (self._to * t[root] << PACK_BITS)
        self._t, self._grid, self._root, self._num = t, grid, root, num
        self._adj_u = (grid._resolvent.column(vertices[0])
                       if len(vertices) == 1 else None)

    def __missing__(self, v: int) -> int:
        grid = self._grid
        col = grid.column(v)
        adj_u = self._adj_u
        if adj_u is None:
            tc = sum(map(mul, self._t, col))
        else:
            tc = grid.dpx * self._t[v] - grid.px * scaled_derivative_eval(
                adj_u[v].coeffs, grid.x, PACK_BITS, len(col) - 2)
        w = self[v] = (
            ((self._ta * grid.tots[v] - self._to * col[self._root]) << PACK_BITS)
            - (self._num * tc << 2 * PACK_BITS + 1))
        _PAIR_COUNTS["weights"] += 1
        return w


class KernelContext:
    """Per-kernel cache of the resolvent polynomials and attachment data.

    Every pair quantity is read from the partial column sums of the two
    boundary sets.  The packed coefficient test, which verify_extension runs
    inline, takes them as integers at a grid point: the context keeps each
    grid point with its digit width and the adjugate columns evaluated there
    (_grid_point), and the sweep keeps its first sets' affine data
    (_PackedSet).  The cascade of check_pair takes them as polynomials
    (pbt_column, cached per set): the pair polynomial (q_poly) is built only
    for the pairs the packed test does not settle.
    """

    def __init__(self, kernel: RootedKernel):
        self.kernel = kernel
        self.graph = kernel.graph
        self.root = kernel.root
        self.resolvent = resolvent_data(kernel.graph)
        self.char = self.resolvent.char_poly
        self._pbt: dict[int, tuple] = {}
        self._lam: dict[int, RationalInterval] = {}
        self._majorants: dict[tuple, tuple] = {}
        self._grid: dict[tuple, _GridPoint] = {}

    # -- resolvent polynomials ------------------------------------------------

    def pbt_column(self, mask: int) -> tuple:
        """Entries P*Bt_{u,U} for the vertex set given as a bitmask."""
        got = self._pbt.get(mask)
        if got is None:
            n = self.graph.n
            cols = [self.resolvent.column(v) for v in mask_vertices(mask)]
            got = tuple(sum((c[u] for c in cols), IntPoly()) for u in range(n))
            self._pbt[mask] = got
        return got

    def s_poly(self, mask: int) -> IntPoly:
        """P * s_U: total of the partial column sums."""
        if not mask:
            raise ValueError("empty boundary set")
        return sum(self.pbt_column(mask), IntPoly())

    def c_poly(self, u_mask: int, v_mask: int) -> IntPoly:
        """P^2 * c_{U,V}: the inner product of the two partial column sums."""
        if not u_mask or not v_mask:
            raise ValueError("empty boundary set")
        return sum(map(mul, self.pbt_column(u_mask), self.pbt_column(v_mask)),
                   IntPoly())

    # -- attachment eigenvalues -------------------------------------------------

    def _attachment_poly(self, mask: int) -> IntPoly:
        """Characteristic polynomial of H plus one vertex joined to the set,
        by bordering H's resolvent."""
        return bordered_char_poly(self.resolvent, mask)

    def lambda_U(self, mask: int, eps: Fraction | None = None) -> RationalInterval:
        """Top eigenvalue of H with one new vertex joined to the set, with
        width at most eps, which is capped at LAMBDA_EPS.

        Without eps, the context's enclosure of the set is returned as it
        stands (never wider than LAMBDA_EPS), at the cost of one lookup.  The
        first isolation at each eps comes from spectral's shared top-root
        cache (a hit runs no hint); a tighter eps later refines this
        context's own, which is how check_pair moves the lower end that
        verify_extension reads as the set's shift key.
        """
        cur = self._lam.get(mask)
        if cur is not None and (eps is None or cur.width_at_most(eps)):
            return cur
        eps = LAMBDA_EPS if eps is None else min(eps, LAMBDA_EPS)
        if not mask:
            raise ValueError("empty boundary set")
        poly = self._attachment_poly(mask)
        if cur is None:
            cur = top_root(poly, eps, partial(self.graph.add_vertex, mask))
        else:
            cur = refine_root(poly, cur, eps)
        self._lam[mask] = cur
        return cur

    # -- the certificate polynomial ---------------------------------------------

    def q_poly(self, u_mask: int, v_mask: int, beta: Fraction) -> tuple:
        """The pair polynomial, scaled integer form.

        Returns (q, scale) where q = scale * Q_{U,V} and

        Q = (P s_U + P)(P s_V + P)
            - beta (P^2 c_{U,V} + P^2 Bt_{o,U}/2 + P^2 Bt_{o,V}/2).

        The scale 2*denominator(beta) is positive, so sign information on q
        transfers to Q directly.
        """
        if not isinstance(beta, Fraction):
            beta = Fraction(beta)
        if beta < 0:
            raise ValueError("beta must be nonnegative")
        p, o = self.char, self.root
        a_u, a_v = self.s_poly(u_mask) + p, self.s_poly(v_mask) + p
        b = (self.c_poly(u_mask, v_mask) * 2
             + (self.pbt_column(u_mask)[o] + self.pbt_column(v_mask)[o]) * p)
        scale = 2 * beta.denominator
        q = (a_u * a_v) * scale - b * beta.numerator
        return q, scale

    # -- the packed coefficient test --------------------------------------------

    @cached_property
    def _abs_sums(self) -> tuple:
        """(A, S) of _majorant, the same for every beta."""
        entries = [e.coeffs for row in self.resolvent.adjugate for e in row]
        s = IntPoly._from_ints([sum(map(abs, cs)) for cs in
                                zip_longest(*entries, fillvalue=0)])
        return IntPoly._from_ints([abs(c) for c in self.char.coeffs]) + s, s

    def _majorant(self, beta: Fraction) -> tuple:
        """Coefficients of a majorant of |q| at beta, valid for every pair of
        nonempty U, V: A (2*den(beta) A + 2*num(beta) S), where |p| is the
        polynomial of absolute coefficients of p, S = sum_{i,u} |adj[i][u]|
        and A = |P| + S.

        Coefficientwise, |P s_W + P| <= A, |P^2 Bt_{o,W}| <= S |P| and
        |P^2 c_{U,V}| <= sum_u (sum_i |adj[i][u]|)^2 <= S^2, so |q| <=
        2*den A^2 + num (2 S^2 + 2 S |P|), which is the majorant.  It needs
        num >= 0.
        """
        key = (beta.numerator, beta.denominator)
        got = self._majorants.get(key)
        if got is None:
            if beta < 0:
                raise ValueError("beta must be nonnegative")
            a, s = self._abs_sums
            got = (a * (a * (2 * beta.denominator)
                        + s * (2 * beta.numerator))).coeffs
            self._majorants[key] = got
        return got

    def _grid_point(self, beta: Fraction, a: int) -> _GridPoint:
        """The grid point a / 2^PACK_BITS at this beta: X = 2^K + a, where K
        is a digit width sound for every pair of the kernel (see
        _PackedSet)."""
        key = (beta.numerator, beta.denominator, a)
        got = self._grid.get(key)
        if got is None:
            k = scaled_eval(self._majorant(beta), 1 + abs(a), PACK_BITS,
                            2 * self.graph.n).bit_length() + 1
            got = self._grid[key] = _GridPoint(self.resolvent, (1 << k) + a, k)
        return got


@dataclass(frozen=True)
class PairVerdict:
    """Result of one pair check, with exact evidence."""

    u_mask: int
    v_mask: int
    beta: Fraction
    kind: str                      # "coefficients" | "sturm" | "fail"
    shift_point: Fraction
    witness: Optional[Fraction] = None

    @property
    def passed(self) -> bool:
        return self.kind in ("coefficients", "sturm")


def check_pair(ctx: KernelContext, u_mask: int, v_mask: int,
               beta: Fraction) -> PairVerdict:
    """Certify Q_{U,V}(lam) >= 0 for all lam >= max(lam_U, lam_V) by the
    cascade of algebra.ray_verdict on the pair polynomial.

    The shift point is a certified rational lower bound of the attachment
    eigenvalue, so coefficient positivity after shifting is sound (and
    conservative).  The ray_verdict fallback distinguishes a failed sufficient
    condition from a genuinely false inequality; failures carry an exact
    rational witness.  An undecided verdict tightens both attachment
    eigenvalues and asks again.

    verify_extension calls this only for the pairs its packed test fails.
    A pair that test passes at the grid point x = floor(lo*b)/b <= lo, b =
    2^PACK_BITS, gets the "coefficients" verdict here at the shift point
    lo: q(lo + y) is q(x + y) shifted by lo - x >= 0, and shifting a
    polynomial with nonnegative coefficients by a nonnegative amount keeps
    them nonnegative.
    """
    beta = Fraction(beta)
    q, _ = ctx.q_poly(u_mask, v_mask, beta)
    _PAIR_COUNTS["cascade"] += 1
    lu, lv = ctx.lambda_U(u_mask), ctx.lambda_U(v_mask)
    eps = LAMBDA_EPS
    for _ in range(8):
        lo = max(lu.lo, lv.lo)
        kind, witness = ray_verdict(q, lo, max(lu.hi, lv.hi))
        if kind != "undecided":
            return PairVerdict(u_mask, v_mask, beta, kind, lo, witness=witness)
        eps = eps / 2 ** 10
        lu, lv = ctx.lambda_U(u_mask, eps), ctx.lambda_U(v_mask, eps)
    raise ArithmeticError("pair check undecided after refinement")


@dataclass(frozen=True)
class ExtensionReport:
    """Outcome of verifying one kernel against a family of boundary sets."""

    beta: Fraction
    family: tuple                  # sorted masks
    verdicts: tuple                # the pairs that ran the cascade, in order
    packed: int                    # pairs the packed test settled

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    @property
    def failing_pairs(self) -> tuple:
        return tuple((v.u_mask, v.v_mask) for v in self.verdicts if not v.passed)


def family_all_subsets(vertices: Iterable[int]) -> tuple:
    """All nonempty subsets of the given vertices, as sorted masks."""
    vs = sorted(vertices)
    masks = []
    for r in range(1, len(vs) + 1):
        for c in combinations(vs, r):
            masks.append(subset_mask(c))
    return tuple(sorted(masks, key=lambda m: (m.bit_count(), m)))


def family_singletons(vertices: Iterable[int]) -> tuple:
    return tuple(sorted(1 << v for v in vertices))


def verify_extension(ctx: KernelContext, family: Sequence[int], beta: Fraction,
                     dist2_vertex: bool = False,
                     stop_on_failure: bool = False) -> ExtensionReport:
    """Run every unordered pair check for the family at the target ratio.

    The target must stay below the guard (7, or 23/3 when the closed
    neighborhood of the kernel is known to contain a vertex at distance two
    from the root) so that a bound on the restricted vector transfers to
    the whole graph whenever its top eigenvalue exceeds 2.

    Pairs run in family order, (U, V) with U at or before V, each through
    the packed test (_PackedSet) inline.  Its integer is symmetric in U and
    V, but only the first set's data are kept: the set with the larger shift
    key (grid_index(lo), lo), lo the lower end of its current enclosure of
    lam_U, whose lo is the pair's shift point, so every pair of that set
    with a lower eigenvalue shares its data.  Only a pair the test fails
    calls check_pair, whose cascade may refine both enclosures, so the two
    sets' keys are read again after it.
    """
    beta = Fraction(beta)
    guard = GUARD_DIST2 if dist2_vertex else GUARD_PLAIN
    if beta >= guard:
        raise ValueError("beta %s is not below the transfer guard %s" % (beta, guard))
    if any(m == 0 for m in family):
        raise ValueError("boundary family contains the empty set")
    fam = tuple(sorted(set(family), key=lambda m: (m.bit_count(), m)))
    verts = {m: mask_vertices(m) for m in fam}
    keys, sets = {}, {}
    verdicts, packed = [], 0

    def read_key(m):
        lo = ctx.lambda_U(m).lo
        keys[m] = key = (grid_index(lo), lo)
        return key

    for um, vm in combinations_with_replacement(fam, 2):
        ku = keys.get(um) or read_key(um)
        kv = keys.get(vm) or read_key(vm)
        first, second, a = (um, vm, ku[0]) if ku >= kv else (vm, um, kv[0])
        got = sets.get((first, a))
        if got is None:
            grid = ctx._grid_point(beta, a)
            ps = _PackedSet(grid, verts[first], ctx.root, beta)
            got = sets[first, a] = (ps.__getitem__, ps.c, grid.sign)
        weight, c, sign = got
        if packed_nonneg(sum(map(weight, verts[second]), c), sign):
            packed += 1
            continue
        v = check_pair(ctx, um, vm, beta)
        verdicts.append(v)
        if stop_on_failure and not v.passed:
            break
        read_key(um)
        read_key(vm)
    _PAIR_COUNTS["packed"] += packed
    return ExtensionReport(beta, fam, tuple(verdicts), packed)


# ---------------------------------------------------------------------------
# bound-comparison curves
# ---------------------------------------------------------------------------

def bound_curves(ctx: KernelContext, u_mask: int, lam_lo: Fraction,
                 lam_hi: Fraction, samples: int) -> list:
    """Sample the two pairwise lower-bound curves for U = V.

    Returns rows (lam, a/b1, a/b3) where a = (s_U+1)^2, b1 = c_{U,U} + 1 and
    b3 = c_{U,U} + Bt_{o,U}; all values exact rationals at rational lam,
    emitted as floats for plotting.
    """
    lam_lo, lam_hi = Fraction(lam_lo), Fraction(lam_hi)
    lam_h = lambda_enclosure(ctx.graph, LAMBDA_EPS)
    if lam_lo <= lam_h.hi:
        raise ValueError("sample range must stay above the kernel eigenvalue")
    p = ctx.char
    ps = ctx.s_poly(u_mask)
    pc = ctx.c_poly(u_mask, u_mask)
    pbo = ctx.pbt_column(u_mask)[ctx.root] * p
    rows = []
    for k in range(samples):
        lam = lam_lo + (lam_hi - lam_lo) * Fraction(k, max(1, samples - 1))
        a = (ps.eval(lam) + p.eval(lam)) ** 2
        p2 = p.eval(lam) ** 2
        b1 = pc.eval(lam) + p2
        b3 = pc.eval(lam) + pbo.eval(lam)
        rows.append((float(lam), float(a / b1), float(a / b3)))
    return rows
