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
a vertex joined to U is the bordered determinant x*P(x) - 1_U^T adj 1_U, so
no resolvent of the larger graph is formed.  The first isolation of lam_U is
shared across kernels through a module-level cache keyed on the canonical
form of H+U and the width.

Most pairs are settled without forming Q at all.  At a grid point x <= lo
just below the shift point, the coefficient signs of Q(x + y) are read off
one integer: a scaled value of Q at x + 2^(K-8), whose base-2^K digits are
those coefficients (Kronecker substitution), with K chosen from a majorant
that holds for every pair of the kernel.  The integer is assembled from the
adjugate columns evaluated at that point, cached, and their sums over the
two boundary sets, so a pair costs an inner product of two integer vectors.
Only a pair that fails this test builds Q_{U,V} from the polynomial column
sums and runs the full cascade.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, zip_longest
from operator import mul
from typing import Iterable, Optional, Sequence

from .algebra import (
    IntPoly,
    RationalInterval,
    isolate_largest_root,
    ray_verdict,
    refine_root,
)
from .graphs import RootedKernel, _bits
from .spectral import _power_iteration_hint, lambda_enclosure, resolvent_data

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


def mask_vertices(mask: int) -> tuple:
    return tuple(_bits(mask))


# First isolation of each attachment eigenvalue, shared by every kernel
# context: keyed on (attachment polynomial coefficients, eps), which fix
# the enclosure whatever the hint, so cospectral H+U share one entry.
_FIRST_LAMBDA: dict = {}
_FIRST_LAMBDA_COUNTS = {"hits": 0, "misses": 0}


def first_lambda_cache_info() -> dict:
    """Hit and miss counts and size of the shared first-isolation cache."""
    return dict(_FIRST_LAMBDA_COUNTS, size=len(_FIRST_LAMBDA))


# Pair checks settled by the packed coefficient test, and those that ran the
# full cascade (q_poly and ray_verdict).
_PAIR_COUNTS = {"packed": 0, "cascade": 0}


def pair_check_info() -> dict:
    """How many check_pair calls the packed test settled and how many ran
    the cascade."""
    return dict(_PAIR_COUNTS)


# The packed test shifts to x = floor(lo * 2^PACK_BITS) / 2^PACK_BITS <= lo.
PACK_BITS = 8


def scaled_eval(coeffs: Sequence[int], x: int, bits: int, m: int) -> int:
    """2^(bits*m) * p(x / 2^bits), an integer, for ascending integer
    coefficients of degree at most m."""
    acc = 0
    shift = bits * (m - len(coeffs) + 1)
    for c in reversed(coeffs):
        acc = acc * x + (c << shift)
        shift += bits
    return acc


@lru_cache(maxsize=None)
def _digit_sign_bits(k: int, d: int) -> int:
    """The top bit of each of the lowest d base-2^k digits."""
    return ((1 << k * d) - 1) // ((1 << k) - 1) << (k - 1)


def packed_nonneg(n: int, k: int, d: int) -> bool:
    """Whether n = sum_{i<=d} s_i 2^(k*i) has every s_i >= 0, given that
    every |s_i| < 2^(k-1).

    Such a sum is the balanced base-2^k expansion of n, which is unique, and
    |n| < 2^(k(d+1)-1).  If every s_i >= 0, the s_i are the plain base-2^k
    digits of n, so n >= 0 and no digit has its top bit set.  Conversely, if
    n >= 0 and none of the digits 0..d-1 has its top bit set, digit d is
    below 2^(k-1) by the bound on n, so all plain digits lie in
    [0, 2^(k-1)) and are the balanced ones.  Both tests are needed: a
    negative s_d alone leaves the lower digits unchanged, and a negative
    lower digit with a positive s_d leaves n > 0.
    """
    return n >= 0 and not n & _digit_sign_bits(k, d)


class KernelContext:
    """Per-kernel cache of the resolvent polynomials and attachment data.

    Every pair quantity is read from the partial column sums of the two
    boundary sets.  The packed coefficient test (packed_pass) takes them as
    integers: it evaluates the adjugate columns once per grid point and sums
    them over each set, so a pair it settles costs an inner product of two
    integer vectors and no polynomial arithmetic.  The cascade takes them
    as polynomials (pbt_column, cached per set): the pair polynomial
    (q_poly) is built only for the pairs the packed test does not settle.
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
        self._grid: dict[tuple, tuple] = {}
        self._cols_x: dict[tuple, tuple] = {}
        self._sets_x: dict[tuple, tuple] = {}

    # -- resolvent polynomials ------------------------------------------------

    def pb_column(self, v: int) -> tuple:
        """Column v of the adjugate: entries P*B_{u,v} for u in V(H)."""
        return self.resolvent.column(v)

    def pbt_column(self, mask: int) -> tuple:
        """Entries P*Bt_{u,U} for the vertex set given as a bitmask."""
        got = self._pbt.get(mask)
        if got is None:
            n = self.graph.n
            cols = [self.pb_column(v) for v in _bits(mask)]
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
        """Characteristic polynomial of H plus one vertex joined to the set:
        the bordered determinant x*P(x) - 1_U^T adj 1_U."""
        col = self.pbt_column(mask)
        inner = sum((col[i] for i in _bits(mask)), IntPoly())
        return self.char.shifted_degree(1) - inner

    def lambda_U(self, mask: int, eps: Fraction | None = None) -> RationalInterval:
        """Top eigenvalue of H with one new vertex joined to the set, with
        width at most eps, which is capped at LAMBDA_EPS.

        Without eps, the context's enclosure of the set is returned as it
        stands (never wider than LAMBDA_EPS), at the cost of one lookup.  The
        first isolation at each eps comes from the shared cache (a hit runs
        no hint); a tighter eps later refines this context's own.
        """
        cur = self._lam.get(mask)
        if cur is not None and (eps is None or cur.width <= eps):
            return cur
        eps = LAMBDA_EPS if eps is None else min(eps, LAMBDA_EPS)
        if not mask:
            raise ValueError("empty boundary set")
        poly = self._attachment_poly(mask)
        if cur is None:
            key = (poly.coeffs, eps)
            cur = _FIRST_LAMBDA.get(key)
            if cur is None:
                _FIRST_LAMBDA_COUNTS["misses"] += 1
                cur = isolate_largest_root(poly, eps, hint=_power_iteration_hint(
                    self.graph.add_vertex(mask)))
                _FIRST_LAMBDA[key] = cur
            else:
                _FIRST_LAMBDA_COUNTS["hits"] += 1
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

    def _majorant(self, beta: Fraction) -> tuple:
        """Coefficients of a majorant of |q| at beta, valid for every pair of
        nonempty U, V: A (2*den(beta) A + 2*num(beta) S), where |p| is the
        polynomial of absolute coefficients of p, S = sum_{i,u} |adj[i][u]|
        and A = |P| + S.

        Coefficientwise, |P s_W + P| <= A, |P^2 Bt_{o,W}| <= S |P| and
        |P^2 c_{U,V}| <= sum_u (sum_i |adj[i][u]|)^2 <= S^2, so |q| <=
        2*den A^2 + num (2 S^2 + 2 S |P|), which is the majorant.
        """
        key = (beta.numerator, beta.denominator)
        got = self._majorants.get(key)
        if got is None:
            entries = [e.coeffs for row in self.resolvent.adjugate for e in row]
            s = IntPoly._from_ints([sum(map(abs, cs)) for cs in
                                    zip_longest(*entries, fillvalue=0)])
            a = IntPoly._from_ints([abs(c) for c in self.char.coeffs]) + s
            got = (a * (a * (2 * beta.denominator)
                        + s * (2 * beta.numerator))).coeffs
            self._majorants[key] = got
        return got

    def _grid_point(self, beta: Fraction, a: int) -> tuple:
        """(X, K, 2^(n*PACK_BITS) P(X / 2^PACK_BITS)) for the grid point
        a / 2^PACK_BITS, where X = 2^K + a and K is a digit width sound for
        every pair of the kernel at this beta."""
        key = (beta.numerator, beta.denominator, a)
        got = self._grid.get(key)
        if got is None:
            n = self.graph.n
            k = scaled_eval(self._majorant(beta), 1 + abs(a), PACK_BITS,
                            2 * n).bit_length() + 1
            x = (1 << k) + a
            got = (x, k, scaled_eval(self.char.coeffs, x, PACK_BITS, n))
            self._grid[key] = got
        return got

    def _column_at(self, v: int, x: int) -> tuple:
        """Column v of the adjugate at x / 2^PACK_BITS, each entry times
        2^((n-1)*PACK_BITS) (the adjugate is symmetric: row v)."""
        key = (v, x)
        got = self._cols_x.get(key)
        if got is None:
            m = self.graph.n - 1
            got = tuple(scaled_eval(e.coeffs, x, PACK_BITS, m)
                        for e in self.resolvent.adjugate[v])
            self._cols_x[key] = got
        return got

    def _set_sum(self, mask: int, x: int, px: int) -> tuple:
        """(T, A) at x / 2^PACK_BITS: T[u] is P*Bt_{u,U} times
        2^((n-1)*PACK_BITS), A is P s_U + P times 2^(n*PACK_BITS), given P
        there as px."""
        cols = [self._column_at(v, x) for v in _bits(mask)]
        t = cols[0] if len(cols) == 1 else tuple(map(sum, zip(*cols)))
        return t, (sum(t) << PACK_BITS) + px

    def _set_at(self, mask: int, x: int, px: int) -> tuple:
        """_set_sum, cached per set and point."""
        key = (mask, x)
        got = self._sets_x.get(key)
        if got is None:
            got = self._set_sum(mask, x, px)
            self._sets_x[key] = got
        return got

    def packed_pass(self, u_mask: int, v_mask: int, beta: Fraction,
                    lo: Fraction) -> bool:
        """Whether q(x + y), q the pair polynomial of q_poly, has all its
        coefficients >= 0 as a polynomial in y, at the grid point
        x = a/b = floor(lo*b)/b, b = 2^PACK_BITS.

        The result is symmetric in U and V, but only the first set's data at
        x are cached: check_pair puts first the set whose attachment
        eigenvalue gives lo, which every pair of that set with a lower
        eigenvalue shares, while the second set's data at x serve about one
        pair and are summed from the cached adjugate columns.

        Since x <= lo, a pass proves the same at lo: q(lo + y) is q(x + y)
        shifted by lo - x >= 0, and shifting a polynomial with nonnegative
        coefficients by a nonnegative amount keeps them nonnegative.

        The test.  Let D = 2n >= deg q, write q(x + y) = sum_k r_k y^k and
        put s_k = b^(D-k) r_k, a positive multiple of r_k (an integer: r_k
        is a sum of q_j C(j,k) a^(j-k) / b^(j-k), j <= D).  For X = 2^K + a,

            N = b^D q(X/b) = b^D q(x + 2^K/b) = sum_{k<=D} s_k 2^(K*k),

        and if every |s_k| < 2^(K-1), packed_nonneg(N, K, D) decides whether
        every s_k >= 0.  N is built from the integers T_W[u] =
        b^(n-1) (P*Bt_{u,W})(X/b) and P_X = b^n P(X/b):

            b^n (P s_W + P)(X/b)       = b * sum_u T_W[u] + P_X,
            b^D (P^2 Bt_{o,W})(X/b)    = b * T_W[o] * P_X,
            b^D (P^2 c_{U,V})(X/b)     = b^2 * sum_u T_U[u] T_V[u].

        The digit width.  For any polynomial p of degree <= D,

            sum_k |s_k| <= sum_k b^(D-k) sum_{j>=k} |p_j| C(j,k) |a|^(j-k)
                           / b^(j-k)
                         = sum_j |p_j| b^(D-j) (1 + |a|)^j
                         = b^D |p|((1 + |a|)/b),

        |p| the polynomial of absolute coefficients.  Every q of the kernel
        at this beta has |q| <= _majorant(beta) coefficientwise, because
        absolute values of sums and products are majorized by the sums and
        products of the absolute values.  K is one more than the bit length
        of b^D times that majorant at (1 + |a|)/b; then every |s_k| <
        2^(K-1) for every nonempty U, V, whatever family the caller checks.
        """
        if beta < 0:
            raise ValueError("beta must be nonnegative")
        a = (lo.numerator << PACK_BITS) // lo.denominator
        x, k, px = self._grid_point(beta, a)
        tu, au = self._set_at(u_mask, x, px)
        tv, av = self._set_sum(v_mask, x, px)
        o = self.root
        packed = (2 * beta.denominator * au * av
                  - beta.numerator * ((sum(map(mul, tu, tv)) << 2 * PACK_BITS + 1)
                                      + ((tu[o] + tv[o]) * px << PACK_BITS)))
        return packed_nonneg(packed, k, 2 * self.graph.n)


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

    def to_json_dict(self) -> dict:
        d = {
            "U": list(mask_vertices(self.u_mask)),
            "V": list(mask_vertices(self.v_mask)),
            "beta": str(self.beta),
            "verdict": self.kind,
            "shift_point": str(self.shift_point),
        }
        if self.witness is not None:
            d["witness"] = str(self.witness)
        return d


def check_pair(ctx: KernelContext, u_mask: int, v_mask: int,
               beta: Fraction) -> PairVerdict:
    """Certify Q_{U,V}(lam) >= 0 for all lam >= max(lam_U, lam_V).

    The shift point is a certified rational lower bound of the attachment
    eigenvalue, so coefficient positivity after shifting is sound (and
    conservative).  The ray_verdict fallback distinguishes a failed sufficient
    condition from a genuinely false inequality; failures carry an exact
    rational witness.  An undecided verdict tightens both attachment
    eigenvalues and asks again.

    The packed test at a grid point just below the shift point settles most
    pairs first; its pass is exactly the cascade's "coefficients" verdict at
    the same shift point, and a pair it does not settle runs the cascade.
    """
    if not isinstance(beta, Fraction):
        beta = Fraction(beta)
    lu, lv = ctx.lambda_U(u_mask), ctx.lambda_U(v_mask)
    lo = max(lu.lo, lv.lo)
    first, second = (u_mask, v_mask) if lu.lo >= lv.lo else (v_mask, u_mask)
    if ctx.packed_pass(first, second, beta, lo):
        _PAIR_COUNTS["packed"] += 1
        return PairVerdict(u_mask, v_mask, beta, "coefficients", lo)
    _PAIR_COUNTS["cascade"] += 1
    q, _ = ctx.q_poly(u_mask, v_mask, beta)
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

    kernel_id: str
    root: int
    beta: Fraction
    family: tuple                  # sorted masks
    verdicts: tuple
    guard: Fraction
    guard_note: str

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    @property
    def failing_pairs(self) -> tuple:
        return tuple((v.u_mask, v.v_mask) for v in self.verdicts if not v.passed)

    def to_json_dict(self) -> dict:
        return {
            "kernel": self.kernel_id,
            "root": self.root,
            "beta": str(self.beta),
            "family": [list(mask_vertices(m)) for m in self.family],
            "guard": str(self.guard),
            "guard_note": self.guard_note,
            "passed": self.passed,
            "pair_verdicts": [v.to_json_dict() for v in self.verdicts],
        }


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
    """
    beta = Fraction(beta)
    guard = GUARD_DIST2 if dist2_vertex else GUARD_PLAIN
    note = ("bound transfers when lam > 2 via the distance-2 neighborhood term"
            if dist2_vertex else "bound transfers when lam > 2 via 2*lam+3")
    if beta >= guard:
        raise ValueError("beta %s is not below the transfer guard %s" % (beta, guard))
    if any(m == 0 for m in family):
        raise ValueError("boundary family contains the empty set")
    fam = tuple(sorted(set(family), key=lambda m: (m.bit_count(), m)))
    verdicts = []
    done = False
    for i, um in enumerate(fam):
        if done:
            break
        for vm in fam[i:]:
            v = check_pair(ctx, um, vm, beta)
            verdicts.append(v)
            if stop_on_failure and not v.passed:
                done = True
                break
    return ExtensionReport(ctx.kernel.id_string(), ctx.root, beta, fam,
                           tuple(verdicts), guard, note)


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
