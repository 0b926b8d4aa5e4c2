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
ray, certified here by shifted-coefficient signs with a Sturm fallback.

Each pair costs one polynomial product.  The adjugate is symmetric, so

    P^2 * c_{U,V}  = 1_U^T adj^2 1_V = sum_{j in V} R_U[j],
    R_U[j]         = sum_{i in U} adj^2[i][j],

with the entries of adj^2 built once per kernel and the rows R_U once per
boundary set, as are P s_U + P and P^2 Bt_{o,U}.  The characteristic
polynomial of H plus a vertex joined to U is the bordered determinant
x*P(x) - 1_U^T adj 1_U, so no resolvent of the larger graph is formed.  The
first isolation of lam_U is shared across kernels through a module-level
cache keyed on the canonical form of H+U and the width.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Optional, Sequence

from .algebra import (
    IntPoly,
    RationalInterval,
    isolate_largest_root,
    ray_verdict,
    refine_root,
)
from .graphs import RootedKernel, _bits, canonical_form
from .spectral import resolvent_data, _power_iteration_hint

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
# context: keyed on (canonical form of H+U, eps), because the enclosure
# depends on the float hint and cospectral graphs can get different ones.
_FIRST_LAMBDA: dict = {}
_FIRST_LAMBDA_COUNTS = {"hits": 0, "misses": 0}


def first_lambda_cache_info() -> dict:
    """Hit and miss counts and size of the shared first-isolation cache."""
    return dict(_FIRST_LAMBDA_COUNTS, size=len(_FIRST_LAMBDA))


class KernelContext:
    """Per-kernel cache of the resolvent polynomials and attachment data.

    Every pair quantity is assembled from data built once per kernel (the
    adjugate and, entry by entry, its square) or once per boundary set, so
    a pair check costs one polynomial product.
    """

    def __init__(self, kernel: RootedKernel):
        self.kernel = kernel
        self.graph = kernel.graph
        self.root = kernel.root
        self.resolvent = resolvent_data(kernel.graph)
        self.char = self.resolvent.char_poly
        self._pbt: dict[int, tuple] = {}
        self._ps: dict[int, IntPoly] = {}
        self._adj2: dict[tuple, IntPoly] = {}
        self._row: dict[tuple, IntPoly] = {}
        self._q: dict[int, tuple] = {}
        self._lam: dict[int, RationalInterval] = {}
        self._lam_eps: dict[int, Fraction] = {}

    # -- resolvent polynomials ------------------------------------------------

    def pb_column(self, v: int) -> tuple:
        """Column v of the adjugate: entries P*B_{u,v} for u in V(H)."""
        return tuple(self.resolvent.adjugate[u][v] for u in range(self.graph.n))

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
        got = self._ps.get(mask)
        if got is None:
            got = sum(self.pbt_column(mask), IntPoly())
            self._ps[mask] = got
        return got

    def _adj2_entry(self, i: int, j: int) -> IntPoly:
        """Entry (i, j) of adj^2; the adjugate is symmetric, so is its square."""
        key = (i, j) if i <= j else (j, i)
        got = self._adj2.get(key)
        if got is None:
            adj = self.resolvent.adjugate
            got = sum((adj[i][u] * adj[u][j] for u in range(self.graph.n)),
                      IntPoly())
            self._adj2[key] = got
        return got

    def _adj2_row(self, mask: int, j: int) -> IntPoly:
        """R_U[j] = sum over i in U of adj^2[i][j]."""
        got = self._row.get((mask, j))
        if got is None:
            got = sum((self._adj2_entry(i, j) for i in _bits(mask)), IntPoly())
            self._row[(mask, j)] = got
        return got

    def c_poly(self, u_mask: int, v_mask: int) -> IntPoly:
        """P^2 * c_{U,V} = 1_U^T adj^2 1_V: the inner product of the two
        partial column sums, as a sum of cached rows."""
        if not u_mask or not v_mask:
            raise ValueError("empty boundary set")
        rows = [self._adj2_row(u_mask, j).coeffs for j in _bits(v_mask)]
        return IntPoly(map(sum, zip_longest(*rows, fillvalue=0)))

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
        first isolation at each eps comes from the shared cache; a tighter
        eps later refines this context's own enclosure.
        """
        if eps is None:
            cur = self._lam.get(mask)
            if cur is not None:
                return cur
            eps = LAMBDA_EPS
        elif eps > LAMBDA_EPS:
            eps = LAMBDA_EPS
        if not mask:
            raise ValueError("empty boundary set")
        cur = self._lam.get(mask)
        if cur is None or self._lam_eps[mask] > eps:
            if cur is None:
                gu = self.graph.add_vertex(mask)
                key = (canonical_form(gu), eps)
                cur = _FIRST_LAMBDA.get(key)
                if cur is None:
                    _FIRST_LAMBDA_COUNTS["misses"] += 1
                    cur = isolate_largest_root(self._attachment_poly(mask), eps,
                                               hint=_power_iteration_hint(gu))
                    _FIRST_LAMBDA[key] = cur
                else:
                    _FIRST_LAMBDA_COUNTS["hits"] += 1
            else:
                cur = refine_root(self._attachment_poly(mask), cur, eps)
            self._lam[mask] = cur
            self._lam_eps[mask] = eps
        return cur

    # -- the certificate polynomial ---------------------------------------------

    def _q_terms(self, mask: int) -> tuple:
        """Per-set factors of the pair polynomial: (P s_U + P, P^2 Bt_{o,U})."""
        got = self._q.get(mask)
        if got is None:
            got = (self.s_poly(mask) + self.char,
                   self.pbt_column(mask)[self.root] * self.char)
            self._q[mask] = got
        return got

    def q_poly(self, u_mask: int, v_mask: int, beta: Fraction) -> tuple:
        """The pair polynomial, scaled integer form.

        Returns (q, scale) where q = scale * Q_{U,V} and

        Q = (P s_U + P)(P s_V + P)
            - beta (P^2 c_{U,V} + P^2 Bt_{o,U}/2 + P^2 Bt_{o,V}/2).

        The scale 2*denominator(beta) is positive, so sign information on q
        transfers to Q directly.
        """
        beta = Fraction(beta)
        if beta < 0:
            raise ValueError("beta must be nonnegative")
        a_u, bo_u = self._q_terms(u_mask)
        a_v, bo_v = self._q_terms(v_mask)
        b = (self.c_poly(u_mask, v_mask) * 2) + bo_u + bo_v
        scale = 2 * beta.denominator
        q = (a_u * a_v) * scale - b * beta.numerator
        return q, scale


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
    conservative).  The Sturm fallback distinguishes a failed sufficient
    condition from a genuinely false inequality; failures carry an exact
    rational witness.  An undecided verdict tightens both attachment
    eigenvalues and asks again.
    """
    beta = Fraction(beta)
    lu, lv = ctx.lambda_U(u_mask), ctx.lambda_U(v_mask)
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
        from itertools import combinations
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
    lam_h = isolate_largest_root(ctx.char, LAMBDA_EPS,
                                 hint=_power_iteration_hint(ctx.graph))
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
