"""Proof-stage drivers: kernel verification sweeps, the two-step and
active-vertex-elimination procedures, branch-point checks, and assembly of
the full machine-checked certificates for the two extremal statements:

  * among connected n-vertex graphs (n >= 7), only the 4-clique with a
    pendant path has balance ratio below (5+3*sqrt(3))/2;
  * among n-vertex trees (n >= 14), only the 5-star with a pendant path
    has balance ratio below 4+2*sqrt(3).

Both proofs share one skeleton, written once: one sweep driver that each
kind hands its per-kernel step, and one builder each for the tampered-sweep,
branch-point, branching-tail and extremal-family links.

Irrational target ratios enter pair checks through certified rational
upper bounds (passing at the upper bound is stronger), and enter value
comparisons through exact quadratic-field arithmetic.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence

from .algebra import SqrtRat
from .bounds import (
    ExtensionReport,
    KernelContext,
    family_all_subsets,
    family_singletons,
    verify_extension,
)
from .graphs import (
    Graph,
    RootedKernel,
    active_vertices,
    attach_path,
    canonical_form,
    canonical_relabel,
    complete_graph,
    diamond_graph,
    enumerate_graph_kernels,
    enumerate_tree_kernels,
    has_open_dominating_vertex,
    has_strictly_dominating_vertex,
    parse_graph6,
    star_graph,
    write_graph6,
)
from .spectral import (
    BETA_STAR,
    BETA_TR,
    GammaEnclosure,
    beta_d,
    certified_below,
    gamma_enclosure,
    gamma_family_closed_form,
    lambda_le_2_graphs,
    min_gamma_table,
    two_sqrt_d_plus_3_exceeds,
)
from .tails import TailContext, check_gamma_lower, check_gamma_upper, cond8_monotone_floor

BETA_GRAPH_STAGE = Fraction(21, 4)
BETA_EPS = Fraction(1, 2 ** 60)


def beta_tr_upper() -> Fraction:
    """Certified rational upper bound of the tree limit ratio 4+2*sqrt(3)."""
    return BETA_TR.enclosure(BETA_EPS).hi


def beta_star_upper() -> Fraction:
    return BETA_STAR.enclosure(BETA_EPS).hi


# ---------------------------------------------------------------------------
# reference kernels
# ---------------------------------------------------------------------------

def conjectured_graph_kernel() -> RootedKernel:
    """The 4-clique with a pendant 2-path, rooted at the clique vertex."""
    return RootedKernel(attach_path(complete_graph(4), 0, 2), 0)


def exceptional_graph_kernels() -> tuple:
    """The four kernels whose pair sweep fails only at the leaf singleton."""
    d = diamond_graph()          # vertices: 0,3 degree-2; 1,2 degree-3
    return (
        RootedKernel(attach_path(complete_graph(3), 0, 3), 0),
        RootedKernel(attach_path(d, 0, 2), 0),
        RootedKernel(attach_path(d, 0, 2), 1),
        RootedKernel(attach_path(d, 1, 2), 1),
    )


def conjectured_tree_kernel() -> RootedKernel:
    """The 5-star with a pendant 5-path, rooted at the star center."""
    return RootedKernel(attach_path(star_graph(5), 0, 5), 0)


def special_tree_kernels() -> tuple:
    """The three tree kernels that need active-vertex elimination."""
    return (
        RootedKernel(attach_path(attach_path(star_graph(4), 0, 2), 0, 4), 0),
        RootedKernel(attach_path(star_graph(6), 0, 4), 0),
        conjectured_tree_kernel(),
    )


# ---------------------------------------------------------------------------
# stage outcome types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LeftoverGraph:
    """A single finite graph left uncovered by extension checks."""

    graph6: str
    gamma_lo: Fraction
    gamma_hi: Fraction
    below_beta: bool
    below_limit: bool

    def to_json_dict(self) -> dict:
        return {
            "graph6": self.graph6,
            "gamma": [str(self.gamma_lo), str(self.gamma_hi)],
            "gamma_mid": float((self.gamma_lo + self.gamma_hi) / 2),
            "below_stage_beta": self.below_beta,
            "below_limit_ratio": self.below_limit,
        }


@dataclass(frozen=True)
class TwoStepOutcome:
    step1: ExtensionReport
    step2: ExtensionReport
    leftover: LeftoverGraph

    @property
    def passed(self) -> bool:
        return self.step1.passed and self.step2.passed


@dataclass(frozen=True)
class KernelOutcome:
    kernel_id: str
    classification: str            # "direct" | "exceptional" | "survivor"
    report: ExtensionReport
    two_step: Optional[TwoStepOutcome] = None
    elimination: Optional["EliminationRecord"] = None

    @property
    def leftovers(self) -> tuple:
        """The single graphs this kernel left for a direct evaluation."""
        if self.two_step is not None:
            return (self.two_step.leftover,)
        return self.elimination.examined if self.elimination is not None else ()

    def to_json_dict(self) -> dict:
        d = {"kernel": self.kernel_id, "classification": self.classification,
             "failing_pairs": len(self.report.failing_pairs)}
        if self.two_step is not None:
            d["two_step"] = {
                "step1_passed": self.two_step.step1.passed,
                "step2_passed": self.two_step.step2.passed,
                "leftover": self.two_step.leftover.to_json_dict(),
            }
        if self.elimination is not None:
            d["elimination"] = self.elimination.to_json_dict()
        return d


@dataclass(frozen=True)
class EliminationRecord:
    chain_ids: tuple               # kernel id per chain step
    examined: tuple                # LeftoverGraph per examined single tree
    outcome: str                   # "eliminated" | "survivor"

    def to_json_dict(self) -> dict:
        return {"chain": list(self.chain_ids), "outcome": self.outcome,
                "examined": [x.to_json_dict() for x in self.examined]}


@dataclass(frozen=True)
class StageReport:
    kind: str
    beta: Fraction
    beta_note: str
    outcomes: tuple
    leftovers: tuple
    kernel_count: int
    elapsed_seconds: float
    notes: tuple = ()

    def classification_counts(self) -> dict:
        counts = {"direct": 0, "exceptional": 0, "survivor": 0}
        for o in self.outcomes:
            counts[o.classification] += 1
        return counts

    @property
    def survivors(self) -> tuple:
        return tuple(o.kernel_id for o in self.outcomes
                     if o.classification == "survivor")

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "beta": str(self.beta),
            "beta_note": self.beta_note,
            "kernel_count": self.kernel_count,
            "counts": self.classification_counts(),
            "survivors": list(self.survivors),
            "outcomes": [o.to_json_dict() for o in self.outcomes],
            "leftover_single_graphs": [l.to_json_dict() for l in self.leftovers],
            "elapsed_seconds": self.elapsed_seconds,
            "notes": list(self.notes),
        }


def _canon6(g: Graph) -> str:
    return write_graph6(canonical_relabel(g))


def _classify_single(g: Graph, beta: Fraction, limit: SqrtRat) -> LeftoverGraph:
    eps = Fraction(1, 10 ** 6)
    enc = GammaEnclosure(g)
    gv = gamma_enclosure(enc, eps)
    below_beta = certified_below(enc.refine, beta, eps)
    below_limit = certified_below(enc.refine, limit, eps)
    return LeftoverGraph(_canon6(g), gv.lo, gv.hi,
                         below_beta, below_limit)


# ---------------------------------------------------------------------------
# graph kernel stage
# ---------------------------------------------------------------------------

def two_step_verify(kernel: RootedKernel, leaf: int, beta: Fraction) -> TwoStepOutcome:
    """The refinement for kernels failing only at the leaf singleton.

    Step 1 verifies the full family without the leaf singleton, covering
    every extension in which no outside vertex attaches exactly at the
    leaf.  Step 2 adjoins one outside vertex w at the leaf and verifies
    the enlarged kernel with boundary sets inside the old active set plus
    w, covering every extension that does attach there.  The one graph
    covered by neither run, the enlarged kernel itself, is returned for a
    direct certified evaluation.
    """
    g, o = kernel.graph, kernel.root
    if g.degree(leaf) != 1:
        raise ValueError("two-step vertex must be a leaf")
    va = active_vertices(kernel, "graph").vertices
    fam1 = tuple(m for m in family_all_subsets(va) if m != 1 << leaf)
    ctx1 = KernelContext(kernel)
    step1 = verify_extension(ctx1, fam1, beta)
    hplus = g.add_vertex(1 << leaf)
    w = hplus.n - 1
    ctx2 = KernelContext(RootedKernel(hplus, o))
    fam2 = family_all_subsets(set(va) | {w})
    step2 = verify_extension(ctx2, fam2, beta)
    leftover = _classify_single(hplus, beta, BETA_STAR)
    return TwoStepOutcome(step1, step2, leftover)


def _graph_stage_one(kernel: RootedKernel, beta: Fraction,
                     stop_on_failure: bool) -> KernelOutcome:
    ctx = KernelContext(kernel)
    va = active_vertices(kernel, "graph").vertices
    fam = family_all_subsets(va)
    rep = verify_extension(ctx, fam, beta, stop_on_failure=stop_on_failure)
    if rep.passed:
        return KernelOutcome(kernel.id_string(), "direct", rep)
    leaves = [v for v in range(kernel.graph.n) if kernel.graph.degree(v) == 1]
    leaf_only = (not stop_on_failure and len(leaves) == 1 and
                 set(rep.failing_pairs) == {(1 << leaves[0], 1 << leaves[0])})
    if leaf_only:
        ts = two_step_verify(kernel, leaves[0], beta)
        if ts.passed:
            return KernelOutcome(kernel.id_string(), "exceptional", rep, two_step=ts)
    return KernelOutcome(kernel.id_string(), "survivor", rep)


def _map_kernels(one, kernels: Sequence[RootedKernel], jobs: int) -> list:
    """one(kernel) for every kernel, in order; jobs > 1 fans out to worker
    processes, at most one per kernel and per CPU."""
    workers = min(jobs, len(kernels), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one, kernels, chunksize=8))
    return list(map(one, kernels))


_STAGE_CACHE: dict = {}


def _kernel_stage(kind: str, one, beta: Fraction, beta_note: str,
                  notes: tuple, stop_on_failure: bool,
                  kernels: Optional[Sequence[RootedKernel]],
                  enumerate_kernels, jobs: int) -> StageReport:
    """one(kernel, beta=, stop_on_failure=) for every kernel (all of
    enumerate_kernels() when None), sorted by id, with the single graphs
    they left collected once each.  Full sweeps are cached per (kind, beta,
    mode), being deterministic and pure; a hit takes the caller's beta_note."""
    beta = Fraction(beta)
    cache_key = (kind, beta, stop_on_failure) if kernels is None else None
    if cache_key in _STAGE_CACHE:
        return replace(_STAGE_CACHE[cache_key], beta_note=beta_note)
    t0 = time.monotonic()
    if kernels is None:
        kernels = enumerate_kernels()
    outcomes = _map_kernels(partial(one, beta=beta,
                                    stop_on_failure=stop_on_failure),
                            kernels, jobs)
    outcomes.sort(key=lambda o: o.kernel_id)
    leftovers = {}
    for o in outcomes:
        for x in o.leftovers:
            leftovers.setdefault(x.graph6, x)
    report = StageReport(kind, beta, beta_note, tuple(outcomes),
                         tuple(leftovers.values()), len(kernels),
                         time.monotonic() - t0, notes)
    if cache_key is not None:
        _STAGE_CACHE[cache_key] = report
    return report


def graph_kernel_stage(beta: Optional[Fraction] = None,
                       stop_on_failure: bool = False,
                       kernels: Optional[Sequence[RootedKernel]] = None,
                       jobs: int = 1) -> StageReport:
    """Sweep all 6-vertex kernels at the target ratio, 21/4 by default.

    Direct passes need no further attention; kernels failing only at their
    leaf singleton go through two-step verification; everything else
    survives.  Leftover single graphs are certified individually.
    """
    notes = ("irrational comparisons for leftovers are certified against the "
             "exact limit ratio",)
    return _kernel_stage("graphs", _graph_stage_one,
                         BETA_GRAPH_STAGE if beta is None else beta,
                         "exact rational stage target", notes, stop_on_failure,
                         kernels, enumerate_graph_kernels, jobs)


# ---------------------------------------------------------------------------
# tree kernel stage
# ---------------------------------------------------------------------------

TREE_CHAIN_CAP = 14


def active_vertex_elimination(kernel: RootedKernel, vact: frozenset,
                              beta: Fraction) -> tuple:
    """Shrink the active set by leaf-probing.

    For an active vertex u, adjoin a leaf w at u and run the singleton
    family of (current active set + w) on the enlarged kernel.  A pass
    covers every extension in which u has outside neighbors, so u can be
    dropped, and the enlarged kernel itself is recorded for direct
    evaluation.  Repeats until no vertex can be dropped.

    Returns (remaining_active_set, examined_single_trees).
    """
    remaining = set(vact)
    examined = []
    changed = True
    while changed:
        changed = False
        for u in sorted(remaining):
            hplus = kernel.graph.add_vertex(1 << u)
            w = hplus.n - 1
            ctx = KernelContext(RootedKernel(hplus, kernel.root))
            fam = family_singletons(remaining | {w})
            rep = verify_extension(ctx, fam, beta, dist2_vertex=True)
            if rep.passed:
                remaining.discard(u)
                examined.append(hplus)
                changed = True
    return frozenset(remaining), examined


def _process_special_tree_kernel(kernel: RootedKernel, beta: Fraction,
                                 conjectured: bytes) -> EliminationRecord:
    """Run elimination, chaining through a sole remaining vertex.

    When elimination empties the active set the kernel is ruled out; when
    the kernel is the conjectured one it survives; when exactly one active
    vertex resists, every viable extension goes through it, so the kernel
    is replaced by itself plus a leaf there (recording that single tree)
    and the process repeats.
    """
    chain = [kernel]
    examined_graphs: list = []
    outcome = "survivor"
    cur = kernel
    while canonical_form(cur.graph, cur.root) != conjectured:
        va = active_vertices(cur, "tree").vertices
        remaining, examined = active_vertex_elimination(cur, va, beta)
        examined_graphs.extend(examined)
        if not remaining:
            outcome = "eliminated"
            break
        if len(remaining) != 1:
            raise ArithmeticError(
                "special tree kernel stuck with %d active vertices"
                % len(remaining))
        (u,) = remaining
        hplus = cur.graph.add_vertex(1 << u)
        if hplus.n > TREE_CHAIN_CAP:
            raise ArithmeticError("tree chain exceeded the size cap")
        examined_graphs.append(hplus)
        nxt = RootedKernel(hplus, cur.root)
        va_next = active_vertices(nxt, "tree").vertices
        if not {u, hplus.n - 1} <= set(va_next):
            raise ArithmeticError("chain step lost an active vertex")
        chain.append(nxt)
        cur = nxt
    return EliminationRecord(tuple(k.id_string() for k in chain),
                             tuple(_classify_single(g, beta, BETA_TR)
                                   for g in examined_graphs), outcome)


def _tree_stage_one(kernel: RootedKernel, beta: Fraction,
                    conjectured: bytes, stop_on_failure: bool) -> KernelOutcome:
    ctx = KernelContext(kernel)
    va = active_vertices(kernel, "tree").vertices
    fam = family_singletons(va)
    rep = verify_extension(ctx, fam, beta, dist2_vertex=True,
                           stop_on_failure=stop_on_failure)
    if rep.passed:
        return KernelOutcome(kernel.id_string(), "direct", rep)
    if stop_on_failure:
        return KernelOutcome(kernel.id_string(), "survivor", rep)
    record = _process_special_tree_kernel(kernel, beta, conjectured)
    cls = "survivor" if record.outcome == "survivor" else "exceptional"
    return KernelOutcome(kernel.id_string(), cls, rep, elimination=record)


def tree_kernel_stage(beta: Optional[Fraction] = None,
                      stop_on_failure: bool = False,
                      kernels: Optional[Sequence[RootedKernel]] = None,
                      jobs: int = 1) -> StageReport:
    """Sweep all 10-vertex tree kernels.

    The default target is a certified rational upper bound of the limit
    ratio 4+2*sqrt(3); a pass at the upper bound implies the bound at the
    limit ratio itself.  Kernels failing the singleton sweep go through
    active-vertex elimination with chaining.
    """
    note = "exact rational stage target"
    if beta is None:
        beta = beta_tr_upper()
        note = ("certified rational upper bound of the tree limit ratio "
                "(width <= 2^-60); a pass here implies the algebraic bound")
    notes = ("singleton boundary families: outside vertices of a tree attach "
             "at exactly one kernel vertex",
             "distance-2 transfer justified: non-star trees admit a kernel "
             "whose closed neighborhood reaches distance 2; the star case "
             "is settled by the exact star link")
    one = partial(_tree_stage_one, conjectured=conjectured_tree_kernel().canonical())
    return _kernel_stage("trees", one, beta, note, notes, stop_on_failure,
                         kernels, enumerate_tree_kernels, jobs)


# ---------------------------------------------------------------------------
# branch-point checks
# ---------------------------------------------------------------------------

# first-branch distances checked directly; longer tails: branching-tail link
BRANCH_DISTANCES = {"K4": (1, 2), "S5": (4, 5, 6, 7)}


def branch_point_check(base: str, ell: int,
                       beta: Optional[Fraction] = None) -> tuple:
    """Verify the first-branch configurations at distance ell.

    For the clique case (ell in {1, 2}) the subgraph is the 4-clique, the
    path from the root to the branch vertex, and two further neighbors of
    the branch vertex, checked both with and without the edge between
    them, with all nonempty boundary subsets of those three vertices.  For
    the star case (ell in {4..7}) the two further neighbors cannot be
    adjacent and boundary sets are singletons.

    Returns a tuple of ExtensionReports (all must pass).
    """
    if base == "K4":
        head, upper, family, triangles = (complete_graph(4), beta_star_upper,
                                          family_all_subsets, (False, True))
        cover = "clique branch checks cover distances 1 and 2"
    elif base == "S5":
        head, upper, family, triangles = (star_graph(5), beta_tr_upper,
                                          family_singletons, (False,))
        cover = "star branch checks cover distances 4..7"
    else:
        raise ValueError("base must be 'K4' or 'S5'")
    if ell not in BRANCH_DISTANCES[base]:
        raise ValueError(cover + "; longer tails are handled by the "
                         "branching-tail certificate")
    beta = Fraction(upper() if beta is None else beta)
    reports = []
    for triangle in triangles:
        g = attach_path(head, 0, ell)
        v = g.n - 1
        g = g.add_vertex(1 << v)
        g = g.add_vertex((1 << v) | ((1 << (g.n - 1)) if triangle else 0))
        ctx = KernelContext(RootedKernel(g, 0))
        reports.append(verify_extension(ctx, family({v, g.n - 2, g.n - 1}),
                                        beta, dist2_vertex=True))
    return tuple(reports)


# ---------------------------------------------------------------------------
# structural closure for the clique kernel
# ---------------------------------------------------------------------------

def clique_boundary_closure() -> tuple:
    """Check the structural step pinning the clique-plus-path shape.

    If the 6-kernel is the clique kernel but some further edge leaves the
    4-clique, the graph also has a 6-kernel consisting of the clique, the
    root's path neighbor, and the far end of that extra edge.  Every such
    rooted graph either has a dominating vertex (impossible for a
    maximum-weight root) or is one of the enumerated kernels other than
    the clique kernel itself, hence already covered by the sweep.

    Returns ((n_dominated, n_checked_kernels), all_sound).
    """
    kernel_codes = {k.canonical() for k in enumerate_graph_kernels()}
    survivor_code = conjectured_graph_kernel().canonical()
    dominated = 0
    checked = 0
    sound = True
    base = attach_path(complete_graph(4), 0, 1)     # clique 0..3, u = 4
    for smask in range(1, 16):                       # w's neighbors inside the clique
        for uw in (0, 1):
            g = base.add_vertex(smask | (uw << 4))
            k = RootedKernel(g, 0)
            if has_strictly_dominating_vertex(k) or has_open_dominating_vertex(k):
                dominated += 1
                continue
            code = k.canonical()
            if code == survivor_code or code not in kernel_codes:
                sound = False
            checked += 1
    return (dominated, checked), sound


# ---------------------------------------------------------------------------
# dispatch links for the assembled certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinkResult:
    name: str
    passed: bool
    details: dict

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "details": _jsonable(self.details)}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "to_json_dict"):
        return obj.to_json_dict()
    return str(obj)


def table_minimum_certified(rows: Sequence) -> bool:
    """Whether the first row of a min_gamma_table is certified below every
    other row: its gamma enclosure lies strictly below each other one.

    The rows come sorted on enclosure midpoints, so this is what makes
    rows[0] the certified minimum.  The order of the other rows is not
    certified; rows with equal or nearly equal ratios overlap.
    """
    top = rows[0].gamma.hi
    return all(top < r.gamma.lo for r in rows[1:])


LAMBDA2_CERTIFIED_CAP = 16
LAMBDA2_SPOT_CAP = 10 ** 4


def lambda_le_2_link(kind: str) -> LinkResult:
    """The dispatch for graphs whose top eigenvalue is at most 2.

    Every such connected graph belongs to four families (paths, forks,
    cycles, bi-forks) or six exceptional graphs.  Each instance in the
    relevant size range up to a cap is certified individually; sizes above
    the cap rest on the documented monotonicity assumption for the family
    formulas, spot-checked in floating point far beyond the cap.
    """
    if kind == "graphs":
        lo, threshold, thr_name = 7, BETA_GRAPH_STAGE, "21/4"
        families = ("Path", "D", "Cycle", "Dhat")
    else:
        lo, threshold, thr_name = 11, BETA_TR, "4+2*sqrt(3)"
        families = ("Path", "D", "Dhat")
    certified = []
    ok = True
    for n in range(lo, LAMBDA2_CERTIFIED_CAP + 1):
        for name, g in lambda_le_2_graphs(n):
            if kind == "trees" and not g.is_tree():
                continue
            above = not certified_below(GammaEnclosure(g).refine, threshold)
            certified.append((name, n, above))
            ok = ok and above
    # monotonicity spot check (floating point, display-level)
    spot_ok = True
    for name in families:
        prev = None
        n = lo
        while n <= LAMBDA2_SPOT_CAP:
            try:
                val = gamma_family_closed_form(name, n)
            except ValueError:
                n += 1
                continue
            if prev is not None and val < prev - 1e-9:
                spot_ok = False
            prev = val
            n = n + 1 if n < 64 else int(n * 1.37) + 1
    return LinkResult(
        "eigenvalue-at-most-2 dispatch (%s)" % kind, ok and spot_ok,
        {"certified_instances": len(certified),
         "certified_cap": LAMBDA2_CERTIFIED_CAP,
         "threshold": thr_name,
         "all_above_threshold": ok,
         "family_monotonicity_spot_check": spot_ok,
         "assumption": "family ratios are monotone increasing in n beyond "
                       "the certified cap (documented assumption)"})


def degree_gate_link() -> LinkResult:
    """Master degree at least 6 forces the ratio above the stage target.

    The degree bound exceeds 21/4 for every degree from 6 to 52 (certified
    enclosures) and the companion bound 2*sqrt(d)+3 exceeds it from degree
    6 on (exact integer checks; it is increasing in d).
    """
    ok = True
    vals = {}
    for d in range(6, 53):
        iv = beta_d(d)
        vals[d] = float(iv.lo)
        ok = ok and iv.lo > BETA_GRAPH_STAGE
    sqrt_ok = two_sqrt_d_plus_3_exceeds(6, BETA_GRAPH_STAGE)
    return LinkResult(
        "degree gate: master degree >= 6 excluded", ok and sqrt_ok,
        {"beta_d_above_21_4_for": "6..52", "sqrt_branch_at_6": sqrt_ok,
         "beta_6": vals[6], "beta_52": vals[52],
         "note": "degrees above 52 fall to the increasing 2*sqrt(d)+3 branch"})


def star_link() -> LinkResult:
    """Stars are never below the tree limit ratio.

    The star ratio is (1+sqrt(n-1))^2/2; certified instances validate the
    formula, and the inequality (1+sqrt(n-1))^2 >= 15 for n >= 10 together
    with 15/2 above the limit ratio settles every size exactly.
    """
    ok = True
    for n in range(10, 21):
        above = not certified_below(GammaEnclosure(star_graph(n)).refine, BETA_TR)
        ok = ok and above
    ints_ok = all(4 * (n - 1) >= (15 - n) ** 2 for n in range(10, 15))
    half15_ok = (SqrtRat(Fraction(15, 2), 0, 3) - BETA_TR).sign() > 0
    return LinkResult(
        "stars above the tree limit ratio", ok and ints_ok and half15_ok,
        {"certified_instances": "10..20",
         "integer_inequality_10_14": ints_ok,
         "large_n": "n >= 15 gives (1+sqrt(n-1))^2 >= n+1 >= 16 > 15",
         "limit_compare": "15/2 > 4+2*sqrt(3) exactly"})


def guard_link() -> LinkResult:
    """The tree target fits under the strong transfer guard."""
    ok = (SqrtRat(Fraction(23, 3), 0, 3) - BETA_TR).sign() > 0
    return LinkResult("transfer guard: 4+2*sqrt(3) < 23/3", ok,
                      {"guard": "23/3"})


# ---------------------------------------------------------------------------
# full certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProofCertificate:
    conjecture: str
    passed: bool
    links: tuple
    assumptions: tuple
    elapsed_seconds: float

    def to_json_dict(self) -> dict:
        return {
            "conjecture": self.conjecture,
            "passed": self.passed,
            "links": [l.to_json_dict() for l in self.links],
            "assumptions": list(self.assumptions),
            "elapsed_seconds": self.elapsed_seconds,
        }


ASSUMPTIONS = (
    "the closed-form ratios of the eigenvalue-at-most-2 families are "
    "monotone increasing in the number of vertices beyond the certified cap",
)


def _graph_stage_link(stage: StageReport) -> LinkResult:
    counts = stage.classification_counts()
    survivor_ok = (stage.survivors ==
                   (conjectured_graph_kernel().id_string(),))
    expected_exceptional = sorted(k.id_string() for k in exceptional_graph_kernels())
    got_exceptional = sorted(o.kernel_id for o in stage.outcomes
                             if o.classification == "exceptional")
    leftovers_ok = all(not l.below_limit for l in stage.leftovers)
    passed = (counts == {"direct": 150, "exceptional": 4, "survivor": 1}
              and survivor_ok and got_exceptional == expected_exceptional
              and leftovers_ok and len(stage.leftovers) == 3)
    return LinkResult(
        "6-vertex kernel sweep at 21/4", passed,
        {"counts": counts, "survivors": list(stage.survivors),
         "exceptional": got_exceptional,
         "leftovers": [l.to_json_dict() for l in stage.leftovers],
         "order7_exception": [l.graph6 for l in stage.leftovers if l.below_beta]})


def _tree_stage_link(stage: StageReport) -> LinkResult:
    counts = stage.classification_counts()
    survivor_ok = (stage.survivors ==
                   (conjectured_tree_kernel().id_string(),))
    exceptions = sorted(l.graph6 for l in stage.leftovers if l.below_limit)
    expected = sorted(_canon6(attach_path(star_graph(6), 0, k)) for k in (5, 6, 7))
    chain_max = max((parse_graph6(l.graph6).n for l in stage.leftovers), default=0)
    passed = (counts["direct"] == 191 and counts["survivor"] == 1
              and counts["exceptional"] == 2 and survivor_ok
              and exceptions == expected)
    return LinkResult(
        "10-vertex tree kernel sweep at the limit ratio", passed,
        {"counts": counts, "survivors": list(stage.survivors),
         "exceptions_below_limit": exceptions,
         "largest_examined_tree": chain_max,
         "leftovers": [l.to_json_dict() for l in stage.leftovers]})


def _sweep_link(run, check, sweep: str, survivor: RootedKernel,
                tamper_beta: Optional[Fraction], jobs: int) -> LinkResult:
    """run() at its own target judged by check, or run at tamper_beta,
    stopping at first failures, which passes only if survivor alone survives."""
    if tamper_beta is None:
        return check(run(jobs=jobs))
    stage = run(tamper_beta, stop_on_failure=True, jobs=jobs)
    return LinkResult(
        "%s at %s (tampered)" % (sweep, tamper_beta),
        stage.survivors == (survivor.id_string(),),
        {"counts": stage.classification_counts(),
         "survivors": list(stage.survivors)})


def _branching_tail_link(head: Graph, path: int, floor: int, window: tuple,
                         limit: SqrtRat, beyond: int) -> LinkResult:
    base = attach_path(head, 0, path)
    ctx = TailContext(base, base.n - 1, o=0, exact_limit_ratio=limit)
    cert = check_gamma_upper(ctx, floor, *window)
    monotone = cond8_monotone_floor(ctx, floor)
    return LinkResult(
        "branching tail beyond distance %d above the limit" % beyond,
        cert.passed and monotone,
        {"certificate": cert.to_json_dict(),
         "monotone_in_branch_distance": monotone})


def _extremal_family_link(head: Graph, limit: SqrtRat, spots: int) -> LinkResult:
    low = check_gamma_lower(TailContext(head, 0, exact_limit_ratio=limit), 1)
    spots_ok = all(certified_below(GammaEnclosure(attach_path(head, 0, k)).refine,
                                   limit) for k in range(1, spots + 1))
    return LinkResult(
        "extremal family below the limit", low.passed and spots_ok,
        {"certificate": low.to_json_dict(), "spot_checked_tails": "1..%d" % spots})


def prove_conjecture(kind: str, tamper_beta: Optional[Fraction] = None,
                     jobs: int = 1) -> ProofCertificate:
    """Assemble the full machine-checked certificate for one conjecture.

    Chains the exhaustive small-size tables, the eigenvalue-at-most-2
    dispatch, the degree gate (graphs) or star link (trees), the kernel
    sweep, the structural closure and branch-point checks, the two tail
    certificates, and the below-limit verification of the extremal family.
    Any failed link fails the whole certificate.  tamper_beta reruns the
    kernel sweep at a different target to demonstrate failure detection.
    """
    t0 = time.monotonic()
    links = []
    if kind == "graphs":
        for n, want_below in ((6, 5), (7, 1)):
            rows, below = min_gamma_table(n, "graph", BETA_STAR)
            min_ok = (rows[0].graph6 == _canon6(attach_path(complete_graph(4), 0, n - 4))
                      and table_minimum_certified(rows))
            links.append(LinkResult(
                "exhaustive %d-vertex table" % n, min_ok and below == want_below,
                {"minimum": rows[0].graph6, "count_below_limit": below}))
        links += [lambda_le_2_link("graphs"), degree_gate_link(),
                  _sweep_link(graph_kernel_stage, _graph_stage_link,
                              "6-vertex kernel sweep", conjectured_graph_kernel(),
                              tamper_beta, jobs)]
        (dom, checked), sound = clique_boundary_closure()
        links.append(LinkResult("clique boundary closure", sound,
                                {"dominated": dom, "covered_by_sweep": checked}))
        base, head, limit, spots = "K4", complete_graph(4), BETA_STAR, 8
        path, floor, window = 1, 2, (Fraction(311, 100), Fraction(318, 100), Fraction(1))
        conjecture = ("among connected graphs on n >= 7 vertices, the balance "
                      "ratio is below (5+3*sqrt(3))/2 exactly for the 4-clique "
                      "with a pendant path")
    elif kind == "trees":
        expected_counts = {8: 23, 9: 32, 10: 6, 11: 2, 12: 2, 13: 2}
        table_ok = True
        details = {}
        for n in range(8, 14):
            rows, below = min_gamma_table(n, "tree", BETA_TR)
            want_min = _canon6(attach_path(star_graph(5), 0, n - 5))
            okn = (rows[0].graph6 == want_min and below == expected_counts[n]
                   and table_minimum_certified(rows))
            if n >= 11:
                second = _canon6(attach_path(star_graph(6), 0, n - 6))
                got_below = [r.graph6 for r in rows[:below]]
                okn = okn and sorted(got_below) == sorted([want_min, second])
            details[n] = {"min": rows[0].graph6, "below": below, "ok": okn}
            table_ok = table_ok and okn
        links.append(LinkResult("exhaustive 8..13-vertex tree tables",
                                table_ok, details))
        rows14, below14 = min_gamma_table(14, "tree", BETA_TR)
        min14 = _canon6(attach_path(star_graph(5), 0, 9))
        links.append(LinkResult(
            "exhaustive 14-vertex tree table",
            below14 == 1 and rows14[0].graph6 == min14
            and table_minimum_certified(rows14),
            {"min": rows14[0].graph6, "below": below14}))
        links += [lambda_le_2_link("trees"), star_link(), guard_link(),
                  _sweep_link(tree_kernel_stage, _tree_stage_link,
                              "tree kernel sweep", conjectured_tree_kernel(),
                              tamper_beta, jobs)]
        base, head, limit, spots = "S5", star_graph(5), BETA_TR, 9
        path, floor, window = 4, 4, (Fraction(2312, 1000), Fraction(234, 100), Fraction(3, 2))
        conjecture = ("among trees on n >= 14 vertices, the balance ratio is "
                      "below 4+2*sqrt(3) exactly for the 5-star with a "
                      "pendant path; sizes 8..13 are settled exhaustively")
    else:
        raise ValueError("kind must be 'graphs' or 'trees'")
    for ell in BRANCH_DISTANCES[base]:
        reps = branch_point_check(base, ell)
        # the clique checks come in variants, with and without a triangle
        info = {"variants": len(reps)} if len(reps) > 1 else {}
        info["beta"] = str(reps[0].beta)
        links.append(LinkResult("branch at distance %d above the limit" % ell,
                                all(r.passed for r in reps), info))
    links.append(_branching_tail_link(head, path, floor, window, limit,
                                      BRANCH_DISTANCES[base][-1]))
    links.append(_extremal_family_link(head, limit, spots))
    return ProofCertificate(conjecture, all(l.passed for l in links), tuple(links),
                            ASSUMPTIONS, time.monotonic() - t0)
