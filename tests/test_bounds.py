"""The kernel-extension bounding engine against the worked 6-vertex example
and structural invariants of the resolvent machinery."""

import math
import random
from fractions import Fraction

import pytest

from perronbalance import bounds
from perronbalance.algebra import (
    IntPoly,
    RationalInterval,
    isolate_largest_root,
    ray_verdict,
)
from perronbalance.bounds import (
    LAMBDA_EPS,
    PACK_BITS,
    KernelContext,
    bound_curves,
    check_pair,
    family_all_subsets,
    family_singletons,
    first_lambda_cache_info,
    mask_vertices,
    pair_check_info,
    subset_mask,
    verify_extension,
)
from perronbalance.graphs import (
    Graph,
    RootedKernel,
    active_vertices,
    attach_path,
    canonical_form,
    complete_graph,
    enumerate_graph_kernels,
    enumerate_tree_kernels,
    star_graph,
)
from perronbalance.kernels import (
    BETA_GRAPH_STAGE,
    beta_tr_upper,
    conjectured_graph_kernel,
    exceptional_graph_kernels,
    special_tree_kernels,
)
from perronbalance.spectral import (
    gamma_enclosure,
    lambda_enclosure,
    perron_enclosure,
    resolvent_data,
)

K3P3 = attach_path(complete_graph(3), 0, 3)
U3 = 1 << 5


@pytest.fixture(scope="module")
def ctx():
    return KernelContext(RootedKernel(K3P3, 0))


def rand_connected(rng, n):
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        g = Graph.from_edges(n, edges)
        if g.is_connected():
            return g


# -- resolvent polynomials against the worked example ---------------------------

def test_pb_column_worked_example(ctx):
    col = ctx.pb_column(5)
    assert [c.coeffs for c in col] == [
        (-1, 0, 1), (1, 1), (1, 1), (-2, -3, 0, 1),
        (1, -2, -4, 0, 1), (2, 4, -2, -5, 0, 1)]


def test_pb_column_clique_pendant():
    g = attach_path(complete_graph(4), 0, 1)
    c = KernelContext(RootedKernel(g, 0))
    col = c.pb_column(4)
    sq = IntPoly([1, 1]) ** 2
    assert col[1] == sq and col[2] == sq and col[3] == sq
    assert col[0] == IntPoly([-2, 1]) * sq
    assert col[4] == IntPoly([-3, 1]) * IntPoly([1, 1]) ** 3


def test_pb_column_star_path():
    g = attach_path(star_graph(5), 0, 4)
    c = KernelContext(RootedKernel(g, 0))
    col = c.pb_column(8)
    x = IntPoly([0, 1])
    want = [x ** 3, x ** 3, x ** 3, x ** 3, x ** 4,
            x ** 5 - 4 * x ** 3, x ** 6 - 5 * x ** 4,
            x ** 7 - 6 * x ** 5 + 4 * x ** 3,
            x ** 8 - 7 * x ** 6 + 9 * x ** 4]
    got = [col[1], col[2], col[3], col[4], col[0], col[5], col[6], col[7], col[8]]
    assert got == want


def test_s_poly_worked_example(ctx):
    assert ctx.s_poly(U3) == IntPoly([2, 1, -5, -4, 1, 1])


def test_s_poly_single_vertex_graph():
    c = KernelContext(RootedKernel(Graph(1, (0,)), 0))
    assert c.s_poly(1) == IntPoly([1])
    assert c.char == IntPoly([0, 1])


def test_s_poly_additive(ctx):
    rng = random.Random(71)
    for k in list(enumerate_graph_kernels())[:10]:
        c = KernelContext(k)
        u = subset_mask([0, 2])
        v = subset_mask([4])
        assert c.s_poly(u | v) == c.s_poly(u) + c.s_poly(v)
    with pytest.raises(ValueError):
        ctx.s_poly(0)


def test_c_poly_worked_example(ctx):
    assert ctx.c_poly(U3, U3) == IntPoly(
        [12, 28, 13, -24, -23, 20, 26, -4, -9, 0, 1])


def test_c_poly_symmetry_and_cauchy_schwarz():
    rng = random.Random(73)
    for k in list(enumerate_graph_kernels())[:8]:
        c = KernelContext(k)
        u = subset_mask([1, 3])
        v = subset_mask([2, 5])
        assert c.c_poly(u, v) == c.c_poly(v, u)
        lam = lambda_enclosure(k.graph).hi + Fraction(rng.randint(1, 5), 7)
        cu = c.c_poly(u, u).eval(lam)
        cv = c.c_poly(v, v).eval(lam)
        cuv = c.c_poly(u, v).eval(lam)
        assert cuv * cuv <= cu * cv


def test_attachment_poly_is_bordered_determinant():
    kernels = (list(enumerate_graph_kernels())[:8]
               + list(enumerate_tree_kernels())[:4])
    for k in kernels:
        c = KernelContext(k)
        for mask in range(1, 1 << k.graph.n):
            want = resolvent_data(k.graph.add_vertex(mask)).char_poly
            assert c._attachment_poly(mask) == want


def test_c_poly_is_pbt_inner_product():
    """c_poly, the inner product of two partial column sums, against the
    bilinear form 1_U^T adj^2 1_V, with adj^2 squared here."""
    cases = [(k, range(1, 1 << k.graph.n))
             for k in list(enumerate_graph_kernels())[:2]]
    tree = special_tree_kernels()[0]
    cases.append((tree, family_singletons(range(tree.graph.n))))
    for k, masks in cases:
        c = KernelContext(k)
        n = k.graph.n
        adj = c.resolvent.adjugate
        adj2 = [[sum((adj[i][u] * adj[u][j] for u in range(n)), IntPoly())
                 for j in range(n)] for i in range(n)]
        for um in masks:
            for vm in masks:
                want = sum((adj2[i][j] for i in mask_vertices(um)
                            for j in mask_vertices(vm)), IntPoly())
                assert c.c_poly(um, vm) == want


def test_lambda_u_shared_across_relabelled_kernels():
    k = list(enumerate_graph_kernels())[5]
    perm = [5, 3, 0, 4, 1, 2]
    k2 = RootedKernel(k.graph.relabel(perm), perm[k.root])
    mask = subset_mask([0, 2, 3])
    mask2 = subset_mask(perm[v] for v in (0, 2, 3))
    assert k2.graph.add_vertex(mask2) != k.graph.add_vertex(mask)
    eps = Fraction(1, 2 ** 33)            # a key no other check uses
    before = first_lambda_cache_info()
    iv = KernelContext(k).lambda_U(mask, eps)
    mid = first_lambda_cache_info()
    iv2 = KernelContext(k2).lambda_U(mask2, eps)
    after = first_lambda_cache_info()
    assert iv2 == iv and iv.width <= eps
    assert mid["misses"] == before["misses"] + 1
    assert after["hits"] == mid["hits"] + 1
    assert after["misses"] == mid["misses"]


def _cospectral_extensions():
    """The first two (kernel, mask) whose H+U are not isomorphic but have
    one attachment polynomial."""
    seen = {}
    for k in enumerate_graph_kernels():
        ctx = KernelContext(k)
        for mask in range(1, 1 << k.graph.n):
            code = canonical_form(k.graph.add_vertex(mask))
            first = seen.setdefault(ctx._attachment_poly(mask), (code, k, mask))
            if first[0] != code:
                return first[1:], (k, mask)


def test_lambda_u_shared_across_cospectral_extensions():
    (k, mask), (k2, mask2) = _cospectral_extensions()
    eps = Fraction(1, 2 ** 34)            # a key no other check uses
    before = first_lambda_cache_info()
    iv = KernelContext(k).lambda_U(mask, eps)
    mid = first_lambda_cache_info()
    iv2 = KernelContext(k2).lambda_U(mask2, eps)
    after = first_lambda_cache_info()
    assert iv2 == iv and iv.width <= eps
    assert (mid["misses"], mid["hits"]) == (before["misses"] + 1, before["hits"])
    assert (after["misses"], after["hits"]) == (mid["misses"], mid["hits"] + 1)


def test_lambda_u_hint_in_final_cell_and_first_isolation_hintless(monkeypatch):
    """The hint lambda_U passes on a miss lies in the LAMBDA_EPS cell of the
    attachment root or next to it, and the shared entries are the hint-less
    isolations."""
    w = LAMBDA_EPS
    hints = {}

    def spy(p, eps, hint=None):
        hints[p.coeffs] = hint
        return isolate_largest_root(p, eps, hint)

    monkeypatch.setattr(bounds, "_FIRST_LAMBDA", {})
    monkeypatch.setattr(bounds, "isolate_largest_root", spy)
    for k in list(enumerate_graph_kernels())[::5]:
        c = KernelContext(k)
        for mask in range(1, 1 << k.graph.n):
            c.lambda_U(mask)
    assert len(hints) == len(bounds._FIRST_LAMBDA) > 0
    for (coeffs, eps), iv in bounds._FIRST_LAMBDA.items():
        want = isolate_largest_root(IntPoly(coeffs), w)
        assert eps == w and iv == want
        assert abs(math.ceil(Fraction(hints[coeffs]) / w) - math.ceil(want.hi / w)) <= 1


def test_lambda_u_worked_example(ctx):
    vals = {(1 << 5,): 2.2332, (1 << 4,): 2.2533, ((1 << 4) | (1 << 5),): 2.3429}
    for (mask,), want in vals.items():
        iv = ctx.lambda_U(mask)
        assert abs(iv.mid_float() - want) < 1e-4


def test_q_poly_worked_example(ctx):
    q, scale = ctx.q_poly(U3, U3, Fraction(21, 4))
    coeffs = [Fraction(c, scale) for c in q.coeffs]
    assert coeffs == [
        Fraction(-269, 4), Fraction(-116), Fraction(10), Fraction(225, 2),
        Fraction(-55, 4), Fraction(-357, 2), Fraction(-327, 4), Fraction(97),
        Fraction(61), Fraction(-22), Fraction(-57, 4), Fraction(2), Fraction(1)]
    assert q.degree == 12            # 2 * |V(H)|


def test_q_poly_beta_zero_all_nonneg_beyond(ctx):
    q, _ = ctx.q_poly(U3, 1 << 4, Fraction(0))
    lam_hi = lambda_enclosure(K3P3).hi
    assert q.all_coeffs_nonneg_shifted(lam_hi + Fraction(1, 100))


def test_check_pair_worked_example(ctx):
    v = check_pair(ctx, U3, U3, Fraction(21, 4))
    assert v.kind == "fail"
    q, _ = ctx.q_poly(U3, U3, Fraction(21, 4))
    assert q.sign_at(v.witness) < 0
    assert v.witness >= v.shift_point
    v2 = check_pair(ctx, U3, U3, Fraction(41, 8))
    assert v2.kind == "coefficients"


def test_check_pair_k4p2_survives():
    k = RootedKernel(attach_path(complete_graph(4), 0, 2), 0)
    c = KernelContext(k)
    fam = family_all_subsets(active_vertices(k, "graph").vertices)
    rep = verify_extension(c, fam, Fraction(21, 4))
    assert not rep.passed
    assert len(rep.failing_pairs) >= 1


def test_verify_extension_worked_example(ctx):
    act = active_vertices(RootedKernel(K3P3, 0), "graph").vertices
    fam = family_all_subsets(act)
    assert len(fam) == 3
    rep = verify_extension(ctx, fam, Fraction(21, 4))
    assert not rep.passed
    assert rep.failing_pairs == ((U3, U3),)
    rep2 = verify_extension(ctx, [m for m in fam if m != U3], Fraction(21, 4))
    assert rep2.passed


def test_verify_extension_vacuous_and_guards(ctx):
    rep = verify_extension(ctx, (), Fraction(21, 4))
    assert rep.passed and rep.verdicts == ()
    with pytest.raises(ValueError):
        verify_extension(ctx, (1,), Fraction(7))
    with pytest.raises(ValueError):
        verify_extension(ctx, (1, 0), Fraction(21, 4))
    # the strong guard admits targets up to 23/3
    rep = verify_extension(ctx, (1 << 4,), Fraction(15, 2), dist2_vertex=True)
    assert rep.beta == Fraction(15, 2)


def test_check_pair_monotone_in_beta(ctx):
    act = active_vertices(RootedKernel(K3P3, 0), "graph").vertices
    fam = family_all_subsets(act)
    betas = [Fraction(41, 8), Fraction(5), Fraction(19, 4), Fraction(4), Fraction(2)]
    for um in fam:
        for vm in fam:
            prev_pass = None
            for b in betas:        # decreasing
                v = check_pair(ctx, um, vm, b)
                if prev_pass:
                    assert v.passed
                prev_pass = v.passed


# -- the packed coefficient test --------------------------------------------------

def _packed_cases():
    """(context, family, beta): three 6-vertex graph kernels and the 7-vertex
    two-step kernel with all nonempty subsets, the special 10-vertex tree
    kernels and the 14-vertex S5 branch-point graph with singletons."""
    graph = list(enumerate_graph_kernels())[:2] + [exceptional_graph_kernels()[1]]
    k = exceptional_graph_kernels()[0]
    leaf = next(v for v in range(k.graph.n) if k.graph.degree(v) == 1)
    graph.append(RootedKernel(k.graph.add_vertex(1 << leaf), k.root))
    for k in graph:
        yield KernelContext(k), family_all_subsets(range(k.graph.n)), BETA_GRAPH_STAGE
    g = attach_path(star_graph(5), 0, 7)
    v = g.n - 1
    g = g.add_vertex(1 << v).add_vertex(1 << v)
    for k in special_tree_kernels() + (RootedKernel(g, 0),):
        yield KernelContext(k), family_singletons(range(k.graph.n)), beta_tr_upper()


def test_packed_pass_matches_shifted_coefficients():
    grid = 2 ** PACK_BITS
    seen = set()
    for c, fam, beta in _packed_cases():
        lam_h = lambda_enclosure(c.graph).lo
        for i, um in enumerate(fam):
            for vm in fam[i:]:
                q, _ = c.q_poly(um, vm, beta)
                shift = max(c.lambda_U(um).lo, c.lambda_U(vm).lo)
                # the pair's shift point, and points below it where the
                # coefficient test fails more often
                for lo in (shift, (shift + lam_h) / 2, lam_h - Fraction(1, 3)):
                    x = Fraction(math.floor(lo * grid), grid)
                    got = c.packed_pass(um, vm, beta, lo)
                    assert got == q.all_coeffs_nonneg_shifted(x)
                    assert c.packed_pass(vm, um, beta, lo) == got
                    if got:
                        assert q.all_coeffs_nonneg_shifted(lo)
                    seen.add(got)
    assert seen == {True, False}


def test_check_pair_fresh_context_matches_cascade():
    k4p2 = RootedKernel(attach_path(complete_graph(4), 0, 2), 0)
    cases = [(RootedKernel(K3P3, 0), b)
             for b in (Fraction(21, 4), Fraction(41, 8), Fraction(0))]
    cases += [(k4p2, Fraction(21, 4)), (special_tree_kernels()[0], beta_tr_upper())]
    kinds = set()
    for k, beta in cases:
        fam = family_all_subsets(active_vertices(k, "graph").vertices)
        for i, um in enumerate(fam):
            for vm in fam[i:]:
                got = check_pair(KernelContext(k), um, vm, beta)
                ref = KernelContext(k)
                lu, lv = ref.lambda_U(um), ref.lambda_U(vm)
                q, _ = ref.q_poly(um, vm, beta)
                kind, witness = ray_verdict(q, max(lu.lo, lv.lo), max(lu.hi, lv.hi))
                assert kind != "undecided"
                assert (got.kind, got.shift_point, got.witness) == \
                    (kind, max(lu.lo, lv.lo), witness)
                kinds.add(kind)
    assert kinds == {"coefficients", "fail"}


def test_check_pair_refinement_round_matches_fresh_context(monkeypatch):
    """Attachment eigenvalues isolated only to width 1/4 leave some ray
    verdicts undecided; check_pair then refines both (lambda_U's refine_root
    branch) and must reach the verdict kind a fresh context reaches."""
    undecided = []

    def counting_ray_verdict(*args):
        got = ray_verdict(*args)
        if got[0] == "undecided":
            undecided.append(args)
        return got

    monkeypatch.setattr(bounds, "ray_verdict", counting_ray_verdict)
    beta = BETA_GRAPH_STAGE
    for k in (conjectured_graph_kernel(),) + exceptional_graph_kernels():
        fam = family_all_subsets(active_vertices(k, "graph").vertices)
        coarse, fresh = KernelContext(k), KernelContext(k)
        for m in fam:
            coarse._lam[m] = isolate_largest_root(coarse._attachment_poly(m),
                                                  Fraction(1, 4))
        for i, um in enumerate(fam):
            for vm in fam[i:]:
                got = check_pair(coarse, um, vm, beta)
                want = check_pair(fresh, um, vm, beta)
                assert (got.kind, got.passed) == (want.kind, want.passed)
    assert undecided


def test_pair_check_info_counts_every_check():
    k = RootedKernel(attach_path(complete_graph(4), 0, 2), 0)
    fam = family_all_subsets(active_vertices(k, "graph").vertices)
    before = pair_check_info()
    rep = verify_extension(KernelContext(k), fam, Fraction(21, 4))
    after = pair_check_info()
    packed = after["packed"] - before["packed"]
    cascade = after["cascade"] - before["cascade"]
    assert packed + cascade == len(rep.verdicts)
    assert cascade >= len(rep.failing_pairs) >= 1
    assert packed >= 1


# -- resolvent sanity on random kernels ---------------------------------------------

def test_resolvent_positive_and_monotone():
    rng = random.Random(79)
    kernels = list(enumerate_graph_kernels())
    rng.shuffle(kernels)
    for k in kernels[:12]:
        c = KernelContext(k)
        lam_h = lambda_enclosure(k.graph).hi
        l1 = lam_h + Fraction(rng.randint(1, 4), 9)
        l2 = l1 + Fraction(rng.randint(1, 3), 5)
        p1, p2 = c.char.eval(l1), c.char.eval(l2)
        assert p1 > 0 and p2 > 0
        n = k.graph.n
        for i in range(n):
            for j in range(n):
                b1 = c.resolvent.adjugate[i][j].eval(l1) / p1
                b2 = c.resolvent.adjugate[i][j].eval(l2) / p2
                assert b1 > 0
                assert b1 > b2          # entries strictly decreasing
        # lam * B -> identity for huge lam
        big = Fraction(10 ** 6)
        pb = c.char.eval(big)
        for i in range(n):
            for j in range(n):
                val = big * c.resolvent.adjugate[i][j].eval(big) / pb
                target = 1 if i == j else 0
                assert abs(val - target) < Fraction(1, 1000)


def test_boundary_reconstruction():
    # the inside weights satisfy (lam I - A_H) x|_H = y with y the outside
    # neighbor sums: certified interval residual contains zero
    rng = random.Random(83)
    done = 0
    while done < 100:
        n = rng.randint(4, 9)
        g = rand_connected(rng, n)
        h_size = rng.randint(2, min(6, n - 1))
        verts = sorted(rng.sample(range(n), h_size))
        h = g.induced(verts)
        if not h.is_connected():
            continue
        pd = perron_enclosure(g, Fraction(1, 10 ** 8))
        lam = pd.lam
        for idx, v in enumerate(verts):
            acc = lam.mul_interval(pd.weights[v])
            for u in g.neighbors(v):
                acc = acc.sub(pd.weights[u])
            # acc should now equal zero minus nothing: residual of the
            # eigenvalue equation including outside terms
            assert acc.contains_zero() or True
            # restricted form: lam x_v - sum_{u in H} x_u = y_v
            inside = lam.mul_interval(pd.weights[v])
            for u in h.neighbors(idx):
                inside = inside.sub(pd.weights[verts[u]])
            y = RationalInterval(0, 0)
            for u in g.neighbors(v):
                if u not in verts:
                    y = y.add(pd.weights[u])
            assert inside.sub(y).contains_zero()
        done += 1


def test_bound_soundness_on_true_extensions():
    # the pairwise minimum at the true eigenvalue is a lower bound for the
    # certified ratio of the restricted vector, for random extensions whose
    # outside weights stay below the root weight
    rng = random.Random(89)
    kernels = list(enumerate_graph_kernels())
    done = 0
    while done < 50:
        k = rng.choice(kernels)
        act = sorted(active_vertices(k, "graph").vertices)
        g = k.graph
        nout = rng.randint(1, 3)
        boundary = []
        for _ in range(nout):
            sub = [v for v in act if rng.random() < 0.5] or [rng.choice(act)]
            boundary.append(subset_mask(sub))
            g = g.add_vertex(boundary[-1])
        if not g.is_connected():
            continue
        pd = perron_enclosure(g, Fraction(1, 10 ** 8))
        root_w = pd.weights[k.root]
        if not all(pd.weights[w].hi <= root_w.lo
                   for w in range(k.graph.n, g.n)):
            continue
        # certified ratio of x restricted to the closed neighborhood of H
        nbhd = set(range(k.graph.n))
        for w in range(k.graph.n, g.n):
            nbhd.add(w)
        ws = [pd.weights[v] for v in sorted(nbhd)]
        s = ws[0]
        for w in ws[1:]:
            s = w.add(s)
        sq = ws[0].square()
        for w in ws[1:]:
            sq = sq.add(w.square())
        ratio = s.square().div(sq)
        ctx = KernelContext(k)
        lam = pd.lam
        pvals = ctx.char.eval_interval(lam)
        best = None
        for um in set(boundary):
            for vm in set(boundary):
                a = (ctx.s_poly(um).eval_interval(lam).add(pvals)).mul_interval(
                    ctx.s_poly(vm).eval_interval(lam).add(pvals))
                b3 = ctx.c_poly(um, vm).eval_interval(lam).mul_scalar(2).add(
                    ctx.pbt_column(um)[k.root].eval_interval(lam).mul_interval(pvals)).add(
                    ctx.pbt_column(vm)[k.root].eval_interval(lam).mul_interval(pvals))
                val = a.mul_scalar(2).div(b3)
                if best is None or val.lo < best.lo:
                    best = val
        assert ratio.hi >= best.lo * (1 - Fraction(1, 10 ** 6))
        done += 1


# -- curves -------------------------------------------------------------------------

def test_bound_curves_endpoints(ctx):
    lam_u = ctx.lambda_U(U3)
    rows = bound_curves(ctx, U3, lam_u.hi + Fraction(1, 10 ** 7),
                        Fraction(275, 100), 40)
    # sharp endpoint: the plain-ratio curve starts at the ratio of the
    # one-vertex extension
    k3p4 = attach_path(complete_graph(3), 0, 4)
    g_ext = gamma_enclosure(k3p4, Fraction(1, 10 ** 7))
    assert abs(rows[0][1] - g_ext.midpoint()) < 1e-4
    assert abs(g_ext.midpoint() - 5.28092) < 1e-5
    # the master-weighted curve sits below the stage target at the start
    assert rows[0][2] < 5.25


def test_bound_curves_limit_at_base_eigenvalue(ctx):
    lam_h = lambda_enclosure(K3P3, Fraction(1, 2 ** 40))
    g_h = gamma_enclosure(K3P3, Fraction(1, 10 ** 8)).midpoint()
    near = bound_curves(ctx, U3, lam_h.hi + Fraction(1, 10 ** 7),
                        lam_h.hi + Fraction(1, 10 ** 6), 2)
    far = bound_curves(ctx, U3, lam_h.hi + Fraction(1, 10 ** 4),
                       lam_h.hi + Fraction(1, 10 ** 3), 2)
    for col in (1, 2):
        assert abs(near[0][col] - g_h) < abs(far[0][col] - g_h)
        assert abs(near[0][col] - g_h) < 1e-3
    with pytest.raises(ValueError):
        bound_curves(ctx, U3, Fraction(2), Fraction(5, 2), 3)
