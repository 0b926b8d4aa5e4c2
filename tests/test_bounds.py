"""The kernel-extension bounding engine against the worked 6-vertex example
and structural invariants of the resolvent machinery."""

import math
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings

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
    _PackedSet,
    bound_curves,
    check_pair,
    family_all_subsets,
    family_singletons,
    grid_index,
    mask_vertices,
    packed_nonneg,
    pair_check_info,
    scaled_derivative_eval,
    scaled_eval,
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
from perronbalance import spectral
from perronbalance.spectral import (
    BETA_STAR,
    GAMMA_LAMBDA_EPS,
    _faddeev_leverrier,
    gamma_enclosure,
    lambda_enclosure,
    min_gamma_table,
    resolvent_data,
    top_root_cache_info,
)

from oracles import connected_graphs, induced, interval_sub, perron_enclosure

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
    col = ctx.resolvent.column(5)
    assert [c.coeffs for c in col] == [
        (-1, 0, 1), (1, 1), (1, 1), (-2, -3, 0, 1),
        (1, -2, -4, 0, 1), (2, 4, -2, -5, 0, 1)]


def test_pb_column_clique_pendant():
    g = attach_path(complete_graph(4), 0, 1)
    c = KernelContext(RootedKernel(g, 0))
    col = c.resolvent.column(4)
    sq = IntPoly([1, 1]) ** 2
    assert col[1] == sq and col[2] == sq and col[3] == sq
    assert col[0] == IntPoly([-2, 1]) * sq
    assert col[4] == IntPoly([-3, 1]) * IntPoly([1, 1]) ** 3


def test_pb_column_star_path():
    g = attach_path(star_graph(5), 0, 4)
    c = KernelContext(RootedKernel(g, 0))
    col = c.resolvent.column(8)
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
            want = _faddeev_leverrier(k.graph.add_vertex(mask)).char_poly
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
    before = top_root_cache_info()
    iv = KernelContext(k).lambda_U(mask, eps)
    mid = top_root_cache_info()
    iv2 = KernelContext(k2).lambda_U(mask2, eps)
    after = top_root_cache_info()
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
    before = top_root_cache_info()
    iv = KernelContext(k).lambda_U(mask, eps)
    mid = top_root_cache_info()
    iv2 = KernelContext(k2).lambda_U(mask2, eps)
    after = top_root_cache_info()
    assert iv2 == iv and iv.width <= eps
    assert (mid["misses"], mid["hits"]) == (before["misses"] + 1, before["hits"])
    assert (after["misses"], after["hits"]) == (mid["misses"], mid["hits"] + 1)


def test_lambda_u_hint_in_final_cell_and_first_isolation_hintless(monkeypatch):
    """The hint a miss of the shared top-root cache passes, from a table
    row's lambda_enclosure or from lambda_U, lies in the LAMBDA_EPS cell of
    the top root or next to it, and every shared entry, the table ones
    included, is the hint-less isolation."""
    w = LAMBDA_EPS
    assert GAMMA_LAMBDA_EPS == w
    hints = {}

    def spy(p, eps, hint=None):
        hints[p.coeffs] = hint
        return isolate_largest_root(p, eps, hint)

    monkeypatch.setattr(spectral, "_TOP_ROOT", {})
    monkeypatch.setattr(spectral, "isolate_largest_root", spy)
    min_gamma_table.__wrapped__(6, "graph", BETA_STAR)
    tables = len(spectral._TOP_ROOT)
    for k in list(enumerate_graph_kernels())[::5]:
        c = KernelContext(k)
        for mask in range(1, 1 << k.graph.n):
            c.lambda_U(mask)
    assert len(hints) == len(spectral._TOP_ROOT) > tables > 0
    for (coeffs, eps), iv in spectral._TOP_ROOT.items():
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
    assert q.certifies_no_roots_above(lam_hi + Fraction(1, 100))


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
    fam = family_all_subsets(active_vertices(k, "graph"))
    rep = verify_extension(c, fam, Fraction(21, 4))
    assert not rep.passed
    assert len(rep.failing_pairs) >= 1


def test_verify_extension_worked_example(ctx):
    act = active_vertices(RootedKernel(K3P3, 0), "graph")
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
    with pytest.raises(ValueError):
        verify_extension(ctx, (1,), Fraction(-1, 4))
    # the strong guard admits targets up to 23/3
    rep = verify_extension(ctx, (1 << 4,), Fraction(15, 2), dist2_vertex=True)
    assert rep.beta == Fraction(15, 2)


def test_check_pair_monotone_in_beta(ctx):
    act = active_vertices(RootedKernel(K3P3, 0), "graph")
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

def _assert_singleton_identity(c):
    """c_poly of every two singletons, the entry (adj^2)[u][v], is
    P' adj[u][v] - P adj'[u][v]."""
    p, n = c.char, c.graph.n
    dp = p.derivative()
    for u in range(n):
        for v in range(n):
            e = c.resolvent.column(v)[u]
            assert c.c_poly(1 << u, 1 << v) == dp * e - p * e.derivative()


def test_singleton_c_poly_is_resolvent_identity():
    """The identity adj^2 = P' adj - P adj' (adj = P (xI - A)^-1, so
    adj^2 = -P^2 (adj/P)') behind the packed weights of a singleton first
    set, on every graph-kernel and tree-kernel graph and every graph of
    _packed_cases, the 14-vertex S5 branch-point graph among them."""
    graphs = {k.graph for k in enumerate_graph_kernels()}
    graphs |= {k.graph for k in enumerate_tree_kernels()}
    graphs |= {c.graph for c, _, _ in _packed_cases()}
    assert max(g.n for g in graphs) == 14
    for g in graphs:
        _assert_singleton_identity(KernelContext(RootedKernel(g, 0)))


@settings(max_examples=100, deadline=None)
@given(connected_graphs())
def test_singleton_c_poly_is_resolvent_identity_random(g):
    _assert_singleton_identity(KernelContext(RootedKernel(g, 0)))


@pytest.mark.parametrize("coeffs, m", [
    ((1,), -1),                  # the adjugate entry of a 1-vertex graph
    ((7,), 3),                   # constant: the derivative is 0
    ((3, -5, 2), 4),             # degree below m + 1
    ((-1, 4, -9, 0, -6), 3),     # negative coefficients, deg p' = m
])
def test_scaled_derivative_eval_against_fractions(coeffs, m):
    b = PACK_BITS
    for a in (-300, 0, 77):
        for x in (a, (1 << 40) + a):
            t = Fraction(x, 1 << b)
            want = Fraction(2) ** (b * m) * sum(
                k * c * t ** (k - 1) for k, c in enumerate(coeffs) if k)
            assert scaled_derivative_eval(coeffs, x, b, m) == want


def test_majorant_bounds_every_pair_at_each_beta(ctx):
    # the beta-free sums are built once per context and every beta's
    # majorant still bounds |q| coefficientwise for every pair
    n = ctx.graph.n
    sets = range(1, 1 << n)
    for beta in (Fraction(0), Fraction(21, 4), beta_tr_upper(), Fraction(7)):
        maj = ctx._majorant(beta)
        for um in sets:
            for vm in (um, (1 << n) - 1, 1):
                q = ctx.q_poly(um, vm, beta)[0].coeffs
                assert len(q) <= len(maj)
                assert all(abs(c) <= m for c, m in zip(q, maj))
    assert "_abs_sums" in vars(ctx)


def _packed_cases():
    """(context, family, beta): three 6-vertex graph kernels (one relabelled
    so that its root is not vertex 0) and the 7-vertex two-step kernel with
    all nonempty subsets, the special 10-vertex tree kernels and the
    14-vertex S5 branch-point graph with singletons."""
    first, second = list(enumerate_graph_kernels())[:2]
    perm = [5, 3, 0, 4, 1, 2]
    graph = [first, RootedKernel(second.graph.relabel(perm), perm[second.root]),
             exceptional_graph_kernels()[1]]
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


def _packed_points():
    """(context, U, V, beta, lo) for every pair of _packed_cases(): the pair's
    shift point, and points below it where the coefficient test fails more
    often."""
    for c, fam, beta in _packed_cases():
        lam_h = lambda_enclosure(c.graph).lo
        for i, um in enumerate(fam):
            for vm in fam[i:]:
                shift = max(c.lambda_U(um).lo, c.lambda_U(vm).lo)
                for lo in (shift, (shift + lam_h) / 2, lam_h - Fraction(1, 3)):
                    yield c, um, vm, beta, lo


def _sweep_packed(c, first, second, beta, a, sets):
    """The packed integer N(first, second) at grid index a as
    verify_extension forms it, and the grid point's sign mask; sets keeps
    the first sets' data, as the sweep does."""
    got = sets.get((c, first, a))
    if got is None:
        grid = c._grid_point(beta, a)
        got = sets[c, first, a] = (
            _PackedSet(grid, mask_vertices(first), c.root, beta), grid.sign)
    ps, sign = got
    return sum(map(ps.__getitem__, mask_vertices(second)), ps.c), sign


def test_packed_pass_matches_shifted_coefficients():
    """The sweep's packed test, with either set first, against the signs of
    the shifted coefficients at the grid point; a pass at the pair's shift
    point is check_pair's "coefficients" verdict there."""
    grid = 2 ** PACK_BITS
    seen, sets = set(), {}
    for c, um, vm, beta, lo in _packed_points():
        q, _ = c.q_poly(um, vm, beta)
        x = Fraction(math.floor(lo * grid), grid)
        a = grid_index(lo)
        got = packed_nonneg(*_sweep_packed(c, um, vm, beta, a, sets))
        assert got == q.certifies_no_roots_above(x)
        assert packed_nonneg(*_sweep_packed(c, vm, um, beta, a, sets)) == got
        if got:
            assert q.certifies_no_roots_above(lo)
            if lo == max(c.lambda_U(um).lo, c.lambda_U(vm).lo):
                v = check_pair(c, um, vm, beta)
                assert (v.kind, v.shift_point) == ("coefficients", lo)
        seen.add(got)
    assert seen == {True, False}


def _product_form_packed(c, um, vm, beta, a):
    """The packed integer at grid index a in product form: T_U and T_V are
    the polynomial partial column sums evaluated at X, A_W = b sum(T_W) +
    P_X, and N = 2 den A_U A_V - num (2 b^2 T_U.T_V + b (T_U[o] + T_V[o])
    P_X), b = 2^PACK_BITS."""
    g = c._grid_point(beta, a)
    n, b, o = c.graph.n, PACK_BITS, c.root
    px = scaled_eval(c.char.coeffs, g.x, b, n)
    assert g.px == px
    assert g.dpx == scaled_eval(c.char.derivative().coeffs, g.x, b, n - 1)
    tu, tv = ([scaled_eval(e.coeffs, g.x, b, n - 1) for e in c.pbt_column(m)]
              for m in (um, vm))
    au, av = ((sum(t) << b) + px for t in (tu, tv))
    return (2 * beta.denominator * au * av
            - beta.numerator * ((sum(map(mul, tu, tv)) << 2 * b + 1)
                                + ((tu[o] + tv[o]) * px << b)))


def test_packed_affine_value_equals_product_form():
    """c_U + sum_{v in V} w_U[v] is the product-form integer exactly, with
    either set first."""
    sets = {}
    for c, um, vm, beta, lo in _packed_points():
        a = grid_index(lo)
        want = _product_form_packed(c, um, vm, beta, a)
        for first, second in ((um, vm), (vm, um)):
            assert _sweep_packed(c, first, second, beta, a, sets)[0] == want


def test_check_pair_negative_beta_raises(ctx):
    for c in (ctx, KernelContext(RootedKernel(K3P3, 0))):
        with pytest.raises(ValueError):
            check_pair(c, U3, 1 << 4, Fraction(-1, 4))


def test_check_pair_fresh_context_matches_cascade():
    k4p2 = RootedKernel(attach_path(complete_graph(4), 0, 2), 0)
    cases = [(RootedKernel(K3P3, 0), b)
             for b in (Fraction(21, 4), Fraction(41, 8), Fraction(0))]
    cases += [(k4p2, Fraction(21, 4)), (special_tree_kernels()[0], beta_tr_upper())]
    kinds = set()
    for k, beta in cases:
        fam = family_all_subsets(active_vertices(k, "graph"))
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
        fam = family_all_subsets(active_vertices(k, "graph"))
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


def test_check_pair_follows_refined_enclosure():
    """Refining a set's enclosure in the middle of a sweep moves the shift
    point of its later pairs, as in a fresh context that holds the same
    refined enclosure from the start."""
    k = conjectured_graph_kernel()
    beta = BETA_GRAPH_STAGE
    fam = family_all_subsets(active_vertices(k, "graph"))
    pairs = [(um, vm) for i, um in enumerate(fam) for vm in fam[i:]]
    half, top = len(pairs) // 2, fam[-1]
    ctx, fresh = KernelContext(k), KernelContext(k)
    for um, vm in pairs[:half]:
        check_pair(ctx, um, vm, beta)
    before = ctx.lambda_U(top)
    refined = ctx.lambda_U(top, LAMBDA_EPS / 2 ** 20)
    assert refined.lo > before.lo
    fresh.lambda_U(top)
    assert fresh.lambda_U(top, LAMBDA_EPS / 2 ** 20) == refined
    moved = 0
    for um, vm in pairs[half:]:
        got, want = check_pair(ctx, um, vm, beta), check_pair(fresh, um, vm, beta)
        assert (got.kind, got.shift_point, got.witness) == \
            (want.kind, want.shift_point, want.witness)
        moved += got.shift_point == refined.lo
    assert moved


def test_pair_check_info_counts_every_check():
    """Every pair is counted once, as packed or as cascade; the report keeps
    the cascade verdicts only; and the packed test's per-vertex weights are
    shared between pairs: at most one per first set and vertex."""
    k = RootedKernel(attach_path(complete_graph(4), 0, 2), 0)
    va = active_vertices(k, "graph")
    fam = family_all_subsets(va)
    before = pair_check_info()
    rep = verify_extension(KernelContext(k), fam, Fraction(21, 4))
    after = pair_check_info()
    packed = after["packed"] - before["packed"]
    cascade = after["cascade"] - before["cascade"]
    assert packed + cascade == len(fam) * (len(fam) + 1) // 2
    assert len(rep.verdicts) == cascade and rep.packed == packed
    assert cascade >= len(rep.failing_pairs) >= 1
    assert packed >= 1
    assert 0 < after["weights"] - before["weights"] <= len(fam) * len(va)


# -- the inline sweep against per-pair checks ---------------------------------------

def _pair_terms(ctx, fam):
    """For each pair (U, V) of the family, U at or before V, the polynomials
    (A, B) with q_poly(U, V, beta)[0] = 2 den A - num B at beta = num/den:
    A = (P s_U + P)(P s_V + P), B = 2 P^2 c_{U,V} + (P Bt_{o,U} + P Bt_{o,V})
    P.  They depend on neither beta nor the enclosures, so the reference
    sweeps of one kernel at several targets share them."""
    p, o = ctx.char, ctx.root
    a = {m: ctx.s_poly(m) + p for m in fam}
    return {(um, vm): (a[um] * a[vm], ctx.c_poly(um, vm) * 2
                       + (ctx.pbt_column(um)[o] + ctx.pbt_column(vm)[o]) * p)
            for i, um in enumerate(fam) for vm in fam[i:]}


def _reference_sweep(ctx, fam, beta, terms, stop_on_failure=False):
    """verify_extension's pair order without its packed integer: a pair
    counts as packed iff the coefficients of its pair polynomial (from
    terms, the _pair_terms of fam) shifted to x = floor(lo * 2^PACK_BITS) /
    2^PACK_BITS, lo the larger lower end of the two enclosures, are
    nonnegative; every other pair runs check_pair, stopping at the first
    failure when asked.  Returns (passed, the number of packed pairs, the
    verdicts of the pairs that ran the cascade)."""
    grid = 2 ** PACK_BITS
    passed, packed, cascaded = True, 0, []
    for i, um in enumerate(fam):
        for vm in fam[i:]:
            lo = max(ctx.lambda_U(um).lo, ctx.lambda_U(vm).lo)
            a, b = terms[um, vm]
            q = a * (2 * beta.denominator) - b * beta.numerator
            if q.certifies_no_roots_above(Fraction(math.floor(lo * grid), grid)):
                packed += 1
                continue
            assert q == ctx.q_poly(um, vm, beta)[0]
            v = check_pair(ctx, um, vm, beta)
            cascaded.append(v)
            passed = passed and v.passed
            if stop_on_failure and not v.passed:
                return passed, packed, cascaded
    return passed, packed, cascaded


def _assert_sweep_matches(make_ctx, fam, beta, terms=None, **kw):
    """verify_extension on one fresh context and the reference loop on
    another reach the same verdicts, and the sweep's pair_check_info deltas
    count the reference's packed pairs and cascades."""
    ctx = make_ctx()
    passed, packed, want = _reference_sweep(
        ctx, fam, beta, terms or _pair_terms(ctx, fam),
        kw.get("stop_on_failure", False))
    before = pair_check_info()
    rep = verify_extension(make_ctx(), fam, beta, **kw)
    after = pair_check_info()
    assert after["packed"] - before["packed"] == rep.packed == packed
    assert after["cascade"] - before["cascade"] == len(want)
    assert rep.passed == passed
    assert rep.failing_pairs == tuple((v.u_mask, v.v_mask) for v in want
                                      if not v.passed)
    assert rep.verdicts == tuple(want)
    return rep


def test_verify_extension_matches_per_pair_checks_graph_kernels():
    stopped = 0
    for k in enumerate_graph_kernels():
        fam = family_all_subsets(active_vertices(k, "graph"))
        terms = _pair_terms(KernelContext(k), fam)
        _assert_sweep_matches(lambda: KernelContext(k), fam, BETA_GRAPH_STAGE,
                              terms)
        for beta in (Fraction(6), Fraction(11, 2)):
            rep = _assert_sweep_matches(lambda: KernelContext(k), fam, beta,
                                        terms, stop_on_failure=True)
            stopped += not rep.passed
    assert stopped


def test_verify_extension_matches_per_pair_checks_tree_kernels():
    beta = beta_tr_upper()
    failed = 0
    for k in enumerate_tree_kernels():
        fam = family_singletons(active_vertices(k, "tree"))
        rep = _assert_sweep_matches(lambda: KernelContext(k), fam, beta,
                                    dist2_vertex=True)
        failed += not rep.passed
    assert failed == 3


def test_verify_extension_matches_per_pair_checks_after_refinement():
    """With enclosures of width 1/4, cascades refine enclosures in the
    middle of the sweep, and later pairs must use the refined shift keys."""
    beta = BETA_GRAPH_STAGE
    refined = 0
    for k in (conjectured_graph_kernel(),) + exceptional_graph_kernels():
        fam = family_all_subsets(active_vertices(k, "graph"))

        def coarse():
            c = KernelContext(k)
            for m in fam:
                c._lam[m] = isolate_largest_root(c._attachment_poly(m),
                                                 Fraction(1, 4))
            return c

        start = coarse()._lam
        rep = _assert_sweep_matches(coarse, fam, beta)
        refined += sum(v.shift_point != max(start[v.u_mask].lo,
                                            start[v.v_mask].lo)
                       for v in rep.verdicts)
    assert refined


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
        h = induced(g, verts)
        if not h.is_connected():
            continue
        pd = perron_enclosure(g, Fraction(1, 10 ** 8))
        lam = pd.lam
        for idx, v in enumerate(verts):
            acc = lam.mul_interval(pd.weights[v])
            for u in g.neighbors(v):
                acc = interval_sub(acc, pd.weights[u])
            # acc should now equal zero minus nothing: residual of the
            # eigenvalue equation including outside terms
            assert acc.contains_zero() or True
            # restricted form: lam x_v - sum_{u in H} x_u = y_v
            inside = lam.mul_interval(pd.weights[v])
            for u in h.neighbors(idx):
                inside = interval_sub(inside, pd.weights[verts[u]])
            y = RationalInterval(0, 0)
            for u in g.neighbors(v):
                if u not in verts:
                    y = y.add(pd.weights[u])
            assert interval_sub(inside, y).contains_zero()
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
        act = sorted(active_vertices(k, "graph"))
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
        sq = ws[0].mul_interval(ws[0])
        for w in ws[1:]:
            sq = sq.add(w.mul_interval(w))
        ratio = s.mul_interval(s).div(sq)
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
    assert abs(rows[0][1] - g_ext.mid_float()) < 1e-4
    assert abs(g_ext.mid_float() - 5.28092) < 1e-5
    # the master-weighted curve sits below the stage target at the start
    assert rows[0][2] < 5.25


def test_bound_curves_limit_at_base_eigenvalue(ctx):
    lam_h = lambda_enclosure(K3P3, Fraction(1, 2 ** 40))
    g_h = gamma_enclosure(K3P3, Fraction(1, 10 ** 8)).mid_float()
    near = bound_curves(ctx, U3, lam_h.hi + Fraction(1, 10 ** 7),
                        lam_h.hi + Fraction(1, 10 ** 6), 2)
    far = bound_curves(ctx, U3, lam_h.hi + Fraction(1, 10 ** 4),
                       lam_h.hi + Fraction(1, 10 ** 3), 2)
    for col in (1, 2):
        assert abs(near[0][col] - g_h) < abs(far[0][col] - g_h)
        assert abs(near[0][col] - g_h) < 1e-3
    with pytest.raises(ValueError):
        bound_curves(ctx, U3, Fraction(2), Fraction(5, 2), 3)
