"""Certified eigenvalue, Perron vector, and balance-ratio computations."""

import hashlib
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings

import perronbalance
from perronbalance import spectral
from perronbalance.algebra import (
    IntPoly,
    RationalInterval,
    SqrtRat,
    _sturm_chain,
    horner_interval,
    isolate_largest_root,
    refine_root,
)
from perronbalance.graphs import (
    Graph,
    attach_path,
    bifork_graph,
    complete_graph,
    cycle_graph,
    diamond_graph,
    e_graph,
    enumerate_connected_graphs,
    enumerate_trees,
    fork_graph,
    parse_graph6,
    path_graph,
    star_graph,
    write_graph6,
    canonical_relabel,
)
from perronbalance.spectral import (
    BETA_STAR,
    BETA_TR,
    DEFAULT_EPS,
    GammaEnclosure,
    TableRow,
    LAMBDA_K4_INF,
    LAMBDA_S5_INF,
    _faddeev_leverrier,
    _power_iteration_hint,
    _row_order,
    _tree_char_poly,
    _walk_numerator,
    beta_d,
    bordered_char_poly,
    certified_below,
    gamma_enclosure,
    gamma_family_closed_form,
    kp_infinite_gamma,
    lambda_enclosure,
    lambda_le_2_graphs,
    min_gamma_table,
    resolvent_data,
    sp_infinite_gamma,
    threshold_enclosure,
    two_sqrt_d_plus_3_exceeds,
)

from oracles import (
    ColumnEnclosure,
    adjacency_rows,
    charpoly_by_interpolation,
    connected_graphs,
    induced,
    master_vertex,
    perron_enclosure,
    residual_contains_zero,
    resolvent_identity_holds,
    vertex_orbits,
)


def rand_connected(rng, n):
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        g = Graph.from_edges(n, edges)
        if g.is_connected():
            return g


def gamma_of_vector(xs):
    s = sum(xs)
    return s * s / sum(x * x for x in xs)


# -- eigenvalue enclosures -----------------------------------------------------

def test_lambda_examples():
    assert lambda_enclosure(complete_graph(4)) == RationalInterval(3, 3)
    assert lambda_enclosure(cycle_graph(4)) == RationalInterval(2, 2)
    iv = lambda_enclosure(attach_path(complete_graph(3), 0, 3))
    assert abs(iv.mid_float() - 2.2283) < 1e-4


def _small_connected_graphs_and_trees(max_graph, max_tree):
    for n in range(1, max_graph + 1):
        yield from enumerate_connected_graphs(n)
    for n in range(1, max_tree + 1):
        yield from enumerate_trees(n)


def _cell(x, w):
    """Index m of the aligned cell (m*w, (m+1)*w] that holds x."""
    return math.ceil(Fraction(x) / w) - 1


def test_power_hint_in_final_cell_and_changes_no_enclosure():
    w = Fraction(1, 2 ** 30)
    for g in _small_connected_graphs_and_trees(7, 11):
        p = resolvent_data(g).char_poly
        hint = _power_iteration_hint(g, p)
        assert math.isfinite(hint)
        iv = isolate_largest_root(p, w)
        assert abs(_cell(hint, w) - _cell(iv.hi, w)) <= 1
        assert isolate_largest_root(p, w, hint) == iv


def test_power_hint_single_vertex():
    g = Graph.from_edges(1, [])
    assert _power_iteration_hint(g, resolvent_data(g).char_poly) == 0.0


@pytest.mark.parametrize("g, k", [
    (complete_graph(4), 3),
    (cycle_graph(5), 2),
    (Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)]), 3),
])
def test_power_hint_exact_on_regular_graphs(monkeypatch, g, k):
    # the Collatz-Wielandt start is the degree, which is lambda_1, and p
    # vanishes there, so Newton takes no step
    p = resolvent_data(g).char_poly
    assert _power_iteration_hint(g, p) == k
    monkeypatch.setattr(spectral, "_NEWTON_CAP", 0)
    assert _power_iteration_hint(g, p) == k


def test_lambda_enclosure_builds_no_sturm_chain():
    # the hint's start cells and the p' monotonicity test certify every
    # small connected graph and tree without Sturm counts
    _sturm_chain.cache_clear()
    for g in _small_connected_graphs_and_trees(6, 10):
        lambda_enclosure(g)
    assert _sturm_chain.cache_info().misses == 0


def test_lambda_disconnected_rejected():
    for g in (Graph.from_edges(3, [(0, 1)]),
              Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])):
        with pytest.raises(ValueError, match="disconnected"):
            lambda_enclosure(g)
        with pytest.raises(ValueError, match="disconnected"):
            GammaEnclosure(g)


def test_one_connectivity_search_per_row(monkeypatch):
    # a row's GammaEnclosure searches its graph for connectivity once, a
    # resolvent_data miss on a tree included
    searched = []
    search = Graph.is_connected
    monkeypatch.setattr(Graph, "is_connected",
                        lambda g: searched.append(g) or search(g))
    rng = random.Random(31)
    for h in (attach_path(star_graph(5), 0, 11), attach_path(complete_graph(4), 0, 12)):
        perm = list(range(h.n))
        rng.shuffle(perm)
        g = h.relabel(perm)
        misses = resolvent_data.cache_info().misses
        GammaEnclosure(g)
        assert resolvent_data.cache_info().misses == misses + 1
        assert searched == [g]
        searched.clear()


@pytest.mark.parametrize("edges", [
    [(0, 1), (2, 3), (3, 4), (2, 4)],       # vertex 0 off the triangle
    [(0, 1), (1, 2), (0, 2), (3, 4)],       # vertex 0 on the triangle
])
def test_resolvent_data_disconnected_with_n_minus_1_edges(monkeypatch, edges):
    # n - 1 edges and no tree: bordered over the Faddeev-LeVerrier pass of
    # g minus its last vertex, not the recurrence
    g = Graph.from_edges(5, edges)
    sent = []
    monkeypatch.setattr(spectral, "_faddeev_leverrier",
                        lambda h: sent.append(h) or _faddeev_leverrier(h))
    monkeypatch.setattr(spectral, "_fl_pass", spectral._fl_pass.__wrapped__)
    rd = resolvent_data.__wrapped__(g)
    assert sent == [_without_last(g)]
    assert _tree_char_poly(g) is None
    # K2 + K3: (x^2 - 1)(x^3 - 3x - 2)
    assert rd.char_poly == IntPoly([2, 3, -2, -4, 0, 1])
    assert rd.char_poly == _faddeev_leverrier(g).char_poly


def _without_last(g):
    m = g.n - 1
    return Graph(m, tuple(row & ~(1 << m) for row in g.adj[:m]))


def test_bordered_char_poly_is_the_faddeev_leverrier_char_poly():
    """Bordering the last vertex over the pass of the rest gives the char
    poly of the whole graph: every connected graph on <= 7 vertices with
    each vertex relabelled last in turn, an isolated last vertex (x*phi),
    and the disconnected graphs with n - 1 edges."""
    x = IntPoly([0, 1])
    checked = 0
    for n in range(2, 8):
        for g in enumerate_connected_graphs(n):
            want = _faddeev_leverrier(g).char_poly
            for v in range(n):
                perm = list(range(n))
                perm[v], perm[n - 1] = n - 1, v
                h = g.relabel(perm)
                below = _faddeev_leverrier(_without_last(h))
                assert bordered_char_poly(below, h.adj[n - 1]) == want
                checked += 1
            fl = _faddeev_leverrier(g)
            assert bordered_char_poly(fl, 0) == x * want
            assert bordered_char_poly(fl, 0) == _faddeev_leverrier(g.add_vertex()).char_poly
    assert checked == sum(n * len(enumerate_connected_graphs(n)) for n in range(2, 8))
    for edges in ([(0, 1), (2, 3), (3, 4), (2, 4)], [(0, 1), (1, 2), (0, 2), (3, 4)]):
        g = Graph.from_edges(5, edges)
        below = _faddeev_leverrier(_without_last(g))
        assert bordered_char_poly(below, g.adj[4]) == _faddeev_leverrier(g).char_poly


def test_graph_proof_reuses_the_level_below(monkeypatch):
    """From cold caches, the 6- and 7-vertex graph tables border over the
    passes of the level below, at most 140 Faddeev-LeVerrier passes in all,
    and the graph-kernel stage that follows finds all but at most 100 of
    its first attachment isolations in the top-root cache the tables
    filled."""
    from perronbalance import kernels
    passes = []
    monkeypatch.setattr(spectral, "_faddeev_leverrier",
                        lambda h: passes.append(h) or _faddeev_leverrier(h))
    monkeypatch.setattr(spectral, "_TOP_ROOT", {})
    monkeypatch.setattr(kernels, "_STAGE_CACHE", {})
    for cached in (min_gamma_table, resolvent_data, spectral._fl_pass):
        cached.cache_clear()
    min_gamma_table(6, "graph", BETA_STAR)
    min_gamma_table(7, "graph", BETA_STAR)
    assert len(passes) <= 140
    before = spectral.top_root_cache_info()
    stage = kernels.graph_kernel_stage()
    assert stage.survivors == (kernels.conjectured_graph_kernel().id_string(),)
    after = spectral.top_root_cache_info()
    assert after["misses"] - before["misses"] <= 100


def test_top_root_cache_checks_connectivity_first():
    """K_{1,4} and C4 + K1 share the char poly x^5 - 4x^3; with K_{1,4}'s
    top root cached, the disconnected one is still refused."""
    star = star_graph(5)
    c4k1 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0)])
    char = resolvent_data(star).char_poly
    assert char == resolvent_data(c4k1).char_poly == IntPoly([0, 0, 0, -4, 0, 1])
    assert lambda_enclosure(star) == RationalInterval(2, 2)
    assert (char.coeffs, DEFAULT_EPS) in spectral._TOP_ROOT
    with pytest.raises(ValueError, match="disconnected"):
        lambda_enclosure(c4k1)


def test_lambda_sqrt_degree_bounds():
    # sqrt(d) <= lambda <= d with d the degree of a certified-maximal vertex
    rng = random.Random(41)
    checked = 0
    for _ in range(60):
        g = rand_connected(rng, rng.randint(2, 7))
        try:
            o = master_vertex(g)
        except ArithmeticError:
            continue
        d = g.degree(o)
        lam = lambda_enclosure(g, Fraction(1, 2 ** 30))
        sq = SqrtRat(0, 1, d).enclosure(Fraction(1, 2 ** 30))
        assert lam.hi >= sq.lo and lam.lo <= d
        checked += 1
    assert checked > 40


# -- resolvent data: Schwenk's recurrence on trees --------------------------------

def test_tree_resolvent_matches_faddeev_leverrier():
    # every tree on <= 14 vertices: the (f, g) pass gives the char poly of
    # the Faddeev-LeVerrier pass
    for n in range(1, 15):
        for t in enumerate_trees(n):
            assert _tree_char_poly(t) == _faddeev_leverrier(t).char_poly


def test_tree_resolvent_every_column_and_identity():
    # the recurrence rooted at every vertex (relabelled to vertex 0); the
    # columns of a tree come from the Faddeev-LeVerrier pass
    for n in range(1, 10):
        for t in enumerate_trees(n):
            fl = _faddeev_leverrier(t)
            for j in range(n):
                perm = list(range(n))
                perm[0], perm[j] = j, 0
                assert _tree_char_poly(t.relabel(perm)) == fl.char_poly
            rd = resolvent_data(t)
            assert resolvent_identity_holds(rd, adjacency_rows(t))
            assert rd.adjugate == fl.adjugate


def test_tree_char_poly_matches_interpolation():
    for n in range(1, 11):
        for t in enumerate_trees(n):
            rows = adjacency_rows(t)
            assert resolvent_data(t).char_poly == charpoly_by_interpolation(rows)


def test_tree_resolvent_small_cases():
    x = IntPoly([0, 1])
    one = IntPoly([1])
    k1 = resolvent_data(path_graph(1))
    assert (k1.char_poly, k1.column(0)) == (x, (one,))
    k2 = resolvent_data(path_graph(2))
    assert k2.char_poly == IntPoly([-1, 0, 1])
    assert k2.adjugate == ((x, one), (one, x))
    p3 = path_graph(3)
    rd = resolvent_data.__wrapped__(p3)          # uncached: nothing built yet
    assert rd.n == 3 and rd._adjugate is None
    assert rd.column(1) == (x, x * x, x)
    assert rd.column(0) == (IntPoly([-1, 0, 1]), x, one)
    assert rd._adjugate is None
    assert rd.char_poly == IntPoly([0, -2, 0, 1])


def test_faddeev_leverrier_column_without_full_matrix():
    g = attach_path(complete_graph(4), 0, 2)
    rd = resolvent_data.__wrapped__(g)
    col = rd.column(4)
    assert rd._adjugate is None
    assert rd.adjugate[4] is col
    assert all(rd.adjugate[i][4] == col[i] for i in range(g.n))
    assert resolvent_identity_holds(rd, adjacency_rows(g))


def test_resolvent_data_drops_the_pass_once_every_column_is_built():
    # the kept Faddeev-LeVerrier pass lets its packed matrices go with the
    # last column, as the resolvent data reading it does
    g = attach_path(complete_graph(4), 0, 3)
    rd = resolvent_data.__wrapped__(g)
    fl = spectral._fl_pass(g)
    for v in range(g.n):
        assert rd._column_of is not None
        rd.column(v)
    assert rd._column_of is None and fl._column_of is None
    assert rd._adjugate is None
    assert rd.adjugate == fl.adjugate == _faddeev_leverrier(g).adjugate


def test_tree_char_poly_relabel_invariant():
    t = attach_path(star_graph(5), 0, 4)
    rng = random.Random(71)
    want = _faddeev_leverrier(t).char_poly
    for _ in range(20):
        perm = list(range(t.n))
        rng.shuffle(perm)
        assert _tree_char_poly(t.relabel(perm)) == want


def test_import_leaves_resolvent_memos_empty():
    # the benchmark's cold-cache check reads these caches, so one filled at
    # import time would make a cold run warm
    src = str(Path(perronbalance.__file__).resolve().parent.parent)
    code = ("import perronbalance.spectral as s; "
            "print(s.resolvent_data.cache_info().currsize, "
            "s.threshold_enclosure.cache_info().currsize, "
            "s._fl_pass.cache_info().currsize, len(s._TOP_ROOT))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=60, check=True)
    assert out.stdout.split() == ["0", "0", "0", "0"]


def test_threshold_enclosure_memoised():
    eps = Fraction(1, 10 ** 6)
    iv = threshold_enclosure(BETA_TR, eps)
    assert threshold_enclosure(BETA_TR, eps) is iv
    assert iv == BETA_TR.enclosure(eps)
    assert threshold_enclosure(Fraction(9, 2), eps) == RationalInterval.point(Fraction(9, 2))


# -- Perron data -----------------------------------------------------------------

def test_perron_k4_symmetric():
    pd = perron_enclosure(complete_graph(4))
    assert len({(w.lo, w.hi) for w in pd.weights}) == 1
    assert residual_contains_zero(pd, complete_graph(4))


def test_perron_p3_ratio_sqrt2():
    pd = perron_enclosure(path_graph(3), Fraction(1, 10 ** 10))
    ratio = pd.weights[1].div(pd.weights[0])
    s2 = SqrtRat(0, 1, 2).enclosure(Fraction(1, 10 ** 12))
    assert ratio.lo <= s2.hi and s2.lo <= ratio.hi


def test_perron_k4p2_matches_resolvent_column():
    # with the outside neighbor's weight scaled to one, the inner weights
    # equal the resolvent-column entries at the top eigenvalue
    g = attach_path(complete_graph(4), 0, 2)
    pd = perron_enclosure(g, Fraction(1, 10 ** 9))
    assert residual_contains_zero(pd, g)
    assert pd.weights[4].lo > pd.weights[5].hi
    inner = induced(g, range(5))                  # clique plus one path vertex
    rd = resolvent_data(inner)
    pvals = rd.char_poly.eval_interval(pd.lam)
    outside = pd.weights[5]
    for u in range(5):
        b_uv = rd.adjugate[u][4].eval_interval(pd.lam).div(pvals)
        got = pd.weights[u].div(outside)
        assert got.lo <= b_uv.hi and b_uv.lo <= got.hi


def test_perron_residual_random():
    rng = random.Random(43)
    for _ in range(40):
        g = rand_connected(rng, rng.randint(2, 8))
        pd = perron_enclosure(g)
        assert residual_contains_zero(pd, g)
        assert all(w.lo > 0 for w in pd.weights)


# -- gamma enclosures ---------------------------------------------------------------

def test_gamma_cycles_exact():
    for n in range(3, 11):
        gv = gamma_enclosure(cycle_graph(n))
        assert gv.lo == gv.hi == n


def test_gamma_k4p2():
    gv = gamma_enclosure(attach_path(complete_graph(4), 0, 2), Fraction(1, 10 ** 8))
    assert abs(gv.mid_float() - 4.8777978) < 1e-6


def test_gamma_diamond_path():
    g = attach_path(diamond_graph(), 0, 3)
    gv = gamma_enclosure(g, Fraction(1, 10 ** 8))
    assert abs(gv.mid_float() - 5.180545) < 1e-5


def test_gamma_relabel_invariant():
    rng = random.Random(47)
    g = attach_path(complete_graph(3), 0, 3)
    base = gamma_enclosure(g, Fraction(1, 10 ** 9))
    for _ in range(10):
        perm = list(range(g.n))
        rng.shuffle(perm)
        iv = gamma_enclosure(g.relabel(perm), Fraction(1, 10 ** 9))
        assert iv.lo <= base.hi and base.lo <= iv.hi


def test_gamma_bounds_vs_lambda():
    # ratio - 1 >= top eigenvalue, certified, on every enumerated graph
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            gv = gamma_enclosure(g, Fraction(1, 10 ** 6))
            lam = lambda_enclosure(g, Fraction(1, 2 ** 30))
            assert gv.hi - 1 >= lam.lo - Fraction(1, 10 ** 5)
            assert gv.lo <= n


def test_master_weight_lower_bound():
    # x_o >= ||x||_2 / sqrt(gamma) for the maximal-weight vertex
    rng = random.Random(53)
    for _ in range(25):
        g = rand_connected(rng, rng.randint(2, 6))
        try:
            o = master_vertex(g)
        except ArithmeticError:
            continue
        pd = perron_enclosure(g, Fraction(1, 10 ** 8))
        gv = gamma_enclosure(g, Fraction(1, 10 ** 8))
        w0, wo = pd.weights[0], pd.weights[o]
        norm2_sq = w0.mul_interval(w0)
        for w in pd.weights[1:]:
            norm2_sq = norm2_sq.add(w.mul_interval(w))
        # x_o^2 * gamma >= ||x||^2 certified with slack for interval width
        lhs = wo.mul_interval(wo).mul_interval(gv)
        assert lhs.hi >= norm2_sq.lo * (1 - 1e-6)


def _fraction_horner(cs, lam):
    """Interval Horner in plain Fraction arithmetic, all four products."""
    a = b = Fraction(0)
    for c in reversed(cs):
        ps = (a * lam.lo, a * lam.hi, b * lam.lo, b * lam.hi)
        a, b = min(ps) + c, max(ps) + c
    return a, b


def _adjugate_sum(g):
    """Coefficients of 1^T adj(xI - A) 1, summed over every adjugate entry
    of the Faddeev-LeVerrier pass."""
    tot = [0] * g.n
    for col in _faddeev_leverrier(g).adjugate:
        for e in col:
            for i, c in enumerate(e.coeffs):
                tot[i] += c
    return tot


def _reference_gamma(g, eps):
    """W/phi' in plain Fraction interval arithmetic, W the adjugate sum, on
    an eigenvalue enclosure that shrinks by 16 per round from 2^-30."""
    char = resolvent_data(g).char_poly
    walk = _adjugate_sum(g)
    slope = char.derivative().coeffs
    lam_eps = Fraction(1, 2 ** 30)
    lam = lambda_enclosure(g, lam_eps)
    for _ in range(220):
        w_lo, w_hi = _fraction_horner(walk, lam)
        d_lo, d_hi = _fraction_horner(slope, lam)
        if w_lo > 0 and d_lo > 0:
            iv = (w_lo / d_hi, w_hi / d_lo)
            if lam.width == 0 or iv[1] - iv[0] <= eps:
                return iv
        lam_eps /= 16
        lam = refine_root(char, lam, lam_eps)
    raise AssertionError("reference loop did not settle")


def _reference_perron(g, eps=Fraction(1, 2 ** 40)):
    """The oracle's adjugate-column loop in plain Fraction arithmetic: the
    column of the first maximum-degree vertex on an eigenvalue enclosure
    that shrinks by 16 per round."""
    rd = resolvent_data(g)
    degs = g.degrees()
    j = degs.index(max(degs))
    lam_eps = Fraction(1, 2 ** 40)
    lam = lambda_enclosure(g, lam_eps)
    for _ in range(220):
        ws = [_fraction_horner(rd.adjugate[i][j].coeffs, lam) for i in range(g.n)]
        if all(a > 0 for a, _ in ws) and (
                lam.width == 0 or all((b - a) / a <= eps for a, b in ws)):
            return lam, ws
        lam_eps /= 16
        lam = refine_root(rd.char_poly, lam, lam_eps)
    raise AssertionError("reference loop did not settle")


def test_enclosures_match_fraction_reference():
    graphs = [g for n in range(1, 7) for g in enumerate_connected_graphs(n)]
    graphs += [t for n in range(7, 10) for t in enumerate_trees(n)]
    for g in graphs:
        gv = gamma_enclosure(g, Fraction(1, 10 ** 6))
        assert (gv.lo, gv.hi) == _reference_gamma(g, Fraction(1, 10 ** 6))
        pd = perron_enclosure(g)
        lam, ws = _reference_perron(g)
        assert pd.lam == lam
        assert [(w.lo, w.hi) for w in pd.weights] == ws


def test_column_enclosure_continues_as_a_restart_would():
    # a request continues from the last one and gives what a fresh
    # enclosure gives at the same eps, for gamma and, in the column
    # oracle, the Perron weights
    graphs = [g for n in range(2, 7) for g in enumerate_connected_graphs(n)]
    graphs += list(enumerate_trees(9))
    steps = [Fraction(1, 10 ** 4), Fraction(1, 10 ** 6), Fraction(1, 10 ** 6 * 2 ** 8),
             Fraction(1, 10 ** 12), Fraction(1, 10 ** 20)]
    for g in graphs:
        enc = GammaEnclosure(g)
        perron = ColumnEnclosure(g, DEFAULT_EPS)
        for eps in steps:
            assert enc.refine(eps) == gamma_enclosure(g, eps)
            assert perron.weights(eps) == perron_enclosure(g, eps)
        # a wider request returns the current enclosure, never a wider one
        assert enc.refine(Fraction(1, 10 ** 4)) is enc.refine(steps[-1])


def _small_graphs_and_trees():
    graphs = [g for n in range(1, 8) for g in enumerate_connected_graphs(n)]
    return graphs + [t for n in range(8, 13) for t in enumerate_trees(n)]


def test_walk_numerator_is_the_adjugate_sum():
    # W from walk counts against the sum of all Faddeev-LeVerrier adjugate
    # entries, on every connected graph <= 7 and tree <= 12
    for g in _small_graphs_and_trees():
        assert _walk_numerator(g, resolvent_data(g).char_poly) == _adjugate_sum(g)


@settings(max_examples=100, deadline=None)
@given(connected_graphs())
def test_walk_numerator_is_the_adjugate_sum_random(g):
    assert _walk_numerator(g, resolvent_data(g).char_poly) == _adjugate_sum(g)


def test_gamma_enclosure_meets_column_oracle():
    # W/phi' and the adjugate column enclose the same gamma: at the table
    # width, on every connected graph <= 7 and tree <= 12
    eps = Fraction(1, 10 ** 6)
    for g in _small_graphs_and_trees():
        assert GammaEnclosure(g).refine(eps).intersects(ColumnEnclosure(g).refine(eps))


@pytest.mark.parametrize("g, n", [
    (path_graph(1), 1), (path_graph(2), 2), (complete_graph(4), 4), (cycle_graph(5), 5),
])
def test_gamma_enclosure_exact_points(g, n):
    # lambda_1 is an integer and the enclosure a point at once: K1, K2, K4, C5
    enc = GammaEnclosure(g)
    assert enc.lam.iv.lo == enc.lam.iv.hi
    assert enc.refine(Fraction(1, 10 ** 30)) == RationalInterval(n, n)


def test_gamma_enclosure_shares_the_horner_scale():
    # W and phi' have degree n - 1 and leading coefficient n, so the ratio
    # of their horner_interval numerators is the ratio of the values
    for g in (attach_path(complete_graph(4), 0, 2), star_graph(6), path_graph(7)):
        char = resolvent_data(g).char_poly
        walk, slope = _walk_numerator(g, char), char.derivative().coeffs
        assert len(walk) == len(slope) == g.n and walk[-1] == slope[-1] == g.n
        lo, hi, den = lambda_enclosure(g, Fraction(1, 2 ** 30)).numerators()
        for x in (lo, hi):
            w, d = horner_interval(walk, x, x, den), horner_interval(slope, x, x, den)
            assert w[0] == w[1] and d[0] == d[1]
            assert Fraction(w[0], d[0]) == (IntPoly(walk).eval(Fraction(x, den))
                                            / IntPoly(slope).eval(Fraction(x, den)))


def test_certified_below_first_round_reuses_the_request(monkeypatch):
    from perronbalance import algebra
    calls = []
    real = algebra.refine_root

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(algebra, "refine_root", counting)
    g = attach_path(diamond_graph(), 0, 3)     # ratio 5.180545
    enc = GammaEnclosure(g)
    first = gamma_enclosure(enc, Fraction(1, 10 ** 6))
    made = len(calls)
    assert certified_below(enc.refine, Fraction(21, 4))
    assert len(calls) == made
    assert enc.refine(Fraction(1, 10 ** 6)) is first


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
@example(cycle_graph(7))
@example(complete_graph(5))
def test_gamma_equals_n_exactly_for_regular_graphs(g):
    gv = gamma_enclosure(g)
    if len(set(g.degrees())) == 1:
        assert gv == RationalInterval(g.n, g.n)
    else:
        assert gv.lo < g.n


# -- vector inequalities --------------------------------------------------------------------

def test_convexity_of_mixtures_random_vectors():
    rng = random.Random(59)
    for _ in range(1000):
        k = rng.randint(2, 6)
        x1 = [Fraction(rng.randint(1, 40), rng.randint(1, 7)) for _ in range(k)]
        x2 = [Fraction(rng.randint(1, 40), rng.randint(1, 7)) for _ in range(k)]
        alpha = Fraction(rng.randint(1, 9), 10)
        mix = [alpha * a + (1 - alpha) * b for a, b in zip(x1, x2)]
        assert gamma_of_vector(mix) >= min(gamma_of_vector(x1),
                                           gamma_of_vector(x2))


def test_reverse_am_qm():
    rng = random.Random(61)
    for _ in range(400):
        k = rng.randint(2, 7)
        m = Fraction(rng.randint(1, 10), rng.randint(1, 4))
        mm = m + Fraction(rng.randint(0, 20), rng.randint(1, 4))
        xs = [m + (mm - m) * Fraction(rng.randint(0, 16), 16) for _ in range(k)]
        s = sum(xs)
        bound = s * s / ((m + mm) * s - k * m * mm)
        assert gamma_of_vector(xs) >= bound


def test_perturbation_monotonicity():
    rng = random.Random(67)
    for _ in range(400):
        k = rng.randint(2, 7)
        xs = [Fraction(rng.randint(1, 30), rng.randint(1, 5)) for _ in range(k)]
        s, t = sum(xs), sum(x * x for x in xs)
        if not xs[0] < t / s:
            continue
        eps = xs[0] * Fraction(rng.randint(1, 15), 16)
        ys = [xs[0] - eps] + xs[1:]
        assert gamma_of_vector(ys) < gamma_of_vector(xs)


# -- closed forms ------------------------------------------------------------------------

def test_closed_form_examples():
    assert gamma_family_closed_form("Dhat", 5) == 4.5
    assert abs(gamma_family_closed_form("D", 7) - 6.157) < 1e-3
    assert gamma_family_closed_form("E7hat", 0) == 6.75
    assert gamma_family_closed_form("Cycle", 8) == 8.0
    assert abs(gamma_family_closed_form("Path", 3) - 2.91421) < 1e-5


def test_closed_forms_match_certified():
    for fam, n in [("Path", 6), ("D", 7), ("Cycle", 5), ("Dhat", 7)]:
        builders = {"Path": path_graph, "D": fork_graph,
                    "Cycle": cycle_graph, "Dhat": bifork_graph}
        val = gamma_family_closed_form(fam, n)
        gv = gamma_enclosure(builders[fam](n), Fraction(1, 10 ** 8))
        assert abs(gv.mid_float() - val) < 1e-6


def test_exceptional_gammas():
    want = {"E6": 5.293, "E7": 6.043, "E8": 6.781,
            "E6hat": 6.0, "E7hat": 6.75, "E8hat": 7.5}
    for name, val in want.items():
        gv = gamma_enclosure(e_graph(name), Fraction(1, 10 ** 8))
        assert abs(gv.mid_float() - val) < 1e-3
    # hatted families are exact rationals
    assert gamma_enclosure(e_graph("E6hat")) == RationalInterval(6, 6)


def test_lambda_le_2_family_members_have_small_lambda():
    for n in (7, 9):
        for name, g in lambda_le_2_graphs(n):
            lam = lambda_enclosure(g, Fraction(1, 2 ** 30))
            assert lam.hi <= 2 or lam.lo <= 2 <= lam.hi + Fraction(1, 2 ** 20)


# -- degree bound ------------------------------------------------------------------------

def test_beta_d_table():
    want = {3: 3.596, 4: 4.223, 5: 4.788, 6: 5.305, 7: 5.785, 8: 6.235,
            9: 6.660, 10: 7.064, 11: 7.450, 12: 7.820}
    for d, v in want.items():
        iv = beta_d(d)
        assert abs(iv.mid_float() - v) < 1e-3
    with pytest.raises(ValueError):
        beta_d(2)


def test_degree_bound_on_small_graphs():
    # certified: gamma >= min(beta_d, 2 sqrt(d) + 3) with d the master degree
    count = 0
    for n in range(2, 8):
        for g in enumerate_connected_graphs(n):
            try:
                o = master_vertex(g)
            except ArithmeticError:
                continue
            d = g.degree(o)
            gv = gamma_enclosure(g, Fraction(1, 10 ** 7))
            if d >= 3:
                bound = beta_d(d)
                sq = SqrtRat(0, 1, d).enclosure(Fraction(1, 2 ** 30))
                alt = sq.mul_scalar(2).add_scalar(3)
                cutoff = min(bound.hi, alt.hi)
                assert gv.hi >= cutoff - Fraction(1, 10 ** 5)
            count += 1
    assert count > 900


def test_two_sqrt_d_helper():
    assert two_sqrt_d_plus_3_exceeds(6, Fraction(21, 4))
    assert not two_sqrt_d_plus_3_exceeds(1, Fraction(6))


# -- orbits and the master vertex -----------------------------------------------------------

def test_vertex_orbits():
    orbs = vertex_orbits(attach_path(complete_graph(4), 0, 2))
    assert sorted(map(sorted, orbs)) == [[0], [1, 2, 3], [4], [5]]
    assert vertex_orbits(cycle_graph(5)) == [[0, 1, 2, 3, 4]]


def test_master_vertex_examples():
    assert master_vertex(attach_path(complete_graph(4), 0, 2)) == 0
    assert master_vertex(star_graph(6)) == 0
    assert master_vertex(cycle_graph(6)) == 0    # orbit tie resolved to id 0


# -- limiting constants ----------------------------------------------------------------------

def test_infinite_closed_forms():
    assert sp_infinite_gamma(6).is_rational()
    assert sp_infinite_gamma(6).as_fraction() == Fraction(15, 2)
    b = kp_infinite_gamma(4)
    assert (b - BETA_STAR).sign() == 0
    s = sp_infinite_gamma(5)
    assert (s - BETA_TR).sign() == 0


def test_limit_constants_minimal_polynomials():
    # the named targets are roots of their integer minimal polynomials,
    # c0 + c1*v + c2*v^2 = 0 checked on its rational and sqrt(3) parts
    # with (a + b*sqrt(3))^2 = (a^2 + 3b^2) + 2ab*sqrt(3)
    def parts(c0, c1, c2, v):
        assert v.m == 3
        a, b = v.a, v.b
        return (c0 + c1 * a + c2 * (a * a + 3 * b * b),
                c1 * b + c2 * 2 * a * b)

    assert parts(-2, -20, 4, BETA_STAR) == (0, 0)
    assert parts(4, -8, 1, BETA_TR) == (0, 0)
    assert parts(-26, -4, 4, LAMBDA_K4_INF) == (0, 0)
    assert parts(-16, 0, 3, LAMBDA_S5_INF) == (0, 0)


# -- tables -------------------------------------------------------------------------------------

def test_min_gamma_table_small_graphs():
    rows, below = min_gamma_table(6, "graph", BETA_STAR)
    assert below == 5
    assert rows[0].graph6 == write_graph6(
        canonical_relabel(attach_path(complete_graph(4), 0, 2)))
    mids = [r.gamma.mid_float() for r in rows[:3]]
    assert abs(mids[0] - 4.8777978) < 1e-5
    assert abs(mids[1] - 4.895005) < 1e-5


def test_min_gamma_table_narrows_lambda_to_eps():
    # below the 2^-30 isolation, the lambda columns narrow to eps as gamma does
    eps = Fraction(1, 10 ** 20)
    rows, _ = min_gamma_table(5, "graph", BETA_STAR, eps=eps)
    assert len(rows) == 21
    for r in rows:
        g = parse_graph6(r.graph6)
        char = resolvent_data(g).char_poly
        first = lambda_enclosure(g, Fraction(1, 2 ** 30))
        assert r.lam.width <= eps and r.gamma.width <= eps
        assert char.sign_at(r.lam.lo) * char.sign_at(r.lam.hi) <= 0
        assert first.lo <= r.lam.hi and r.lam.lo <= first.hi


def test_min_gamma_table_trees_10():
    rows, below = min_gamma_table(10, "tree", BETA_TR)
    assert below == 6
    assert rows[0].graph6 == write_graph6(
        canonical_relabel(attach_path(star_graph(5), 0, 5)))


def test_table_rows_pinned():
    # graph6 and the gamma and lambda endpoints of every row of the
    # 7-vertex graph table and the 8..11-vertex tree tables, in table order
    h = hashlib.sha256()
    tables = [(7, "graph", BETA_STAR)] + [(n, "tree", BETA_TR) for n in range(8, 12)]
    for n, kind, threshold in tables:
        for r in min_gamma_table(n, kind, threshold)[0]:
            h.update(("%s,%s,%s,%s,%s\n" % (r.graph6, r.gamma.lo, r.gamma.hi,
                                             r.lam.lo, r.lam.hi)).encode())
    assert h.hexdigest() == (
        "fac50bc1743ea5ef4b6682bbab68a9a0aac83bff35db4c9ad595df445a87c971")


def test_row_order_is_mid_then_graph6():
    # mids closer than 2^-64 share the integer prefix and fall back to the
    # Fractions; equal mids fall back to graph6
    def row(g6, lo, hi):
        return TableRow(g6, RationalInterval(lo, hi), RationalInterval(0, 0))
    five = Fraction(5)
    rows = [row("C", five, five + Fraction(2, 2 ** 70)), row("B", five, five),
            row("A", five - 1, five + 1), row("D", Fraction(-1, 3), 0),
            row("E", five - Fraction(1, 2 ** 80), five)]
    got = [r.graph6 for r in sorted(rows, key=_row_order)]
    assert got == [r.graph6 for r in sorted(rows, key=lambda r: (r.gamma.mid, r.graph6))]
    assert got == ["D", "E", "A", "B", "C"]


def test_certified_below_refines():
    g = attach_path(diamond_graph(), 0, 3)     # ratio 5.180545
    assert certified_below(GammaEnclosure(g).refine, Fraction(21, 4))
    assert not certified_below(GammaEnclosure(g).refine, BETA_STAR)
    assert not certified_below(GammaEnclosure(g).refine, Fraction(5))


def test_certified_below_exact_equality():
    # rational values hit exactly: the enclosures collapse to the threshold
    assert not certified_below(GammaEnclosure(complete_graph(4)).refine, 4)
    assert not certified_below(GammaEnclosure(star_graph(5)).refine, Fraction(9, 2))
