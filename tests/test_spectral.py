"""Certified eigenvalue, Perron vector, and balance-ratio computations."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import perronbalance
from perronbalance import spectral
from perronbalance.algebra import (
    IntPoly,
    RationalInterval,
    SqrtRat,
    _sturm_chain,
    charpoly_by_interpolation,
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
    ColumnEnclosure,
    DEFAULT_EPS,
    LAMBDA_K4_INF,
    LAMBDA_S5_INF,
    _SUBTREE_PHI,
    _column_vertex,
    _faddeev_leverrier,
    _power_iteration_hint,
    _tree_resolvent,
    beta_d,
    certified_below,
    gamma_enclosure,
    gamma_family_closed_form,
    kp_infinite_gamma,
    lambda_enclosure,
    lambda_le_2_graphs,
    master_vertex,
    min_gamma_table,
    perron_enclosure,
    resolvent_data,
    sp_infinite_gamma,
    threshold_enclosure,
    two_sqrt_d_plus_3_exceeds,
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
    with pytest.raises(ValueError):
        lambda_enclosure(Graph.from_edges(3, [(0, 1)]))


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
    # every tree on <= 12 vertices: the char poly and the column the Perron
    # enclosures read equal the Faddeev-LeVerrier pass
    for n in range(1, 13):
        for t in enumerate_trees(n):
            rd, fl = resolvent_data(t), _faddeev_leverrier(t)
            j = _column_vertex(t)
            assert rd.char_poly == fl.char_poly
            assert rd.column(j) == fl.column(j)


def test_tree_resolvent_every_column_and_identity():
    # the recurrence rooted at every vertex; resolvent_data takes the other
    # columns of a tree from the Faddeev-LeVerrier pass
    for n in range(1, 10):
        for t in enumerate_trees(n):
            fl = _faddeev_leverrier(t)
            for j in range(n):
                char, col = _tree_resolvent(t, j)
                assert (char, col) == (fl.char_poly, fl.column(j))
            rd = resolvent_data(t)
            assert rd.verify(t.adjacency_rows())
            assert rd.adjugate == fl.adjugate


def test_tree_char_poly_matches_interpolation():
    for n in range(1, 11):
        for t in enumerate_trees(n):
            rows = t.adjacency_rows()
            assert resolvent_data(t).char_poly == charpoly_by_interpolation(rows)


def test_tree_resolvent_small_cases():
    x = IntPoly([0, 1])
    one = IntPoly([1])
    k1 = resolvent_data(path_graph(1))
    assert (k1.char_poly, k1.column(0)) == (x, (one,))
    k2 = resolvent_data(path_graph(2))
    assert k2.char_poly == IntPoly([-1, 0, 1])
    assert k2.adjugate == ((x, one), (one, x))
    # P3: the column vertex is the middle one, not vertex 0
    p3 = path_graph(3)
    assert _column_vertex(p3) == 1
    rd = resolvent_data.__wrapped__(p3)          # uncached: nothing built yet
    assert rd.n == 3 and rd._adjugate is None
    assert rd.column(1) == (x, x * x, x)
    assert rd.column(0) == (IntPoly([-1, 0, 1]), x, one)
    assert rd._adjugate is None
    assert _tree_resolvent(p3, 0) == (rd.char_poly, rd.column(0))


def test_faddeev_leverrier_column_without_full_matrix():
    g = attach_path(complete_graph(4), 0, 2)
    rd = resolvent_data.__wrapped__(g)
    col = rd.column(4)
    assert rd._adjugate is None
    assert rd.adjugate[4] is col
    assert all(rd.adjugate[i][4] == col[i] for i in range(g.n))
    assert rd.verify(g.adjacency_rows())


def test_tree_resolvent_relabel_reuses_memo():
    t = attach_path(star_graph(5), 0, 4)         # centre 0 has the top degree
    perm = [3, 8, 0, 6, 1, 7, 2, 5, 4]
    u = t.relabel(perm)
    assert (_column_vertex(t), _column_vertex(u)) == (0, perm[0])
    cols = {j: _tree_resolvent(t, j)[1] for j in (0, 5, 8)}
    size = len(_SUBTREE_PHI)
    ru = resolvent_data.__wrapped__(u)
    assert ru.char_poly == resolvent_data(t).char_poly
    for j in (0, 5, 8):
        got = _tree_resolvent(u, perm[j])[1]
        if j == 0:
            assert ru.column(perm[0]) == got
        assert [got[perm[i]] for i in range(t.n)] == list(cols[j])
    assert len(_SUBTREE_PHI) == size


def test_import_leaves_resolvent_memos_empty():
    # the benchmark's cold-cache check sees only the lru caches, so a memo
    # filled at import time would go unnoticed
    src = str(Path(perronbalance.__file__).resolve().parent.parent)
    code = ("import perronbalance.spectral as s; "
            "print(s.resolvent_data.cache_info().currsize, len(s._SUBTREE_PHI), "
            "s.threshold_enclosure.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=60, check=True)
    assert out.stdout.split() == ["0", "0", "0"]


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
    assert pd.residual_contains_zero(complete_graph(4))


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
    assert pd.residual_contains_zero(g)
    assert pd.weights[4].lo > pd.weights[5].hi
    inner = g.induced(range(5))                   # clique plus one path vertex
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
        assert pd.residual_contains_zero(g)
        assert all(w.lo > 0 for w in pd.weights)


# -- gamma enclosures ---------------------------------------------------------------

def test_gamma_cycles_exact():
    for n in range(3, 11):
        gv = gamma_enclosure(cycle_graph(n))
        assert gv.value.lo == gv.value.hi == n


def test_gamma_k4p2():
    gv = gamma_enclosure(attach_path(complete_graph(4), 0, 2), Fraction(1, 10 ** 8))
    assert abs(gv.midpoint() - 4.8777978) < 1e-6


def test_gamma_diamond_path():
    g = attach_path(diamond_graph(), 0, 3)
    gv = gamma_enclosure(g, Fraction(1, 10 ** 8))
    assert abs(gv.midpoint() - 5.180545) < 1e-5


def test_gamma_relabel_invariant():
    rng = random.Random(47)
    g = attach_path(complete_graph(3), 0, 3)
    base = gamma_enclosure(g, Fraction(1, 10 ** 9)).value
    for _ in range(10):
        perm = list(range(g.n))
        rng.shuffle(perm)
        iv = gamma_enclosure(g.relabel(perm), Fraction(1, 10 ** 9)).value
        assert iv.lo <= base.hi and base.lo <= iv.hi


def test_gamma_bounds_vs_lambda():
    # ratio - 1 >= top eigenvalue, certified, on every enumerated graph
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            gv = gamma_enclosure(g, Fraction(1, 10 ** 6)).value
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
        gv = gamma_enclosure(g, Fraction(1, 10 ** 8)).value
        norm2_sq = pd.weights[0].square()
        for w in pd.weights[1:]:
            norm2_sq = norm2_sq.add(w.square())
        # x_o^2 * gamma >= ||x||^2 certified with slack for interval width
        lhs = pd.weights[o].square().mul_interval(gv)
        assert lhs.hi >= norm2_sq.lo * (1 - 1e-6)


def _reference_column(g, lam_eps, accept):
    """The adjugate-column loop in plain Fraction interval arithmetic: the
    column of the first maximum-degree vertex, evaluated by interval Horner
    on an eigenvalue enclosure that shrinks by 16 per round."""
    rd = resolvent_data(g)
    degs = g.degrees()
    j = degs.index(max(degs))
    lam = lambda_enclosure(g, lam_eps)
    for _ in range(220):
        ws = []
        for i in range(g.n):
            a = b = Fraction(0)
            for c in reversed(rd.adjugate[i][j].coeffs):
                ps = (a * lam.lo, a * lam.hi, b * lam.lo, b * lam.hi)
                a, b = min(ps) + c, max(ps) + c
            ws.append((a, b))
        if all(a > 0 for a, _ in ws):
            got = accept(ws, lam.width == 0)
            if got is not None:
                return lam, got
        lam_eps /= 16
        lam = refine_root(rd.char_poly, lam, lam_eps)
    raise AssertionError("reference loop did not settle")


def _reference_gamma(g, eps):
    def accept(ws, exact):
        s = (sum(a for a, _ in ws), sum(b for _, b in ws))
        sq = (sum(a * a for a, _ in ws), sum(b * b for _, b in ws))
        quots = [x * x / y for x in s for y in sq]
        iv = (min(quots), max(quots))
        return iv if exact or iv[1] - iv[0] <= eps else None
    return _reference_column(g, Fraction(1, 2 ** 30), accept)[1]


def _reference_perron(g, eps=Fraction(1, 2 ** 40)):
    def accept(ws, exact):
        if exact or all((b - a) / a <= eps for a, b in ws):
            return ws
        return None
    return _reference_column(g, Fraction(1, 2 ** 40), accept)


def test_enclosures_match_fraction_reference():
    graphs = [g for n in range(1, 7) for g in enumerate_connected_graphs(n)]
    graphs += [t for n in range(7, 10) for t in enumerate_trees(n)]
    for g in graphs:
        gv = gamma_enclosure(g, Fraction(1, 10 ** 6)).value
        assert (gv.lo, gv.hi) == _reference_gamma(g, Fraction(1, 10 ** 6))
        pd = perron_enclosure(g)
        lam, ws = _reference_perron(g)
        assert pd.lam == lam
        assert [(w.lo, w.hi) for w in pd.weights] == ws


def test_column_enclosure_continues_as_a_restart_would():
    # a request continues from the last one and gives what a fresh
    # enclosure gives at the same eps, for gamma and the Perron weights
    graphs = [g for n in range(2, 7) for g in enumerate_connected_graphs(n)]
    graphs += list(enumerate_trees(9))
    steps = [Fraction(1, 10 ** 4), Fraction(1, 10 ** 6), Fraction(1, 10 ** 6 * 2 ** 8),
             Fraction(1, 10 ** 12), Fraction(1, 10 ** 20)]
    for g in graphs:
        enc = ColumnEnclosure(g)
        perron = ColumnEnclosure(g, DEFAULT_EPS)
        for eps in steps:
            assert enc.refine(eps) == gamma_enclosure(g, eps).value
            assert perron.weights(eps) == perron_enclosure(g, eps)
        # a wider request returns the current enclosure, never a wider one
        assert enc.refine(Fraction(1, 10 ** 4)) is enc.refine(steps[-1])


def test_certified_below_first_round_reuses_the_request(monkeypatch):
    from perronbalance import algebra
    calls = []
    real = algebra.refine_root

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(algebra, "refine_root", counting)
    g = attach_path(diamond_graph(), 0, 3)     # ratio 5.180545
    enc = ColumnEnclosure(g)
    first = gamma_enclosure(enc, Fraction(1, 10 ** 6)).value
    made = len(calls)
    assert certified_below(enc.refine, Fraction(21, 4))
    assert len(calls) == made
    assert enc.refine(Fraction(1, 10 ** 6)) is first


@st.composite
def _connected_graphs(draw):
    """A random spanning tree plus random extra edges, on 1..8 vertices."""
    n = draw(st.integers(1, 8))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    extra = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges |= {e for e, keep in zip(pairs, extra) if keep}
    return Graph.from_edges(n, sorted(edges))


@settings(max_examples=60, deadline=None)
@given(_connected_graphs())
@example(cycle_graph(7))
@example(complete_graph(5))
def test_gamma_equals_n_exactly_for_regular_graphs(g):
    gv = gamma_enclosure(g).value
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
        assert abs(gv.midpoint() - val) < 1e-6


def test_exceptional_gammas():
    want = {"E6": 5.293, "E7": 6.043, "E8": 6.781,
            "E6hat": 6.0, "E7hat": 6.75, "E8hat": 7.5}
    for name, val in want.items():
        gv = gamma_enclosure(e_graph(name), Fraction(1, 10 ** 8))
        assert abs(gv.midpoint() - val) < 1e-3
    # hatted families are exact rationals
    assert gamma_enclosure(e_graph("E6hat")).value == RationalInterval(6, 6)


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
            gv = gamma_enclosure(g, Fraction(1, 10 ** 7)).value
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
    mids = [r.gamma.midpoint() for r in rows[:3]]
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
        assert r.lam.width <= eps and r.gamma.value.width <= eps
        assert char.sign_at(r.lam.lo) * char.sign_at(r.lam.hi) <= 0
        assert first.lo <= r.lam.hi and r.lam.lo <= first.hi


def test_min_gamma_table_trees_10():
    rows, below = min_gamma_table(10, "tree", BETA_TR)
    assert below == 6
    assert rows[0].graph6 == write_graph6(
        canonical_relabel(attach_path(star_graph(5), 0, 5)))


def test_certified_below_refines():
    g = attach_path(diamond_graph(), 0, 3)     # ratio 5.180545
    assert certified_below(ColumnEnclosure(g).refine, Fraction(21, 4))
    assert not certified_below(ColumnEnclosure(g).refine, BETA_STAR)
    assert not certified_below(ColumnEnclosure(g).refine, Fraction(5))


def test_certified_below_exact_equality():
    # rational values hit exactly: the enclosures collapse to the threshold
    assert not certified_below(ColumnEnclosure(complete_graph(4)).refine, 4)
    assert not certified_below(ColumnEnclosure(star_graph(5)).refine, Fraction(9, 2))
