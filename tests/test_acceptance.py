"""Acceptance criteria, one test per criterion, each printing a verdict
line that is also collected into the terminal summary.

Tolerances are pinned here exactly as stated; nothing is deferred to
later calibration.  One deliberate deviation is asserted and documented
inline: the true number of 10-vertex trees is 106 (two independent
in-suite oracles agree), so the enumeration criterion is checked against
the corrected value.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from perronbalance.algebra import IntPoly, RationalInterval, SqrtRat
from perronbalance.bounds import KernelContext, check_pair
from perronbalance.graphs import (
    RootedKernel,
    attach_path,
    canonical_relabel,
    complete_graph,
    cycle_graph,
    diamond_graph,
    enumerate_connected_graphs,
    enumerate_graph_kernels,
    enumerate_tree_kernels,
    enumerate_trees,
    parse_graph6,
    path_graph,
    star_graph,
    write_graph6,
)
from perronbalance.kernels import (
    conjectured_graph_kernel,
    conjectured_tree_kernel,
    prove_conjecture,
)
from perronbalance.spectral import (
    BETA_STAR,
    BETA_TR,
    GammaEnclosure,
    LAMBDA_K4_INF,
    LAMBDA_S5_INF,
    beta_d,
    certified_below,
    gamma_enclosure,
    lambda_enclosure,
    min_gamma_table,
    sp_infinite_gamma,
)
from perronbalance.tails import (
    TailContext,
    check_gamma_lower,
    check_gamma_upper,
    infinite_tail_eigendata,
    lambda_sandwich_audit,
)

from oracles import (
    adjacency_rows,
    perron_enclosure,
    residual_contains_zero,
    resolvent_identity_holds,
)


def canon6(g):
    return write_graph6(canonical_relabel(g))


def test_acceptance_01_enumeration_exactness(acceptance_recorder):
    t0 = time.monotonic()
    graph_counts = [len(enumerate_connected_graphs(n)) for n in range(3, 8)]
    tree_counts = [len(enumerate_trees(n)) for n in range(3, 15)]
    nk_graph = len(enumerate_graph_kernels())
    nk_tree = len(enumerate_tree_kernels())
    elapsed = time.monotonic() - t0
    ok = (graph_counts == [2, 6, 21, 112, 853]
          # the 10-vertex tree count is 106: the leaf-augmentation
          # enumeration and the Cayley cross-check (sum of n!/|Aut|) agree
          and tree_counts == [1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159]
          and nk_graph == 155 and nk_tree == 194 and elapsed <= 60)
    acceptance_recorder(1, ok,
           "graphs %s, trees %s (n=10 corrected to 106), kernels %d/%d, %.1fs"
           % (graph_counts, tree_counts, nk_graph, nk_tree, elapsed))


def test_acceptance_02_worked_example_fidelity(acceptance_recorder):
    k3p3 = attach_path(complete_graph(3), 0, 3)
    ctx = KernelContext(RootedKernel(k3p3, 0))
    u3 = 1 << 5
    ok = ctx.char == IntPoly([-1, 4, 8, -2, -6, 0, 1])
    ok &= [c.coeffs for c in ctx.resolvent.column(5)] == [
        (-1, 0, 1), (1, 1), (1, 1), (-2, -3, 0, 1),
        (1, -2, -4, 0, 1), (2, 4, -2, -5, 0, 1)]
    ok &= ctx.s_poly(u3) == IntPoly([2, 1, -5, -4, 1, 1])
    ok &= ctx.c_poly(u3, u3) == IntPoly(
        [12, 28, 13, -24, -23, 20, 26, -4, -9, 0, 1])
    q, scale = ctx.q_poly(u3, u3, Fraction(21, 4))
    ok &= [Fraction(c, scale) for c in q.coeffs] == [
        Fraction(-269, 4), Fraction(-116), Fraction(10), Fraction(225, 2),
        Fraction(-55, 4), Fraction(-357, 2), Fraction(-327, 4), Fraction(97),
        Fraction(61), Fraction(-22), Fraction(-57, 4), Fraction(2), Fraction(1)]
    v = check_pair(ctx, u3, u3, Fraction(21, 4))
    const = Fraction(q.eval(v.shift_point), scale)
    ok &= v.kind == "fail" and const < 0
    ok &= abs(float(const) - (-5.54)) < 0.01
    v2 = check_pair(ctx, u3, u3, Fraction(41, 8))
    ok &= v2.kind == "coefficients"
    acceptance_recorder(2, ok, "worked-example polynomials verbatim; shifted constant "
                  "%.4f; 41/8 passes by coefficients" % float(const))


def test_acceptance_03_graph_kernel_stage(graph_stage, acceptance_recorder):
    counts = graph_stage.classification_counts()
    ok = counts == {"direct": 150, "exceptional": 4, "survivor": 1}
    ok &= graph_stage.survivors == (conjectured_graph_kernel().id_string(),)
    d = diamond_graph()
    want = {canon6(attach_path(complete_graph(3), 0, 4)): (5.28092, False),
            canon6(attach_path(d, 0, 3)): (5.180545, True),
            canon6(attach_path(d, 1, 3)): (5.287096, False)}
    info = {l.graph6: l for l in graph_stage.leftovers}
    ok &= set(info) == set(want)
    for g6, (mid, below) in want.items():
        l = info[g6]
        ok &= abs(float((l.gamma_lo + l.gamma_hi) / 2) - mid) < 1e-4
        ok &= l.below_beta == below
    ok &= graph_stage.elapsed_seconds <= 180
    acceptance_recorder(3, ok, "150/4/1 at 21/4, survivor is the clique kernel, "
                  "leftovers %.5f/%.5f/%.5f, %.1fs"
           % tuple([float((l.gamma_lo + l.gamma_hi) / 2)
                    for l in graph_stage.leftovers] +
                   [graph_stage.elapsed_seconds]))


def test_acceptance_04_tree_kernel_stage(tree_stage, acceptance_recorder):
    counts = tree_stage.classification_counts()
    ok = counts["direct"] == 191 and counts["survivor"] == 1
    ok &= tree_stage.survivors == (conjectured_tree_kernel().id_string(),)
    want = {canon6(attach_path(star_graph(6), 0, 5)): 7.3371,
            canon6(attach_path(star_graph(6), 0, 6)): 7.4158,
            canon6(attach_path(star_graph(6), 0, 7)): 7.4571}
    below = {l.graph6: l for l in tree_stage.leftovers if l.below_limit}
    ok &= set(below) == set(want)
    for g6, mid in want.items():
        l = below[g6]
        ok &= abs(float((l.gamma_lo + l.gamma_hi) / 2) - mid) < 1e-4
        ok &= certified_below(
            GammaEnclosure(parse_graph6(g6)).refine, BETA_TR)
    # the chain through the 6-star kernels ends with the 13-vertex tree
    largest = max(parse_graph6(x.graph6).n
                  for o in tree_stage.outcomes if o.elimination
                  for x in o.elimination.examined)
    ok &= largest == 13
    ok &= tree_stage.elapsed_seconds <= 180
    acceptance_recorder(4, ok, "191 direct, chain ends at the 13-vertex 6-star tree, "
                  "exceptions 7.3371/7.4158/7.4571 certified below the "
                  "limit, survivor is the 5-star kernel, %.1fs"
           % tree_stage.elapsed_seconds)


def test_acceptance_05_limiting_constants(acceptance_recorder):
    eps = Fraction(1, 10 ** 10)
    tight = Fraction(1, 10 ** 12)
    k4 = TailContext(complete_graph(4), 0)
    ek4 = infinite_tail_eigendata(k4, eps)
    s5 = TailContext(star_graph(5), 0)
    es5 = infinite_tail_eigendata(s5, eps)

    def is_enclosure(iv, const):
        exact = const.enclosure(tight)
        return (iv.width <= Fraction(1, 10 ** 9)
                and iv.lo <= exact.hi and exact.lo <= iv.hi)

    ok = is_enclosure(ek4.gamma_inf, BETA_STAR)
    ok &= is_enclosure(es5.gamma_inf, BETA_TR)
    ok &= is_enclosure(ek4.lam_inf, LAMBDA_K4_INF)
    ok &= is_enclosure(es5.lam_inf, LAMBDA_S5_INF)
    ok &= sp_infinite_gamma(6).as_fraction() == Fraction(15, 2)
    acceptance_recorder(5, ok, "limit enclosures at width <= 1e-9 around the four "
                  "algebraic constants; 6-star limit is exactly 15/2")


def test_acceptance_06_tail_certificates(acceptance_recorder):
    k4 = TailContext(complete_graph(4), 0, exact_limit_ratio=BETA_STAR)
    s5 = TailContext(star_graph(5), 0, exact_limit_ratio=BETA_TR)
    ok = check_gamma_lower(k4, 1).passed
    ok &= check_gamma_lower(s5, 1).passed
    ku = TailContext(attach_path(complete_graph(4), 0, 1), 4, o=0,
                     exact_limit_ratio=BETA_STAR)
    ok &= check_gamma_upper(ku, 2, Fraction(311, 100), Fraction(318, 100),
                            Fraction(1)).passed
    su = TailContext(attach_path(star_graph(5), 0, 4), 8, o=0,
                     exact_limit_ratio=BETA_TR)
    ok &= check_gamma_upper(su, 4, Fraction(2312, 1000), Fraction(234, 100),
                            Fraction(3, 2)).passed
    ok &= k4.J_hat.num == IntPoly([4, 8, 9, 3, -3, -3, -1, 1])
    ok &= k4.J_hat.den == IntPoly([6, -6, -19, 23, -7, 7, -5, 1])
    ok &= s5.J_hat.num == IntPoly([9, 12, 10, 4, 1])
    ok &= s5.J_hat.den == IntPoly([9, 0, -2, 0, 1])
    acceptance_recorder(6, ok, "finite-path and branching-tail certificates pass; "
                  "profile ratios match coefficient-for-coefficient")


def test_acceptance_07_extremal_tables(acceptance_recorder):
    rows3, _ = min_gamma_table(3, "graph", BETA_STAR)
    rows4, _ = min_gamma_table(4, "graph", BETA_STAR)
    rows5, _ = min_gamma_table(5, "graph", BETA_STAR)
    rows6, below6 = min_gamma_table(6, "graph", BETA_STAR)
    _, below7 = min_gamma_table(7, "graph", BETA_STAR)
    spot = {
        (3, canon6(path_graph(3))): 2.91421,
        (3, canon6(complete_graph(3))): 3.0,
        (4, canon6(star_graph(4))): 3.73205,
        (4, canon6(attach_path(complete_graph(3), 0, 1))): 3.75939,
        (4, canon6(path_graph(4))): 3.78885,
        (5, canon6(attach_path(complete_graph(3), 0, 2))): 4.38971,
        (5, canon6(star_graph(5))): 4.5,
        (5, canon6(attach_path(complete_graph(4), 0, 1))): 4.5768,
        (5, canon6(path_graph(5))): 4.64273,
        (6, canon6(attach_path(complete_graph(4), 0, 2))): 4.8777978,
        (6, canon6(attach_path(complete_graph(3), 0, 3))): 4.895005,
        (6, canon6(attach_path(diamond_graph(), 0, 2))): 4.955687,
    }
    tables = {3: rows3, 4: rows4, 5: rows5, 6: rows6}
    ok = True
    for (n, g6), want in spot.items():
        row = next(r for r in tables[n] if r.graph6 == g6)
        ok &= abs(row.gamma.mid_float() - want) < 1e-4
    s5row = next(r for r in tables[5] if r.graph6 == canon6(star_graph(5)))
    ok &= s5row.gamma == RationalInterval(Fraction(9, 2), Fraction(9, 2))
    ok &= below6 == 5 and below7 == 1
    tree_expected = {3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 32, 10: 6,
                     11: 2, 12: 2, 13: 2, 14: 1}
    tree_got = {}
    for n, want in tree_expected.items():
        _, got = min_gamma_table(n, "tree", BETA_TR)
        tree_got[n] = got
        ok &= got == want
    acceptance_recorder(7, ok, "12 spot ratios within 1e-4 (5-star exactly 9/2); "
                  "graphs below limit 5/1 at n=6/7; tree counts %s" %
           [tree_got[n] for n in sorted(tree_got)])


def test_acceptance_08_degree_bound_table(acceptance_recorder):
    want = {3: 3.596, 4: 4.223, 5: 4.788, 6: 5.305, 7: 5.785, 8: 6.235,
            9: 6.660, 10: 7.064, 11: 7.450, 12: 7.820}
    ok = True
    for d, v in want.items():
        iv = beta_d(d)
        ok &= abs(iv.mid_float() - v) < 1e-3
    acceptance_recorder(8, ok, "degree bounds within 1e-3 for degrees 3..12")


@pytest.mark.slow
def test_acceptance_09_end_to_end(graph_stage, tree_stage, tmp_path, acceptance_recorder):
    from perronbalance.cli import main
    t0 = time.monotonic()
    rc_g = main(["--out", str(tmp_path), "prove", "graphs"])
    rc_t = main(["--out", str(tmp_path), "prove", "trees"])
    elapsed = time.monotonic() - t0
    doc_g = json.loads((tmp_path / "certificate-graphs.json").read_text())
    doc_t = json.loads((tmp_path / "certificate-trees.json").read_text())
    rc_bad = main(["--out", str(tmp_path / "tampered"), "prove", "graphs",
                   "--tamper", "6"])
    ok = (rc_g == 0 and rc_t == 0 and doc_g["passed"] and doc_t["passed"]
          and rc_bad == 1 and elapsed <= 600)
    acceptance_recorder(9, ok, "both certificates PASS (%.1fs this session; a cold "
                  "subprocess run is exercised in the CLI suite); tampered "
                  "run exits 1" % elapsed)


def test_acceptance_10_property_bundle(acceptance_recorder):
    rng = random.Random(107)
    ok = True
    # resolvent identity on a sample
    from perronbalance.spectral import resolvent_data
    from perronbalance.graphs import Graph
    for _ in range(20):
        n = rng.randint(2, 8)
        while True:
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.5]
            g = Graph.from_edges(n, edges)
            if g.is_connected():
                break
        ok &= resolvent_identity_holds(resolvent_data(g), adjacency_rows(g))
    # ratio bounds on every graph up to 6 vertices
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            gv = gamma_enclosure(g, Fraction(1, 10 ** 6))
            lam = lambda_enclosure(g, Fraction(1, 2 ** 30))
            ok &= gv.hi - 1 >= lam.lo - Fraction(1, 10 ** 5)
    # cycles exact
    for n in range(3, 11):
        ok &= gamma_enclosure(cycle_graph(n)) == RationalInterval(n, n)
    # vector inequalities, quick bundle
    def gamma_vec(xs):
        s = sum(xs)
        return s * s / sum(x * x for x in xs)
    for _ in range(200):
        k = rng.randint(2, 6)
        x1 = [Fraction(rng.randint(1, 30), rng.randint(1, 6)) for _ in range(k)]
        x2 = [Fraction(rng.randint(1, 30), rng.randint(1, 6)) for _ in range(k)]
        a = Fraction(rng.randint(1, 9), 10)
        mix = [a * p + (1 - a) * q for p, q in zip(x1, x2)]
        ok &= gamma_vec(mix) >= min(gamma_vec(x1), gamma_vec(x2))
    # reconstruction residual on one instance
    g = attach_path(complete_graph(4), 0, 3)
    pd = perron_enclosure(g, Fraction(1, 10 ** 8))
    ok &= residual_contains_zero(pd, g)
    # eigenvalue sandwich
    ok &= lambda_sandwich_audit(complete_graph(4), 0, 3)
    ok &= lambda_sandwich_audit(star_graph(5), 0, 5)
    acceptance_recorder(10, ok, "property bundle (resolvent identity, ratio bounds, "
                   "exact cycles, vector inequalities, reconstruction, sandwich); "
                   "full suites run in the module tests")


