"""Stage drivers: the kernel sweeps, two-step verification, elimination,
branch checks, structural closure, and certificate assembly."""

import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from perronbalance import reports
from perronbalance.cli import main
from perronbalance.algebra import RationalInterval
from perronbalance.bounds import mask_vertices, pair_check_info
from perronbalance.graphs import (
    RootedKernel,
    active_vertices,
    attach_path,
    canonical_relabel,
    complete_graph,
    diamond_graph,
    enumerate_graph_kernels,
    enumerate_tree_kernels,
    parse_graph6,
    star_graph,
    write_graph6,
)
from perronbalance.kernels import (
    BETA_GRAPH_STAGE,
    active_vertex_elimination,
    beta_star_upper,
    beta_tr_upper,
    branch_point_check,
    clique_boundary_closure,
    conjectured_graph_kernel,
    conjectured_tree_kernel,
    exceptional_graph_kernels,
    graph_kernel_stage,
    lambda_le_2_link,
    degree_gate_link,
    prove_conjecture,
    special_tree_kernels,
    star_link,
    guard_link,
    table_minimum_certified,
    tree_kernel_stage,
    two_step_verify,
)
from perronbalance.spectral import BETA_STAR, BETA_TR, min_gamma_table


def canon6(g):
    return write_graph6(canonical_relabel(g))


# -- graph stage -----------------------------------------------------------------

def test_graph_stage_partition(graph_stage):
    counts = graph_stage.classification_counts()
    assert counts == {"direct": 150, "exceptional": 4, "survivor": 1}
    assert graph_stage.kernel_count == 155


def test_graph_stage_survivor_identity(graph_stage):
    assert graph_stage.survivors == (conjectured_graph_kernel().id_string(),)


def test_graph_stage_exceptional_identity(graph_stage):
    got = sorted(o.kernel_id for o in graph_stage.outcomes
                 if o.classification == "exceptional")
    want = sorted(k.id_string() for k in exceptional_graph_kernels())
    assert got == want


def test_graph_stage_leftovers(graph_stage):
    info = {l.graph6: l for l in graph_stage.leftovers}
    assert len(info) == 3
    d = diamond_graph()
    k3p4 = canon6(attach_path(complete_graph(3), 0, 4))
    dsp3 = canon6(attach_path(d, 0, 3))
    dtp3 = canon6(attach_path(d, 1, 3))
    mids = {k3p4: 5.28092, dsp3: 5.180545, dtp3: 5.287096}
    belows = {k3p4: False, dsp3: True, dtp3: False}
    for g6, want in mids.items():
        l = info[g6]
        assert abs(float((l.gamma_lo + l.gamma_hi) / 2) - want) < 1e-4
        assert l.below_beta == belows[g6]
        assert not l.below_limit


def test_graph_stage_deterministic_rerun(graph_stage):
    # passing the kernels bypasses the stage cache, so the sweep runs again
    again = graph_kernel_stage(kernels=enumerate_graph_kernels())
    assert again is not graph_stage
    assert _strip_time(again.to_json_dict()) == _strip_time(graph_stage.to_json_dict())


def test_graph_stage_keeps_only_cascade_verdicts():
    """The reports of a stage, two-step reports included, keep no verdict
    for a pair the packed test settled."""
    before = pair_check_info()["cascade"]
    stage = graph_kernel_stage(kernels=enumerate_graph_kernels())
    cascade = pair_check_info()["cascade"] - before
    reps = [o.report for o in stage.outcomes]
    reps += [r for o in stage.outcomes if o.two_step is not None
             for r in (o.two_step.step1, o.two_step.step2)]
    assert 0 < sum(len(r.verdicts) for r in reps) <= cascade


def test_tree_stage_deterministic_rerun(tree_stage):
    again = tree_kernel_stage(kernels=enumerate_tree_kernels())
    assert again is not tree_stage
    assert _strip_time(again.to_json_dict()) == _strip_time(tree_stage.to_json_dict())


@pytest.mark.parametrize("default_first", [True, False])
def test_stage_cache_hit_keeps_the_callers_beta_note(monkeypatch, default_first):
    # the default tree target and the same Fraction passed explicitly share
    # one cached sweep, whichever runs first, but each keeps its own note
    from perronbalance import kernels
    monkeypatch.setattr(kernels, "_STAGE_CACHE", {})
    few = enumerate_tree_kernels()[:3]
    monkeypatch.setattr(kernels, "enumerate_tree_kernels", lambda: few)
    calls = [("default", lambda: tree_kernel_stage()),
             ("explicit", lambda: tree_kernel_stage(beta_tr_upper()))]
    if not default_first:
        calls.reverse()
    got = {name: call() for name, call in calls}
    assert len(kernels._STAGE_CACHE) == 1
    assert got["default"].beta == got["explicit"].beta
    assert got["default"].beta_note.startswith("certified rational upper bound")
    assert got["explicit"].beta_note == "exact rational stage target"
    assert got["default"].outcomes is got["explicit"].outcomes


def _strip_time(d):
    d = dict(d)
    d.pop("elapsed_seconds", None)
    return d


def test_graph_stage_order_invariant(graph_stage):
    rng = random.Random(101)
    kernels = list(enumerate_graph_kernels())
    rng.shuffle(kernels)
    shuffled = graph_kernel_stage(kernels=kernels)
    assert set(shuffled.survivors) == set(graph_stage.survivors)
    assert shuffled.classification_counts() == graph_stage.classification_counts()


def test_graph_stage_outcome_partition_exhaustive(graph_stage):
    ids = [o.kernel_id for o in graph_stage.outcomes]
    assert len(ids) == len(set(ids)) == 155
    assert all(o.classification in ("direct", "exceptional", "survivor")
               for o in graph_stage.outcomes)


def test_direct_pass_monotone_in_beta(graph_stage):
    rng = random.Random(103)
    direct_ids = {o.kernel_id for o in graph_stage.outcomes
                  if o.classification == "direct"}
    sample = rng.sample(sorted(direct_ids), 10)
    lowered = graph_kernel_stage(Fraction(5), kernels=[
        k for k in enumerate_graph_kernels() if k.id_string() in sample])
    assert all(o.classification == "direct" for o in lowered.outcomes)


def test_two_step_examples():
    d = diamond_graph()
    cases = [
        (RootedKernel(attach_path(complete_graph(3), 0, 3), 0), 5,
         canon6(attach_path(complete_graph(3), 0, 4)), False),
        (RootedKernel(attach_path(d, 0, 2), 0), 5,
         canon6(attach_path(d, 0, 3)), True),
        (RootedKernel(attach_path(d, 1, 2), 1), 5,
         canon6(attach_path(d, 1, 3)), False),
    ]
    for kernel, leaf, leftover6, below in cases:
        out = two_step_verify(kernel, leaf, BETA_GRAPH_STAGE)
        assert out.passed
        assert out.leftover.graph6 == leftover6
        assert out.leftover.below_beta == below
    with pytest.raises(ValueError):
        two_step_verify(cases[0][0], 0, BETA_GRAPH_STAGE)


def test_tampered_stage_many_survivors():
    stage = graph_kernel_stage(Fraction(6), stop_on_failure=True)
    assert len(stage.survivors) > 1


# -- tree stage ---------------------------------------------------------------------

def test_tree_stage_partition(tree_stage):
    counts = tree_stage.classification_counts()
    assert counts["direct"] == 191
    assert counts["survivor"] == 1
    assert counts["exceptional"] == 2
    assert tree_stage.kernel_count == 194


def test_tree_stage_survivor(tree_stage):
    assert tree_stage.survivors == (conjectured_tree_kernel().id_string(),)


def test_tree_stage_special_kernels(tree_stage):
    special = {o.kernel_id for o in tree_stage.outcomes
               if o.classification != "direct"}
    want = {k.id_string() for k in special_tree_kernels()}
    assert special == want


def test_tree_stage_exceptions(tree_stage):
    got = sorted(l.graph6 for l in tree_stage.leftovers if l.below_limit)
    want = sorted(canon6(attach_path(star_graph(6), 0, k)) for k in (5, 6, 7))
    assert got == want
    mids = sorted(round(float((l.gamma_lo + l.gamma_hi) / 2), 4)
                  for l in tree_stage.leftovers if l.below_limit)
    assert mids == [7.3371, 7.4158, 7.4571]


def test_tree_stage_chain_reaches_13_vertices(tree_stage):
    # the chain through the 6-star kernels processes trees up to the
    # 13-vertex member, which is the last one below the limit ratio
    largest = 0
    largest_below = None
    for o in tree_stage.outcomes:
        if o.elimination is None:
            continue
        for x in o.elimination.examined:
            n = parse_graph6(x.graph6).n
            largest = max(largest, n)
            if x.below_limit:
                if largest_below is None or n > parse_graph6(largest_below).n:
                    largest_below = x.graph6
    assert largest >= 13
    assert largest_below == canon6(attach_path(star_graph(6), 0, 7))


def test_tree_stage_beta_is_certified_upper_bound(tree_stage):
    assert tree_stage.beta > 0
    assert (BETA_TR - tree_stage.beta).sign() < 0       # beta above the limit
    assert tree_stage.beta - BETA_TR.enclosure(Fraction(1, 2 ** 70)).lo \
        < Fraction(1, 2 ** 55)


def test_elimination_case1():
    kernel = RootedKernel(attach_path(attach_path(star_graph(4), 0, 2), 0, 4), 0)
    va = active_vertices(kernel, "tree").vertices
    remaining, examined = active_vertex_elimination(kernel, va, beta_tr_upper())
    assert remaining == frozenset()
    assert len(examined) == 2
    from perronbalance.spectral import GammaEnclosure, certified_below
    for g in examined:
        assert not certified_below(GammaEnclosure(g).refine, BETA_TR)


def test_elimination_case2_first_step():
    kernel = RootedKernel(attach_path(star_graph(6), 0, 4), 0)
    va = active_vertices(kernel, "tree").vertices
    remaining, examined = active_vertex_elimination(kernel, va, beta_tr_upper())
    # the endpoint of the pendant path resists elimination
    assert len(remaining) == 1
    (u,) = remaining
    assert kernel.graph.degree(u) == 1


def test_elimination_case3_survivor_shape():
    kernel = conjectured_tree_kernel()
    va = active_vertices(kernel, "tree").vertices
    remaining, examined = active_vertex_elimination(kernel, va, beta_tr_upper())
    assert remaining          # never empties: the kernel survives


# -- worker processes ----------------------------------------------------------------
# kernels= is passed explicitly: the stage cache is keyed on (beta, mode), not
# on jobs, so a full-enumeration rerun would return the first report.

def _stage_doc(report) -> dict:
    doc = reports.stage_json(report)
    del doc["generated_at"], doc["elapsed_seconds"]
    return doc


def _direct_pair(enumerated, special) -> list:
    codes = {k.canonical() for k in special}
    return [k for k in enumerated if k.canonical() not in codes][:2]


def test_tree_stage_independent_of_kernel_labels(tree_stage):
    # the kernels that go through elimination, randomly relabelled, give the
    # stage JSON of their enumerated representatives: examined trees and
    # leftovers come in the same order whatever the vertex labels
    ids = {o.kernel_id for o in tree_stage.outcomes if o.classification != "direct"}
    special = [k for k in enumerate_tree_kernels() if k.id_string() in ids]
    assert len(special) == 3
    want = _stage_doc(tree_kernel_stage(kernels=special))
    for seed in range(4):
        rng = random.Random(seed)
        moved = []
        for k in special:
            perm = list(range(k.graph.n))
            rng.shuffle(perm)
            moved.append(RootedKernel(k.graph.relabel(perm), perm[k.root]))
        assert _stage_doc(tree_kernel_stage(kernels=moved)) == want, seed


def test_graph_stage_jobs_parity():
    special = exceptional_graph_kernels() + (conjectured_graph_kernel(),)
    kernels = list(special) + _direct_pair(enumerate_graph_kernels(), special)
    one = graph_kernel_stage(kernels=kernels, jobs=1)
    two = graph_kernel_stage(kernels=kernels, jobs=2)
    assert one.classification_counts() == {"direct": 2, "exceptional": 4,
                                           "survivor": 1}
    assert _stage_doc(two) == _stage_doc(one)


def test_map_kernels_caps_workers(monkeypatch):
    # a fake pool records max_workers and maps serially; no process starts
    from perronbalance import kernels
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(kernels, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(kernels.os, "cpu_count", lambda: 4)
    want = [str(i) for i in range(10)]
    assert kernels._map_kernels(str, range(10), 10 ** 6) == want
    assert kernels._map_kernels(str, range(3), 10 ** 6) == want[:3]
    assert kernels._map_kernels(str, range(10), 2) == want
    assert started == [4, 3, 2]
    # one kernel, or an unknown CPU count, runs serially without a pool
    assert kernels._map_kernels(str, range(1), 10 ** 6) == want[:1]
    monkeypatch.setattr(kernels.os, "cpu_count", lambda: None)
    assert kernels._map_kernels(str, range(10), 10 ** 6) == want
    assert started == [4, 3, 2]


def test_tree_stage_jobs_parity():
    special = special_tree_kernels()
    kernels = list(special) + _direct_pair(enumerate_tree_kernels(), special)
    one = tree_kernel_stage(kernels=kernels, jobs=1)
    two = tree_kernel_stage(kernels=kernels, jobs=2)
    assert one.classification_counts() == {"direct": 2, "exceptional": 2,
                                           "survivor": 1}
    assert _stage_doc(two) == _stage_doc(one)


# -- branch checks ---------------------------------------------------------------------

def test_branch_checks_clique():
    for ell in (1, 2):
        reps = branch_point_check("K4", ell)
        assert len(reps) == 2         # with and without the extra edge
        assert all(r.passed for r in reps)
    with pytest.raises(ValueError):
        branch_point_check("K4", 3)


def test_branch_checks_star():
    reps = branch_point_check("S5", 4)
    assert len(reps) == 1 and reps[0].passed
    assert len(reps[0].family) == 3   # singletons only
    with pytest.raises(ValueError):
        branch_point_check("S5", 3)
    with pytest.raises(ValueError):
        branch_point_check("S5", 8)


def test_branch_check_beta_above_limits():
    assert (BETA_STAR - beta_star_upper()).sign() < 0
    assert (BETA_TR - beta_tr_upper()).sign() < 0


# -- structural closure -------------------------------------------------------------------

def test_clique_boundary_closure():
    (dominated, checked), sound = clique_boundary_closure()
    assert sound
    assert dominated + checked == 30


# -- dispatch links -------------------------------------------------------------------------

def test_lambda_le_2_links():
    assert lambda_le_2_link("graphs").passed
    assert lambda_le_2_link("trees").passed


def test_degree_gate_link():
    assert degree_gate_link().passed


def test_star_and_guard_links():
    assert star_link().passed
    assert guard_link().passed


# -- certificates ------------------------------------------------------------------------------

def test_table_minimum_certified():
    rows, _ = min_gamma_table(6, "graph", BETA_STAR)
    assert table_minimum_certified(rows)
    # the second row's enclosure widened down to the first row's upper end
    first, second = rows[0], rows[1]
    top = first.gamma.hi
    assert second.gamma.lo > top
    touching = replace(second, gamma=RationalInterval(top, second.gamma.hi))
    assert not table_minimum_certified((first, touching) + rows[2:])
    # an overlap further down the table fails the check as well
    overlap = replace(rows[-1], gamma=RationalInterval(first.gamma.mid,
                                                       rows[-1].gamma.hi))
    assert not table_minimum_certified(rows[:-1] + (overlap,))


def _proof_digest(cert) -> str:
    """sha256 of the proof JSON without its two timing-dependent fields.
    A change that alters proof bytes on purpose updates the pins below and
    says why in CHANGES.md."""
    doc = reports.certificate_json(cert)
    del doc["generated_at"], doc["elapsed_seconds"]
    return hashlib.sha256(reports.dump_json(doc).encode()).hexdigest()


@pytest.mark.slow
def test_prove_graphs(graph_stage):
    cert = prove_conjecture("graphs")
    assert cert.passed
    assert len(cert.assumptions) == 1
    names = [l.name for l in cert.links]
    assert any("kernel sweep" in n for n in names)
    assert any("branching tail" in n for n in names)
    assert _proof_digest(cert) == (
        "1701f9e446e852a4b4c372599d991632c5fc15cf4930e164d0087aab51967a0b")


@pytest.mark.slow
def test_prove_trees(tree_stage):
    cert = prove_conjecture("trees")
    assert cert.passed
    assert _proof_digest(cert) == (
        "3bf79a6b7385acafe613752bbbdf78f04ee2537b3ae4fbe6a57f351fba03dbef")


@pytest.mark.slow
def test_prove_tamper_fails():
    cert = prove_conjecture("graphs", tamper_beta=Fraction(6))
    assert not cert.passed
    bad = [l for l in cert.links if not l.passed]
    assert len(bad) == 1 and "tamper" in bad[0].name


@pytest.mark.slow
@pytest.mark.parametrize("kind, beta, name, counts", [
    # at target 0 every kernel passes at once, so no kernel survives
    ("graphs", Fraction(0), "6-vertex kernel sweep at 0 (tampered)",
     {"direct": 155, "exceptional": 0, "survivor": 0}),
    ("trees", Fraction(15, 2), "tree kernel sweep at 15/2 (tampered)",
     {"direct": 191, "exceptional": 0, "survivor": 3}),
], ids=["graphs", "trees"])
def test_prove_tamper_runs_at_the_tampered_target(tmp_path, kind, beta, name, counts):
    rc = main(["--out", str(tmp_path), "prove", kind, "--tamper", str(beta)])
    assert rc == 1
    doc = json.loads((tmp_path / ("certificate-%s.json" % kind)).read_text())
    bad = [l for l in doc["links"] if not l["passed"]]
    assert [l["name"] for l in bad] == [name]
    assert bad[0]["details"]["counts"] == counts
    assert len(bad[0]["details"]["survivors"]) == counts["survivor"]
