"""One cold repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE

MODE is ``setup`` (import and build inputs, then stop), ``run`` (the timed
call with tracing off) or ``trace`` (the timed call with span wrappers
installed).  The worker prints one JSON object as its last line of output.

Times are taken on the contention-corrected clock of ``probe.py``, whose
probes run from the start of ``main`` to the end of the timed call; the
plain wall and CPU seconds are reported beside them as ``raw_*``.

The package memoises whole results in-process, so every repetition has to
be a new process: a second call in the same process would time dictionary
lookups.  Before the timed call the worker checks that those caches are
empty.

Every verdict is checked against values written down from the paper's
statements, never against a previous run.  Graphs named there are
recognised by their structure (a clique or star with a pendant path), not
by comparing program output with program output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from probe import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

WORKLOADS = ("graph-proof", "tree-tables", "tree-links")

# Paper and acceptance-criteria values.  The graph certificate chains ten
# links: the 6- and 7-vertex tables, the lambda <= 2 dispatch, the degree
# gate, the kernel sweep, the clique boundary closure, the branch points at
# distances 1 and 2, the branching tail and the extremal family.
GRAPH_PROOF_LINKS = 10
GRAPH_MIN6_BELOW = 5
GRAPH_MIN7_BELOW = 1
GRAPH_STAGE_COUNTS = {"direct": 150, "exceptional": 4, "survivor": 1}
TREE_SIZES = (8, 9, 10, 11, 12)
TREE_COUNTS = {8: 23, 9: 47, 10: 106, 11: 235, 12: 551}
TREE_BELOW = {8: 23, 9: 32, 10: 6, 11: 2, 12: 2}
TREE_STAGE_DIRECT = 191
STAR_BRANCH_DISTANCES = (4, 5, 6, 7)


# ---------------------------------------------------------------------------
# structural recognisers for the extremal graphs
# ---------------------------------------------------------------------------

def _neighbors(g, v):
    return [u for u in range(g.n) if g.adj[v] >> u & 1]


def _pendant_path_from_leaf(g):
    """Walk from the unique leaf to the first vertex of degree > 2.

    Returns (attachment vertex, path vertices) or None.
    """
    leaves = [v for v in range(g.n) if g.degree(v) == 1]
    if len(leaves) != 1:
        return None
    path, prev, cur = [], -1, leaves[0]
    while g.degree(cur) <= 2:
        path.append(cur)
        nxt = [u for u in _neighbors(g, cur) if u != prev]
        if len(nxt) != 1:
            return None
        prev, cur = cur, nxt[0]
    return cur, path


def is_clique_with_path(g, clique: int, k: int, root=None) -> bool:
    """g is K_clique with a pendant path of k >= 1 vertices at one clique
    vertex; with root given, that vertex is the root."""
    if g.n != clique + k or g.edge_count() != clique * (clique - 1) // 2 + k:
        return False
    got = _pendant_path_from_leaf(g)
    if got is None:
        return False
    attach, path = got
    if len(path) != k:
        return False
    rest = [v for v in range(g.n) if v not in path]
    if any(not g.has_edge(a, b) for a in rest for b in rest if a < b):
        return False
    return root is None or root == attach


def is_star_with_path(g, star: int, k: int, root=None) -> bool:
    """g is the star on `star` vertices with a pendant path of k >= 1
    vertices at its center; with root given, the center is the root."""
    leaves = star - 1
    if g.n != star + k or g.edge_count() != g.n - 1 or not g.is_connected():
        return False
    branch = [v for v in range(g.n) if g.degree(v) >= 3]
    if len(branch) != 1 or g.degree(branch[0]) != leaves + 1:
        return False
    center = branch[0]
    nbrs = _neighbors(g, center)
    if sum(1 for u in nbrs if g.degree(u) == 1) != leaves:
        return False
    # the one remaining neighbour starts the pendant path: g minus the
    # center's leaves is a path of k + 1 vertices ending at the center
    return (root is None or root == center) and all(
        g.degree(v) <= 2 for v in range(g.n) if v != center)


# ---------------------------------------------------------------------------
# workloads: build inputs, run, check, digest
# ---------------------------------------------------------------------------

def _normalised(obj):
    if isinstance(obj, dict):
        return {k: _normalised(v) for k, v in obj.items()
                if k not in ("generated_at", "elapsed_seconds")}
    if isinstance(obj, list):
        return [_normalised(v) for v in obj]
    return obj


def _sha256(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class GraphProof:
    """Cold ``perronbalance --out DIR prove graphs`` through ``cli.main``.

    The seed is recorded and not used: the proof input is fixed.
    """

    def __init__(self, pb, seed: int):
        self.pb = pb
        self.out = OUT / ("tmp-graph-proof-%d" % os.getpid())
        self.argv = ["--jobs", "1", "--out", str(self.out), "prove", "graphs"]
        self.order = []

    def run(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.pb.cli.main(self.argv)
        doc = json.loads((self.out / "certificate-graphs.json").read_text())
        return code, doc

    def checks(self, result):
        from perronbalance.graphs import parse_graph6
        code, doc = result
        links = {l["name"]: l for l in doc["links"]}
        table6 = links["exhaustive 6-vertex table"]["details"]
        table7 = links["exhaustive 7-vertex table"]["details"]
        stage = links["6-vertex kernel sweep at 21/4"]["details"]
        survivors = stage["survivors"]
        out = [("exit code 0", code == 0),
               ("%d links" % GRAPH_PROOF_LINKS, len(doc["links"]) == GRAPH_PROOF_LINKS),
               ("certificate passed", doc["passed"] is True)]
        out += [("PASS: %s" % l["name"], l["passed"] is True) for l in doc["links"]]
        out += [
            ("6-vertex minimum is K4+P2",
             is_clique_with_path(parse_graph6(table6["minimum"]), 4, 2)),
            ("6-vertex minimum is canonical",
             table6["minimum"] == _canonical_graph6(parse_graph6(table6["minimum"]))),
            ("6-vertex count below limit", table6["count_below_limit"] == GRAPH_MIN6_BELOW),
            ("7-vertex count below limit", table7["count_below_limit"] == GRAPH_MIN7_BELOW),
            ("stage counts 150/4/1", stage["counts"] == GRAPH_STAGE_COUNTS),
            ("survivor is the clique kernel",
             len(survivors) == 1 and is_clique_with_path(
                 parse_graph6(survivors[0]), 4, 2, root=0)),
        ]
        return out

    def digest(self, result):
        return _sha256(_normalised(result[1]))

    def close(self):
        shutil.rmtree(self.out, ignore_errors=True)


class TreeTables:
    """``min_gamma_table(n, "tree", BETA_TR)`` for n = 8..12, sizes in
    seeded order."""

    def __init__(self, pb, seed: int):
        self.pb = pb
        self.order = list(TREE_SIZES)
        random.Random(seed).shuffle(self.order)
        self.threshold = pb.spectral.BETA_TR

    def run(self):
        table = self.pb.spectral.min_gamma_table
        return {n: table(n, "tree", self.threshold) for n in self.order}

    def checks(self, result):
        from perronbalance.graphs import parse_graph6
        out = []
        for n in TREE_SIZES:
            rows, below = result[n]
            out.append(("n=%d rows" % n, len(rows) == TREE_COUNTS[n]))
            out.append(("n=%d below" % n, below == TREE_BELOW[n]))
            out.append(("n=%d first row is S5+P%d" % (n, n - 5),
                        is_star_with_path(parse_graph6(rows[0].graph6), 5, n - 5)))
            if n >= 11:
                got = [parse_graph6(r.graph6) for r in rows[:below]]
                out.append(("n=%d below rows are S5+P, S6+P" % n, len(got) == 2 and any(
                    is_star_with_path(a, 5, n - 5) and is_star_with_path(b, 6, n - 6)
                    for a, b in (got, got[::-1]))))
        return out

    def digest(self, result):
        return _sha256({str(n): [[r.graph6 for r in rows], below]
                        for n, (rows, below) in result.items()})

    def close(self):
        pass


class TreeLinks:
    """The tree certificate links apart from the exhaustive tables, in
    seeded order."""

    def __init__(self, pb, seed: int):
        self.pb = pb
        k, sp, tl, gr = pb.kernels, pb.spectral, pb.tails, pb.graphs
        s5p4 = gr.attach_path(gr.star_graph(5), 0, 4)
        s5 = gr.star_graph(5)
        self.links = {
            "tree kernel stage": lambda: k.tree_kernel_stage(jobs=1),
            "tail upper": lambda: tl.check_gamma_upper(
                tl.TailContext(s5p4, 8, o=0, exact_limit_ratio=sp.BETA_TR), 4,
                Fraction(2312, 1000), Fraction(234, 100), Fraction(3, 2)),
            "tail lower": lambda: tl.check_gamma_lower(
                tl.TailContext(s5, 0, exact_limit_ratio=sp.BETA_TR), 1),
            "lambda<=2 link": lambda: k.lambda_le_2_link("trees"),
            "star link": k.star_link,
            "guard link": k.guard_link,
        }
        for ell in STAR_BRANCH_DISTANCES:
            self.links["branch S5 %d" % ell] = (
                lambda ell=ell: k.branch_point_check("S5", ell))
        self.order = sorted(self.links)
        random.Random(seed).shuffle(self.order)

    def run(self):
        return {name: self.links[name]() for name in self.order}

    def checks(self, result):
        from perronbalance.graphs import parse_graph6
        stage = result["tree kernel stage"]
        survivors = stage.survivors
        out = [("191 direct tree kernels",
                stage.classification_counts()["direct"] == TREE_STAGE_DIRECT),
               ("survivor is the 5-star kernel",
                len(survivors) == 1 and is_star_with_path(
                    parse_graph6(survivors[0]), 5, 5, root=0))]
        for ell in STAR_BRANCH_DISTANCES:
            reps = result["branch S5 %d" % ell]
            out.append(("branch S5 at %d passes" % ell,
                        len(reps) > 0 and all(r.passed for r in reps)))
        for name in ("tail upper", "tail lower", "lambda<=2 link", "star link",
                     "guard link"):
            out.append((name + " passes", result[name].passed is True))
        return out

    def digest(self, result):
        stage = _normalised(self.pb.reports.stage_json(result["tree kernel stage"]))
        flags = {}
        for name, value in result.items():
            if name.startswith("branch"):
                flags[name] = [r.passed for r in value]
            elif name != "tree kernel stage":
                flags[name] = value.passed
        return _sha256({"stage": stage, "passed": flags})

    def close(self):
        pass


CLASSES = {"graph-proof": GraphProof, "tree-tables": TreeTables,
           "tree-links": TreeLinks}


def _canonical_graph6(g) -> str:
    from perronbalance.graphs import canonical_relabel, write_graph6
    return write_graph6(canonical_relabel(g))


def warm_caches(pb) -> list:
    """Names of the in-process result caches that are not empty."""
    warm = []
    for label, fn in (("min_gamma_table", getattr(pb.spectral, "min_gamma_table", None)),
                      ("resolvent_data", getattr(pb.spectral, "resolvent_data", None))):
        info = getattr(fn, "cache_info", None)
        if info is not None and info().currsize != 0:
            warm.append(label)
    if getattr(pb.kernels, "_STAGE_CACHE", None):
        warm.append("_STAGE_CACHE")
    return warm


def _cpu_seconds() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def layer_stats(pb, tracer, clock) -> dict:
    algebra, spectral = pb.algebra, pb.spectral

    def hit_ratio(fn):
        info = getattr(fn, "cache_info", None)
        if info is None:
            return 0.0
        i = info()
        return i.hits / (i.hits + i.misses) if i.hits + i.misses else 0.0

    rows = sum(tracer.table_rows.values())
    self_s, total_s = tracer.times(clock)
    return {
        "calls": dict(tracer.calls),
        "self_s": self_s,
        "total_s": total_s,
        "verdicts": dict(tracer.verdicts),
        "refine_rounds": tracer.refine_rounds,
        "max_coeff_bits": tracer.max_coeff_bits,
        "table_rows": rows,
        "sturm_chain_hit_ratio": hit_ratio(getattr(algebra, "_sturm_chain", None)),
        "resolvent_hit_ratio": hit_ratio(getattr(spectral, "resolvent_data", None)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spans", help="write the spans of a traced run here")
    args = ap.parse_args(argv)
    probe = SpeedProbe()
    probe.start()

    sys.path.insert(0, str(ROOT / "src"))
    import perronbalance as pb
    import perronbalance.cli  # noqa: F401  (the CLI module is not imported by the package)
    import perronbalance.reports  # noqa: F401
    workload = CLASSES[args.workload](pb, args.seed)
    warm = warm_caches(pb)
    ready = time.perf_counter()
    clock = probe.ref_clock()
    report = {"ready": time.monotonic(), "order": [str(x) for x in workload.order],
              "warm_caches": warm,
              # reference seconds per wall second from probe start to ready;
              # run.py applies it to the whole spawn-to-ready interval
              "setup_speed": (clock(ready) - clock(probe.started))
                             / (ready - probe.started)}
    if args.mode == "setup":
        probe.stop()
        print(json.dumps(report))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        report["missing_spans"] = tracer.install()
    # a cache filled before the timed call would turn the run into lookups
    checks = [("cold caches before the timed call", not warm)]
    result = None
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        result = workload.run()
    except Exception:
        checks.append(("no exception", False))
        report["exception"] = traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.uninstall()
    if result is not None:
        try:
            checks += workload.checks(result)
        except Exception:
            checks.append(("verdict checks raised", False))
            report["exception"] = traceback.format_exc()
    t1 = time.perf_counter()
    cpu = _cpu_seconds() - cpu0
    probe.stop()
    clock = probe.ref_clock()
    report.update({
        "wall_s": clock(t1) - clock(t0),
        "raw_wall_s": t1 - t0,
        "raw_cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": checks,
    })
    if tracer is not None:
        report["layers"] = layer_stats(pb, tracer, clock)
        if args.spans:
            tracer.write_spans(Path(args.spans))
    if result is not None:
        try:
            report["digest"] = workload.digest(result)
        except Exception:
            report["digest"] = None
    workload.close()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
