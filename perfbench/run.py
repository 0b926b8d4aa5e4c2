"""Cold-run benchmark of the perronbalance proof checker.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (all single-process, closed loop, jobs=1):

  graph-proof  cold ``perronbalance --out DIR prove graphs`` via cli.main;
               pair checks in ``bounds`` dominate, plus the n=6,7 tables.
  tree-tables  ``min_gamma_table(n, "tree", BETA_TR)`` for n = 8..12;
               the enclosure path (spectral, root isolation) almost alone.
  tree-links   the tree certificate links apart from the tables: tree kernel
               stage, S5 branch points, both tail certificates and the
               lambda<=2, star and guard links; Sturm counting in ``tails``.

Every repetition is a fresh interpreter (``worker.py``), because the package
memoises whole results in-process.  There is at least one repetition, and
more while they fit in ``--seconds``; each metric is the median over them.

Seconds are reference seconds (``probe.py``): the wall time the worker would
have taken at a fixed reference speed of its vCPU, measured by probes that
interrupt the worker while it runs.  On a shared host the speed of a vCPU
swings by up to 2x from one second to the next, and plain wall seconds of
the same code spread by +-30% between runs; reference seconds spread by a
few percent.  The plain figures are in the record line as ``raw_*``.

``--trace 0`` prints the end-to-end metrics: wall_s (first call into the
package to a checked verdict), setup_s (spawn to package imported and inputs
built; extra set-up-only spawns give a median over several samples) and
peak_rss_mb (worker maximum resident set).  The plain wall and CPU seconds
(user+system, children included) are recorded, not reported as metrics.

``--trace 1`` makes untraced repetitions (at least one), then two traced
ones with span wrappers around each layer (see ``tracer.py``), and prints
per-layer metrics: calls, self and total reference seconds per layer function, pair
verdicts by kind, cache hit ratios, refinement rounds, the largest
characteristic polynomial coefficient, the tracing overhead and the
failed-check fraction.
The two traced runs must agree on every call and verdict count, and every
layer function must be called on the workloads it is tied to.

The last line of output is the result object; the line before it records the
seed, git revision, interpreter, CPU and the sha256 of the normalised proof
output.  Records and the spans of the last traced run go to
``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKER = HERE / "worker.py"

WORKLOADS = ("graph-proof", "tree-tables", "tree-links")
SETUPS_PER_REP = 4          # set-up-only spawns before each repetition
RUN_BUDGET_S = 150.0        # never start a repetition that would end past this
WORKER_TIMEOUT_S = 170.0

# Traced span names: the stats reported for each, and the workloads on which
# it must have calls (a wrapper that misses a rebinding would report zeros).
# What each layer should move:
#   graphs    wall_s on tree-tables (one relabel per row) and graph-proof
#   algebra   wall_s on tree-links (Sturm) and tree-tables (isolation)
#   spectral  wall_s on tree-tables, partly graph-proof; caches: peak_rss_mb
#   bounds    wall_s on graph-proof, partly tree-links; none on tree-tables
#   tails     wall_s on tree-links
#   kernels   per-link wall times
#   reports, cli   graph-proof only, expected flat
# Nothing waits on a queue or lock with jobs=1, so no wait metrics.
GP, TT, TL = "graph-proof", "tree-tables", "tree-links"
LAYERS = {
    "graphs.canonical_form": (("calls", "self_s"), (GP, TT)),
    "graphs.canonical_relabel": (("calls", "self_s"), (GP, TT)),
    "graphs.enumerate_trees": (("total_s",), (TT,)),
    "graphs.enumerate_connected_graphs": (("total_s",), (GP,)),
    "graphs.enumerate_graph_kernels": (("total_s",), (GP,)),
    "graphs.enumerate_tree_kernels": (("total_s",), (TL,)),
    "algebra.isolate_largest_root": (("calls", "self_s"), (GP, TT)),
    "algebra.refine_root": (("calls", "self_s"), (GP, TT)),
    "algebra.count_roots_above": (("calls", "self_s"), (GP, TL)),
    "algebra.sturm_count": (("calls", "self_s"), (TL,)),
    "spectral.resolvent_data": (("calls", "self_s"), (GP, TT)),
    "spectral.lambda_enclosure": (("calls",), (GP, TT)),
    "spectral.gamma_enclosure": (("calls", "self_s"), (GP, TT)),
    "spectral.power_hint": (("calls", "self_s"), (GP, TT)),
    "spectral.certified_below": (("calls", "self_s"), (GP, TT)),
    "spectral.min_gamma_table.n6": (("total_s",), (GP,)),
    "spectral.min_gamma_table.n7": (("total_s",), (GP,)),
    "spectral.min_gamma_table.n8": (("total_s",), (TT,)),
    "spectral.min_gamma_table.n9": (("total_s",), (TT,)),
    "spectral.min_gamma_table.n10": (("total_s",), (TT,)),
    "spectral.min_gamma_table.n11": (("total_s",), (TT,)),
    "spectral.min_gamma_table.n12": (("total_s",), (TT,)),
    "bounds.check_pair": (("calls", "self_s"), (GP, TL)),
    "bounds.KernelContext.q_poly": (("self_s",), (GP, TL)),
    "bounds.KernelContext.c_poly": (("self_s",), (GP, TL)),
    "bounds.KernelContext.lambda_U": (("calls", "self_s"), (GP, TL)),
    "bounds.verify_extension": (("calls", "total_s"), (GP, TL)),
    "tails.check_gamma_upper": (("self_s", "total_s"), (TL,)),
    "tails.check_gamma_lower": (("total_s",), (TL,)),
    "tails.TailContext.init": (("total_s",), (TL,)),
    "kernels.graph_kernel_stage": (("total_s",), (GP,)),
    "kernels.tree_kernel_stage": (("total_s",), (TL,)),
    "kernels.two_step_verify": (("total_s",), (GP,)),
    "kernels.active_vertex_elimination": (("total_s",), (TL,)),
    "kernels.branch_point_check": (("total_s",), (GP, TL)),
    "kernels.lambda_le_2_link": (("total_s",), (GP, TL)),
    "reports.certificate_json": (("total_s",), (GP,)),
    "reports.dump_json": (("total_s",), (GP,)),
    "reports.certificate_markdown": (("total_s",), (GP,)),
    "cli.main": (("total_s",), (GP,)),
}
STAT_UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, spans: Path | None = None) -> dict:
    """Run one worker process; return its report with setup_s added."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker %s/%s exited %d: %s"
                         % (workload, mode, proc.returncode, proc.stderr.strip()[-2000:]))
    report = json.loads(lines[-1])
    report["raw_setup_s"] = report["ready"] - started
    report["setup_s"] = report["raw_setup_s"] * report["setup_speed"]
    return report


def repetitions(workload: str, seed: int, seconds: float, t_start: float) -> tuple:
    """Untraced cold repetitions: one, then more while the next one is
    expected to end within `seconds`.  Set-up-only spawns sit between
    repetitions, so set-up samples span the whole run.

    Returns (reports, set-up reports)."""
    reps, setups = [], []
    t0 = time.monotonic()
    while True:
        setups += [spawn(workload, seed, "setup") for _ in range(SETUPS_PER_REP)]
        reps.append(spawn(workload, seed, "run"))
        setups.append(reps[-1])
        now = time.monotonic()
        per_rep = (now - t0) / len(reps)
        if now - t_start + per_rep > RUN_BUDGET_S or now - t0 + per_rep > seconds:
            return reps, setups


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=30).stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain",
                                     "--untracked-files=no"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"seed": seed, "git_sha": sha, "dirty": dirty,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu}


def end_to_end(reps: list, setups: list) -> dict:
    med = lambda key: statistics.median(r[key] for r in reps)
    return {
        "wall_s": {"value": med("wall_s"), "unit": "s"},
        "setup_s": {"value": statistics.median(r["setup_s"] for r in setups),
                    "unit": "s"},
        "peak_rss_mb": {"value": med("peak_rss_mb"), "unit": "MB"},
    }


def count_signature(layers: dict) -> dict:
    return {"calls": layers["calls"], "verdicts": layers["verdicts"],
            "refine_rounds": layers["refine_rounds"],
            "table_rows": layers["table_rows"]}


def per_layer(workload: str, traced: list, untraced_wall: float,
              attempted: int, failed: int) -> tuple:
    """Per-layer metrics from two traced runs, plus the problems found."""
    problems = []
    first, second = (t["layers"] for t in traced)
    if count_signature(first) != count_signature(second):
        problems.append("call or verdict counts differ between traced runs")
    for r in traced:
        if r.get("missing_spans"):
            problems.append("functions not found: %s" % ", ".join(r["missing_spans"]))
    calls = first["calls"]
    for name, (_, homes) in LAYERS.items():
        if workload in homes and not calls.get(name):
            problems.append("%s has no calls on %s" % (name, workload))

    def stat(name, key):
        return statistics.median(t["layers"][key].get(name, 0) for t in traced)

    m = {}
    for name, (stats, _) in LAYERS.items():
        for key in stats:
            m["%s.%s" % (name, key)] = {"value": stat(name, key), "unit": STAT_UNITS[key]}
    verdicts = first["verdicts"]
    for kind in ("coefficients", "sturm", "fail"):
        m["bounds.check_pair.%s" % kind] = {"value": verdicts.get(kind, 0), "unit": "count"}
    rows = first["table_rows"]
    m["spectral.gamma_enclosure.calls_per_row"] = {
        "value": calls.get("spectral.gamma_enclosure", 0) / rows if rows else 0.0,
        "unit": "calls/row"}
    m["spectral.certified_below.refine_rounds"] = {"value": first["refine_rounds"],
                                                   "unit": "count"}
    m["spectral.resolvent_data.hit_ratio"] = {"value": first["resolvent_hit_ratio"],
                                              "unit": "ratio"}
    m["algebra.sturm_chain.hit_ratio"] = {"value": first["sturm_chain_hit_ratio"],
                                          "unit": "ratio"}
    m["algebra.max_coeff_bits"] = {"value": first["max_coeff_bits"], "unit": "bits"}
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    m["trace_overhead_frac"] = {"value": traced_wall / untraced_wall - 1.0,
                                "unit": "fraction"}
    m["fail_frac"] = {"value": failed / attempted, "unit": "fraction"}
    return m, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "perronbalance" / "__init__.py").is_file():
        print("no perronbalance sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    t_start = time.monotonic()
    OUT.mkdir(exist_ok=True)
    try:
        spawn(args.workload, args.seed, "setup")      # compile bytecode, untimed
        traced = []
        if args.trace:
            # the untraced repetitions sit between the two traced ones, so a
            # drift in machine speed biases the overhead estimate less
            spans = OUT / ("spans-%s.json" % args.workload)
            traced.append(spawn(args.workload, args.seed, "trace", spans))
        reps, setups = repetitions(args.workload, args.seed, args.seconds, t_start)
        if args.trace:
            traced.append(spawn(args.workload, args.seed, "trace"))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    checks = [c for r in reps + traced for c in r["checks"]]
    attempted = len(checks)
    failed = sum(1 for _, ok in checks if not ok)
    problems = sorted({name for name, ok in checks if not ok})
    problems += ["exception:\n%s" % r["exception"] for r in reps + traced if "exception" in r]
    untraced_wall = statistics.median(r["wall_s"] for r in reps)
    if args.trace:
        metrics, more = per_layer(args.workload, traced, untraced_wall, attempted, failed)
        problems += more
    else:
        metrics = end_to_end(reps, setups)
    record = environment(args.seed)
    record.update({
        "workload": args.workload, "trace": args.trace,
        "repetitions": len(reps), "traced_repetitions": len(traced),
        "order": reps[0]["order"],
        "wall_s_samples": [r["wall_s"] for r in reps],
        "setup_s_samples": [r["setup_s"] for r in setups],
        "raw_wall_s_samples": [r["raw_wall_s"] for r in reps],
        "raw_cpu_s_samples": [r["raw_cpu_s"] for r in reps],
        "raw_setup_s_samples": [r["raw_setup_s"] for r in setups],
        "traced_wall_s_samples": [r["wall_s"] for r in traced],
        "digests": sorted({r.get("digest") or "none" for r in reps + traced}),
        "problems": problems,
    })
    (OUT / ("record-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
