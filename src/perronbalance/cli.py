"""Command-line surface for reproducible runs.

Subcommands:

  gamma         certified balance ratio and top eigenvalue of one graph
  kernel-stage  the 6-vertex graph or 10-vertex tree kernel sweep
  prove         the full chained certificate for one conjecture
  tables        extremal tables, class counts, and the degree-bound table
  curves        the two pairwise-bound comparison curves for a worked kernel

Exit codes: 0 success / certificate PASS, 1 proof FAIL or unmet
expectations, 2 input error, 3 arithmetic error (for instance a comparison
left undecided at maximal refinement).  Named targets beta-star and beta-tr
resolve to certified algebraic enclosures of the limit ratios, never to
decimals.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import bounds, kernels, reports, spectral
from .graphs import (
    Graph,
    Graph6Error,
    RootedKernel,
    attach_path,
    complete_graph,
    parse_edge_list,
    parse_graph6,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_ARITHMETIC = 3

DECIMAL_PLACES = 20


def _parse_beta(text: str):
    """A beta argument: an exact fraction, or a named limiting constant.

    Decimal literals are rejected so an approximation can never silently
    stand in for an algebraic target.
    """
    if text == "beta-star":
        return kernels.beta_star_upper()
    if text == "beta-tr":
        return kernels.beta_tr_upper()
    if "." in text:
        raise argparse.ArgumentTypeError(
            "decimal targets are not accepted; use an exact fraction like "
            "21/4, or beta-star/beta-tr")
    try:
        return Fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            "beta must be an exact fraction like 21/4, or beta-star/beta-tr"
        ) from exc


def _parse_eps(text: str) -> Fraction:
    try:
        f = Fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("eps must be an exact fraction") from exc
    if f <= 0:
        raise argparse.ArgumentTypeError("eps must be positive")
    return f


def _read_graph(spec: str) -> Graph:
    if ";" in spec:
        return parse_edge_list(spec)
    p = Path(spec)
    if p.exists():
        text = p.read_text().strip().splitlines()[0].strip()
        return _read_graph(text)
    return parse_graph6(spec)


def _interval_text(iv) -> str:
    """Exact endpoints for a point enclosure; otherwise decimals rounded
    outward, so the printed interval still contains the exact one."""
    if iv.width == 0:
        return "[%s, %s]" % (iv.lo, iv.hi)
    scale = 10 ** DECIMAL_PLACES
    ends = []
    for num in (math.floor(iv.lo * scale), math.ceil(iv.hi * scale)):
        whole, frac = divmod(abs(num), scale)
        ends.append("%s%d.%0*d" % ("-" if num < 0 else "", whole,
                                   DECIMAL_PLACES, frac))
    return "[%s, %s]" % tuple(ends)


def _write_out(args, name: str, text: str) -> Path:
    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text)
    return path


def cmd_gamma(args) -> int:
    try:
        g = _read_graph(args.graph)
    except (Graph6Error, ValueError, OSError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    if not g.is_connected():
        print("input error: graph is disconnected", file=sys.stderr)
        return EXIT_INPUT
    lam = spectral.lambda_enclosure(g, args.eps)
    gv = spectral.gamma_enclosure(g, args.eps)
    print("graph6   %s" % args.graph if ";" not in args.graph else "")
    print("lambda   [%s, %s]" % (lam.lo, lam.hi))
    print("lambda ~ %.10f" % lam.mid_float())
    print("gamma    %s" % _interval_text(gv.value))
    print("gamma  ~ %.10f" % gv.midpoint())
    if args.format == "json" or args.out:
        from .graphs import write_graph6
        doc = reports.gamma_json(write_graph6(g), lam, gv)
        text = reports.dump_json(doc)
        if args.out:
            path = _write_out(args, "gamma.json", text)
            print("wrote %s" % path)
        elif args.format == "json":
            print(text, end="")
    return EXIT_OK


def _check_expectations(report, expect: str) -> bool:
    counts = report.classification_counts()
    mapping = {
        "direct": counts["direct"],
        "exceptional": counts["exceptional"],
        "survivors": len(report.survivors),
        "kernels": report.kernel_count,
    }
    for item in expect.split(","):
        key, _, val = item.partition("=")
        key = key.strip()
        if key not in mapping:
            raise ValueError("unknown expectation %r" % key)
        if mapping[key] != int(val):
            return False
    return True


def cmd_kernel_stage(args) -> int:
    beta = args.beta
    if args.kind == "graphs":
        report = kernels.graph_kernel_stage(
            beta if beta is not None else kernels.BETA_GRAPH_STAGE,
            jobs=args.jobs)
    else:
        report = kernels.tree_kernel_stage(beta, jobs=args.jobs)
    doc = reports.stage_json(report)
    _write_out(args, "stage-%s.json" % args.kind, reports.dump_json(doc))
    path = _write_out(args, "stage-%s.md" % args.kind,
                      reports.stage_markdown(report))
    counts = report.classification_counts()
    print("kernels %d | direct %d | refined %d | survivors %d"
          % (report.kernel_count, counts["direct"], counts["exceptional"],
             counts["survivor"]))
    print("wrote %s" % path)
    if args.expect:
        try:
            ok = _check_expectations(report, args.expect)
        except ValueError as exc:
            print("input error: %s" % exc, file=sys.stderr)
            return EXIT_INPUT
        if not ok:
            print("expectations not met", file=sys.stderr)
            return EXIT_FAIL
    return EXIT_OK


def cmd_prove(args) -> int:
    tamper = args.tamper
    cert = kernels.prove_conjecture(args.kind, tamper_beta=tamper,
                                    jobs=args.jobs)
    doc = reports.certificate_json(cert)
    _write_out(args, "certificate-%s.json" % args.kind, reports.dump_json(doc))
    path = _write_out(args, "certificate-%s.md" % args.kind,
                      reports.certificate_markdown(cert))
    for l in cert.links:
        print("%s  %s" % ("PASS" if l.passed else "FAIL", l.name))
    print("overall: %s (%.1f s)" % ("PASS" if cert.passed else "FAIL",
                                    cert.elapsed_seconds))
    print("wrote %s" % path)
    return EXIT_OK if cert.passed else EXIT_FAIL


def cmd_tables(args) -> int:
    out = []
    small_rows, _ = spectral.min_gamma_table(
        min(args.n, 6), "graph", spectral.BETA_STAR, eps=args.eps)
    if args.format == "csv":
        out.append(("small-graphs.csv", reports.table_csv(small_rows)))
    else:
        out.append(("small-graphs.md", reports.table_markdown(small_rows)))
    counts = {}
    for n in range(3, 8):
        rows, below = spectral.min_gamma_table(n, "graph", spectral.BETA_STAR)
        counts[("graph", n)] = (len(rows), below)
    for n in range(3, args.tree_cap + 1):
        rows, below = spectral.min_gamma_table(n, "tree", spectral.BETA_TR)
        counts[("tree", n)] = (len(rows), below)
    out.append(("counts.csv", reports.counts_csv(counts)))
    bvals = {d: spectral.beta_d(d) for d in range(3, 13)}
    out.append(("degree-bounds.csv", reports.beta_d_csv(bvals)))
    for name, text in out:
        path = _write_out(args, name, text)
        print("wrote %s" % path)
    return EXIT_OK


def cmd_curves(args) -> int:
    k3p3 = attach_path(complete_graph(3), 0, 3)
    ctx = bounds.KernelContext(RootedKernel(k3p3, 0))
    u3 = 1 << 5
    rows = bounds.bound_curves(ctx, u3, Fraction(args.lo), Fraction(args.hi),
                               args.samples)
    path = _write_out(args, "bound-curves.csv", reports.curves_csv(rows))
    print("wrote %s" % path)
    from .tails import TailContext, j_hat_samples
    tctx = TailContext(complete_graph(4), 0)
    trows = j_hat_samples(tctx, Fraction(2), Fraction(3), args.samples)
    text = "t,profile_ratio\n" + "".join(
        "%.9f,%.9f\n" % r for r in trows)
    path = _write_out(args, "profile-curve.csv", text)
    print("wrote %s" % path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="perronbalance",
        description="certified extremal analysis of the Perron-vector "
                    "balance ratio")
    ap.add_argument("--jobs", type=int, default=1,
                    help="worker processes for kernel sweeps")
    ap.add_argument("--out", help="output directory for artifacts")
    ap.add_argument("--format", choices=("json", "csv", "md"), default="md")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gamma", help="certified ratio of one graph")
    g.add_argument("graph", help="graph6 string, 'n; u-v, ...' edge list, "
                                 "or a file containing one")
    g.add_argument("--eps", type=_parse_eps, default=Fraction(1, 10 ** 8))
    g.set_defaults(func=cmd_gamma)

    ks = sub.add_parser("kernel-stage", help="run one kernel sweep")
    ks.add_argument("kind", choices=("graphs", "trees"))
    ks.add_argument("--beta", type=_parse_beta, default=None,
                    help="exact fraction, beta-star, or beta-tr")
    ks.add_argument("--expect",
                    help="comma list like direct=150,survivors=1")
    ks.set_defaults(func=cmd_kernel_stage)

    pv = sub.add_parser("prove", help="assemble a full certificate")
    pv.add_argument("kind", choices=("graphs", "trees"))
    pv.add_argument("--tamper", type=_parse_beta, default=None,
                    help="rerun the kernel sweep at this target to "
                         "demonstrate failure detection")
    pv.set_defaults(func=cmd_prove)

    tb = sub.add_parser("tables", help="emit extremal tables")
    tb.add_argument("--n", type=int, default=6)
    tb.add_argument("--tree-cap", type=int, default=10)
    tb.add_argument("--eps", type=_parse_eps, default=Fraction(1, 10 ** 6))
    tb.set_defaults(func=cmd_tables)

    cv = sub.add_parser("curves", help="emit bound-comparison curve data")
    cv.add_argument("--lo", default="2.24")
    cv.add_argument("--hi", default="2.75")
    cv.add_argument("--samples", type=int, default=120)
    cv.set_defaults(func=cmd_curves)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the input-error code
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (Graph6Error, ValueError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except ArithmeticError as exc:
        print("arithmetic error: %s" % exc, file=sys.stderr)
        return EXIT_ARITHMETIC


if __name__ == "__main__":
    sys.exit(main())
