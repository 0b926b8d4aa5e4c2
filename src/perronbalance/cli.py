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

from . import bounds, kernels, reports, spectral, tails
from .algebra import RootEnclosure
from .graphs import (
    Graph,
    Graph6Error,
    RootedKernel,
    TREE_ENUM_CAP,
    attach_path,
    complete_graph,
    parse_edge_list,
    parse_graph6,
    write_graph6,
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
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            "beta must be an exact fraction like 21/4, or beta-star/beta-tr"
        ) from exc


def _parse_count(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError("expected a whole number >= 1")
    return int(text)


def _parse_number(text: str) -> Fraction:
    """An exact rational: a fraction like 9/4 or a decimal like 2.25.
    Fraction("1/0") raises ZeroDivisionError, which argparse would let
    through as a traceback, so it becomes a usage error here."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError("expected an exact number like 9/4 or 2.25") from exc


def _parse_eps(text: str) -> Fraction:
    f = _parse_number(text)
    if f <= 0:
        raise argparse.ArgumentTypeError("eps must be positive")
    return f


def _read_graph(spec: str) -> Graph:
    """An edge list or graph6 string, or a file whose first line is one
    (read as text, never as another file name)."""
    text = spec
    if ";" not in spec and Path(spec).exists():
        text = Path(spec).read_text().strip().partition("\n")[0].strip()
        if not text:
            raise ValueError("%s is empty" % spec)
    return parse_edge_list(text) if ";" in text else parse_graph6(text)


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
    enc = spectral.GammaEnclosure(g)
    first = RootEnclosure(enc.lam.poly, enc.lam.iv)   # printed, not enc.lam
    gv = spectral.gamma_enclosure(enc, args.eps)
    lam = first.refine(args.eps)
    text = reports.dump_json(reports.gamma_json(write_graph6(g), lam, gv))
    if args.format == "json" and not args.out:
        print(text, end="")     # the document alone, so stdout parses
        return EXIT_OK
    print("graph6   %s" % write_graph6(g))
    print("lambda   [%s, %s]" % (lam.lo, lam.hi))
    print("lambda ~ %.10f" % lam.mid_float())
    print("gamma    %s" % _interval_text(gv))
    print("gamma  ~ %.10f" % gv.mid_float())
    if args.out:
        print("wrote %s" % _write_out(args, "gamma.json", text))
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
    stage = (kernels.graph_kernel_stage if args.kind == "graphs"
             else kernels.tree_kernel_stage)
    report = stage(args.beta, jobs=args.jobs)
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
    cert = kernels.prove_conjecture(args.kind, tamper_beta=args.tamper,
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
    if not 1 <= args.tree_cap <= TREE_ENUM_CAP:
        raise ValueError("tree cap %d is outside 1..%d" % (args.tree_cap, TREE_ENUM_CAP))
    out = []
    small_rows, _ = spectral.min_gamma_table(
        args.n, "graph", spectral.BETA_STAR, eps=args.eps)
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
    if not args.lo < args.hi:
        raise ValueError("--lo must be below --hi")
    rows = bounds.bound_curves(ctx, u3, args.lo, args.hi, args.samples)
    path = _write_out(args, "bound-curves.csv", reports.curves_csv(rows))
    print("wrote %s" % path)
    tctx = tails.TailContext(complete_graph(4), 0)
    trows = tails.j_hat_samples(tctx, Fraction(2), Fraction(3), args.samples)
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
    ap.add_argument("--jobs", type=_parse_count, default=1,
                    help="worker processes for kernel sweeps, at most one "
                         "per kernel and per CPU")
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
    tb.add_argument("--n", type=int, default=6,
                    help="vertex count of the full graph table, 1 to 7")
    tb.add_argument("--tree-cap", type=int, default=10,
                    help="largest tree order in the class counts, 1 to 14")
    tb.add_argument("--eps", type=_parse_eps, default=Fraction(1, 10 ** 6))
    tb.set_defaults(func=cmd_tables)

    cv = sub.add_parser("curves", help="emit bound-comparison curve data")
    cv.add_argument("--lo", type=_parse_number, default="2.24")
    cv.add_argument("--hi", type=_parse_number, default="2.75")
    cv.add_argument("--samples", type=_parse_count, default=120)
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
