"""Serialization of stage reports, certificates, and tables to JSON,
Markdown, and CSV.

JSON documents carry a "type" field and validate against the schema file
shipped in data/report.schema.json; the generated_at timestamp and the
elapsed_seconds timings of stage reports and certificates are the only
fields that vary between identical runs.
"""

from __future__ import annotations

import csv
import io
import json
from datetime import datetime, timezone

from .algebra import RationalInterval
from .kernels import ProofCertificate, StageReport


def _stamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def gamma_json(graph6: str, lam, gamma: RationalInterval) -> dict:
    return {
        "type": "gamma-result",
        "generated_at": _stamp(),
        "graph6": graph6,
        "lambda": [str(lam.lo), str(lam.hi)],
        "gamma": [str(gamma.lo), str(gamma.hi)],
        "lambda_mid": lam.mid_float(),
        "gamma_mid": gamma.mid_float(),
        "method": "certified",
    }


def stage_json(report: StageReport) -> dict:
    d = {"type": "stage-report", "generated_at": _stamp()}
    d.update(report.to_json_dict())
    return d


def certificate_json(cert: ProofCertificate) -> dict:
    d = {"type": "proof-certificate", "generated_at": _stamp()}
    d.update(cert.to_json_dict())
    return d


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# markdown
# ---------------------------------------------------------------------------

def stage_markdown(report: StageReport) -> str:
    counts = report.classification_counts()
    lines = [
        "# Kernel verification stage: %s" % report.kind,
        "",
        "Target ratio `beta = %s` (%s)." % (report.beta, report.beta_note),
        "",
        "> **Check for %d kernels:** pair polynomials certified nonnegative on "
        "`[max attachment eigenvalue, infinity)`." % counts["direct"],
        "",
        "| outcome | kernels |",
        "|---|---|",
        "| direct pass | %d |" % counts["direct"],
        "| handled by refinement | %d |" % counts["exceptional"],
        "| survivor | %d |" % counts["survivor"],
        "",
    ]
    if report.survivors:
        lines.append("Surviving kernels: %s" %
                     ", ".join("`%s`" % s for s in report.survivors))
        lines.append("")
    refined = [o for o in report.outcomes if o.classification == "exceptional"]
    if refined:
        lines.append("## Refined kernels")
        lines.append("")
        for o in refined:
            if o.two_step is not None:
                lines.append(
                    "- `%s`: two-step verification (step 1 %s, step 2 %s), "
                    "leftover `%s`"
                    % (o.kernel_id,
                       "pass" if o.two_step.step1.passed else "FAIL",
                       "pass" if o.two_step.step2.passed else "FAIL",
                       o.two_step.leftover.graph6))
            if o.elimination is not None:
                lines.append(
                    "- `%s`: active-vertex elimination, outcome %s, chain %s"
                    % (o.kernel_id, o.elimination.outcome,
                       " -> ".join("`%s`" % c for c in o.elimination.chain_ids)))
        lines.append("")
    if report.leftovers:
        lines.append("## Leftover single graphs")
        lines.append("")
        lines.append("| graph6 | ratio | below stage beta | below limit ratio |")
        lines.append("|---|---|---|---|")
        for l in report.leftovers:
            lines.append("| `%s` | %.7f | %s | %s |"
                         % (l.graph6, float((l.gamma_lo + l.gamma_hi) / 2),
                            l.below_beta, l.below_limit))
        lines.append("")
    for note in report.notes:
        lines.append("_%s_" % note)
        lines.append("")
    return "\n".join(lines)


def certificate_markdown(cert: ProofCertificate) -> str:
    lines = [
        "# Proof certificate",
        "",
        cert.conjecture,
        "",
        "**Overall: %s**" % ("PASS" if cert.passed else "FAIL"),
        "",
        "| link | verdict |",
        "|---|---|",
    ]
    for l in cert.links:
        lines.append("| %s | %s |" % (l.name, "pass" if l.passed else "FAIL"))
    lines.append("")
    lines.append("## Documented assumptions")
    lines.append("")
    for a in cert.assumptions:
        lines.append("- %s" % a)
    lines.append("")
    lines.append("_elapsed: %.1f s_" % cert.elapsed_seconds)
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def table_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["graph6", "gamma_lo", "gamma_hi", "lambda_lo", "lambda_hi"])
    for r in rows:
        w.writerow([r.graph6, str(r.gamma.lo), str(r.gamma.hi),
                    str(r.lam.lo), str(r.lam.hi)])
    return buf.getvalue()


def table_markdown(rows) -> str:
    lines = ["| graph6 | gamma | lambda |", "|---|---|---|"]
    for r in rows:
        lines.append("| `%s` | %.7f | %.7f |"
                     % (r.graph6, r.gamma.mid_float(), r.lam.mid_float()))
    return "\n".join(lines) + "\n"


def counts_csv(counts: dict) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["kind", "n", "classes", "below_limit"])
    for (kind, n), (total, below) in sorted(counts.items()):
        w.writerow([kind, n, total, below])
    return buf.getvalue()


def beta_d_csv(values: dict) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["d", "beta_d_lo", "beta_d_hi"])
    for d, iv in sorted(values.items()):
        w.writerow([d, str(iv.lo), str(iv.hi)])
    return buf.getvalue()


def curves_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["lambda", "a_over_b1", "a_over_b3"])
    for lam, b1, b3 in rows:
        w.writerow(["%.9f" % lam, "%.9f" % b1, "%.9f" % b3])
    return buf.getvalue()
