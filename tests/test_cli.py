"""Command-line surface: outputs, exit codes, expectations, schema."""

import json
import subprocess
import sys

import jsonschema
import pytest

from perronbalance import reports
from perronbalance.cli import main
from perronbalance.graphs import attach_path, complete_graph, write_edge_list, e_graph


SCHEMA = json.loads(reports.schema_text())


def run_cli(args):
    return main(args)


def test_gamma_k4_exact(capsys):
    assert run_cli(["gamma", "C~"]) == 0
    out = capsys.readouterr().out
    assert "gamma    [4, 4]" in out


def test_gamma_edge_list(capsys):
    g = attach_path(complete_graph(4), 0, 2)
    assert run_cli(["gamma", write_edge_list(g)]) == 0
    out = capsys.readouterr().out
    assert "4.8777978" in out


def test_gamma_fixture_file(tmp_path, capsys):
    # the 7-vertex three-arm extension has ratio exactly 6
    path = tmp_path / "fixture.g6"
    from perronbalance.graphs import write_graph6
    path.write_text(write_graph6(e_graph("E6hat")) + "\n")
    assert run_cli(["gamma", str(path)]) == 0
    out = capsys.readouterr().out
    assert "gamma    [6, 6]" in out


def test_gamma_json_valid(tmp_path, capsys):
    assert run_cli(["--out", str(tmp_path), "gamma", "C~"]) == 0
    doc = json.loads((tmp_path / "gamma.json").read_text())
    jsonschema.validate(doc, SCHEMA)


def test_gamma_short_endpoints(capsys):
    # P6: exact endpoints have hundreds of digits; the printed ones are
    # 20-place decimals rounded outward
    from fractions import Fraction
    from perronbalance.graphs import path_graph, write_graph6
    from perronbalance.spectral import gamma_enclosure
    g = path_graph(6)
    assert run_cli(["gamma", write_graph6(g)]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines()
                if l.startswith("gamma    "))
    assert len(line) <= 60
    lo, hi = (Fraction(t) for t in line.split("[")[1].rstrip("]").split(", "))
    exact = gamma_enclosure(g, Fraction(1, 10 ** 8)).value
    assert lo <= exact.lo and exact.hi <= hi
    assert exact.lo - lo < Fraction(1, 10 ** 20)
    assert hi - exact.hi < Fraction(1, 10 ** 20)


def test_arithmetic_error_exit_code(monkeypatch, capsys):
    from perronbalance import spectral

    def undecided(*args, **kwargs):
        raise ArithmeticError("comparison undecided at maximal refinement")

    monkeypatch.setattr(spectral, "gamma_enclosure", undecided)
    assert run_cli(["gamma", "C~"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and "undecided" in err


def test_exit_codes(capsys):
    assert run_cli(["gamma", "thisisnotagraph"]) == 2
    assert run_cli(["gamma", "A?"]) == 2          # disconnected two vertices
    assert run_cli(["nonsense"]) == 2


def test_kernel_stage_graphs(tmp_path, capsys):
    rc = run_cli(["--out", str(tmp_path), "kernel-stage", "graphs",
                  "--beta", "21/4",
                  "--expect", "direct=150,exceptional=4,survivors=1"])
    assert rc == 0
    doc = json.loads((tmp_path / "stage-graphs.json").read_text())
    jsonschema.validate(doc, SCHEMA)
    assert doc["counts"] == {"direct": 150, "exceptional": 4, "survivor": 1}
    md = (tmp_path / "stage-graphs.md").read_text()
    assert "Check for 150 kernels" in md
    assert "survivor | 1" in md


def test_kernel_stage_expectation_failure(tmp_path, capsys):
    rc = run_cli(["--out", str(tmp_path), "kernel-stage", "graphs",
                  "--beta", "21/4", "--expect", "survivors=2"])
    assert rc == 1


def test_kernel_stage_trees(tmp_path, capsys):
    rc = run_cli(["--out", str(tmp_path), "kernel-stage", "trees",
                  "--beta", "beta-tr", "--expect", "direct=191,survivors=1"])
    assert rc == 0
    doc = json.loads((tmp_path / "stage-trees.json").read_text())
    jsonschema.validate(doc, SCHEMA)
    assert doc["counts"]["direct"] == 191


def test_kernel_stage_rerun_identical(tmp_path):
    rc = run_cli(["--out", str(tmp_path / "a"), "kernel-stage", "graphs"])
    rc2 = run_cli(["--out", str(tmp_path / "b"), "kernel-stage", "graphs"])
    assert rc == rc2 == 0
    a = json.loads((tmp_path / "a" / "stage-graphs.json").read_text())
    b = json.loads((tmp_path / "b" / "stage-graphs.json").read_text())
    a.pop("generated_at"), b.pop("generated_at")
    a.pop("elapsed_seconds"), b.pop("elapsed_seconds")
    assert a == b


def test_beta_41_8_moves_kernel_to_direct(tmp_path, capsys):
    # at the smaller target the worked-example kernel passes directly
    rc = run_cli(["--out", str(tmp_path), "kernel-stage", "graphs",
                  "--beta", "41/8"])
    assert rc == 0
    doc = json.loads((tmp_path / "stage-graphs.json").read_text())
    from perronbalance.graphs import RootedKernel
    k3p3 = RootedKernel(attach_path(complete_graph(3), 0, 3), 0).id_string()
    cls = {o["kernel"]: o["classification"] for o in doc["outcomes"]}
    assert cls[k3p3] == "direct"
    assert doc["counts"]["direct"] > 150


def test_bad_beta_rejected(capsys):
    assert run_cli(["kernel-stage", "graphs", "--beta", "5.25"]) == 2


def test_tables(tmp_path, capsys):
    rc = run_cli(["--out", str(tmp_path), "--format", "csv", "tables",
                  "--tree-cap", "5"])
    assert rc == 0
    counts = (tmp_path / "counts.csv").read_text().splitlines()
    assert "graph,6,112,5" in counts
    assert "graph,7,853,1" in counts
    small = (tmp_path / "small-graphs.csv").read_text().splitlines()
    assert small[0].startswith("graph6,gamma_lo")
    assert len(small) == 113
    beta = (tmp_path / "degree-bounds.csv").read_text().splitlines()
    assert len(beta) == 11


def test_curves(tmp_path, capsys):
    rc = run_cli(["--out", str(tmp_path), "curves", "--samples", "10"])
    assert rc == 0
    lines = (tmp_path / "bound-curves.csv").read_text().splitlines()
    assert lines[0] == "lambda,a_over_b1,a_over_b3"
    assert len(lines) == 11


@pytest.mark.slow
def test_prove_cli_subprocess_graphs(tmp_path):
    # full cold run through the installed entry point, measuring wall time
    import time
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "perronbalance.cli", "--out", str(tmp_path),
         "prove", "graphs"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "overall: PASS" in proc.stdout
    doc = json.loads((tmp_path / "certificate-graphs.json").read_text())
    jsonschema.validate(doc, SCHEMA)
    assert doc["passed"] is True
    assert time.time() - t0 < 400


def test_schema_is_itself_valid():
    jsonschema.Draft202012Validator.check_schema(SCHEMA)
