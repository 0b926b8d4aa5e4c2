"""Command-line surface: outputs, exit codes, expectations, schema."""

import hashlib
import json
import subprocess
import sys

import jsonschema
import pytest

from perronbalance.cli import main
from perronbalance.graphs import (
    attach_path,
    complete_graph,
    e_graph,
    write_graph6,
)

from oracles import schema_text, write_edge_list


SCHEMA = json.loads(schema_text())


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
    assert out.splitlines()[0] == "graph6   " + write_graph6(g)
    assert "4.8777978" in out


def test_gamma_fixture_file(tmp_path, capsys):
    # the 7-vertex three-arm extension has ratio exactly 6
    path = tmp_path / "fixture.g6"
    g6 = write_graph6(e_graph("E6hat"))
    path.write_text(g6 + "\n")
    assert run_cli(["gamma", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "graph6   " + g6
    assert "gamma    [6, 6]" in out


def test_gamma_empty_or_unreadable_file(tmp_path, capsys):
    path = tmp_path / "empty.g6"
    path.write_text("\n")
    assert run_cli(["gamma", str(path)]) == 2
    assert capsys.readouterr().err == "input error: %s is empty\n" % path
    assert run_cli(["gamma", str(tmp_path)]) == 2     # a directory
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_gamma_file_naming_a_file(tmp_path, capsys):
    # the first line is parsed as a graph, never looked up as a path
    path = tmp_path / "self.g6"
    path.write_text(str(path) + "\n")
    assert run_cli(["gamma", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_gamma_json_valid(tmp_path, capsys):
    assert run_cli(["--out", str(tmp_path), "gamma", "C~"]) == 0
    doc = json.loads((tmp_path / "gamma.json").read_text())
    jsonschema.validate(doc, SCHEMA)


def test_gamma_json_stdout_is_the_document_alone(capsys):
    g = attach_path(complete_graph(4), 0, 2)
    assert run_cli(["--format", "json", "gamma", write_edge_list(g)]) == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["graph6"] == write_graph6(g)


def test_gamma_short_endpoints(capsys):
    # P6: exact endpoints have hundreds of digits; the printed ones are
    # 20-place decimals rounded outward
    from fractions import Fraction
    from perronbalance.graphs import path_graph
    from perronbalance.spectral import gamma_enclosure
    g = path_graph(6)
    assert run_cli(["gamma", write_graph6(g)]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines()
                if l.startswith("gamma    "))
    assert len(line) <= 60
    lo, hi = (Fraction(t) for t in line.split("[")[1].rstrip("]").split(", "))
    exact = gamma_enclosure(g, Fraction(1, 10 ** 8))
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


@pytest.mark.parametrize("eps", [None, "1/1099511627776"])
def test_gamma_isolates_once(monkeypatch, capsys, eps):
    from fractions import Fraction
    from perronbalance import spectral
    from perronbalance.algebra import count_roots_above
    from perronbalance.graphs import path_graph
    calls = []
    real = spectral.lambda_enclosure

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "lambda_enclosure", counting)
    g = path_graph(6)
    args = ["gamma", write_graph6(g)] + (["--eps", eps] if eps else [])
    assert run_cli(args) == 0
    assert len(calls) == 1
    line = next(l for l in capsys.readouterr().out.splitlines()
                if l.startswith("lambda   "))
    lo, hi = (Fraction(t) for t in line.split("[")[1].rstrip("]").split(", "))
    # the largest root of the characteristic polynomial lies in (lo, hi]
    char = spectral.resolvent_data(g).char_poly
    assert count_roots_above(char, lo) >= 1 and count_roots_above(char, hi) == 0
    assert hi - lo <= Fraction(eps or Fraction(1, 10 ** 8))


def test_gamma_eps_below_lambda_schedule(tmp_path, capsys):
    # --eps below 2^-30 is the one case in which the printed eigenvalue is
    # narrowed: the first isolation at 2^-30, refined to --eps, and not the
    # enclosure the gamma request ended on
    from fractions import Fraction
    from perronbalance.algebra import refine_root
    from perronbalance.graphs import parse_graph6
    from perronbalance.spectral import lambda_enclosure, resolvent_data
    eps = Fraction(1, 10 ** 20)
    assert run_cli(["--out", str(tmp_path), "gamma", "E?~o",
                    "--eps", "1/100000000000000000000"]) == 0
    g = parse_graph6("E?~o")
    want = refine_root(resolvent_data(g).char_poly,
                       lambda_enclosure(g, Fraction(1, 2 ** 30)), eps)
    assert 0 < want.width <= eps
    out = capsys.readouterr().out.splitlines()
    assert "lambda   [%s, %s]" % (want.lo, want.hi) in out
    doc = json.loads((tmp_path / "gamma.json").read_text())
    assert doc["lambda"] == [str(want.lo), str(want.hi)]
    gamma = [Fraction(x) for x in doc["gamma"]]
    assert gamma[1] - gamma[0] <= eps


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_jobs_below_one_is_an_input_error(capsys, jobs):
    assert run_cli(["--jobs", jobs, "gamma", "C~"]) == 2
    err = capsys.readouterr().err
    assert "--jobs" in err and "Traceback" not in err


@pytest.mark.parametrize("args, option", [
    (["gamma", "A_", "--eps", "1/0"], "--eps"),
    (["tables", "--eps", "1/0"], "--eps"),
    (["kernel-stage", "graphs", "--beta", "1/0"], "--beta"),
    (["prove", "graphs", "--tamper", "1/0"], "--tamper"),
])
def test_zero_denominator_is_an_input_error(capsys, args, option):
    # Fraction("1/0") raises ZeroDivisionError, which argparse does not
    # turn into a usage error by itself
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    errors = [l for l in err.splitlines() if "error:" in l]
    assert len(errors) == 1 and option in errors[0] and "Traceback" not in err


@pytest.mark.parametrize("args, option", [
    (["--samples", "0"], "--samples"),
    (["--samples", "-3"], "--samples"),
    (["--samples", "ten"], "--samples"),
    (["--lo", "1/0"], "--lo"),
    (["--hi", "x"], "--hi"),
    (["--lo", "2.75", "--hi", "2.24"], "--lo"),
    (["--lo", "5/2", "--hi", "5/2"], "--lo"),
])
def test_curves_bad_range_is_an_input_error(tmp_path, capsys, args, option):
    assert run_cli(["--out", str(tmp_path), "curves"] + args) == 2
    err = capsys.readouterr().err
    errors = [l for l in err.splitlines() if "error" in l]
    assert len(errors) == 1 and option in errors[0] and "Traceback" not in err
    assert not (tmp_path / "bound-curves.csv").exists()


def test_curves_exact_range(tmp_path, capsys):
    # fractions and decimals name the same numbers
    for lo, hi in (("2.24", "2.75"), ("56/25", "11/4")):
        out = tmp_path / lo.replace("/", "_")
        assert run_cli(["--out", str(out), "curves", "--samples", "1",
                        "--lo", lo, "--hi", hi]) == 0
    assert ((tmp_path / "2.24" / "bound-curves.csv").read_bytes()
            == (tmp_path / "56_25" / "bound-curves.csv").read_bytes())


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


def test_jobs_2_worker_error_is_an_input_error(capsys):
    # the transfer-guard ValueError is raised in a worker process
    assert run_cli(["--jobs", "2", "kernel-stage", "graphs", "--beta", "8"]) == 2
    err = capsys.readouterr().err
    assert err == "input error: beta 8 is not below the transfer guard 7\n"


def _stage_docs_jobs_1_and_2(tmp_path, kind, expect):
    """The stage JSON of --jobs 1 and of --jobs 2, without timing fields.
    --jobs 2 runs in a fresh process, so the sweep is not read from the
    in-process caches: its forked workers start with cold caches and take
    every first isolation from their own hints."""
    proc = subprocess.run(
        [sys.executable, "-m", "perronbalance.cli", "--jobs", "2",
         "--out", str(tmp_path / "two"), "kernel-stage", kind,
         "--expect", expect],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert run_cli(["--jobs", "1", "--out", str(tmp_path / "one"),
                    "kernel-stage", kind]) == 0
    docs = []
    for name in ("one", "two"):
        doc = json.loads((tmp_path / name / ("stage-%s.json" % kind)).read_text())
        doc.pop("generated_at"), doc.pop("elapsed_seconds")
        docs.append(doc)
    return docs


def test_jobs_2_tree_stage_matches_jobs_1(tmp_path):
    one, two = _stage_docs_jobs_1_and_2(
        tmp_path, "trees", "direct=191,exceptional=2,survivors=1")
    assert one == two


def test_jobs_2_graph_stage_matches_jobs_1(tmp_path):
    one, two = _stage_docs_jobs_1_and_2(
        tmp_path, "graphs", "direct=150,exceptional=4,survivors=1")
    assert one == two


def test_tables(tmp_path, capsys):
    rc = run_cli(["--out", str(tmp_path), "--format", "csv", "tables",
                  "--tree-cap", "5"])
    assert rc == 0
    counts = (tmp_path / "counts.csv").read_text().splitlines()
    assert "graph,6,112,5" in counts
    assert "graph,7,853,1" in counts
    small = (tmp_path / "small-graphs.csv").read_bytes()
    assert small.startswith(b"graph6,gamma_lo")
    assert len(small.splitlines()) == 113
    # the gamma and lambda endpoints of every row, pinned byte for byte
    assert hashlib.sha256(small).hexdigest() == (
        "b28b13ca4a7a251e8bfa82a0a513a4d4b8a7f2884112b96b49cac6c6dde1ab5d")
    beta = (tmp_path / "degree-bounds.csv").read_text().splitlines()
    assert len(beta) == 11


@pytest.mark.parametrize("cap", ["0", "15"])
def test_tables_tree_cap_checked_first(tmp_path, capsys, monkeypatch, cap):
    from perronbalance import spectral

    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(spectral, "min_gamma_table", no_table)
    assert run_cli(["--out", str(tmp_path), "tables", "--tree-cap", cap]) == 2
    err = capsys.readouterr().err
    assert err == "input error: tree cap %s is outside 1..14\n" % cap
    assert not any(tmp_path.iterdir())


def test_tables_n(tmp_path, capsys):
    rc = run_cli(["--out", str(tmp_path), "--format", "csv", "tables",
                  "--n", "5", "--tree-cap", "3"])
    assert rc == 0
    small = (tmp_path / "small-graphs.csv").read_text().splitlines()
    assert len(small) == 1 + 21
    capsys.readouterr()
    for n in ("0", "8"):
        out = tmp_path / n
        assert run_cli(["--out", str(out), "tables", "--n", n]) == 2
        err = capsys.readouterr().err
        assert err == "input error: connected-graph enumeration needs 1 <= n <= 7\n"
        assert not out.exists()


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
