"""Every top-level function and class of the package, and every method of
its classes apart from dunder methods, has a caller.

A top-level name counts as used when it appears (as a name, an attribute or
an imported name) outside its own definition, and a method only when it
appears as an attribute (.name) outside its own body, so that a local
variable or a field of the same name does not hide it.  Only uses in src/
or perfbench/ count, so that a definition the program never calls moves to
the tests or goes.
TOP_LEVEL_ALLOWLIST and METHOD_ALLOWLIST name the definitions kept for the
tests alone, each with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TOP_LEVEL_ALLOWLIST = {
    # work and cache counters, kept for a telemetry sidecar to read
    "algebra.py:root_count_info",            # root counts by method
    "bounds.py:first_lambda_cache_info",     # first lambda_U cache hits
    "bounds.py:pair_check_info",             # pair checks by verdict kind
    # paper acceptance checks
    "spectral.py:kp_infinite_gamma",         # exact limit of gamma(K_p + path)
    "spectral.py:sp_infinite_gamma",         # exact limit of gamma(S_p + path)
    "tails.py:infinite_tail_eigendata",      # limit growth rate, eigenvalue, ratio
    "tails.py:lambda_sandwich_audit",        # lam(H + P_k) < lam(H + P_inf) < lam(H + fork_k)
    "kernels.py:special_tree_kernels",       # the tree kernels needing elimination
}

METHOD_ALLOWLIST = {
    # the exact value of the sp infinite-tail limit, a paper acceptance check
    "algebra.py:SqrtRat.as_fraction",
}


def referenced_names(node, attributes_only: bool = False) -> Counter:
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif attributes_only:
            continue
        elif isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name] += 1
    return out


def definitions(tree, methods: bool):
    """Top-level functions and classes, or with methods=True the non-dunder
    methods of the classes, as (qualified name, node)."""
    for node in tree.body:
        if not methods and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if methods and isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    yield "%s.%s" % (node.name, sub.name), sub


def unused_definitions(root: Path, methods: bool = False) -> list:
    files = [f for d in ("src", "perfbench") for f in sorted((root / d).rglob("*.py"))]
    trees = {f: ast.parse(f.read_text(), filename=str(f)) for f in files}
    total = Counter()
    for tree in trees.values():
        total += referenced_names(tree, methods)
    unused = []
    for f, tree in trees.items():
        if root / "src" / "perronbalance" not in f.parents:
            continue
        for qualname, node in definitions(tree, methods):
            if total[node.name] - referenced_names(node, methods)[node.name] <= 0:
                unused.append("%s:%s" % (f.name, qualname))
    return unused


def test_no_unused_top_level_definitions():
    assert sorted(set(unused_definitions(ROOT)) - TOP_LEVEL_ALLOWLIST) == []


def test_no_unused_methods():
    assert sorted(set(unused_definitions(ROOT, methods=True))
                  - METHOD_ALLOWLIST) == []
