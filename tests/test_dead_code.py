"""Every top-level function and class of the package has a caller.

A name counts as used when it appears (as a name, an attribute or an
imported name) anywhere in src/ or tests/ outside its own definition.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def referenced_names(node) -> Counter:
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name] += 1
    return out


def unused_definitions(root: Path) -> list:
    files = sorted((root / "src").rglob("*.py")) + sorted((root / "tests").rglob("*.py"))
    trees = {f: ast.parse(f.read_text(), filename=str(f)) for f in files}
    total = Counter()
    for tree in trees.values():
        total += referenced_names(tree)
    unused = []
    for f, tree in trees.items():
        if root / "src" / "perronbalance" not in f.parents:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if total[node.name] - referenced_names(node)[node.name] <= 0:
                    unused.append("%s:%s" % (f.name, node.name))
    return unused


def test_no_unused_top_level_definitions():
    assert unused_definitions(ROOT) == []
