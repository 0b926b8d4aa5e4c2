"""The benchmark's span bindings still resolve in the package.

perfbench/tracer.py rebinds the functions named in its TRACED table and
reads a few of their parameters.  A traced function that is removed or
renamed, or a hooked signature that changes, would otherwise show only in
a traced benchmark run.  The table is read from the source with ast, so the
benchmark module is neither imported nor written.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_table() -> tuple:
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED table in %s" % TRACER)


TRACED = traced_table()


def resolve(module: str, attr: str):
    """The object the tracer would rebind, or None: a method is looked up
    in its class __dict__, as the tracer does."""
    mod = importlib.import_module("perronbalance.%s" % module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name, None)
        return cls.__dict__.get(meth) if cls is not None else None
    return getattr(mod, attr, None)


def test_traced_table_is_read():
    assert len(TRACED) >= 30
    assert len({name for _, _, name in TRACED}) == len(TRACED)


@pytest.mark.parametrize("module, attr, name", TRACED, ids=[t[2] for t in TRACED])
def test_traced_name_resolves(module, attr, name):
    assert callable(resolve(module, attr)), "%s.%s is gone" % (module, attr)


def test_hooked_signatures():
    # the certified_below hook wraps args[0] or the keyword refine; the
    # min_gamma_table hooks read args[0] or n, and args[1] or kind
    below = list(inspect.signature(resolve("spectral", "certified_below")).parameters)
    assert below[0] == "refine"
    table = list(inspect.signature(resolve("spectral", "min_gamma_table")).parameters)
    assert table[:2] == ["n", "kind"]
