"""Span tracing of the perronbalance layers, installed from outside the package.

A ``Tracer`` rebinds the public functions of each layer, and a few methods of
``KernelContext`` and ``TailContext``, to wrappers that record one span per
call.  A function is rebound in every ``perronbalance.*`` module namespace
that holds the same object, because modules import each other's functions by
name.  Spans live in memory as four parallel arrays (name id, start, end,
parent index) and are written out once, after the run.

Self and total seconds are computed after the run, from the spans, on a
clock the caller passes (the contention-corrected clock of ``probe.py``).
Self time is a span's duration minus the durations of its direct children;
total time counts only the outermost activation of a name, so recursive
functions (the lru-cached enumerations) are not counted twice.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

# (module, attribute, span name).  A dotted attribute names a method.
TRACED = (
    ("graphs", "canonical_form", "graphs.canonical_form"),
    ("graphs", "canonical_relabel", "graphs.canonical_relabel"),
    ("graphs", "enumerate_trees", "graphs.enumerate_trees"),
    ("graphs", "enumerate_connected_graphs", "graphs.enumerate_connected_graphs"),
    ("graphs", "enumerate_graph_kernels", "graphs.enumerate_graph_kernels"),
    ("graphs", "enumerate_tree_kernels", "graphs.enumerate_tree_kernels"),
    ("algebra", "isolate_largest_root", "algebra.isolate_largest_root"),
    ("algebra", "refine_root", "algebra.refine_root"),
    ("algebra", "count_roots_above", "algebra.count_roots_above"),
    ("algebra", "sturm_count", "algebra.sturm_count"),
    ("spectral", "resolvent_data", "spectral.resolvent_data"),
    ("spectral", "lambda_enclosure", "spectral.lambda_enclosure"),
    ("spectral", "gamma_enclosure", "spectral.gamma_enclosure"),
    ("spectral", "_power_iteration_hint", "spectral.power_hint"),
    ("spectral", "certified_below", "spectral.certified_below"),
    ("spectral", "min_gamma_table", "spectral.min_gamma_table"),
    ("bounds", "check_pair", "bounds.check_pair"),
    ("bounds", "KernelContext.q_poly", "bounds.KernelContext.q_poly"),
    ("bounds", "KernelContext.c_poly", "bounds.KernelContext.c_poly"),
    ("bounds", "KernelContext.lambda_U", "bounds.KernelContext.lambda_U"),
    ("bounds", "verify_extension", "bounds.verify_extension"),
    ("tails", "check_gamma_upper", "tails.check_gamma_upper"),
    ("tails", "check_gamma_lower", "tails.check_gamma_lower"),
    ("tails", "TailContext.__init__", "tails.TailContext.init"),
    ("kernels", "graph_kernel_stage", "kernels.graph_kernel_stage"),
    ("kernels", "tree_kernel_stage", "kernels.tree_kernel_stage"),
    ("kernels", "two_step_verify", "kernels.two_step_verify"),
    ("kernels", "active_vertex_elimination", "kernels.active_vertex_elimination"),
    ("kernels", "branch_point_check", "kernels.branch_point_check"),
    ("kernels", "lambda_le_2_link", "kernels.lambda_le_2_link"),
    ("reports", "certificate_json", "reports.certificate_json"),
    ("reports", "dump_json", "reports.dump_json"),
    ("reports", "certificate_markdown", "reports.certificate_markdown"),
    ("cli", "main", "cli.main"),
)

PACKAGE = "perronbalance"


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_outer = array("b")    # 1 if no enclosing span has the same name
        self.calls: dict = {}
        self._depth: dict = {}
        self._stack: list = []          # indices of the open spans
        self._restore: list = []        # (owner, attribute, original)
        # counters read by the per-layer metrics
        self.verdicts = {"coefficients": 0, "sturm": 0, "fail": 0}
        self.refine_rounds = 0
        self.max_coeff_bits = 0
        self.table_rows: dict = {}

    # -- spans --------------------------------------------------------------

    def _id(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self._depth[name] = 0
        return got

    def enter(self, name: str) -> None:
        nid = self._id(name)
        self.calls[name] += 1
        self.span_outer.append(self._depth[name] == 0)
        self._depth[name] += 1
        self._stack.append(len(self.span_name))
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-2] if len(self._stack) > 1 else -1)
        self.span_end.append(0.0)
        self.span_start.append(time.perf_counter())

    def leave(self, name: str) -> None:
        self.span_end[self._stack.pop()] = time.perf_counter()
        self._depth[name] -= 1

    def times(self, clock) -> tuple:
        """(self seconds, total seconds) per name, reading every span end
        through ``clock``."""
        n = len(self.span_name)
        dur = [clock(self.span_end[i]) - clock(self.span_start[i]) for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.span_parent[i] >= 0:
                child[self.span_parent[i]] += dur[i]
        self_s = dict.fromkeys(self.names, 0.0)
        total_s = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            name = self.names[self.span_name[i]]
            self_s[name] += dur[i] - child[i]
            if self.span_outer[i]:
                total_s[name] += dur[i]
        return self_s, total_s

    def _wrap(self, fn, name, after=None, name_of=None, wrap_args=None):
        tracer = self

        def traced(*args, **kwargs):
            span = name_of(args, kwargs) if name_of else name
            if wrap_args is not None:
                args, kwargs = wrap_args(args, kwargs)
            tracer.enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(span)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- layer-specific counters -------------------------------------------

    def _hooks(self, name: str, fn) -> dict:
        if name == "bounds.check_pair":
            def after(args, kwargs, verdict):
                kind = verdict.kind
                self.verdicts[kind] = self.verdicts.get(kind, 0) + 1
            return {"after": after}
        if name == "spectral.resolvent_data":
            info = getattr(fn, "cache_info", None)
            state = {"misses": info().misses if info else 0}

            def after(args, kwargs, rd):
                misses = info().misses if info else state["misses"] + 1
                if misses != state["misses"]:
                    state["misses"] = misses
                    bits = max(abs(c).bit_length() for c in rd.char_poly.coeffs)
                    self.max_coeff_bits = max(self.max_coeff_bits, bits)
            return {"after": after}
        if name == "spectral.certified_below":
            def wrap_args(args, kwargs):
                refine = args[0] if args else kwargs.pop("refine")

                def counted(eps):
                    self.refine_rounds += 1
                    return refine(eps)
                return (counted,) + tuple(args[1:]), kwargs
            return {"wrap_args": wrap_args}
        if name == "spectral.min_gamma_table":
            def size_of(args, kwargs):
                n = args[0] if args else kwargs["n"]
                return "spectral.min_gamma_table.n%d" % n

            def after(args, kwargs, result):
                n = args[0] if args else kwargs["n"]
                kind = args[1] if len(args) > 1 else kwargs["kind"]
                self.table_rows[(n, kind)] = len(result[0])
            return {"name_of": size_of, "after": after}
        return {}

    # -- install / uninstall -------------------------------------------------

    def install(self) -> list:
        """Rebind every traced function; return the names that were not found."""
        missing = []
        modules = _package_modules()
        for mod_name, attr, name in TRACED:
            mod = sys.modules.get("%s.%s" % (PACKAGE, mod_name))
            if mod is None:
                missing.append(name)
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                fn = cls.__dict__.get(meth) if cls is not None else None
                if fn is None:
                    missing.append(name)
                    continue
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(fn, name, **self._hooks(name, fn)))
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                missing.append(name)
                continue
            wrapped = self._wrap(fn, name, **self._hooks(name, fn))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._restore.append((m, key, fn))
                        setattr(m, key, wrapped)
        return missing

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """Write the spans as a JSON header plus four raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (self.span_name, self.span_start, self.span_end,
                        self.span_parent):
                arr.tofile(fh)
        header = {"names": self.names, "count": len(self.span_name),
                  "arrays": ["name:%s" % self.span_name.typecode,
                             "start:%s" % self.span_start.typecode,
                             "end:%s" % self.span_end.typecode,
                             "parent:%s" % self.span_parent.typecode],
                  "clock": "time.perf_counter seconds",
                  "data": path.with_suffix(".bin").name}
        path.write_text(json.dumps(header, indent=1) + "\n")
