"""Per-layer spans for the traced benchmark run, installed from outside ``src/``.

The tracer patches the public functions of every ``suspquiver`` module, the
public methods of the classes each module defines, and a few named operator
methods, with wrappers that record one span per call.  A span keeps
its name, its parent, its start and end, the time covered by its child spans
and a few work counts taken from its arguments or result.  Spans stay in
memory; ``summary()`` folds them into per-name totals when the command ends.

Self time of a span is its duration minus the time its child spans cover.
``QC`` and ``Fraction`` are never wrapped: they see 10^5-10^6 calls per
command, and a wrapper there would measure the wrapper.  Properties and
dunder methods other than those in ``COUNTED`` are not wrapped either.
"""

from __future__ import annotations

import functools
import importlib
import time

# The package's modules are its layers; report.py belongs to the cli layer.
LAYER_MODULES = {
    "cli": "cli",
    "report": "cli",
    "graph": "graph",
    "transform": "transform",
    "quiver": "quiver",
    "flow": "flow",
    "operators": "operators",
    "opalg": "opalg",
    "ktheory": "ktheory",
}
LAYERS = tuple(dict.fromkeys(LAYER_MODULES.values()))

# Not spans.  The cmd_* bodies do the formatting, so leaving them and
# build_parser unwrapped makes cli.main's self time cover argument parsing,
# dispatch, formatting and printing.  QC is the exact scalar (10^5-10^6 calls).
# Graph.edge, .r and .s are dictionary lookups called 10^5 times by path
# enumeration; wrapped, they made a traced `ktheory --l 13` 4x slower, so
# their time stays with the caller.
UNWRAPPED = {
    "cli.build_parser", "cli.cmd_transform", "cli.cmd_ktheory", "cli.cmd_verify",
    "cli.cmd_flow", "cli.cmd_quiver",
    "operators.QC",
    "graph.Graph.edge", "graph.Graph.r", "graph.Graph.s",
}


def _graph_key(g, L):
    return (tuple(g.vertices), tuple((e.id, e.src, e.dst) for e in g.edges), L)


# name -> (module, class or None, attribute names, counter(args, result) -> dict)
COUNTED = {
    "operators.operator_norm_est": (
        "operators", None, ("operator_norm_est",),
        # computed, not measured: A and A*A as dense complex128 n x n arrays
        lambda a, out: {"dense_bytes": 2 * 16 * len(a[0].basis) ** 2},
    ),
    "operators.lincomb": (
        "operators", "SparseOperator", ("__add__", "__sub__", "scale"),
        lambda a, out: {"entries_out": len(out.entries)},
    ),
    "operators.matmul": (
        "operators", "SparseOperator", ("__matmul__",),
        lambda a, out: {"nnz_out": len(out.entries)},
    ),
    "operators.build_rep": (
        "operators", None, ("build_rep",),
        lambda a, out: {"basis_paths": len(out.basis), "key": _graph_key(a[0], a[1])},
    ),
    "quiver.fibre_paths": (
        "quiver", None, ("fibre_paths",), lambda a, out: {"paths_out": len(out)},
    ),
    "transform.higher_dual": (
        "transform", None, ("higher_dual",), lambda a, out: {"edges_out": len(out.edges)},
    ),
    "graph.enumerate_paths": (
        "graph", None, ("enumerate_paths",), lambda a, out: {"paths_out": len(out)},
    ),
    "graph.IntMatrix.matmul": ("graph", "IntMatrix", ("__matmul__",), None),
    "ktheory.smith_normal_form": (
        "ktheory", None, ("smith_normal_form",),
        lambda a, out: {"cells_in": a[0].rows * a[0].cols},
    ),
}


class Tracer:
    """Span recorder; ``install`` patches the package, ``uninstall`` restores it."""

    def __init__(self):
        # span: [name, parent index, start, end, child seconds, counts or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(idx)
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec[3] = end
                if rec[1] >= 0:
                    spans[rec[1]][4] += end - rec[2]
            if count is not None:
                rec[5] = count(args, out)
            return out

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        pkg = importlib.import_module("suspquiver")
        modules = {m: importlib.import_module(f"suspquiver.{m}") for m in LAYER_MODULES}
        replace: dict[int, object] = {}  # id(original function) -> wrapper
        claimed = set()
        for name, (mod, cls, attrs, count) in COUNTED.items():
            owner = getattr(modules[mod], cls) if cls else modules[mod]
            for attr in attrs:
                fn = owner.__dict__[attr]
                claimed.add(id(fn))
                if cls:
                    self._set(owner, attr, self.wrap(name, fn, count))
                else:
                    replace[id(fn)] = self.wrap(name, fn, count)
        for mod_name, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{mod_name}.{attr}"
                if attr.startswith("_") or name in UNWRAPPED or getattr(
                    obj, "__module__", None
                ) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_methods(name, obj, claimed)
                elif type(obj).__name__ == "function" and id(obj) not in claimed:
                    replace[id(obj)] = self.wrap(name, obj)
        # Patch every binding, so that `from .x import name` copies see the wrapper.
        for mod in (pkg, *modules.values()):
            for attr, fn in list(vars(mod).items()):
                if id(fn) in replace and type(fn).__name__ == "function":
                    self._set(mod, attr, replace[id(fn)])
        return self

    def _wrap_methods(self, prefix, cls, claimed):
        """Patch the public methods the class defines itself, on the class."""
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") or f"{prefix}.{attr}" in UNWRAPPED:
                continue
            if isinstance(member, (staticmethod, classmethod)):
                fn = member.__func__
                wrapped = type(member)(self.wrap(f"{prefix}.{attr}", fn))
            elif type(member).__name__ == "function":
                fn = member
                wrapped = self.wrap(f"{prefix}.{attr}", fn)
            else:  # properties, class attributes
                continue
            if id(fn) not in claimed:
                self._set(cls, attr, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict:
        """Per span name: calls, self_ms, summed counts, and distinct build_rep keys."""
        out: dict[str, dict] = {}
        keys: dict[str, set] = {}
        for name, _parent, start, end, child, counts in self.spans:
            agg = out.setdefault(name, {"calls": 0, "self_ms": 0.0})
            agg["calls"] += 1
            agg["self_ms"] += (end - start - child) * 1e3
            for k, v in (counts or {}).items():
                if k == "key":
                    keys.setdefault(name, set()).add(v)
                else:
                    agg[k] = agg.get(k, 0) + v
        for name, ks in keys.items():
            out[name]["distinct"] = len(ks)
        return out

    def root_ms(self) -> float:
        """Summed duration of the spans that have no parent span."""
        return sum((s[3] - s[2]) * 1e3 for s in self.spans if s[1] < 0)
