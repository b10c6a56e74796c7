"""Reach guard: every function defined in src/suspquiver is run by a command.

A fixed set of command lines, covering every subcommand, every verify suite
with and without --json, and one refusal for each exit code, runs in this
process under sys.setprofile.  Every def in the package must then have been
called, or be named in ALLOWED with the reason it stays although no command
calls it.  A def that no command reaches and nothing else needs is dead code:
delete it, or name the test that keeps it here.
"""

import ast
import contextlib
import io
import json
import os
import sys

from suspquiver import cli

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "suspquiver")

GRAPHS = {
    "two_loop": {"vertices": ["v"], "edges": [
        {"id": "e", "src": "v", "dst": "v"}, {"id": "f", "src": "v", "dst": "v"}]},
    "cycle_plus_loop": {"vertices": ["u", "v"], "edges": [
        {"id": "p", "src": "u", "dst": "v"}, {"id": "q", "src": "v", "dst": "u"},
        {"id": "l", "src": "u", "dst": "u"}]},
    # ids that hold a comma, joined by join_ids' escaping
    "comma_ids": {"vertices": ["v"], "edges": [
        {"id": "a", "src": "v", "dst": "v"}, {"id": "a,a", "src": "v", "dst": "v"}]},
    "sink": {"vertices": ["v", "w"], "edges": [
        {"id": "l", "src": "v", "dst": "v"}, {"id": "e", "src": "v", "dst": "w"}]},
}

SUITES = ("tck", "jmath", "limits", "eta", "kappa", "morita", "flow")

ARGVS = [
    *(["verify", "two_loop", "--suite", s, "--L", "3"] for s in SUITES),
    *(["verify", "cycle_plus_loop", "--suite", s, "--L", "3", "--json"] for s in SUITES),
    ["verify", "two_loop", "--suite", "all", "--l", "2"],
    ["verify", "cycle_plus_loop", "--suite", "all", "--l", "2/3", "--json"],
    ["ktheory", "cycle_plus_loop", "--l", "3/2"],
    ["ktheory", "two_loop", "--l", "-2", "--json"],
    ["ktheory", "cycle_plus_loop", "--l", "0"],
    ["quiver", "cycle_plus_loop", "--m", "2", "--t", "1/3", "--n", "0"],
    ["quiver", "cycle_plus_loop", "--m", "2", "--t", "0", "--n", "0"],
    ["quiver", "cycle_plus_loop", "--m", "2", "--t", "-1/3", "--n", "3"],
    ["quiver", "cycle_plus_loop", "--openness"],
    *(["transform", "two_loop", "--op", op] for op in ("opposite", "delay:3", "power:3", "dual:1,3")),
    ["transform", "comma_ids", "--op", "dual:1,3"],
    ["flow", "cycle_plus_loop", "--start", "l,q,p,l", "--t", "1/3", "--step", "2/3", "--count", "3"],
    ["--help"],
    # one refusal for each exit code: a failed check or bad input (1) and a
    # refused precondition (2)
    ["flow", "two_loop", "--start", "e,,f"],
    ["verify", "sink", "--suite", "tck"],
]

COUNTED = "a name bench/tracing.py counts (COUNTED)"
BENCH_TEST = "called by bench/test_bench.py"
DUNDER = "dunder or contract method"

# Defs that no command above calls, each with the reason it stays.
ALLOWED = {
    # what the traced benchmark run wraps by name, and what those names call
    "operators.operator_norm_est": COUNTED,
    "operators.SparseOperator.to_dense": "called by operator_norm_est, " + COUNTED,
    "operators.SparseOperator.__add__": COUNTED + " (operators.lincomb)",
    "operators.SparseOperator.__sub__": COUNTED + " (operators.lincomb)",
    "ktheory.smith_normal_form": COUNTED,
    "ktheory._from_rows": "called by smith_normal_form, " + COUNTED,
    "graph.IntMatrix.__init__": "builds every IntMatrix: smith_normal_form, " + COUNTED,
    "graph.IntMatrix.__matmul__": COUNTED + " (graph.IntMatrix.matmul)",
    "graph.IntMatrix.row_lists": "called by IntMatrix.__matmul__, " + COUNTED,
    "graph.IntMatrix.transpose": "called by smith_normal_form, " + COUNTED,
    "quiver.QuiverEdge.__init__": "fibre_paths at n >= 1, " + COUNTED + "; criterion 02",
    # what the benchmark's self-tests call
    "cli.parse_rational": BENCH_TEST,
    "graph.IntMatrix.identity": BENCH_TEST + "; IntMatrix.pow at n = 0",
    # what the acceptance criteria (tests/test_acceptance.py) import, with callees
    "graph.adjacency": "criterion 01",
    "graph.IntMatrix.pow": "criterion 01: adjacency(g).pow(n)",
    "graph.IntMatrix.copy": "called by IntMatrix.pow, criterion 01",
    "graph.IntMatrix.__getitem__": "criterion 01 reads A^n entrywise",
    "quiver.normalize_edge": "criterion 02",
    "graph.Path.vertex_at": "Path.window at a = b, called by normalize_edge, criterion 02",
    "ktheory.dual_K_invariance": "criterion 05",
    # references that tests read
    "ktheory.coker_ker": "test reference: tests/test_ktheory.py, conftest.reference_graph_K",
    "flow.make_flow_point": "test reference: tests/test_flow.py",
    "operators.Basis.labels": "test reference: tests/test_operators.py, tests/test_opalg.py",
    "graph.IntMatrix.__sub__": "test reference: 1 - A^T in tests/conftest.py and tests/test_ktheory.py",
    # dunder and contract methods
    "flow.FlowPoint.__repr__": DUNDER,
    "graph.Graph.__repr__": DUNDER,
    "graph.Path.__repr__": DUNDER,
    "graph.IntMatrix.__eq__": DUNDER,
    "graph.IntMatrix.__repr__": DUNDER,
    "graph._Frozen.__setattr__": DUNDER + ": instances are immutable",
    "graph._Frozen.__delattr__": DUNDER + ": instances are immutable",
    "graph._Frozen.__eq__": DUNDER,
    "graph._Frozen.__hash__": DUNDER,
    "graph._Frozen.__repr__": DUNDER,
    "operators.Basis.__len__": DUNDER,
    "operators.Entries.__len__": DUNDER + ": Mapping",
    "operators.Entries.__contains__": DUNDER + ": Mapping",
    "operators.SparseOperator.__repr__": DUNDER,
    "quiver.QuiverEdge.__repr__": DUNDER,
    "quiver.QuiverPath.__len__": DUNDER,
    "report.RunReport.__repr__": DUNDER,
}


def _defs() -> dict:
    """(file, first line of the def or of its first decorator) -> qualified name."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                qualname = f"{prefix}.{child.name}"
                if isinstance(child, ast.FunctionDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[path, first] = qualname
                visit(child, path, qualname)
            else:  # the bodies of if, try and with blocks
                visit(child, path, prefix)

    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.realpath(os.path.join(SRC, name))
            with open(path, encoding="utf-8") as fh:
                visit(ast.parse(fh.read(), path), path, name[:-3])
    return out


def _reached(tmp_path) -> set:
    files = {}
    for name, doc in GRAPHS.items():
        files[name] = str(tmp_path / f"{name}.json")
        with open(files[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    for argv in ARGVS:
        argv = [files.get(a, a) for a in argv]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            sys.setprofile(profile)
            try:
                cli.main(argv)
            finally:
                sys.setprofile(None)
    return {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes}


def test_every_def_is_reached_or_allowed(tmp_path):
    defs = _defs()
    reached = _reached(tmp_path)
    unreached = {name for key, name in defs.items() if key not in reached}
    assert sorted(unreached - set(ALLOWED)) == []
    # an allowed name that a command now reaches, or that is gone, leaves the list
    assert sorted(set(ALLOWED) - unreached) == []
