"""Self-tests of the benchmark harness.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import child  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from suspquiver import cli, graph, operators  # noqa: E402
from suspquiver.errors import StructuralError  # noqa: E402


@pytest.fixture
def tracer():
    t = tracing.Tracer().install()
    yield t
    t.uninstall()


@pytest.fixture(scope="module")
def workdir():
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        path = Path(tmp)
        run.write_graphs(path, workloads.FIXED_GRAPHS)
        yield path


@pytest.fixture(scope="module")
def server(workdir):
    with run.Server(workdir, run.child_env()) as s:
        yield s


def two_loop():
    return graph.Graph(["v"], [("e", "v", "v"), ("f", "v", "v")])


def test_wrapped_function_returns_the_same_value():
    g = two_loop()
    plain = graph.enumerate_paths(g, 4)
    t = tracing.Tracer().install()
    try:
        traced = graph.enumerate_paths(g, 4)
        rep = operators.build_rep(g, 3)
        same = operators.SparseOperator.__add__(rep.T["e"], rep.T["f"])
    finally:
        t.uninstall()
    assert traced == plain
    assert same == rep.T["e"] + rep.T["f"]
    assert t.summary()["graph.enumerate_paths"]["paths_out"] >= len(plain)


def test_wrapped_function_reraises_the_same_exception():
    with pytest.raises(StructuralError) as plain:
        cli.parse_rational("1/0")
    t = tracing.Tracer().install()
    try:
        with pytest.raises(StructuralError) as traced:
            cli.parse_rational("1/0")
    finally:
        t.uninstall()
    assert str(traced.value) == str(plain.value)
    # the span is closed even though the call raised
    assert t.summary()["cli.parse_rational"]["calls"] == 1
    assert not t._stack


def test_uninstall_restores_every_binding():
    before = {
        (m, k): v
        for m in tracing.LAYER_MODULES
        for k, v in vars(sys.modules[f"suspquiver.{m}"]).items()
    }
    methods = (operators.SparseOperator.__add__, graph.IntMatrix.__matmul__)
    t = tracing.Tracer().install()
    assert sys.modules["suspquiver.opalg"].build_rep is not before[("opalg", "build_rep")]
    assert sys.modules["suspquiver.cli"].build_rep is sys.modules["suspquiver.operators"].build_rep
    t.uninstall()
    after = {
        (m, k): v
        for m in tracing.LAYER_MODULES
        for k, v in vars(sys.modules[f"suspquiver.{m}"]).items()
    }
    assert after == before
    assert (operators.SparseOperator.__add__, graph.IntMatrix.__matmul__) == methods


def test_class_methods_are_spans_of_their_module():
    members = dict(vars(graph.IntMatrix))
    t = tracing.Tracer().install()
    try:
        rep = operators.build_rep(two_loop(), 2)
        rep.T["e"].adjoint()
        eye = graph.IntMatrix.identity(2)  # a classmethod stays one
    finally:
        t.uninstall()
    summary = t.summary()
    assert summary["operators.SparseOperator.adjoint"]["calls"] == 1
    assert summary["graph.IntMatrix.identity"]["calls"] == 1
    assert "graph.Graph.r" not in summary  # too hot to wrap
    assert dict(vars(graph.IntMatrix)) == members
    assert graph.IntMatrix.identity(2).entries == eye.entries == [1, 0, 0, 1]


def test_nested_self_times_sum_to_the_root_span():
    t = tracing.Tracer()

    def leaf(n):
        return sum(range(n))

    wrapped_leaf = t.wrap("x.leaf", leaf)

    def middle(n):
        return wrapped_leaf(n) + wrapped_leaf(2 * n)

    wrapped_middle = t.wrap("x.middle", middle)
    root = t.wrap("x.root", lambda n: wrapped_middle(n) + wrapped_leaf(n))
    root(20000)
    total_self = sum(agg["self_ms"] for agg in t.summary().values())
    assert total_self == pytest.approx(t.root_ms(), rel=1e-9, abs=1e-9)
    assert t.summary()["x.leaf"]["calls"] == 3


def test_self_times_of_a_real_command_sum_to_cli_main(tracer, workdir, capsys, monkeypatch):
    monkeypatch.chdir(workdir)
    assert cli.main(["verify", "cycle_plus_loop.json", "--suite", "all", "--l", "1/2"]) == 0
    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == 1
    total_self = sum(agg["self_ms"] for agg in summary.values())
    assert total_self == pytest.approx(tracer.root_ms(), rel=1e-6)
    assert summary["operators.build_rep"]["distinct"] <= summary["operators.build_rep"]["calls"]


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "cycle_plus_loop.json", "--suite", "all", "--l", "2/3"),
        ("ktheory", "two_loop.json", "--l", "3"),
        ("transform", "cycle_plus_loop.json", "--op", "dual:1,3"),
        ("quiver", "two_loop.json", "--m", "2", "--t", "1/3", "--n", "3"),
        ("flow", "two_loop.json", "--start", "e,f,e,f", "--count", "4"),
        ("ktheory", "with_source.json"),
        ("transform", "two_loop.json", "--op", "frob:2"),
    ],
)
def test_traced_and_untraced_runs_print_identical_output(argv, server):
    plain = server.run(argv, False)
    traced = server.run(argv, True)
    assert plain["trace"] is None and traced["trace"]
    for field in ("exit", "exception", "stdout", "stderr"):
        assert traced[field] == plain[field], field


def test_no_module_state_carries_between_commands(workdir, monkeypatch):
    monkeypatch.chdir(workdir)

    def state():
        return {m: dict(vars(mod)) for m, mod in sys.modules.items() if m.startswith("suspquiver")}

    before = state()
    request = {"argv": ["ktheory", "two_loop.json", "--l", "2"], "trace": 1, "timeout": 60}
    first = child.fork_one(cli, request)
    assert first["trace"] and first["exit"] == 0
    assert state() == before  # the traced command patched only its own process
    second = child.fork_one(cli, {**request, "trace": 0})
    assert second["trace"] is None
    assert second["stdout"] == first["stdout"]


def test_gate_ignores_detail_and_notes():
    a = "CHECK tck.x PASS basis=5\nNOTE something\nCHECK eta.y FAIL why"
    b = "CHECK eta.y FAIL other words\nCHECK tck.x PASS\nNOTE reworded"
    assert gate.result_lines("verify", a) == gate.result_lines("verify", b)
    assert gate.result_lines("verify", a) == ["CHECK eta.y FAIL", "CHECK tck.x PASS"]


def test_gate_counts_exceptions_and_tracebacks_as_failures():
    c = workloads.cmd("ktheory", "two_loop", "--l", "1")
    ok = {"exit": 0, "exception": None, "stdout": "K0 = Z\nK1 = Z\n", "stderr": ""}
    golden = {c.key: gate.outcome(c.argv, ok)}
    assert gate.failure(c, ok, golden) == ""
    assert gate.failure(c, {**ok, "stdout": "K0 = Z/2\nK1 = Z\n"}, golden)
    assert gate.failure(c, {**ok, "exit": None, "exception": "RecursionError"}, golden)
    assert gate.failure(c, {**ok, "stderr": "Traceback (most recent call last):\n"}, golden)
    assert gate.failure(c, {**ok, "exit": 3}, golden)
    defect = workloads.cmd("quiver", "single_loop", "--n", "1200", defect="RecursionError")
    assert gate.failure(defect, {**ok, "exit": 2}, {}) == ""
    assert gate.failure(defect, {**ok, "exit": None, "exception": "RecursionError"}, {})


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in (11, 21, 25, 29, 100):
        values = [float(i) for i in range(n)]
        p, v = run.tail_percentile(values)
        assert sum(x > v for x in values) == 10
        assert p == (100 * (n - 10)) // n


def test_seeded_inputs_are_reproducible_and_in_band():
    golden = run.load_golden()
    for w in workloads.WORKLOADS:
        a = workloads.build(w, 7, golden["pools"])
        assert a == workloads.build(w, 7, golden["pools"])
        assert all(c.key in golden["outcomes"] or c.defect for c in a[0])
    for kind, pool in golden["pools"].items():
        for s in pool:
            workloads.seeded_graph(kind, s)  # raises when out of band


def test_conftest_generator_is_reproduced():
    sys.path.insert(0, str(run.ROOT / "tests"))
    try:
        from conftest import random_no_sink_source_graph
    finally:
        sys.path.pop(0)
    for seed in range(20):
        vs, edges = workloads.conftest_graph(seed, 5, 6)
        g = random_no_sink_source_graph(seed)
        assert list(g.vertices) == vs
        assert [(e.id, e.src, e.dst) for e in g.edges] == edges


def test_benchmark_json_names_every_metric():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
