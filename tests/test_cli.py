"""CLI contract: parsing, exit codes, determinism, round trips."""

import contextlib
import gc
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suspquiver import Graph, StructuralError, cli, delay, fibre_paths, flow, opalg
from suspquiver import operators, opposite, transform
from suspquiver.graph import _layer_sizes
from suspquiver.report import Check, RunReport, rat_str

from conftest import odd_id_graphs, reference_higher_dual, small_graphs

TWO_LOOP = {
    "vertices": ["v"],
    "edges": [
        {"id": "e", "src": "v", "dst": "v"},
        {"id": "f", "src": "v", "dst": "v"},
    ],
}

SINGLE_LOOP = {"vertices": ["v"], "edges": [{"id": "e", "src": "v", "dst": "v"}]}

CYCLE_PLUS_LOOP = {
    "vertices": ["u", "v"],
    "edges": [
        {"id": "p", "src": "u", "dst": "v"},
        {"id": "q", "src": "v", "dst": "u"},
        {"id": "l", "src": "u", "dst": "u"},
    ],
}

# two loops whose ids, joined with ",", can spell the same word
COMMA_LOOPS = {
    "vertices": ["v"],
    "edges": [
        {"id": "a", "src": "v", "dst": "v"},
        {"id": "a,a", "src": "v", "dst": "v"},
    ],
}

# ids holding what the writers escape or must keep apart: ",", "\\", '"',
# "%s", "(x)" and non-ASCII characters
ODD_IDS = {
    "vertices": ["v,\\", "é%s"],
    "edges": [
        {"id": "a,b", "src": "v,\\", "dst": "é%s"},
        {"id": "(x)", "src": "é%s", "dst": "v,\\"},
        {"id": '%s"\\', "src": "v,\\", "dst": "v,\\"},
        {"id": "𝔼", "src": "é%s", "dst": "é%s"},
    ],
}

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
DATA = os.path.join(os.path.dirname(GOLDEN), "data")

# D_2(E) would hold the vertex w(e,1) twice
CHAIN_NAMED = {"vertices": ["v", "w(e,1)"], "edges": [{"id": "e", "src": "v", "dst": "v"}]}

SINGLE_EDGE = {
    "vertices": ["u", "v"],
    "edges": [{"id": "e", "src": "u", "dst": "v"}],
}


@pytest.fixture
def two_loop_file(tmp_path):
    path = tmp_path / "two_loop.json"
    path.write_text(json.dumps(TWO_LOOP))
    return str(path)


@pytest.fixture
def cycle_plus_loop_file(tmp_path):
    path = tmp_path / "cycle_plus_loop.json"
    path.write_text(json.dumps(CYCLE_PLUS_LOOP))
    return str(path)


@pytest.fixture
def single_loop_file(tmp_path):
    path = tmp_path / "single_loop.json"
    path.write_text(json.dumps(SINGLE_LOOP))
    return str(path)


def test_transform_delay_counts(two_loop_file, capsys):
    assert cli.main(["transform", two_loop_file, "--op", "delay:3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["vertices"]) == 5 and len(doc["edges"]) == 6


def test_transform_power_one_roundtrip(two_loop_file, capsys):
    assert cli.main(["transform", two_loop_file, "--op", "power:1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    canonical = json.loads(json.dumps(TWO_LOOP))
    assert doc == canonical


def test_transform_bad_params(two_loop_file, capsys):
    assert cli.main(["transform", two_loop_file, "--op", "dual:2,1"]) == 2
    assert cli.main(["transform", two_loop_file, "--op", "spin"]) == 1
    capsys.readouterr()


def test_parse_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert cli.main(["transform", str(bad), "--op", "opposite"]) == 1
    capsys.readouterr()


MALFORMED_FILES = {
    # UnicodeDecodeError, RecursionError and int()'s digit limit from the read
    "not_utf8": b"\xff",
    # past the first 8 KiB, where a reader that decodes in chunks would give a
    # position within its chunk
    "not_utf8_far": b'{"vertices": ["v"], "edges": [], "pad": "' + b"a" * 9000 + b'\xff"}',
    "deep": b"[" * 100_000 + b"]" * 100_000,
    "long_int": b'{"vertices": ["v"], "edges": [], "n": ' + b"9" * 5000 + b"}",
    # a position counted in the text with its newlines translated, "\r\n" one
    # character
    "crlf": b'{"vertices": ["v"],\r\n "edges": x}',
    # json refuses a byte-order mark with its own message
    "bom": b'\xef\xbb\xbf{"vertices": ["v"], "edges": []}',
}


@pytest.mark.parametrize("name", MALFORMED_FILES)
def test_malformed_graph_file_refused(tmp_path, capsys, name):
    if name == "long_int" and not getattr(sys, "get_int_max_str_digits", lambda: 0)():
        pytest.skip("this Python has no limit on int-string conversion")
    path = tmp_path / "g.json"
    path.write_bytes(MALFORMED_FILES[name])
    assert cli.main(["transform", str(path), "--op", "opposite"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("ERROR structural: cannot parse graph file: ")
    assert err.count("\n") == 1
    if name == "bom":
        assert "Unexpected UTF-8 BOM (decode using utf-8-sig)" in err
    if name == "not_utf8_far":  # the byte's offset in the file
        assert "can't decode byte 0xff in position 9041: invalid start byte" in err
    if name == "crlf":
        assert err.endswith("Expecting value: line 2 column 11 (char 30)\n")


BAD_GRAPH_DOCUMENTS = [
    {**SINGLE_LOOP, field: value}
    for field in ("vertices", "edges")
    for value in ("uv", {"u": 1, "v": 2}, 3)
] + [{"vertices": ["v"], "edges": [edge]} for edge in ("e", ["e", "v", "v"], 3)]


@pytest.mark.parametrize("doc", BAD_GRAPH_DOCUMENTS)
def test_bad_graph_document_refused(tmp_path, capsys, doc):
    # a string or an object is not read as its characters or keys
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["ktheory", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ERROR structural: bad graph document")


def test_graph_roundtrip_is_canonical(tmp_path, capsys):
    # write(parse(f)) is the canonical form of f, and is idempotent
    path = tmp_path / "g.json"
    path.write_text(json.dumps(TWO_LOOP, indent=None))
    g = cli.parse_graph_file(str(path))
    once = _write_graph(g)
    path.write_text(once)
    assert _write_graph(cli.parse_graph_file(str(path))) == once


def _write_graph(g: Graph) -> str:
    """write_graph on g's own vertex ids and edge triples, as one block."""
    out = io.StringIO()
    cli.write_graph(out, g.vertices, [(None, [(e.id, e.src, e.dst) for e in g.edges])])
    return out.getvalue()


def _dumps_graph(g: Graph) -> str:
    """The oracle of write_graph: the same document through json.dumps."""
    doc = {
        "vertices": list(g.vertices),
        "edges": [{"id": e.id, "src": e.src, "dst": e.dst} for e in g.edges],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "g",
    [
        Graph([], []),
        Graph(["u", "v"], []),
        Graph(["é", "v"], [("é→v", "é", "v"), ("𝔼", "v", "v")]),
        Graph(['a"b', "c\\d"], [("x\ty", 'a"b', "c\\d"), ("\x00\x1f\x7f", "c\\d", 'a"b')]),
    ],
    ids=["empty", "no_edges", "non_ascii", "escapes"],
)
def test_graph_to_json_matches_json_dumps(g):
    assert _write_graph(g) == _dumps_graph(g)


@given(g=small_graphs())
def test_graph_to_json_matches_json_dumps_on_small_graphs(g):
    assert _write_graph(g) == _dumps_graph(g)


@given(ids=st.lists(st.text(min_size=1), max_size=4, unique=True))
def test_graph_to_json_matches_json_dumps_on_any_ids(ids):
    # each id names a vertex and the loop at it
    g = Graph(ids, [(i, i, i) for i in ids])
    assert _write_graph(g) == _dumps_graph(g)


def test_ktheory_pinned(two_loop_file, capsys):
    assert cli.main(["ktheory", two_loop_file, "--l", "2/3"]) == 0
    out = capsys.readouterr().out
    assert "K0 = Z/3" in out and "K1 = 0" in out


def test_ktheory_hypotheses_unmet(single_loop_file, capsys):
    assert cli.main(["ktheory", single_loop_file, "--l", "1/2"]) == 2
    out = capsys.readouterr().out
    assert "rotation-algebra" in out


def test_ktheory_homology_at_zero(two_loop_file, tmp_path, capsys):
    # Z (+) H1 on a connected graph; two disjoint loops report H0 (+) H1, flagged
    assert cli.main(["ktheory", two_loop_file, "--l", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "ROUTE Z (+) H1(E) for the connected CW realisation" in out
    assert not any(line.startswith("FLAG") for line in out)
    assert out[-2:] == ["K0 = Z^3", "K1 = Z^3"]
    path = tmp_path / "two_components.json"
    path.write_text(json.dumps({"vertices": ["u", "v"], "edges": [
        {"id": "a", "src": "u", "dst": "u"}, {"id": "b", "src": "v", "dst": "v"}]}))
    assert cli.main(["ktheory", str(path), "--l", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "ROUTE homology groups H0 (+) H1 reported symbolically" in out
    assert "FLAG formula outside proven scope" in out
    assert out[-2:] == ["K0 = Z^4", "K1 = Z^4"]


def test_ktheory_bad_rationals(two_loop_file, capsys):
    assert cli.main(["ktheory", two_loop_file, "--l", "x/y"]) == 1
    assert cli.main(["ktheory", two_loop_file, "--l", "2/4"]) == 2
    assert cli.main(["ktheory", two_loop_file, "--l", "1/2000000"]) == 2
    capsys.readouterr()


def test_verify_bad_rationals(two_loop_file, capsys):
    assert cli.main(["verify", two_loop_file, "--suite", "morita", "--l", "2/4"]) == 2
    capsys.readouterr()


def test_verify_all_passes(two_loop_file, capsys):
    assert cli.main(["verify", two_loop_file, "--suite", "all", "--L", "4"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "CHECK" in out


@pytest.mark.parametrize(
    "graph,l,golden",
    [
        (CYCLE_PLUS_LOOP, "2/3", "verify_cycle_plus_loop_l2-3.txt"),
        (TWO_LOOP, "2", "verify_two_loop_l2.txt"),
    ],
)
def test_verify_all_stdout_pinned(tmp_path, capsys, graph, l, golden):
    # every check line with its detail: C constants, counts, vacuous labels
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    assert cli.main(["verify", str(path), "--suite", "all", "--l", l]) == 0
    with open(os.path.join(GOLDEN, golden), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


def test_verify_limits_non_vacuous_at_seed_1(tmp_path, capsys):
    # at seed 1 the seeded vertex values and lattice weights make every limit
    # error nonzero: the four constants C of ||err||^2 = C d^2 are pinned, and
    # no sequence reads "vacuous"
    path = tmp_path / "g.json"
    path.write_text(json.dumps(CYCLE_PLUS_LOOP))
    args = ["verify", str(path), "--suite", "limits", "--l", "1/2", "--seed", "1"]
    assert cli.main(args) == 0
    out = capsys.readouterr().out
    assert "C rho_at_0=9/64 psi_at_0=1/16 rho_at_1=9/64 psi_at_1=1/16" in out
    assert "vacuous" not in out and "FAIL" not in out


def test_verify_limits_non_vacuous_at_default_seed(tmp_path, capsys):
    # seed 0 first draws 3/8 for both vertices; the seeded values are redrawn
    # until two vertices differ, so rho is not vacuous at the default seed
    path = tmp_path / "g.json"
    path.write_text(json.dumps(CYCLE_PLUS_LOOP))
    assert cli.main(["verify", str(path), "--suite", "limits", "--l", "1/2"]) == 0
    out = capsys.readouterr().out
    assert "vacuous" not in out and "FAIL" not in out


def test_comma_edge_ids_transform_and_verify(tmp_path, capsys):
    path = tmp_path / "comma.json"
    path.write_text(json.dumps(COMMA_LOOPS))
    assert cli.main(["transform", str(path), "--op", "power:2"]) == 0
    ids = [e["id"] for e in json.loads(capsys.readouterr().out)["edges"]]
    assert len(ids) == len(set(ids)) == 4
    assert cli.main(["verify", str(path), "--suite", "all", "--l", "1/2"]) == 0
    out = capsys.readouterr().out
    assert "CHECK" in out and "FAIL" not in out


def test_verify_does_not_import_numpy(two_loop_file):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, contextlib, io\n"
        "from suspquiver import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = cli.main(['verify', {two_loop_file!r}, '--suite', 'all'])\n"
        "assert rc == 0, rc\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_verify_unknown_suite(two_loop_file, capsys):
    assert cli.main(["verify", two_loop_file, "--suite", "nope"]) == 1
    capsys.readouterr()


def test_verify_sources_present(tmp_path, capsys):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(SINGLE_EDGE))
    assert cli.main(["verify", str(path), "--suite", "tck"]) == 2
    capsys.readouterr()


def test_verify_json_deterministic(two_loop_file, capsys):
    args = ["verify", two_loop_file, "--suite", "all", "--json", "--seed", "3"]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    assert cli.main(args) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert doc["ok"] is True
    assert set(doc) == {"checks", "ok"}


def test_verify_max_l_env(two_loop_file, capsys, monkeypatch):
    monkeypatch.setenv("SUSPEND_MAX_L", "2")
    assert cli.main(["verify", two_loop_file, "--suite", "tck", "--L", "9"]) == 0
    out = capsys.readouterr().out
    assert "interior depth 1" in out
    monkeypatch.setenv("SUSPEND_MAX_L", "frog")
    assert cli.main(["verify", two_loop_file, "--suite", "tck"]) == 1
    capsys.readouterr()


def test_flow_orbit(two_loop_file, capsys):
    assert (
        cli.main(
            ["flow", two_loop_file, "--start", "e,f,e,f", "--step", "1/2", "--count", "3"]
        )
        == 0
    )
    out = capsys.readouterr().out.splitlines()
    assert out == ["0\te,f,e,f", "1/2\te,f,e,f", "0\tf,e,f", "1/2\tf,e,f"]


def test_flow_precision_exhaustion(two_loop_file, capsys):
    rc = cli.main(["flow", two_loop_file, "--start", "e,f", "--step", "2", "--count", "3"])
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "start,step,count,err",
    [
        # the two-millionth step is the first to run out: taking the steps
        # before it costs about 20 s and 174 MB, so none of them is taken
        ("e,e", "1/1000000", "100000000", "needs 1 shifts but prefix has length 1"),
        # the fourth step needs 2 shifts of the 1 edge that the first three left
        ("e,f,e,f,e", "3/2", "4", "needs 2 shifts but prefix has length 1"),
    ],
)
def test_flow_past_the_prefix_is_refused_up_front(two_loop_file, capsys, start, step, count, err):
    began = time.perf_counter()
    rc = cli.main(["flow", two_loop_file, "--start", start, "--step", step, "--count", count])
    assert time.perf_counter() - began < 1
    assert rc == 2
    assert capsys.readouterr() == ("", f"ERROR precondition: {err}\n")


def test_flow_negative_count_refused(two_loop_file, capsys):
    rc = cli.main(["flow", two_loop_file, "--start", "e,f", "--count", "-3"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ERROR precondition: count must be >= 0\n"
    assert cli.main(["flow", two_loop_file, "--start", "e,f", "--count", "0"]) == 0
    assert capsys.readouterr().out == "0\te,f\n"


@pytest.mark.parametrize(
    "start,err",
    [
        # no graph file holds an empty edge id, so the prefix is not that of e,f
        ("e,,f", "empty edge id in start prefix 'e,,f'"),
        ("e,", "empty edge id in start prefix 'e,'"),
        (",e", "empty edge id in start prefix ',e'"),
        ("", "empty start prefix"),
        (",", "empty start prefix"),
    ],
)
def test_flow_empty_edge_id_refused(two_loop_file, capsys, start, err):
    assert cli.main(["flow", two_loop_file, "--start", start]) == 1
    assert capsys.readouterr() == ("", f"ERROR structural: {err}\n")


@pytest.mark.parametrize("m,n", [(0, 3), (0, 0), (1, -1), (-2, 1)])
def test_quiver_refuses_its_parameters_with_one_message(cycle_plus_loop_file, capsys, m, n):
    assert cli.main(["quiver", cycle_plus_loop_file, "--m", str(m), "--n", str(n)]) == 2
    assert capsys.readouterr() == ("", "ERROR precondition: quiver needs --m >= 1 and --n >= 0\n")


def test_quiver_long_single_loop_fibre(single_loop_file, capsys):
    # a 1200-edge fibre path used to exhaust the recursion limit
    assert cli.main(["quiver", single_loop_file, "--n", "1200"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("FIBRE m=1 t=1/3 n=1200 count=1\n")


def test_quiver_fibre_and_openness(two_loop_file, capsys):
    assert cli.main(["quiver", two_loop_file, "--m", "1", "--t", "1/3", "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert "count=4" in out
    assert cli.main(["quiver", two_loop_file, "--openness"]) == 0
    out = capsys.readouterr().out
    assert "OPEN_ALL s=False r=False" in out


@pytest.mark.parametrize("t,out", [
    ("0", "FIBRE m=2 t=0 n=0 count=2\nVERTEX [u]\nVERTEX [v]\n"),
    ("-2/3", "FIBRE m=2 t=1/3 n=0 count=3\nVERTEX [l,1/3]\nVERTEX [p,1/3]\nVERTEX [q,1/3]\n"),
])
def test_quiver_vertex_anchors_pinned(t, out):
    # the length-0 fibre: the base vertices at t = 0, else [e, t mod 1] per edge
    path = os.path.join(DATA, "cycle_plus_loop.json")
    assert _run_main("quiver", path, "--m", "2", "--t", t, "--n", "0") == (0, out, "")


def _fibre_path_lines(g, m, t, n) -> str:
    """The quiver line format, written from the QuiverPaths of fibre_paths."""
    paths = fibre_paths(g, m, t, n)
    lines = [f"FIBRE m={m} t={rat_str(t % 1)} n={n} count={len(paths)}"]
    for qp in paths:
        if qp.edges:
            words = ["(" + ")(".join(e.word.edge_ids) + ")" for e in qp.edges]
            lines.append("PATH " + " ".join(words))
        else:
            lines.append(f"VERTEX {qp.anchor}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("t", ["0", "1/3", "-2/3"])
@pytest.mark.parametrize("m,n", [(1, 0), (2, 0), (1, 1), (2, 3), (1, 5)])
def test_quiver_lines_match_fibre_paths(tmp_path, capsys, t, m, n):
    # (1, 1) at t = 0 writes one edge id per line, through a single "%s"
    for doc in (CYCLE_PLUS_LOOP, ODD_IDS):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["quiver", str(path), "--m", str(m), "--t", t, "--n", str(n)]) == 0
        g = cli.parse_graph_file(str(path))
        assert capsys.readouterr().out == _fibre_path_lines(g, m, cli.parse_rational(t), n)


def _main_stdout(g: Graph, *argv: str) -> str:
    """cli.main(argv) on g written to a file, which must exit 0: its stdout."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_dumps_graph(g))
        code, out, _ = _run_main(argv[0], path, *argv[1:])
    assert code == 0
    return out


@given(
    g=odd_id_graphs(),
    t=st.sampled_from(["0", "1/3"]),
    mn=st.sampled_from([(1, 0), (1, 1), (2, 1), (1, 2), (1, 3), (2, 2)]),
)
def test_quiver_lines_match_fibre_paths_on_odd_ids(g, t, mn):
    m, n = mn
    out = _main_stdout(g, "quiver", "--m", str(m), "--t", t, "--n", str(n))
    assert out == _fibre_path_lines(g, m, cli.parse_rational(t), n)


@given(g=odd_id_graphs(), pq=st.sampled_from([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
def test_transform_power_and_dual_match_json_dumps(g, pq):
    p, q = pq
    expected = _dumps_graph(transform.higher_dual(g, p, q))
    assert _main_stdout(g, "transform", "--op", f"dual:{p},{q}") == expected
    if p == 0:
        assert _main_stdout(g, "transform", "--op", f"power:{q}") == expected


@pytest.mark.parametrize("op", ["power:8", "dual:1,5"])
def test_transform_builds_only_the_input_graph(two_loop_file, capsys, monkeypatch, op):
    # E(p,q) is written from its triples: the parsed input is the one Graph
    built = []
    real_init = Graph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    assert cli.main(["transform", two_loop_file, "--op", op]) == 0
    assert capsys.readouterr().out
    assert len(built) == 1


def _run_main(*argv: str) -> tuple[int, str, str]:
    """cli.main(argv) in this process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ("transform", "--op", "dual:1,3"),
        ("quiver", "--m", "2", "--t", "-5/2", "--n", "3"),
        ("ktheory", "--l", "-1/2", "--json"),
        ("flow", "--start", "l,q,p,l,q,p", "--t", "4/3", "--step", "2/7", "--count", "9"),
    ],
)
def test_commands_build_no_fraction(cycle_plus_loop_file, monkeypatch, argv):
    # rationals are parsed and stepped as pairs of ints on these commands:
    # each prints the same with Fraction construction made to raise
    code, out, err = _run_main(argv[0], cycle_plus_loop_file, *argv[1:])

    def refuse(cls, *args, **kwargs):
        raise AssertionError(f"Fraction{args} built")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    assert _run_main(argv[0], cycle_plus_loop_file, *argv[1:]) == (code, out, err)
    assert code == 0 and out.count("\n") > 5


@given(g=st.one_of(small_graphs(), odd_id_graphs()))
@settings(max_examples=40, deadline=None)
def test_streamed_output_matches_the_whole_document(g):
    # each op of transform against json.dumps of the graph it writes (E(p,q)
    # built path by path), and each fibre against its formatted QuiverPaths,
    # where the layers they stream hold at most 2,000 paths
    small = lambda k: sum(itertools.islice(_layer_sizes(g), k)) <= 2000
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_dumps_graph(g))
        ops = {"opposite": lambda: opposite(g)}
        ops.update({f"delay:{n}": lambda n=n: delay(g, n) for n in (1, 2, 3)})
        ops.update({
            f"dual:{p},{q}": lambda p=p, q=q: reference_higher_dual(g, p, q)
            for q in range(1, 7) for p in range(q) if small(q)
        })
        ops.update({f"power:{q}": ops[f"dual:0,{q}"] for q in range(1, 7) if small(q)})
        for op, build in ops.items():
            try:
                expected = 0, _dumps_graph(build()), ""
            except StructuralError as exc:  # a vertex named like a chain vertex
                expected = 1, "", f"ERROR structural: {exc}\n"
            assert _run_main("transform", path, "--op", op) == expected
        for m, t, n in itertools.product((1, 2, 3), ("0", "1/3", "5/2"), range(7)):
            r = cli.parse_rational(t)
            if small(n * m + (r % 1 != 0)):
                argv = ("--m", str(m), "--t", t, "--n", str(n))
                assert _run_main("quiver", path, *argv) == (0, _fibre_path_lines(g, m, r, n), "")


def test_transform_output_file_matches_stdout(two_loop_file, tmp_path):
    for op in ("power:9", "dual:2,9", "dual:6,9", "delay:4", "opposite"):
        target = tmp_path / "out.json"
        assert _run_main("transform", two_loop_file, "--op", op, "-o", str(target)) == (0, "", "")
        assert target.read_text(encoding="utf-8") == _run_main("transform", two_loop_file, "--op", op)[1]


REFUSED = {
    # a vertex of E named like a chain vertex of D_2(E)
    "delay_chain_name": ("transform", CHAIN_NAMED, "--op", "delay:2"),
    "delay_zero": ("transform", TWO_LOOP, "--op", "delay:0"),
    "delay_over_the_cap": ("transform", TWO_LOOP, "--op", "delay:100000"),
    "power_zero": ("transform", TWO_LOOP, "--op", "power:0"),
    "power_over_the_cap": ("transform", TWO_LOOP, "--op", "power:40"),
    "dual_order": ("transform", TWO_LOOP, "--op", "dual:3,2"),
    "dual_one_param": ("transform", TWO_LOOP, "--op", "dual:1"),
    "dual_over_the_cap": ("transform", TWO_LOOP, "--op", "dual:1,40"),
    "unknown_op": ("transform", TWO_LOOP, "--op", "frob:2"),
    "quiver_over_the_cap": ("quiver", TWO_LOOP, "--m", "2", "--t", "1/3", "--n", "9"),
    "quiver_m_zero": ("quiver", TWO_LOOP, "--m", "0", "--n", "3"),
    "quiver_n_negative": ("quiver", TWO_LOOP, "--n", "-1"),
    "quiver_bad_t": ("quiver", TWO_LOOP, "--t", "2/4", "--n", "3"),
    "flow_empty_edge_id": ("flow", TWO_LOOP, "--start", "e,,f"),
    "flow_trailing_comma": ("flow", TWO_LOOP, "--start", "e,"),
}


@pytest.mark.parametrize("argv", REFUSED.values(), ids=REFUSED.keys())
def test_refused_commands_write_nothing(tmp_path, argv):
    command, doc, *options = argv
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run_main(command, str(path), *options)
    assert code in (1, 2) and out == "" and err.startswith("ERROR ")
    if command == "transform":  # and -o opens no file
        target = tmp_path / "out.json"
        assert _run_main(command, str(path), *options, "-o", str(target)) == (code, out, err)
        assert not target.exists()


@pytest.mark.parametrize("target", ["missing/x.json", "."])
def test_transform_refuses_an_output_it_cannot_write(two_loop_file, tmp_path, target):
    code, out, err = _run_main("transform", two_loop_file, "--op", "power:3", "-o", str(tmp_path / target))
    assert (code, out) == (1, "")
    assert err.startswith(f"ERROR structural: cannot write {str(tmp_path / target)!r}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "doc,argv",
    [
        (TWO_LOOP, ["transform", "--op", "power:14"]),
        (COMMA_LOOPS, ["transform", "--op", "power:14"]),
        (TWO_LOOP, ["quiver", "--m", "2", "--t", "1/3", "--n", "6"]),
    ],
    ids=["power", "power_comma_ids", "quiver"],
)
def test_streamed_output_is_not_held_in_memory(tmp_path, doc, argv):
    # 16,384 edges of E(0,14), and 8,192 fibre paths of 13 edges on two
    # loops: what is held at once is the half layers and one block of text;
    # transform writes to its -o file, quiver to stdout sent to a file
    path, stdout, out = tmp_path / "g.json", tmp_path / "stdout.txt", tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    if argv[0] == "transform":
        argv = [*argv, "-o", str(out)]
    with open(stdout, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        tracemalloc.start()
        try:
            assert cli.main([argv[0], str(path), *argv[1:]]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    written = (out if argv[0] == "transform" else stdout).stat().st_size
    assert peak < written / 4


@pytest.mark.parametrize(
    "argv",
    [
        ["quiver", "--m", "2", "--t", "1/3", "--n", "7"],
        ["transform", "--op", "power:16"],
        ["flow", "--start", "e,e,e,e", "--step", "0", "--count", "100000"],
    ],
)
def test_a_closed_pipe_ends_quietly(two_loop_file, argv):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "suspquiver.cli", argv[0], two_loop_file, *argv[1:]],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.readline()
    proc.stdout.close()  # as `| head -1` does
    err = proc.stderr.read().decode()
    assert proc.wait() in (0, 1, 2)
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["quiver", "--m", "1", "--n", "40"],
        ["quiver", "--m", "2", "--t", "1/3", "--n", "9"],
        ["transform", "--op", "power:40"],
        ["transform", "--op", "dual:1,40"],
    ],
)
def test_enumeration_over_the_cap_is_refused(two_loop_file, capsys, argv):
    assert cli.main([argv[0], two_loop_file, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ERROR precondition: paths of length <= ")
    assert f"hold over {2**23} edge ids" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "suite,l",
    [("limits", "22"), ("eta", "22"), ("kappa", "22"), ("morita", "22"),
     ("morita", "22/3"), ("all", "22")],
)
def test_verify_over_the_cap_is_refused(two_loop_file, capsys, suite, l):
    # E(1,23), the weights on E^22 and D_n(E)(0,22) hold 2^22 paths and more
    assert cli.main(["verify", two_loop_file, "--suite", suite, "--l", l, "--L", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ERROR precondition: paths of length <= ")
    assert f"hold over {2**23} edge ids" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "suite,l,L,message",
    [("flow", "1/6251", "4", "flow checks 100016 cases, over 100000; refusing to build D_6251(E)"),
     ("morita", "1/9999", "4",
      "morita builds D_9999(E)(0,1) at L=4 on 100001 basis paths, over 100000; "
      "refusing to build it"),
     ("all", "1/1000000", "1",
      "flow checks 2000000 cases, over 100000; refusing to build D_1000000(E)")],
)
def test_verify_delay_suites_over_the_cap_are_refused(two_loop_file, capsys, suite, l, L, message):
    # on two loops: 16 paths of length 4 at 6251 phases each; |D_n(E)^K| for
    # K = 0..4 at n = 9999, 19,997 + 19,998 + 20,000 + 20,002 + 20,004 basis
    # paths; flow's count comes first under --suite all
    assert cli.main(["verify", two_loop_file, "--suite", suite, "--l", l, "--L", L]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ERROR precondition: {message}\n"


def test_verify_delay_suites_run_at_the_cap(two_loop_file, capsys, monkeypatch):
    # two loops at --L 4: 16 paths of length 4, so 32 flow cases at --l 1/2;
    # D_2(E)(0,1) holds 3 + 4 + 6 + 8 + 12 = 33 basis paths, D_3(E)(0,1) 41
    monkeypatch.setattr(cli, "MAX_SUITE_SIZE", 32)
    assert cli.main(["verify", two_loop_file, "--suite", "flow", "--l", "1/2"]) == 0
    assert cli.main(["verify", two_loop_file, "--suite", "flow", "--l", "1/3"]) == 2
    monkeypatch.setattr(cli, "MAX_SUITE_SIZE", 33)
    assert cli.main(["verify", two_loop_file, "--suite", "morita", "--l", "1/2"]) == 0
    assert cli.main(["verify", two_loop_file, "--suite", "morita", "--l", "1/3"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "ERROR precondition: flow checks 48 cases, over 32; refusing to build D_3(E)",
        "ERROR precondition: morita builds D_3(E)(0,1) at L=4 on 41 basis paths, over 33; "
        "refusing to build it",
    ]


@pytest.mark.parametrize("l,L", [("1/1000000", "1"), ("1/9999", "4")])
def test_verify_morita_basis_is_counted_before_the_delay_graph(
    two_loop_file, capsys, monkeypatch, l, L
):
    # the count comes from E alone: building D_200000(E) takes 6 s and 515 MB
    def refuse(*args):
        raise AssertionError("D_n(E) built")

    monkeypatch.setattr(opalg, "delay", refuse)
    start = time.perf_counter()
    assert cli.main(["verify", two_loop_file, "--suite", "morita", "--l", l, "--L", L]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR precondition: morita builds D_{l[2:]}(E)(0,1) at L={L} on ")


@pytest.mark.parametrize("l", ["5", "6"])
def test_verify_all_refuses_before_any_suite_is_called(two_loop_file, capsys, monkeypatch, l):
    def refuse(*args):
        raise AssertionError("a suite ran")

    for name in ("check_tck", "jmath", "limit_formulas", "eta_generators", "kappa_eval",
                 "morita_combinatorics"):
        monkeypatch.setattr(opalg, name, refuse)
    monkeypatch.setattr(flow, "lattice_decomposition_check", refuse)
    assert cli.main(["verify", two_loop_file, "--suite", "all", "--l", l]) == 2
    assert capsys.readouterr().err.startswith(f"ERROR precondition: morita builds D_1(E)(0,{l}) ")


@pytest.mark.parametrize(
    "suite,l,L,shifts,length",
    [("flow", "2", "1", 2, 1), ("flow", "2/3", "1", 1, 1), ("all", "4", "3", 4, 3),
     ("flow", "6", "9", 6, 5)],
)
def test_verify_flow_shift_shortage_is_refused_up_front(
    two_loop_file, capsys, monkeypatch, suite, l, L, shifts, length
):
    # refused before any suite runs, naming l, L and the shifts needed
    def refuse(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(opalg, "check_tck", refuse)
    monkeypatch.setattr(flow, "lattice_decomposition_check", refuse)
    assert cli.main(["verify", two_loop_file, "--suite", suite, "--l", l, "--L", L]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"ERROR precondition: flow at l={l} shifts each path by up to {shifts}, so it needs "
        f"paths longer than {shifts}; L={L} gives length {length}\n"
    )


def test_verify_flow_runs_at_the_most_shifts(two_loop_file, capsys):
    # at --L 3 a path of length 3 takes 2 shifts: l = 2 and 5/3 run, while at
    # 7/3 the phase 2/3 needs 3
    assert cli.main(["verify", two_loop_file, "--suite", "flow", "--l", "2", "--L", "3"]) == 0
    assert cli.main(["verify", two_loop_file, "--suite", "flow", "--l", "5/3", "--L", "3"]) == 0
    assert cli.main(["verify", two_loop_file, "--suite", "flow", "--l", "7/3", "--L", "3"]) == 2
    assert capsys.readouterr().out.count("CHECK flow.lattice_decomposition PASS") == 2


def test_flow_short_suffix_embedding_fails_the_check(two_loop_file, capsys, monkeypatch):
    # at the default --L 4 the flow checks paths of length 4: the embedding of
    # every proper suffix comes one delay edge short
    real = flow.delay_embed_path

    def short(g, n, mu, D=None):
        image = real(g, n, mu, D)
        return image.window(0, len(image) - 1) if len(mu) < 4 else image

    monkeypatch.setattr(flow, "delay_embed_path", short)
    assert cli.main(["verify", two_loop_file, "--suite", "flow", "--l", "1/2"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("CHECK flow.lattice_decomposition FAIL ")
    assert out.count("\n") == 1 and "first_mismatch=(Path(e e e e), 1)" in out


def test_morita_misreported_endpoint_layer_fails_only_fullness(two_loop_file, capsys, monkeypatch):
    argv = ["verify", two_loop_file, "--suite", "morita", "--l", "2/3"]
    real = opalg._delay_layer
    calls = []

    def counted(D, v):
        calls.append(v)
        return real(D, v)

    monkeypatch.setattr(opalg, "_delay_layer", counted)
    assert cli.main(argv) == 0
    passing = capsys.readouterr().out.splitlines()
    # the last layer read is that of the range of the last emitted edge that
    # the fullness pass checks, which partition_shift never reads after it
    last = len(calls)
    calls.clear()

    def misreported(D, v):
        calls.append(v)
        return (real(D, v) + (len(calls) == last)) % 3

    monkeypatch.setattr(opalg, "_delay_layer", misreported)
    assert cli.main(argv) == 1
    failing = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in failing] == [
        line.split()[:2] + ["FAIL" if "fullness" in line else "PASS"] for line in passing
    ]
    assert "CHECK morita.fullness_reachability FAIL 4 vertices witnessed" in failing


def _verdicts(argv, capsys):
    code = cli.main(argv)
    return code, [line.split()[:3] for line in capsys.readouterr().out.splitlines()]


def _failing(passing, names):
    """The verdicts of passing with exactly the checks of these names failed."""
    assert {name for _, name, _ in passing} >= names
    return [[c, name, "FAIL" if name in names else verdict] for c, name, verdict in passing]


def test_morita_misreported_layer_fails_only_partition_shift(two_loop_file, capsys, monkeypatch):
    # the first layer read is that of a pair endpoint in the partition-shift
    # step, which no later step reads again
    argv = ["verify", two_loop_file, "--suite", "morita", "--l", "2/3"]
    code, passing = _verdicts(argv, capsys)
    assert code == 0 and all(verdict == "PASS" for _, _, verdict in passing)
    real = opalg._delay_layer
    calls = []

    def misreported(D, v):
        calls.append(v)
        return (real(D, v) + (len(calls) == 1)) % 3

    monkeypatch.setattr(opalg, "_delay_layer", misreported)
    assert _verdicts(argv, capsys) == (1, _failing(passing, {"morita.partition_shift"}))


def _column_moved(op, rep):
    """op with its first nonzero column of length <= L - 1 moved to the first
    zero one: op op* is unchanged, op* op is not."""
    interior = [c for c, n in enumerate(rep.basis.lengths) if n <= rep.L - 1]
    used = {c for _, c in op.num}
    old = next(c for c in interior if c in used)
    new = next(c for c in interior if c not in used)
    num = {(r, new if c == old else c): v for (r, c), v in op.num.items()}
    return operators.SparseOperator._of(op.basis, num, op.den)


def test_tck_moved_generator_column_fails_only_tstar_t(cycle_plus_loop_file, capsys, monkeypatch):
    # a column of T_p moved from Q_u's support (paths with range u) to Q_v's
    argv = ["verify", cycle_plus_loop_file, "--suite", "tck"]
    code, passing = _verdicts(argv, capsys)
    assert code == 0
    real = opalg.check_tck

    def faulty(rep, rng):
        rep.T["p"] = _column_moved(rep.T["p"], rep)
        return real(rep, rng)

    monkeypatch.setattr(opalg, "check_tck", faulty)
    assert _verdicts(argv, capsys) == (1, _failing(passing, {"tck.T*T=Q_s"}))


def test_tck_defect_off_the_vacuum_fails_only_defect_is_vacuum(two_loop_file, capsys, monkeypatch):
    # the defect's one unit moved from the vacuum h_v to the column of a path
    # of length 1: still a 0/1 diagonal of rank 1
    argv = ["verify", two_loop_file, "--suite", "tck"]
    code, passing = _verdicts(argv, capsys)
    assert code == 0
    real = operators.TruncatedRep.delta

    def moved(rep, v):
        h = rep.basis.find((), v)
        c = rep.basis.lengths.index(1)
        moved_unit = operators.SparseOperator(rep.basis, {(h, h): -1, (c, c): 1})
        return operators.combo(rep, [(1, real(rep, v)), (1, moved_unit)])

    monkeypatch.setattr(operators.TruncatedRep, "delta", moved)
    assert _verdicts(argv, capsys) == (1, _failing(passing, {"tck.defect_is_vacuum"}))


def test_tck_doubled_long_creation_fails_only_product_formula(two_loop_file, capsys, monkeypatch):
    # T_mu of a word of length >= 2 off by a factor of 2: the generators T_e,
    # which the other checks read, are untouched.  The six sampled products
    # must differ in how many long factors they have on each side, which at
    # the default seed first happens at L = 10
    argv = ["verify", two_loop_file, "--suite", "tck", "--L", "10"]
    code, passing = _verdicts(argv, capsys)
    assert code == 0
    real = operators.TruncatedRep.creation

    def doubled(rep, mu):
        return real(rep, mu).scale(2) if len(mu) >= 2 else real(rep, mu)

    monkeypatch.setattr(operators.TruncatedRep, "creation", doubled)
    assert _verdicts(argv, capsys) == (1, _failing(passing, {"tck.product_formula"}))


def test_tck_defect_off_the_diagonal_fails_only_defect_diagonal(two_loop_file, capsys, monkeypatch):
    # one off-diagonal entry in a column of length L, outside the interior
    # mask that the vacuum and rank checks read
    argv = ["verify", two_loop_file, "--suite", "tck"]
    code, passing = _verdicts(argv, capsys)
    assert code == 0
    real = operators.TruncatedRep.delta

    def off_diagonal(rep, v):
        c = rep.basis.lengths.index(rep.L)
        stray = operators.SparseOperator(rep.basis, {(c - 1, c): 1})
        return operators.combo(rep, [(1, real(rep, v)), (1, stray)])

    monkeypatch.setattr(operators.TruncatedRep, "delta", off_diagonal)
    assert _verdicts(argv, capsys) == (1, _failing(passing, {"tck.defect_diagonal_01"}))


def test_tck_elimination_dropping_a_row_fails_only_rank(two_loop_file, capsys, monkeypatch):
    # the elimination behind rank_on_columns loses its first row, so each
    # defect's one interior row is never seen
    argv = ["verify", two_loop_file, "--suite", "tck"]
    code, passing = _verdicts(argv, capsys)
    assert code == 0
    real = operators._coker_ker_rows
    monkeypatch.setattr(operators, "_coker_ker_rows", lambda rows, n: real(rows[1:], n))
    assert _verdicts(argv, capsys) == (1, _failing(passing, {"ck.defect_interior_rank_1"}))


def test_jmath_moved_image_column_fails_only_tstar_t(cycle_plus_loop_file, capsys, monkeypatch):
    # at each (p,q) a column of one image generator t_mu moved out of the
    # support of q_s(mu): the defect identity reads t t* alone and still holds
    argv = ["verify", cycle_plus_loop_file, "--suite", "jmath"]
    code, passing = _verdicts(argv, capsys)
    assert code == 0 and sum(name == "jmath.t*t=delta_q" for _, name, _ in passing) == 3
    real = opalg._jmath_tables

    def faulty(g, p, q, rep):
        q_table, t_table, heads = real(g, p, q, rep)
        first = next(iter(t_table))
        return q_table, {**t_table, first: _column_moved(t_table[first], rep)}, heads

    monkeypatch.setattr(opalg, "_jmath_tables", faulty)
    assert _verdicts(argv, capsys) == (1, _failing(passing, {"jmath.t*t=delta_q"}))


def test_jmath_zero_defect_fails_only_defect_identity(cycle_plus_loop_file, capsys, monkeypatch):
    # the defect projection of the first vertex of each E(p,q) made zero: its
    # range vertex of E has two p-paths, so the image defect stays nonzero
    argv = ["verify", cycle_plus_loop_file, "--suite", "jmath"]
    code, passing = _verdicts(argv, capsys)
    assert code == 0 and sum(name == "jmath.defect_identity" for _, name, _ in passing) == 3
    real = operators.TruncatedRep.delta

    def zero_first(rep, v):
        return rep.zero() if v == rep.graph.vertices[0] else real(rep, v)

    monkeypatch.setattr(operators.TruncatedRep, "delta", zero_first)
    assert _verdicts(argv, capsys) == (1, _failing(passing, {"jmath.defect_identity"}))


def test_jmath_vanishing_defects_fail_the_injectivity_witness(cycle_plus_loop_file, capsys, monkeypatch):
    # every defect projection of E(p,q) made zero: each image defect sum
    # vanishes, and q_v - sum t t* no longer equals it
    argv = ["verify", cycle_plus_loop_file, "--suite", "jmath"]
    code, passing = _verdicts(argv, capsys)
    assert code == 0
    monkeypatch.setattr(operators.TruncatedRep, "delta", lambda rep, v: rep.zero())
    want = _failing(passing, {"jmath.defect_identity", "jmath.injectivity_witness"})
    assert _verdicts(argv, capsys) == (1, want)


def test_eta_misrouted_summand_fails_only_y_star_y(two_loop_file, capsys, monkeypatch):
    # the first id that opalg joins under --suite eta is that of the first
    # summand T_(e mu) of the first y_mu (mu = e e): routed to T_(e e f), so
    # y_mu sums two generators of different sources.  z and the jmath table
    # it is compared with join their ids later, unchanged
    argv = ["verify", two_loop_file, "--suite", "eta", "--l", "2"]
    code, passing = _verdicts(argv, capsys)
    assert code == 0
    real = opalg.join_ids
    joined = []

    def misrouted(ids):
        joined.append(ids)
        return real(ids[:-1] + ("f",)) if len(joined) == 1 else real(ids)

    monkeypatch.setattr(opalg, "join_ids", misrouted)
    assert _verdicts(argv, capsys) == (1, _failing(passing, {"eta.y*y=|E1r|Q"}))
    assert joined[0] == ("e", "e", "e")


def test_morita_doubled_s_fails_only_ps_tck1(two_loop_file, capsys, monkeypatch):
    # the first S_mu = T_alpha(mu) doubled: S*S = 4 P.  At l = 2/3 the mask
    # 3 <= length <= L - 3 is empty, and S S* is zero on the short columns
    argv = ["verify", two_loop_file, "--suite", "morita", "--l", "2/3"]
    code, passing = _verdicts(argv, capsys)
    assert code == 0
    real = operators.TruncatedRep.creation
    built = []

    def doubled(rep, mu):
        built.append(mu)
        return real(rep, mu).scale(2) if len(built) == 1 else real(rep, mu)

    monkeypatch.setattr(operators.TruncatedRep, "creation", doubled)
    assert _verdicts(argv, capsys) == (1, _failing(passing, {"morita.PS_tck1"}))


def test_morita_doubled_p_fails_only_compact_shadow(two_loop_file, capsys, monkeypatch):
    # P_v doubled on one column of length 2: short (< n = 3), so the defect's
    # short part holds a 2, and past L - n = 1, where S*S = P is checked
    argv = ["verify", two_loop_file, "--suite", "morita", "--l", "2/3"]
    code, passing = _verdicts(argv, capsys)
    assert code == 0
    real = opalg.build_rep

    def doubled(D, L):
        rep = real(D, L)
        c = next(i for i in rep._by_range["v"] if rep.basis.lengths[i] == 2)
        unit = operators.SparseOperator(rep.basis, {(c, c): 1})
        rep.Q["v"] = operators.combo(rep, [(1, rep.Q["v"]), (1, unit)])
        return rep

    monkeypatch.setattr(opalg, "build_rep", doubled)
    want = _failing(passing, {"morita.PS_defect_in_compact_shadow"})
    assert _verdicts(argv, capsys) == (1, want)


@pytest.mark.parametrize("l", ["5", "6"])
def test_verify_all_refuses_the_morita_basis_before_any_suite(two_loop_file, capsys, l):
    # limits, eta and kappa at l = 5 ran for a minute before morita refused
    assert cli.main(["verify", two_loop_file, "--suite", "morita", "--l", l]) == 2
    want = capsys.readouterr()
    start = time.perf_counter()
    assert cli.main(["verify", two_loop_file, "--suite", "all", "--l", l]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == want


@pytest.mark.parametrize("l,basis", [("5", 1082401), ("6", 17043521)])
def test_verify_morita_over_the_basis_cap_is_refused(two_loop_file, capsys, l, basis):
    # D_1(E)(0,m) at the capped L = 4 holds the 1 + 2^m + ... + 2^(4m) paths of
    # two loops of length m k, k <= 4: refused before build_rep is called
    assert cli.main(["verify", two_loop_file, "--suite", "morita", "--l", l]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"ERROR precondition: morita builds D_1(E)(0,{l}) at L=4 on {basis} basis paths, "
        f"over {cli.MAX_SUITE_SIZE}; refusing to build it\n"
    )


def _loops_file(tmp_path, k, extra=()):
    # k loops at v, plus extra (id, src, dst) edges among the vertices u, v, w
    edges = [(f"e{i}", "v", "v") for i in range(k)] + list(extra)
    doc = {"vertices": sorted({x for _, s, d in edges for x in (s, d)} | {"v"}),
           "edges": [{"id": i, "src": s, "dst": d} for i, s, d in edges]}
    path = tmp_path / f"loops{k}_{len(extra)}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "k,args,message",
    [(2, ["--suite", "tck", "--L", "20"],
      "tck builds E at L=20 on at least 131071 basis paths, over 100000"),
     (2, ["--suite", "tck", "--L", "16"],
      "tck builds E at L=16 on 131071 basis paths, over 100000"),
     (6, ["--suite", "jmath"], "jmath builds E(1,3) at L=3 on 287934 basis paths, over 100000"),
     (2, ["--suite", "limits", "--l", "7/3", "--L", "3"],
      "limits builds E(1,8) at L=3 on 4227330 basis paths, over 100000"),
     (10, ["--suite", "kappa"], "kappa builds E(1,2) at L=4 on 111110 basis paths, over 100000"),
     (2, ["--suite", "all", "--L", "17"],
      "tck builds E at L=17 on at least 131071 basis paths, over 100000"),
     # L = sys.maxsize (2^63 - 1 on 64-bit builds) put the stop of the count's
     # islice past sys.maxsize: a ValueError traceback
     (2, ["--suite", "tck", "--L", str(sys.maxsize)],
      f"tck builds E at L={sys.maxsize} on at least 131071 basis paths, over 100000"),
     (2, ["--suite", "tck", "--L", str(sys.maxsize - 1)],
      f"tck builds E at L={sys.maxsize - 1} on at least 131071 basis paths, over 100000"),
     (2, ["--suite", "all", "--L", str(sys.maxsize)],
      f"tck builds E at L={sys.maxsize} on at least 131071 basis paths, over 100000")],
)
def test_verify_representations_over_the_cap_are_refused_unbuilt(
    tmp_path, capsys, monkeypatch, k, args, message
):
    # each basis is counted from E before any representation is built: tck
    # sums 2^k paths of two loops until past the cap, and E(1,3) of six loops
    # holds 6 + 6^3 + 6^5 + 6^7 paths at the capped L = 3
    def refuse(*a):
        raise AssertionError("a representation was built")

    monkeypatch.setattr(cli, "build_rep", refuse)
    monkeypatch.setattr(opalg, "build_rep", refuse)
    start = time.perf_counter()
    assert cli.main(["verify", _loops_file(tmp_path, k), *args]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ERROR precondition: {message}; refusing to build it\n"


@pytest.mark.parametrize(
    "suite,basis", [("tck", 31), ("jmath", 2 + 8 + 32 + 128), ("eta", 2 + 8 + 32 + 128 + 512)]
)
def test_verify_representation_at_the_cap_runs(two_loop_file, capsys, monkeypatch, suite, basis):
    # two loops at --L 4 --l 2: E has 1 + 2 + 4 + 8 + 16 basis paths, the
    # largest jmath graph E(1,3) at L = 3 has |E^1| + |E^3| + |E^5| + |E^7|,
    # and E(1,3) at L = 4 one layer more
    argv = ["verify", two_loop_file, "--suite", suite, "--l", "2"]
    monkeypatch.setattr(cli, "MAX_SUITE_SIZE", basis)
    assert cli.main(argv) == 0
    monkeypatch.setattr(cli, "MAX_SUITE_SIZE", basis - 1)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.endswith(
        f" on {basis} basis paths, over {basis - 1}; refusing to build it\n"
    )


def test_verify_tck_on_a_long_cycle_fits_in_512_mb(single_loop_file):
    # a basis that stored each column's word held L^2/2 edge ids on a cycle:
    # at L = 20000 it died of a MemoryError traceback under this limit.  The
    # trie keeps a parent and a last edge per column
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "suspquiver.cli", "verify", single_loop_file,
         "--suite", "tck", "--L", "20000"],
        env=env, capture_output=True, text=True, preexec_fn=limit, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "k,extra,suite,refusal",
    [(6, [("x", "u", "v")], "jmath", "graph has sources ['x']"),
     (6, [("x", "u", "v")], "tck", "graph has sources ['u']"),
     (2, [("x", "v", "w")], "all", "need a graph with no sinks and no sources")],
)
def test_verify_refusals_of_a_graph_come_before_its_basis_count(
    tmp_path, capsys, k, extra, suite, refusal
):
    # E(1,2) of six loops fed by a source u has the source x, refused before
    # the 287,934 paths of E(1,3) are counted; with a sink w, morita's refusal
    # comes before the count of tck's 2^18 - 1 paths at L = 17
    argv = ["verify", _loops_file(tmp_path, k, extra), "--suite", suite, "--L", "17"]
    start = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.startswith(f"ERROR precondition: {refusal}")


def test_morita_dropped_defect_term_fails_only_ps_ck(tmp_path, capsys, monkeypatch):
    # at L = 7 the mask 3 <= length <= L-3 of cycle-plus-loop at l = 2/3 holds
    # 50 columns (at the capped L = 4 it is empty); leaving one S S* out of
    # each vertex's defect sum is seen there, and only there
    path = tmp_path / "g.json"
    path.write_text(json.dumps(CYCLE_PLUS_LOOP))
    argv = ["verify", str(path), "--suite", "morita", "--l", "2/3"]
    real_morita, real_combo = opalg.morita_combinatorics, opalg.combo
    monkeypatch.setattr(opalg, "morita_combinatorics", lambda g, m, n, L: real_morita(g, m, n, 7))
    assert cli.main(argv) == 0
    passing = capsys.readouterr().out.splitlines()
    assert any(line.endswith("L-3, 50 columns") for line in passing)
    monkeypatch.setattr(opalg, "combo", lambda rep, terms: real_combo(rep, terms[:-1]))
    assert cli.main(argv) == 1
    failing = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in failing] == [
        line.split()[:2] + ["FAIL" if "PS_ck_at_V0" in line else "PASS"] for line in passing
    ]


EPS0_FAILS = {"limits.monotone_convergence", "kappa.t0_in_jmath_span"}


@pytest.mark.parametrize("delta", [1, Fraction(1, 8)], ids=["1", "1/8"])
@pytest.mark.parametrize(
    "side,end,fails",
    [("a", 0, EPS0_FAILS | {"limits.eps0_rho_is_jmath_image"}),
     ("xi", 0, EPS0_FAILS | {"limits.eps0_psi_is_jmath_image"}),
     ("a", 1, {"limits.monotone_convergence"}),
     ("xi", 1, {"limits.monotone_convergence"})],
    ids=["a-end0", "xi-end0", "a-end1", "xi-end1"],
)
def test_perturbed_limit_coefficient_fails_its_checks(
    tmp_path, capsys, monkeypatch, side, end, fails, delta
):
    # one coefficient of one limit, moved by delta, fails exactly the checks
    # that read it; at the default seed a's values are quarters, so a move of
    # a's limit by 1/8 shows only if the limit errors are summed over a
    # denominator shared by the lines and the limits, with nothing rounded
    path = tmp_path / "g.json"
    path.write_text(json.dumps(CYCLE_PLUS_LOOP))
    real = opalg.FunctionOnEdges.limit

    def perturbed(fn, g, at):
        lim = real(fn, g, at)
        if at == end and (fn.m == 0) == (side == "a"):
            first = next(iter(lim))
            lim[first] += delta
        return lim

    monkeypatch.setattr(opalg.FunctionOnEdges, "limit", perturbed)
    assert cli.main(["verify", str(path), "--suite", "all", "--l", "2/3"]) == 1
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert {name for _, name, verdict, *_ in lines if verdict == "FAIL"} == fails


@pytest.mark.parametrize("L", ["0", "-3"])
def test_verify_truncation_length_below_one_is_refused(two_loop_file, capsys, L):
    assert cli.main(["verify", two_loop_file, "--L", L]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ERROR precondition: truncation length must be >= 1\n"


def test_verify_tck_runs_at_a_large_l(two_loop_file, capsys):
    # tck does not depend on l, so nothing is enumerated at m = 22
    assert cli.main(["verify", two_loop_file, "--suite", "tck", "--l", "22"]) == 0
    assert "CHECK" in capsys.readouterr().out


def test_transform_power_16_runs_under_the_cap(two_loop_file, capsys):
    assert cli.main(["transform", two_loop_file, "--op", "power:16"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["edges"]) == 2**16 and doc["vertices"] == ["v"]


def test_transform_delay_is_counted_before_it_is_built(two_loop_file, capsys, monkeypatch):
    # D_N(E) of two loops has 1 + 2(N - 1) vertices and 2N edges: 99 at N = 25
    monkeypatch.setattr(cli, "MAX_DELAY_SIZE", 99)
    assert cli.main(["transform", two_loop_file, "--op", "delay:25"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["vertices"]) + len(doc["edges"]) == 99

    def refuse(*a):
        raise AssertionError("the delay graph was built")

    monkeypatch.setattr(cli, "delay_triples", refuse)
    assert cli.main(["transform", two_loop_file, "--op", "delay:26"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "ERROR precondition: D_26(E) has 103 vertices and edges, over 99; refusing to build it\n"
    )
    monkeypatch.undo()
    start = time.perf_counter()
    assert cli.main(["transform", two_loop_file, "--op", "delay:1000000"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.startswith("ERROR precondition: D_1000000(E) has 3999999 ")


def test_verify_jmath_refuses_an_isolated_vertex(tmp_path, capsys):
    # u has no p-path, so E(p,q) drops it and its defect would read zero
    path = tmp_path / "g.json"
    path.write_text(json.dumps({**TWO_LOOP, "vertices": ["v", "u"]}))
    assert cli.main(["verify", str(path), "--suite", "jmath"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "ERROR precondition: graph has isolated vertices ['u']; E(1,2) drops them, "
        "so no defect of theirs can be witnessed\n"
    )


@pytest.mark.parametrize("l", ["15000", "-15000", "100000/3", "14284"])
def test_ktheory_refuses_orders_past_the_digit_bound(two_loop_file, capsys, l):
    # K0 of two loops at m is Z/(2^m - 1): Hadamard's bound gives it up to
    # floor(m log10 2 + log10(2) / 2) + 1 digits, 4301 at m = 14284
    start = time.perf_counter()
    assert cli.main(["ktheory", two_loop_file, "--l", l]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ERROR precondition: K-group orders at m=")
    assert captured.err.endswith(", over 4300; refusing to compute them\n")
    assert captured.err.count("\n") == 1


def test_ktheory_prints_orders_at_the_digit_bound(two_loop_file, capsys):
    assert cli.main(["ktheory", two_loop_file, "--l", "14283"]) == 0
    k0 = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("K0"))
    assert k0 == f"K0 = Z/{2**14283 - 1}" and len(str(2**14283 - 1)) == 4300


@pytest.mark.parametrize("l", ["1/2", "2"])
def test_verify_derives_each_table_once(two_loop_file, capsys, monkeypatch, l):
    # per command: each E(p,q) once (jmath's three and D_n(E)(0,m)), one
    # representation per graph and L (tck's E, jmath's three, the E(1,m+1)
    # that limits, eta and kappa share, and D_n(E)(0,m)), the jmath tables
    # once per representation (jmath's three and the shared E(1,m+1)), the
    # hypothesis once; the owners are kept, so that no two of them share an id
    duals, reps, built, hyps = [], [], [], []
    real_dual, real_once, real_hyp = opalg.higher_dual, opalg._once, opalg.hypothesis_check
    real_rep = operators.build_rep

    def dual(g, p, q):
        duals.append((g, p, q))
        return real_dual(g, p, q)

    def once(owner, key, build):
        return real_once(owner, key, lambda: built.append((key, owner)) or build())

    monkeypatch.setattr(opalg, "higher_dual", dual)
    monkeypatch.setattr(transform, "higher_dual", dual)  # through higher_power
    monkeypatch.setattr(opalg, "_once", once)
    monkeypatch.setattr(opalg, "hypothesis_check", lambda g, m: hyps.append(m) or real_hyp(g, m))
    for module in (cli, opalg):
        monkeypatch.setattr(module, "build_rep", lambda g, L: reps.append((g, L)) or real_rep(g, L))
    assert cli.main(["verify", two_loop_file, "--suite", "all", "--l", l]) == 0
    assert len({(id(g), p, q) for g, p, q in duals}) == len(duals) == 4
    assert len({(id(g), L) for g, L in reps}) == len(reps) == 6
    assert len({(key, id(owner)) for key, owner in built}) == len(built)
    assert sum(key[0] == "jmath" for key, _ in built) == 4
    assert hyps == [int(l.split("/")[0])]


@pytest.mark.parametrize("l", ["1/2", "2"])
def test_verify_leaves_no_cycle(two_loop_file, capsys, l):
    # main freezes what is alive when it starts, so a cycle that one command
    # leaves is never collected by the next: the representations the suites
    # share are kept on the graph, and nothing kept on them may refer to it
    gc.collect()
    assert cli.main(["verify", two_loop_file, "--suite", "all", "--l", l]) == 0
    capsys.readouterr()
    assert gc.collect() == 0


@pytest.mark.parametrize(
    "argv", [["verify", "--suite", "tck", "--json"], ["ktheory", "--json"]], ids=["verify", "ktheory"]
)
def test_json_leaves_no_cycle(two_loop_file, capsys, argv):
    # json.dumps with an indent leaves a cycle of closures, which the next
    # main would freeze for good
    gc.collect()
    assert cli.main([argv[0], two_loop_file, *argv[1:]]) == 0
    capsys.readouterr()
    assert gc.collect() == 0


def test_verify_builds_no_basis_labels(tmp_path, capsys, monkeypatch):
    def refuse(basis):
        raise AssertionError("a basis built its Paths")

    monkeypatch.setattr(operators.Basis, "labels", property(refuse))
    for doc in (TWO_LOOP, CYCLE_PLUS_LOOP):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        for l in ("1/2", "2/3", "2"):
            assert cli.main(["verify", str(path), "--suite", "all", "--l", l]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_negative_rational_after_a_space(two_loop_file, capsys):
    # the token after a value option is its value, even when it starts with -
    assert cli.main(["ktheory", two_loop_file, "--l", "-1/2"]) == 0
    spaced = capsys.readouterr()
    assert spaced.out.startswith("L = -1/2\n")
    assert cli.main(["ktheory", two_loop_file, "--l=-1/2"]) == 0
    assert capsys.readouterr() == spaced
    assert cli.main(["quiver", two_loop_file, "--t", "-1/3"]) == 0
    spaced = capsys.readouterr()
    assert cli.main(["quiver", two_loop_file, "--t=-1/3"]) == 0
    assert capsys.readouterr() == spaced and spaced.out.startswith("FIBRE m=1 t=2/3")


USAGE_ERRORS = {
    "no command": [],
    "unknown command": ["frob", "{g}"],
    "unknown option": ["ktheory", "{g}", "--bogus"],
    "abbreviated option": ["ktheory", "{g}", "--js"],
    "option with no value": ["ktheory", "{g}", "--l"],
    "flag with a value": ["ktheory", "{g}", "--json=yes"],
    "missing input": ["verify", "--L", "3"],
    "missing --op": ["transform", "{g}"],
    "missing --start": ["flow", "{g}"],
    "second positional": ["ktheory", "{g}", "{g}"],
    "non-integer --L": ["verify", "{g}", "--L", "4.5"],
    "non-integer --seed": ["verify", "{g}", "--seed", "x"],
    "non-integer --count": ["flow", "{g}", "--start", "e", "--count=three"],
    "non-integer --m": ["quiver", "{g}", "--m", "1/2"],
    "non-integer --n": ["quiver", "{g}", "--n", ""],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_errors_exit_2(two_loop_file, capsys, argv):
    assert cli.main([a.format(g=two_loop_file) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: suspend ") and error.startswith("suspend: error: ")


@pytest.mark.parametrize("argv", [["-h"], ["--help"]] + [[c, "-h"] for c in cli.COMMANDS])
def test_help_exits_0(capsys, argv):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: suspend ")
    if len(argv) == 1:
        assert all(f"  {c} " in out for c in cli.COMMANDS)
        return
    for names, _, kind, default, text in cli.COMMANDS[argv[0]][2]:
        line = next(x for x in out.splitlines() if x.startswith("  " + names.split()[0]))
        assert text in line
        if default is cli.REQUIRED:
            assert "(required)" in line
        elif kind is not bool and default is not None:
            assert f"(default: {default})" in line


@pytest.mark.parametrize(
    "spaced",
    [
        ["ktheory", "{g}", "--l", "2/3"],
        ["verify", "{g}", "--suite", "tck", "--L", "3", "--seed", "2"],
        ["flow", "{g}", "--start", "e,f", "--t", "1/2", "--step", "1/3", "--count", "2"],
        ["quiver", "{g}", "--m", "2", "--t", "1/2", "--n", "2"],
        ["transform", "{g}", "--op", "dual:1,2"],
    ],
)
def test_equals_form_and_option_order(two_loop_file, capsys, spaced):
    spaced = [a.format(g=two_loop_file) for a in spaced]
    assert cli.main(spaced) == 0
    want = capsys.readouterr()
    pairs = [spaced[i : i + 2] for i in range(2, len(spaced), 2)]
    joined = spaced[:2] + [f"{name}={value}" for name, value in pairs]
    first = [spaced[0]] + [a for pair in pairs for a in pair] + [spaced[1]]
    for argv in (joined, first):
        assert cli.main(argv) == 0
        assert capsys.readouterr() == want


def test_cli_import_leaves_out_argparse():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys\nimport suspquiver.cli\nprint('argparse' in sys.modules)\n"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_loads_no_generated_code_or_numpy():
    # python -S: no site-packages, so no .pth file imports anything first
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    unwanted = ["ast", "dataclasses", "dis", "inspect", "numpy"]
    code = (
        f"import sys\nsys.path.insert(0, {src!r})\nimport suspquiver.cli\n"
        f"print(sorted(set({unwanted!r}) & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_run_reports_never_share_a_checks_list():
    first, second = RunReport(), RunReport()
    check = first.add("x.y", 1, "detail")
    assert check == Check("x.y", True, "detail") and check.line() == "CHECK x.y PASS detail"
    assert first.checks == [check] and second.checks == [] and RunReport().checks == []
    second.extend(first)
    assert second.checks == [check] and second.checks is not first.checks
    with pytest.raises(AttributeError):
        check.passed = False


@pytest.mark.parametrize(
    "doc,suite",
    [({"vertices": [], "edges": []}, "all"), ({"vertices": ["u"], "edges": []}, "limits")],
)
def test_verify_refuses_edgeless_graph(tmp_path, capsys, doc, suite):
    # every check on an edgeless graph would pass vacuously
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", str(path), "--suite", suite]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ERROR precondition: verify needs a graph with at least one edge\n"


def _recording(monkeypatch, command, record, fn=None):
    """Make `command` call record() first, then fn (by default its handler)."""
    handler, text, options = cli.COMMANDS[command]
    fn = fn or handler
    monkeypatch.setitem(cli.COMMANDS, command, (lambda args: record() or fn(args), text, options))


def _raise(args):
    raise RuntimeError("not a SuspensionError")


@pytest.mark.parametrize(
    "argv,code",
    [
        (["verify", "{g}", "--suite", "tck"], 0),
        (["verify", "{g}", "--suite", "morita", "--l", "5"], 2),
        (["verify", "{g}", "--L"], 2),
        (["flow", "{g}", "--start", "e"], None),
    ],
    ids=["exit-0", "exit-2", "usage", "raises"],
)
def test_main_freezes_the_collector_and_then_thaws_it(
    two_loop_file, capsys, monkeypatch, argv, code
):
    during = []
    record = lambda: during.append(gc.get_freeze_count())  # noqa: E731
    _recording(monkeypatch, argv[0], record, _raise if code is None else None)
    usage = cli._usage
    monkeypatch.setattr(cli, "_usage", lambda command: record() or usage(command))
    argv = [a.format(g=two_loop_file) for a in argv]
    assert gc.get_freeze_count() == 0
    if code is None:
        with pytest.raises(RuntimeError):
            cli.main(argv)
    else:
        assert cli.main(argv) == code
    capsys.readouterr()
    assert len(during) == 1 and during[0] > 0
    assert gc.get_freeze_count() == 0
    assert gc.isenabled()


def test_main_keeps_a_callers_freeze(two_loop_file, capsys, monkeypatch):
    during = []
    _recording(monkeypatch, "verify", lambda: during.append(gc.get_freeze_count()))
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        young = [[] for _ in range(100)]  # tracked after the caller's freeze
        assert cli.main(["verify", two_loop_file, "--suite", "tck"]) == 0
        assert during[0] >= frozen + len(young)
        # still frozen, with what main froze on top: not back in a generation
        assert all(obj is not young for obj in gc.get_objects())
    finally:
        gc.unfreeze()
    capsys.readouterr()


def test_command_sees_none_of_the_imported_heap(two_loop_file, capsys, monkeypatch):
    # what is alive when main starts (modules, functions, tables, and here
    # pytest's own objects) stays out of the collector's generations until it
    # returns
    during = []
    _recording(monkeypatch, "verify", lambda: during.append(len(gc.get_objects())))
    assert len(gc.get_objects()) > 10_000
    assert cli.main(["verify", two_loop_file, "--suite", "tck"]) == 0
    capsys.readouterr()
    assert during[0] < 1_000
