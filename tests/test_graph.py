"""Graph and path combinatorics against brute-force oracles."""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from suspquiver import (
    CompositionError,
    Edge,
    Graph,
    IntMatrix,
    Path,
    PreconditionError,
    StructuralError,
    adjacency,
    concatenate,
    delay,
    delay_embed_path,
    enumerate_paths,
    path_count,
    validate,
    vertex_path,
)
from suspquiver import graph
from suspquiver.graph import MAX_LAYER_IDS, _layer_sizes, check_layer_ids

from conftest import (
    brute_paths,
    make_single_loop,
    make_three_cycle,
    random_no_sink_source_graph,
    recursive_paths,
    small_graphs,
)


def test_graph_rejects_duplicates_and_dangling():
    with pytest.raises(StructuralError):
        Graph(["v", "v"], [])
    with pytest.raises(StructuralError):
        Graph(["v"], [("e", "v", "v"), ("e", "v", "v")])
    with pytest.raises(StructuralError):
        Graph(["v"], [("e", "v", "x")])


def test_received_emitted_conventions(cycle_plus_loop):
    g = cycle_plus_loop
    # received(v) = vE1 = {e : r(e) = v}; r(e) is the dst field
    assert {e.id for e in g.received("u")} == {"q", "l"}
    assert {e.id for e in g.emitted("u")} == {"p", "l"}
    assert g.r("p") == "v" and g.s("p") == "u"


def test_validate_sinks_sources(single_edge, two_loop):
    d = validate(single_edge)
    assert d.sinks == {"v"} and d.sources == {"u"} and not d.ok_for_suspension
    d = validate(two_loop)
    assert not d.sinks and not d.sources and d.ok_for_suspension


def test_path_windows_and_anchors(three_cycle):
    g = three_cycle
    mu = Path(g, ("a", "c", "b"))  # r = v, s = v: a: u->v, c: w->u, b: v->w
    assert mu.r == "v" and mu.s == "v"
    assert mu.vertex_at(0) == "v" and mu.vertex_at(1) == "u" and mu.vertex_at(3) == "v"
    assert mu.window(1, 3).edge_ids == ("c", "b")
    assert mu.window(2, 2) == vertex_path(g, "w")
    with pytest.raises(CompositionError):
        Path(g, ("a", "b"))  # s(a) = u != r(b) = w


def test_concatenate(three_cycle):
    g = three_cycle
    mu = Path(g, ("a",))
    nu = Path(g, ("c",))
    assert concatenate(mu, nu).edge_ids == ("a", "c")
    assert concatenate(mu, vertex_path(g, "u")) == mu
    with pytest.raises(CompositionError):
        concatenate(mu, Path(g, ("b",)))


def test_path_compares_and_hashes_by_edges_and_anchor_alone(three_cycle):
    copy = make_three_cycle()
    assert Path(three_cycle, ("a", "c")) == Path(copy, ("a", "c"))
    assert hash(Path(three_cycle, ("a", "c"))) == hash(Path(copy, ("a", "c")))
    assert vertex_path(three_cycle, "u") == vertex_path(copy, "u") != vertex_path(copy, "v")
    assert Path(three_cycle, ("a",)) != Path(three_cycle, ("a", "c"))
    assert Path._composed(copy, ("c", "b")) == Path(three_cycle, ("c", "b"))
    assert len({Path(three_cycle, ("b",)), Path(copy, ("b",)), vertex_path(copy, "w")}) == 2


def test_edge_compares_and_hashes_by_all_its_fields():
    assert Edge("e", "u", "v") == Edge("e", "u", "v")
    assert hash(Edge("e", "u", "v")) == hash(Edge("e", "u", "v"))
    assert Edge("e", "u", "v") != Edge("e", "v", "u")
    assert Edge("e", "u", "v") != Edge("f", "u", "v")


def test_path_and_edge_fields_cannot_be_assigned(three_cycle):
    mu = Path(three_cycle, ("a", "c"))
    edge = three_cycle.edges[0]
    for obj, name in [(mu, "edge_ids"), (mu, "anchor"), (mu, "graph"), (edge, "id")]:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    assert mu.edge_ids == ("a", "c") and mu.graph is three_cycle


def test_path_validation_errors_and_repr(three_cycle):
    with pytest.raises(CompositionError, match="^edges 'a','b' not composable$"):
        Path(three_cycle, ("a", "b"))
    with pytest.raises(StructuralError, match="^nonempty path must not carry an anchor$"):
        Path(three_cycle, ("a",), "v")
    with pytest.raises(StructuralError, match="^length-0 path needs an anchor vertex$"):
        Path(three_cycle, ())
    with pytest.raises(StructuralError, match="^unknown anchor vertex 'x'$"):
        Path(three_cycle, (), "x")
    assert repr(Path(three_cycle, ("a", "c"))) == "Path(a c)"
    assert repr(Path(three_cycle, (), anchor="w")) == "Path(@w)"


def test_received_emitted_in_edge_order_with_many_loops():
    # thousands of edges at one vertex: the adjacency tuples keep edge order
    edges = [(f"l{i}", "v", "v") for i in range(3000)]
    edges[1000:1000] = [("p", "u", "v")]
    edges[2000:2000] = [("q", "v", "u")]
    g = Graph(["u", "v"], edges)
    for v in g.vertices:
        assert g.received(v) == tuple(e for e in g.edges if e.dst == v)
        assert g.emitted(v) == tuple(e for e in g.edges if e.src == v)
    assert len(g.received("v")) == 3001 and len(g.emitted("u")) == 1


@given(g=small_graphs(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_derived_paths_equal_checked_paths(g, data):
    # windows, concatenations and delay images are built unchecked from paths
    # that compose; each equals the validated Path of the same ids
    paths = [p for n in (1, 2, 3) for p in enumerate_paths(g, n)]
    assume(paths)
    mu = data.draw(st.sampled_from(paths))
    a = data.draw(st.integers(0, len(mu)))
    b = data.draw(st.integers(a, len(mu)))
    checked = Path(g, mu.edge_ids[a:b]) if a < b else vertex_path(g, mu.vertex_at(a))
    window = mu.window(a, b)
    assert window == checked and window.graph is g
    for bad in ((b + 1, b), (a, len(mu) + 1), (-1, b)):
        if not 0 <= bad[0] <= bad[1] <= len(mu):
            with pytest.raises(PreconditionError):
                mu.window(*bad)
    nu = data.draw(st.sampled_from(paths))
    if mu.s == nu.r:
        joined = concatenate(mu, nu)
        assert joined == Path(g, mu.edge_ids + nu.edge_ids) and joined.graph is g
    else:
        with pytest.raises(CompositionError):
            concatenate(mu, nu)
    copy = Graph(g.vertices, [(e.id, e.src, e.dst) for e in g.edges])
    with pytest.raises(StructuralError):
        concatenate(mu, Path(copy, nu.edge_ids))
    n = data.draw(st.integers(1, 3))
    D = delay(g, n)
    ids = mu.edge_ids if n == 1 else tuple(
        f"f({e},{j})" for e in mu.edge_ids for j in range(1, n + 1)
    )
    image = delay_embed_path(g, n, mu, D)
    assert image == Path(D, ids) and image.graph is D
    with pytest.raises(StructuralError):
        delay_embed_path(g, n, Path(copy, mu.edge_ids), D)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_enumerate_paths_matches_oracle(seed, n):
    g = random_no_sink_source_graph(seed)
    got = [p.edge_ids or (p.anchor,) for p in enumerate_paths(g, n)]
    assert got == brute_paths(g, n)
    # filtered variants on one vertex pair
    v, w = g.vertices[0], g.vertices[-1]
    got = [p.edge_ids or (p.anchor,) for p in enumerate_paths(g, n, src=w, rng=v)]
    assert got == brute_paths(g, n, src=w, rng=v)


@given(g=small_graphs(), n=st.integers(1, 6), data=st.data())
@settings(max_examples=80, deadline=None)
def test_enumerate_paths_matches_recursive_reference(g, n, data):
    ends = st.one_of(st.none(), st.sampled_from(g.vertices))
    src, rng = data.draw(ends), data.draw(ends)
    got = [p.edge_ids for p in enumerate_paths(g, n, src=src, rng=rng)]
    assert got == recursive_paths(g, n, src=src, rng=rng)


def test_enumerate_paths_deep_single_loop():
    # the recursive version exceeded the interpreter's recursion limit here
    (path,) = enumerate_paths(make_single_loop(), 3000)
    assert path.edge_ids == ("e",) * 3000


@given(g=small_graphs(), n=st.integers(0, 6))
@settings(max_examples=80, deadline=None)
def test_path_count_matches_brute_force(g, n):
    assert path_count(g, n) == len(brute_paths(g, n))


def test_check_layer_ids_stops_at_the_cap(two_loop, single_loop, single_edge):
    # two loops: layers 1..17 hold sum k 2^k = 4,194,306 ids, 1..18 hold 8,912,898
    check_layer_ids(two_loop, 17)
    with pytest.raises(PreconditionError, match="8912898 up to length 18"):
        check_layer_ids(two_loop, 18)
    with pytest.raises(PreconditionError, match="up to length 18"):
        check_layer_ids(two_loop, 10**9)
    assert sum(range(4097)) > MAX_LAYER_IDS >= sum(range(4096))
    with pytest.raises(PreconditionError, match="up to length 4096"):
        check_layer_ids(single_loop, 10**9)
    # one edge: every layer past the first is empty, so nothing is summed
    check_layer_ids(single_edge, 10**9)


def test_enumerate_paths_past_the_last_nonempty_layer(single_edge):
    # the layers stop at the first empty one rather than walk 10^9 empty ones
    assert enumerate_paths(single_edge, 10**9) == []
    assert path_count(single_edge, 10**9) == 0
    assert [p.edge_ids for p in enumerate_paths(single_edge, 1)] == [("e",)]


def test_enumerate_paths_unknown_range_vertex(two_loop):
    with pytest.raises(StructuralError):
        enumerate_paths(two_loop, 2, rng="nowhere")


# the most paths that layers 1..n of one graph may hold for the layer tests
# to walk them: n stops short of 9 on the densest drawn graphs
LAYER_TEST_PATHS = 20_000


@given(g=small_graphs())
@settings(max_examples=150, deadline=None)
def test_path_layer_matches_the_layer_walk(g):
    # each layer built from its two halves is the brute-force layer, each
    # word with its source, for any range
    total = itertools.accumulate(itertools.chain(_layer_sizes(g), itertools.repeat(0)))
    depth = sum(1 for _, t in zip(range(9), total) if t <= LAYER_TEST_PATHS)
    layers = graph._HalfLayers(g)
    for n in range(1, depth + 1):
        walked = brute_paths(g, n)
        for rng in (None, *g.vertices):
            assert layers.layer(n, rng) == [
                (ids, g.s(ids[-1])) for ids in walked if rng in (None, g.r(ids[0]))
            ]
    # the halves of layer 1: the empty word u, its "source" the range, and
    # layer 1 with that range as the right halves
    for rng in (None, *g.vertices):
        assert layers.halves(1, rng) == ([((), rng)], {rng: layers.layer(1, rng)})
    for n in range(1, 10):
        with pytest.raises(StructuralError, match="unknown vertex id 'nowhere'"):
            graph._HalfLayers(g).layer(n, "nowhere")


@pytest.mark.parametrize("rng", [None, "u"])
def test_path_layer_builds_logarithmically_many_layers(three_cycle, monkeypatch, rng):
    # one path per start vertex, 4096 edges long; a walk through every
    # shorter layer (or two uncached halves per length) builds thousands
    tables = []
    real_init = graph._HalfLayers.__init__
    monkeypatch.setattr(
        graph._HalfLayers, "__init__", lambda self, g: tables.append(self) or real_init(self, g)
    )
    words = {x: (x, y, z) * 1365 + (x,) for x, y, z in ("acb", "bac", "cba")}
    expected = [(words["a"], "u"), (words["b"], "v"), (words["c"], "w")]
    layer = graph._HalfLayers(three_cycle).layer(4096, rng)
    assert layer == (expected if rng is None else expected[2:])
    (table,) = tables
    # lengths 4096, 2048, ..., 1 and no other, each with range None or one
    # of the three vertices
    assert {k for k, _ in table.layers} == {2**i for i in range(13)}
    assert len(table.layers) <= 4 * 13


@given(seed=st.integers(0, 10**6), n=st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_adjacency_power_counts_paths(seed, n):
    g = random_no_sink_source_graph(seed, max_vertices=4, max_edges=5)
    an = adjacency(g).pow(n)
    idx = {v: i for i, v in enumerate(g.vertices)}
    for v in g.vertices:
        for w in g.vertices:
            assert an[idx[v], idx[w]] == len(enumerate_paths(g, n, src=w, rng=v))


def _int_matrices(rows, cols):
    return st.lists(
        st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7]), min_size=rows * cols, max_size=rows * cols
    ).map(lambda xs: IntMatrix(rows, cols, xs))


@given(data=st.data(), shape=st.tuples(*[st.integers(0, 5)] * 3), n=st.integers(0, 9))
@settings(max_examples=80, deadline=None)
def test_matmul_and_pow_match_entrywise_products(data, shape, n):
    a_rows, inner, b_cols = shape
    a = data.draw(_int_matrices(a_rows, inner))
    b = data.draw(_int_matrices(inner, b_cols))
    assert (a @ b).entries == [
        sum(a[i, k] * b[k, j] for k in range(inner))
        for i in range(a_rows)
        for j in range(b_cols)
    ]
    sq = data.draw(_int_matrices(inner, inner))
    expected = IntMatrix.identity(inner)
    for _ in range(n):
        expected = expected @ sq
    before = list(sq.entries)
    power = sq.pow(n)
    assert power == expected
    power.entries[:] = [0] * len(power.entries)  # the result shares nothing
    assert sq.entries == before

