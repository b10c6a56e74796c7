"""Opposite, delay, and higher-dual constructions."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suspquiver import (
    Graph,
    Path,
    StructuralError,
    adjacency,
    delay,
    delay_embed_path,
    enumerate_paths,
    higher_dual,
    higher_power,
    join_ids,
    opposite,
)

from suspquiver.graph import _layer_sizes
from suspquiver.transform import delay_layer_sizes

from conftest import dual_word_to_path, no_sink_source_graphs, reference_higher_dual, small_graphs

def test_opposite_swaps_range_and_source(cycle_plus_loop):
    g = cycle_plus_loop
    op = opposite(g)
    for e in g.edges:
        assert op.r(e.id) == g.s(e.id)
        assert op.s(e.id) == g.r(e.id)
    # involution up to labels
    opop = opposite(op)
    assert [(e.id, e.src, e.dst) for e in opop.edges] == [
        (e.id, e.src, e.dst) for e in g.edges
    ]


def test_opposite_adjacency_is_transpose(three_cycle):
    assert adjacency(opposite(three_cycle)) == adjacency(three_cycle).transpose()


def test_delay_counts(two_loop):
    # each of the 2 edges becomes a 3-chain: 1 + 2*2 vertices, 2*3 edges
    d = delay(two_loop, 3)
    assert len(d.vertices) == 5
    assert len(d.edges) == 6


def test_delay_one_is_identity_copy(cycle_plus_loop):
    g = cycle_plus_loop
    d = delay(g, 1)
    assert d.vertices == g.vertices
    assert [(e.id, e.src, e.dst) for e in d.edges] == [
        (e.id, e.src, e.dst) for e in g.edges
    ]


def test_delay_chain_structure(three_cycle):
    g = three_cycle
    d = delay(g, 2)
    # r(f(a,1)) = r(a), s(f(a,1)) = w(a,1), r(f(a,2)) = w(a,1), s(f(a,2)) = s(a)
    assert d.r("f(a,1)") == g.r("a")
    assert d.s("f(a,1)") == "w(a,1)"
    assert d.r("f(a,2)") == "w(a,1)"
    assert d.s("f(a,2)") == g.s("a")


def test_delay_embed_preserves_endpoints(three_cycle):
    g = three_cycle
    mu = Path(g, ("a", "c"))
    emb = delay_embed_path(g, 3, mu, delay(g, 3))
    assert len(emb) == 6
    assert emb.r == mu.r and emb.s == mu.s
    assert emb.edge_ids[:3] == ("f(a,1)", "f(a,2)", "f(a,3)")
    D = delay(g, 2)
    with pytest.raises(StructuralError):
        delay_embed_path(g, 2, Path(D, ("f(a,1)",)), D)


def test_higher_dual_counts(two_loop):
    g = two_loop
    d = higher_dual(g, 1, 2)
    assert len(d.vertices) == len(enumerate_paths(g, 1)) == 2
    assert len(d.edges) == len(enumerate_paths(g, 2)) == 4
    # windowed range/source: edge e,f has range e and source f
    assert d.r("e,f") == "e" and d.s("e,f") == "f"


def test_higher_power_adjacency_is_power(cycle_plus_loop):
    g = cycle_plus_loop
    for m in (1, 2, 3):
        assert adjacency(higher_power(g, m)) == adjacency(g).pow(m)


@pytest.mark.parametrize("p,q", [(1, 2), (1, 3), (2, 3)])
def test_dual_path_roundtrip(p, q, cycle_plus_loop):
    g = cycle_plus_loop
    dual = higher_dual(g, p, q)
    # a length-2 dual path flattens to a path of length q + (q - p)
    for nu in enumerate_paths(dual, 2):
        flat = dual_word_to_path(g, p, q, nu)
        assert len(flat) == q + (q - p)
        # its leading window is the first dual edge's word
        assert join_ids(flat.edge_ids[:q]) == nu.edge_ids[0]


def test_dual_vertex_flattening(cycle_plus_loop):
    g = cycle_plus_loop
    dual = higher_dual(g, 2, 3)
    for v in dual.vertices:
        flat = dual_word_to_path(g, 2, 3, Path(dual, (), v))
        assert join_ids(flat.edge_ids) == v


@given(ids=st.lists(st.text(alphabet="a,\\", max_size=3), min_size=1, max_size=4, unique=True))
@settings(max_examples=200, deadline=None)
def test_join_ids_is_injective_on_words_of_one_length(ids):
    for n in (1, 2, 3):
        words = list(itertools.product(ids, repeat=n))
        assert len({join_ids(w) for w in words}) == len(words)
    # a one-edge word keeps its id; comma-free ids join plainly
    assert [join_ids((i,)) for i in ids] == ids
    plain = tuple(i for i in ids if "," not in i)
    if len(plain) >= 2:
        assert join_ids(plain) == ",".join(plain)


def _dual_data(d):
    return d.vertices, [(e.id, e.src, e.dst) for e in d.edges]


DUAL_PARAMS = [(p, q) for p in (0, 1, 2) for q in range(p + 1, 5)]


@given(g=small_graphs(), pq=st.sampled_from(DUAL_PARAMS))
@settings(max_examples=150, deadline=None)
def test_higher_dual_matches_path_reference(g, pq):
    assert _dual_data(higher_dual(g, *pq)) == _dual_data(reference_higher_dual(g, *pq))


@pytest.mark.parametrize("p,q", DUAL_PARAMS)
def test_higher_dual_matches_path_reference_on_comma_ids(p, q):
    g = Graph(["v"], [("a", "v", "v"), ("a,a", "v", "v")])
    assert _dual_data(higher_dual(g, p, q)) == _dual_data(reference_higher_dual(g, p, q))


def test_higher_dual_of_comma_ids_is_a_graph():
    # (a, "a,a") and ("a,a", a) used to share the id "a,a,a"
    g = Graph(["v"], [("a", "v", "v"), ("a,a", "v", "v")])
    for p, q in ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        dual = higher_dual(g, p, q)
        assert len(dual.edges) == 2**q
        assert len(dual.vertices) == (1 if p == 0 else 2**p)
        for nu in enumerate_paths(dual, 2):
            flat = dual_word_to_path(g, p, q, nu)
            assert join_ids(flat.edge_ids[:q]) == nu.edge_ids[0]


@given(g=st.one_of(small_graphs(), no_sink_source_graphs()), n=st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_delay_layer_sizes_match_the_built_delay_graph(g, n):
    # |D_n(E)^K| for K = 0..3n+2, counted from E against the graph built
    D = delay(g, n)
    built = [len(D.vertices), *itertools.islice(_layer_sizes(D), 3 * n + 2)]
    built += [0] * (3 * n + 3 - len(built))
    assert list(itertools.islice(delay_layer_sizes(g, n), 3 * n + 3)) == built
