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
    path_count,
)

from suspquiver.graph import _layer_sizes
from suspquiver.transform import (
    delay_layer_sizes,
    delay_triples,
    delay_vertex_id,
    higher_dual_triples,
)

from conftest import (
    brute_paths,
    dual_word_to_path,
    no_sink_source_graphs,
    odd_id_graphs,
    reference_higher_dual,
    small_graphs,
)

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


def test_delay_refuses_a_vertex_named_like_a_chain_vertex():
    # D_2(E) would hold w(e,1) twice: once from E, once on e's chain
    g = Graph(["v", "w(e,1)"], [("e", "v", "v")])
    for build in (delay, delay_triples):
        with pytest.raises(StructuralError, match="duplicate vertex ids"):
            build(g, 2)
    vertices, chains = delay_triples(g, 1)
    assert (list(vertices), list(chains)) == (["v", "w(e,1)"], [[("e", "v", "v")]])


@pytest.mark.parametrize(
    "name",
    ["w(e,1)", "w(e,2)", "w(e,3)", "w(e,01)", "w(e,+1)", "w(e,0)", "w(e,1", "w(x,1)",
     "w(e,1),1)", "w(a,b,2)", "w(e,١)", "w(e," + "9" * 5000 + ")", "w()", "u"],
)
def test_delay_refuses_exactly_the_vertices_a_chain_repeats(name):
    # the clash is found from the names of E alone; the oracle builds every
    # chain vertex of D_3(E) and looks for a repeat
    g = Graph(["v", name], [("e", "v", "v"), ("a,b", "v", "v"), ("e,1)", "v", "v")])
    chained = {delay_vertex_id(e.id, j) for e in g.edges for j in (1, 2)}
    if name in chained:
        with pytest.raises(StructuralError, match="duplicate vertex ids"):
            delay_triples(g, 3)
    else:
        vertices, _ = delay_triples(g, 3)
        assert len(set(vertices)) == 2 + len(chained)


def test_delay_wraps_its_triples(three_cycle):
    for n in (1, 2, 5):
        vertices, chains = map(list, delay_triples(three_cycle, n))
        d = delay(three_cycle, n)
        assert [len(chain) for chain in chains] == [n] * 3
        edges = [t for chain in chains for t in chain]
        assert (list(d.vertices), [(e.id, e.src, e.dst) for e in d.edges]) == (vertices, edges)
        assert [d.vertex_labels[v] for v in vertices] == [("vertex", v) for v in "uvw"] + [
            ("w", e, j) for e in "abc" for j in range(1, n)
        ]


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


def _per_word_dual(g, p, q, words):
    """E(p,q) as vertex ids and edge triples, each id joined from its whole
    word of words[k], the brute-force paths of length k."""
    if p == 0:
        return list(g.vertices), [(join_ids(w), g.s(w[-1]), g.r(w[0])) for w in words[q]]
    return [join_ids(w) for w in words[p]], [
        (join_ids(w), join_ids(w[q - p :]), join_ids(w[:p])) for w in words[q]
    ]


@given(g=st.one_of(small_graphs(), odd_id_graphs()))
@settings(max_examples=100, deadline=None)
def test_higher_dual_triples_match_the_per_word_construction(g):
    # ids joined from the two halves of each word (comma-free ids), or from
    # the whole word (join_ids' escaping), for p on either side of the split;
    # q stops where the layers up to it would hold over 20,000 paths
    total = itertools.accumulate(itertools.chain(_layer_sizes(g), itertools.repeat(0)))
    depth = sum(1 for _, t in zip(range(8), total) if t <= 20_000)
    words = [brute_paths(g, k) for k in range(depth + 1)]
    for q in range(1, depth + 1):
        for p in range(q):
            # higher_dual is the edges of the blocks of higher_dual_triples
            vertices, edges = _dual_data(higher_dual(g, p, q))
            assert (list(vertices), edges) == _per_word_dual(g, p, q, words)


@pytest.mark.parametrize("p,q", [(0, 7), (2, 7), (3, 7), (4, 7), (0, 8), (4, 8)])
def test_higher_dual_blocks_share_their_right_halves(cycle_plus_loop, p, q):
    # one block per left half u of the q-words; for p <= q // 2 the right
    # halves of a block are the one list of those with range s(u)
    g = cycle_plus_loop
    vertices, blocks = higher_dual_triples(g, p, q)
    blocks = list(blocks)
    assert len(blocks) == path_count(g, q // 2)
    if p <= q // 2:
        assert all(u is not None for u, _ in blocks)
        assert len({id(ws) for _, ws in blocks}) == len(g.vertices)
    else:
        assert all(u is None for u, _ in blocks)
    assert sum(len(ws) for _, ws in blocks) == path_count(g, q)


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
