"""Suspension-quiver normal forms, fibres, and openness."""

from fractions import Fraction

import pytest

from suspquiver import (
    CompositionError,
    Graph,
    Path,
    PreconditionError,
    QuiverEdge,
    QuiverPath,
    StructuralError,
    SuspensionVertex,
    base_vertex,
    edge_range,
    edge_source,
    enumerate_paths,
    fibre_paths,
    fibre_words,
    normalize_edge,
    openness_report,
)

from conftest import (
    make_cycle_plus_loop,
    make_three_cycle,
    make_two_loop,
    normal_form_closure,
    vertex_along,
)


def _nf_key(qe):
    return (qe.m, qe.word.edge_ids or ("@", qe.word.anchor), qe.t)


def test_normalize_edge_shift_and_trim(two_loop):
    g = two_loop
    mu = Path(g, ("e", "f", "e", "f"))
    # t = 0: lattice, word = leading m-window
    qe = normalize_edge(mu, 0, 2)
    assert qe.kind == "lattice" and qe.word.edge_ids == ("e", "f")
    # t = 3/2 with m = 1: shift floor to 0, keep the (m+1)-window at offset 1
    qe = normalize_edge(mu, Fraction(3, 2), 1)
    assert qe.kind == "interior"
    assert qe.word.edge_ids == ("f", "e") and qe.t == Fraction(1, 2)
    # t = 2 with m = 2: lattice window mu(2,4)
    qe = normalize_edge(mu, 2, 2)
    assert qe.t == 0 and qe.word.edge_ids == ("e", "f")
    with pytest.raises(PreconditionError):
        normalize_edge(mu, Fraction(7, 2), 1)  # window [7/2,9/2] exceeds length 4


@pytest.mark.parametrize("graph_name", ["two_loop", "cycle_plus_loop"])
@pytest.mark.parametrize("m", [1, 2])
def test_normal_form_equals_relation_closure(graph_name, m):
    g = {"two_loop": make_two_loop, "cycle_plus_loop": make_cycle_plus_loop}[graph_name]()
    closure = normal_form_closure(g, m)
    by_class: dict[int, set] = {}
    for (mu, t), rep in closure.items():
        by_class.setdefault(rep, set()).add(_nf_key(normalize_edge(mu, t, m)))
    # each closure class normalizes to a single form...
    assert all(len(keys) == 1 for keys in by_class.values())
    # ...and distinct classes to distinct forms
    forms = [next(iter(keys)) for keys in by_class.values()]
    assert len(forms) == len(set(forms))


def test_edge_endpoints(two_loop):
    g = two_loop
    qe = normalize_edge(Path(g, ("e", "f")), Fraction(1, 3), 1)
    assert edge_range(qe) == SuspensionVertex("interior", edge="e", t=Fraction(1, 3))
    assert edge_source(qe) == SuspensionVertex("interior", edge="f", t=Fraction(1, 3))
    lat = normalize_edge(Path(g, ("e",)), 0, 1)
    assert edge_range(lat) == base_vertex("v") == edge_source(lat)


@pytest.mark.parametrize("t", [0, Fraction(1, 3)])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_fibre_counts(t, n, cycle_plus_loop):
    g = cycle_plus_loop
    m = 2
    word_len = n * m if t == 0 else n * m + 1
    expected = (
        len(enumerate_paths(g, word_len))
        if n > 0
        else (len(g.vertices) if t == 0 else len(g.edges))
    )
    assert len(fibre_paths(g, m, t, n)) == expected


def make_with_source() -> Graph:
    """u -> v and a loop at v; u is a source."""
    return Graph(["u", "v"], [("e", "u", "v"), ("f", "v", "v")])


@pytest.mark.parametrize("make", [make_cycle_plus_loop, make_three_cycle, make_with_source])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("t", [0, Fraction(1, 3)])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_fibre_paths_match_checked_construction(make, m, t, n):
    # the unchecked windows equal the normalised edges of each path of E^{nm+k},
    # put together by the checking constructor (a length-0 fibre path is the
    # vertex at t along a path of length k)
    g = make()
    k = 0 if t == 0 else 1
    want = [
        QuiverPath(
            m,
            t,
            tuple(normalize_edge(mu, i * m + t, m) for i in range(n)),
            None if n else vertex_along(mu, t),
        )
        for mu in enumerate_paths(g, n * m + k)
    ]
    got = fibre_paths(g, m, t, n)
    assert got == want
    assert [(qp.r, qp.s) for qp in got] == [(qp.r, qp.s) for qp in want]


@pytest.mark.parametrize("make", [make_cycle_plus_loop, make_three_cycle, make_with_source])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("t", [0, Fraction(1, 3)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_fibre_words_are_the_words_of_fibre_paths(make, m, t, n):
    g = make()
    assert fibre_words(g, m, t, n) == [
        tuple(e.word.edge_ids for e in qp.edges) for qp in fibre_paths(g, m, t, n)
    ]


@pytest.mark.parametrize("m,n", [(0, 2), (1, 0), (2, -1)])
def test_fibre_words_refuses_bad_parameters(cycle_plus_loop, m, n):
    with pytest.raises(PreconditionError):
        fibre_words(cycle_plus_loop, m, Fraction(1, 3), n)


def test_quiver_path_refuses_non_composable_edges(two_loop, cycle_plus_loop):
    t = Fraction(1, 3)
    # [ef, 1/3] has source [f, 1/3], [ee, 1/3] has range [e, 1/3]
    a = normalize_edge(Path(two_loop, ("e", "f")), t, 1)
    b = normalize_edge(Path(two_loop, ("e", "e")), t, 1)
    with pytest.raises(CompositionError):
        QuiverPath(1, t, (a, b))
    # on the lattice: s(p) = u but r(p) = v
    p = normalize_edge(Path(cycle_plus_loop, ("p",)), 0, 1)
    with pytest.raises(CompositionError):
        QuiverPath(1, Fraction(0), (p, p))


def test_quiver_path_validation_errors(two_loop):
    t = Fraction(1, 3)
    a = normalize_edge(Path(two_loop, ("e", "f")), t, 1)
    b = normalize_edge(Path(two_loop, ("f", "e")), t, 1)
    assert QuiverPath(1, t, (a, b)).edges == (a, b)
    with pytest.raises(StructuralError, match="^nonempty quiver path must not carry an anchor$"):
        QuiverPath(1, t, (a,), anchor=edge_range(a))
    with pytest.raises(StructuralError, match="^mixed parameter or time in quiver path$"):
        QuiverPath(1, Fraction(2, 3), (a,))
    with pytest.raises(StructuralError, match="^length-0 quiver path needs an anchor vertex$"):
        QuiverPath(1, t, ())
    with pytest.raises(CompositionError, match="^quiver edges not composable$"):
        QuiverPath(1, t, (a, a))


def test_quiver_values_compare_hash_and_print_as_before(two_loop):
    t = Fraction(1, 3)
    interior = SuspensionVertex("interior", edge="e", t=t)
    assert interior == SuspensionVertex("interior", None, "e", Fraction(1, 3))
    assert hash(interior) == hash(SuspensionVertex("interior", edge="e", t=t))
    assert interior != SuspensionVertex("interior", edge="f", t=t)
    assert base_vertex("v") == SuspensionVertex("base", vertex="v") != base_vertex("w")
    assert SuspensionVertex("base", vertex="v").t == 0
    alpha = normalize_edge(Path(two_loop, ("e", "f", "e")), Fraction(4, 3), 1)
    same = QuiverEdge(1, Path(make_two_loop(), ("f", "e")), t)
    assert alpha == same and hash(alpha) == hash(same)
    assert alpha != QuiverEdge(1, Path(two_loop, ("f", "e")), Fraction(2, 3))
    assert alpha != QuiverEdge(2, Path(two_loop, ("f", "e")), t)
    lattice = normalize_edge(Path(two_loop, ("e", "f")), 0, 0)
    assert len({alpha, same, lattice}) == 2
    assert QuiverPath(1, t, (alpha,)) == QuiverPath(1, t, (same,))
    assert repr(interior) == "[e,1/3]" and repr(base_vertex("v")) == "[v]"
    assert repr(alpha) == "[f e; t=1/3; m=1]" and repr(lattice) == "[@v; t=0; m=0]"
    for obj, name in [(interior, "t"), (alpha, "word"), (QuiverPath(1, t, (alpha,)), "edges")]:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)


def test_vertex_along(three_cycle):
    mu = Path(three_cycle, ("a", "c"))
    assert vertex_along(mu, 0) == base_vertex("v")
    assert vertex_along(mu, 1) == base_vertex("u")
    assert vertex_along(mu, Fraction(3, 2)) == SuspensionVertex(
        "interior", edge="c", t=Fraction(1, 2)
    )


def test_openness_examples(three_cycle, two_loop, cycle_plus_loop):
    rep = openness_report(three_cycle)
    assert rep["s_open_everywhere"] and rep["r_open_everywhere"]
    rep = openness_report(two_loop)
    assert not rep["s_open_everywhere"] and not rep["r_open_everywhere"]
    rep = openness_report(cycle_plus_loop)
    # s(p) = u emits {p,l}: not s-open; r(p) = v receives only p: r-open
    assert not rep["edges"]["p"].s_open and rep["edges"]["p"].r_open
