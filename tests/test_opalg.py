"""Operator identities: TCK, jmath, rho/psi fibres, limits, eta, kappa, Morita."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suspquiver import (
    FunctionOnEdges,
    Graph,
    Path,
    PreconditionError,
    StructuralError,
    build_rep,
    check_tck,
    delay,
    edge_fn_interpolated,
    enumerate_paths,
    eta_generators,
    higher_dual,
    jmath,
    kappa_eval,
    limit_formulas,
    morita_combinatorics,
    norm_squared,
    operator_norm_est,
    vertex_fn_interpolated,
    vertex_path,
)
from suspquiver.opalg import _fibre_rho_psi, dual_rep

from conftest import (
    make_cycle_plus_loop,
    make_single_loop,
    make_three_cycle,
    make_two_loop,
    no_sink_source_graphs,
    random_no_sink_source_graph,
    reference_edge_fn,
    reference_fullness,
    reference_vertex_fn,
)

def test_vertex_fn_interpolation(cycle_plus_loop):
    g = cycle_plus_loop
    a = vertex_fn_interpolated(g, {"u": Fraction(1, 2), "v": Fraction(1, 4)})
    u, v = vertex_path(g, "u"), vertex_path(g, "v")
    assert a.at_lattice(u) == Fraction(1, 2) and type(a.at_lattice(u)) is Fraction
    # p runs u -> v, so [p,t] interpolates from r(p) = v to s(p) = u
    assert a.at_word(("p",), Fraction(1, 2)) == Fraction(3, 8)
    assert a.at_word(("p",), 0) == a.at_lattice(v)
    assert a.at_word(("p",), 1) == a.at_lattice(u)


def test_edge_fn_interpolation(two_loop):
    g = two_loop
    xi = edge_fn_interpolated(g, 1, {("e",): Fraction(1), ("f",): Fraction(0)})
    assert xi.at_lattice(Path(g, ("e",))) == 1
    assert xi.at_word(("e", "f"), Fraction(1, 2)) == Fraction(1, 2)
    assert type(xi.at_lattice(Path(g, ("f",)))) is Fraction
    assert xi.at_word(("e", "f"), 1) == xi.at_lattice(Path(g, ("f",)))


@given(seed=st.integers(0, 500), m=st.integers(0, 2), data=st.data())
@settings(max_examples=60, deadline=None)
def test_functions_match_callable_references(seed, m, data):
    # vertex values and lattice weights, read at both ends and inside [0,1],
    # agree with the former per-edge and per-word affine callables
    g = random_no_sink_source_graph(seed, max_vertices=4, max_edges=5)
    value = st.fractions(min_value=-2, max_value=2, max_denominator=8)
    values = {v: data.draw(value) for v in g.vertices}
    keys = [w.edge_ids if m else w.anchor for w in enumerate_paths(g, m)]
    weights = {k: data.draw(value) for k in keys}
    a, xi = vertex_fn_interpolated(g, values), edge_fn_interpolated(g, m, weights)
    a_ref, xi_ref = reference_vertex_fn(g, values), reference_edge_fn(g, m, weights)
    ts = [Fraction(0), Fraction(1), data.draw(st.fractions(min_value=0, max_value=1))]
    for t in ts:
        assert all(a.at_word((e.id,), t) == a_ref.at_edge(e.id, t) for e in g.edges)
        for mu in enumerate_paths(g, m + 1):
            assert xi.at_word(mu.edge_ids, t) == xi_ref.at_word(mu.edge_ids, t)
    assert all(a.at_lattice(vertex_path(g, v)) == a_ref.at_base(v) for v in g.vertices)
    for w in enumerate_paths(g, m):
        assert xi.at_lattice(w) == xi_ref.at_lattice(w)


def test_unknown_edge_or_word_refused(two_loop, cycle_plus_loop):
    a = vertex_fn_interpolated(two_loop, {"v": 1})
    with pytest.raises(StructuralError):
        a.at_word(("p",), Fraction(1, 2))
    xi = edge_fn_interpolated(cycle_plus_loop, 1, {("p",): 1})
    # pp does not compose (s(p) = u, r(p) = v), and p is a word of length 1
    with pytest.raises(StructuralError):
        xi.at_word(("p", "p"), Fraction(1, 2))
    with pytest.raises(StructuralError):
        xi.at_word(("p",), 0)
    with pytest.raises(StructuralError):
        edge_fn_interpolated(two_loop, 0, {"v": 1}).at_word(("g",), 1)


def test_unknown_vertex_refused_at_base(cycle_plus_loop):
    a = vertex_fn_interpolated(cycle_plus_loop, {"u": 1})
    with pytest.raises(StructuralError):
        a.at_lattice(vertex_path(Graph(["x"], []), "x"))


def test_uncovered_word_refused_at_lattice(two_loop):
    # at m = 1 the lattice words are the edges: a vertex path or a longer word
    # has no weight
    xi = edge_fn_interpolated(two_loop, 1, {("e",): 1})
    with pytest.raises(StructuralError):
        xi.at_lattice(vertex_path(two_loop, "v"))
    with pytest.raises(StructuralError):
        xi.at_lattice(Path(two_loop, ("e", "f")))


@pytest.mark.parametrize("t", [-1, Fraction(-1, 8), Fraction(9, 8), 2])
def test_coordinate_outside_unit_interval_refused(t, two_loop):
    a = vertex_fn_interpolated(two_loop, {"v": 1})
    xi = edge_fn_interpolated(two_loop, 1, {("e",): 1})
    with pytest.raises(PreconditionError):
        a.at_word(("e",), t)
    with pytest.raises(PreconditionError):
        xi.at_word(("e", "f"), t)


def test_values_without_edges_read_as_given():
    # w is isolated, and u receives no edge, so the lattice word e (s(e) = u)
    # has no extension ef; each still reads the value it was given
    g = Graph(["u", "v", "w"], [("e", "u", "v")])
    a = vertex_fn_interpolated(g, {"u": Fraction(1, 2), "w": Fraction(3, 4)})
    assert a.at_lattice(vertex_path(g, "w")) == Fraction(3, 4)
    assert a.at_lattice(vertex_path(g, "v")) == 0
    assert a.at_word(("e",), 1) == a.at_lattice(vertex_path(g, "u")) == Fraction(1, 2)
    xi = FunctionOnEdges(g, 1, {("e",): Fraction(2, 3)})
    assert xi.at_lattice(Path(g, ("e",))) == Fraction(2, 3)
    xi0 = FunctionOnEdges(g, 0, {"w": Fraction(1, 5), "u": 1})
    assert xi0.at_lattice(vertex_path(g, "w")) == Fraction(1, 5)
    assert xi0.at_word(("e",), 0) == 0 and xi0.at_word(("e",), 1) == 1


@pytest.mark.parametrize("seed", range(4))
def test_tck_on_random_graphs(seed):
    g = random_no_sink_source_graph(400 + seed, max_edges=5)
    rep = check_tck(build_rep(g, 4), random.Random(seed))
    assert rep.ok, rep.to_text()


def test_jmath_pinned_two_loop():
    g = make_two_loop()
    jm = jmath(g, 1, 2, 3)
    assert jm.report.ok, jm.report.to_text()
    rep = jm.rep
    assert jm.q_table["v"] == rep.Q["e"] + rep.Q["f"]
    assert jm.t_table[("e",)] == rep.T["e,e"] + rep.T["e,f"]
    assert jm.t_table[("f",)] == rep.T["f,e"] + rep.T["f,f"]


@pytest.mark.parametrize("p,q", [(1, 2), (1, 3), (2, 3)])
def test_jmath_suite(p, q, cycle_plus_loop):
    jm = jmath(cycle_plus_loop, p, q, 3)
    assert jm.report.ok, jm.report.to_text()


def test_rho_identity_function(two_loop):
    g = two_loop
    a = vertex_fn_interpolated(g, {"v": 1})
    xi = edge_fn_interpolated(g, 1, {})
    rep = build_rep(higher_dual(g, 1, 2), 3)
    rho, _ = _fibre_rho_psi(rep, Fraction(1, 3), a, xi)
    assert rho == rep.identity()


def test_psi_prepends_with_coefficients(two_loop):
    g = two_loop
    a = vertex_fn_interpolated(g, {"v": 1})
    xi = edge_fn_interpolated(g, 1, {("e",): Fraction(1, 2), ("f",): Fraction(1, 4)})
    t = Fraction(1, 2)
    rep = build_rep(higher_dual(g, 1, 2), 3)
    _, psi = _fibre_rho_psi(rep, t, a, xi)
    # column over the dual vertex e: psi h_[e] = sum_mu xi([mu,t]) h_mu with
    # mu ranging over the dual edges with source e
    col = psi.column(rep.basis.find((), "e"))
    dual = {rep.basis.labels[i].edge_ids[0]: val for i, val in col.items()}
    assert dual == {
        "e,e": xi.at_word(("e", "e"), t),
        "f,e": xi.at_word(("f", "e"), t),
    }


def test_rotation_covariance_on_reduced_single_loop():
    # single loop at fractional parameter 1/3: over the 3-cycle C = D_3(E),
    # psi(1) rho(a) = rho(a') psi(1) with a' the one-step rotation of a
    g = make_single_loop()
    C = delay(g, 3)
    vals = {C.r(e.id): Fraction(k + 1, 8) for k, e in enumerate(C.edges)}
    a = vertex_fn_interpolated(C, vals)
    rot = {}
    for e in C.edges:
        prev = next(x for x in C.edges if C.r(x.id) == C.s(e.id))
        rot[C.r(e.id)] = vals[C.r(prev.id)]
    a_rot = vertex_fn_interpolated(C, rot)
    xi = edge_fn_interpolated(C, 1, {(e.id,): 1 for e in C.edges})
    t = Fraction(1, 2)
    rep = build_rep(higher_dual(C, 1, 2), 4)
    rho_a, psi = _fibre_rho_psi(rep, t, a, xi)
    rho_rot, _ = _fibre_rho_psi(rep, t, a_rot, xi)
    assert psi @ rho_a == rho_rot @ psi


def test_psi_norm_bound(two_loop):
    g = two_loop
    a = vertex_fn_interpolated(g, {"v": 1})
    xi = edge_fn_interpolated(g, 1, {("e",): Fraction(1, 2), ("f",): Fraction(1, 2)})
    t = Fraction(1, 3)
    _, psi = _fibre_rho_psi(build_rep(higher_dual(g, 1, 2), 4), t, a, xi)
    # ||psi(xi)|| <= ||xi||_inf * #words of length m+1 on which xi is supported
    words = [w.edge_ids for w in enumerate_paths(g, 2)]
    sup = max(abs(xi.at_word(w, t)) for w in words)
    support = sum(any(xi.at_word(w, Fraction(k, 8)) for k in range(9)) for w in words)
    assert operator_norm_est(psi) <= sup * support + 1e-9


def _test_functions(g, m, spread=Fraction(1, 4)):
    rng = random.Random(7)
    steps = int(spread * 8) + 1
    vvals = {v: Fraction(rng.randrange(steps), 8) for v in g.vertices}
    keys = (
        [w.edge_ids for w in enumerate_paths(g, m)]
        if m >= 1
        else list(g.vertices)
    )
    wvals = {k: Fraction(rng.randrange(steps), 8) for k in keys}
    return vertex_fn_interpolated(g, vvals), edge_fn_interpolated(g, m, wvals)


@pytest.mark.parametrize("m", [1, 2])
def test_limit_formulas(m, two_loop):
    a, xi = _test_functions(two_loop, m)
    lim = limit_formulas(two_loop, m, 3, a, xi, K=8)
    assert lim.report.ok, lim.report.to_text()
    for seq in lim.errors.values():
        assert seq[-1] < 1e-2


@given(seed=st.integers(0, 500), m=st.integers(1, 2), k=st.integers(1, 6), data=st.data())
@settings(max_examples=40, deadline=None)
def test_limit_errors_match_fibre_minus_limit(seed, m, k, data):
    # each squared error, summed from integer coefficient differences with
    # no operator formed, is norm_squared of the fibre pair at t less the
    # limit at that end, both built as operators; zero is drawn often, so
    # whole generators drop out of the sums
    from suspquiver.opalg import _limit_errors, _limit_ops

    g = random_no_sink_source_graph(seed, max_vertices=3, max_edges=3)
    rep = dual_rep(g, 1, m + 1, 2)
    value = st.one_of(
        st.just(Fraction(0)), st.fractions(min_value=-2, max_value=2, max_denominator=8)
    )
    a = vertex_fn_interpolated(g, {v: data.draw(value) for v in g.vertices})
    weights = {w.edge_ids: data.draw(value) for w in enumerate_paths(g, m)}
    xi = edge_fn_interpolated(g, m, weights)
    err = _limit_errors(rep, g, a, xi)
    d = Fraction(1, 2**k)
    t = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=12))
    for end, at in ((0, d), (1, 1 - d), (0, t), (1, t)):
        rho, psi = _fibre_rho_psi(rep, at, a, xi)
        eps_rho, eps_psi = _limit_ops(rep, g, a, xi, end)
        assert err(at, end) == (norm_squared(rho - eps_rho), norm_squared(psi - eps_psi))
    # every a and xi is affine, so the closed form ||err||^2 = C d^2 holds
    lim = limit_formulas(g, m, 2, a, xi, K=3)
    assert lim.rep is rep and lim.report.ok, lim.report.to_text()


def test_limit_constants_pinned(cycle_plus_loop):
    g = cycle_plus_loop
    a = vertex_fn_interpolated(g, {"u": Fraction(1, 2), "v": Fraction(1, 4)})
    xi = edge_fn_interpolated(g, 1, {("p",): Fraction(1, 2)})
    lim = limit_formulas(g, 1, 3, a, xi, K=4)
    assert lim.report.ok, lim.report.to_text()
    # rho: max_e (a(s(e)) - a(r(e)))^2 = (1/4)^2; psi: the dual vertex q
    # receives only pq and lq, with coefficients xi(q) - xi(p) = -1/2 and 0
    assert lim.constants == {
        "rho_at_0": Fraction(1, 16),
        "psi_at_0": Fraction(1, 4),
        "rho_at_1": Fraction(1, 16),
        "psi_at_1": Fraction(1, 4),
    }
    assert lim.errors["psi_at_0"] == [0.25, 0.125, 0.0625, 0.03125]


def test_limit_constants_vacuous(two_loop):
    # one vertex: rho is constant along every edge, so its errors vanish
    a = vertex_fn_interpolated(two_loop, {"v": Fraction(3, 8)})
    xi = edge_fn_interpolated(two_loop, 1, {("e",): Fraction(1, 4)})
    lim = limit_formulas(two_loop, 1, 3, a, xi, K=3)
    detail = next(
        c.detail for c in lim.report.checks if c.name == "limits.monotone_convergence"
    )
    assert "rho_at_0=vacuous" in detail and "psi_at_0=1/16" in detail


def test_functions_at_another_m_refused(two_loop):
    # a is the function at m = 0 and xi the one at m: each swap or mismatch
    # is refused before any representation is read
    a, xi = _test_functions(two_loop, 1)
    for bad_a, bad_xi, m in ((a, xi, 2), (xi, xi, 1), (a, a, 1)):
        with pytest.raises(PreconditionError):
            limit_formulas(two_loop, m, 2, bad_a, bad_xi, K=2)
        with pytest.raises(PreconditionError):
            kappa_eval(two_loop, m, 2, bad_a, bad_xi, Fraction(1, 2))


@pytest.mark.parametrize("m", [1, 2])
def test_eta_relations(m, cycle_plus_loop):
    et = eta_generators(cycle_plus_loop, m, 3)
    assert et.report.ok, et.report.to_text()


def test_eta_pinned_two_loop():
    g = make_two_loop()
    et = eta_generators(g, 1, 3)
    rep = et.rep
    assert et.y[("e",)] == rep.T["e,e"] + rep.T["f,e"]
    # y_e* y_e = |E^1 r(e)| Q_e = 2 Q_e on interior depth 1
    prod = et.y[("e",)].adjoint() @ et.y[("e",)]
    assert prod.equal_on_columns(rep.Q["e"].scale(2), rep.L - 1)


def test_eta_pinned_simple_cycle():
    g = make_three_cycle()
    et = eta_generators(g, 1, 3)
    rep = et.rep
    prod = et.y[("a",)].adjoint() @ et.y[("a",)]
    assert prod.equal_on_columns(rep.Q["a"], rep.L - 1)


@pytest.mark.parametrize("t", [0, Fraction(1, 3), 1])
def test_kappa_cases(t, two_loop):
    a, xi = _test_functions(two_loop, 1)
    res = kappa_eval(two_loop, 1, 3, a, xi, t)
    assert res.report.ok, res.report.to_text()


def test_kappa_interior_matches_fibre(two_loop):
    a, xi = _test_functions(two_loop, 1)
    t = Fraction(2, 5)
    res = kappa_eval(two_loop, 1, 3, a, xi, t)
    rho, psi = _fibre_rho_psi(res.rep, t, a, xi)
    assert res.rho == rho and res.psi == psi


def test_suites_share_one_representation(two_loop):
    # limits, eta and kappa at one (g, m, L) and jmath on the same E(1,m+1)
    # read the representation that dual_rep built for them; another L builds
    # another
    a, xi = _test_functions(two_loop, 1)
    rep = limit_formulas(two_loop, 1, 3, a, xi, K=2).rep
    assert eta_generators(two_loop, 1, 3).rep is rep
    assert kappa_eval(two_loop, 1, 3, a, xi, 0).rep is rep
    assert jmath(two_loop, 1, 2, 3).rep is rep is dual_rep(two_loop, 1, 2, 3)
    other = eta_generators(two_loop, 1, 2).rep
    assert other is not rep and other.L == 2 and other.graph is rep.graph


@pytest.mark.parametrize(
    "graph_name,m,n",
    [("two_loop", 1, 2), ("three_cycle", 2, 3), ("cycle_plus_loop", 3, 2)],
)
def test_morita_suites(graph_name, m, n):
    g = {
        "two_loop": make_two_loop,
        "three_cycle": make_three_cycle,
        "cycle_plus_loop": make_cycle_plus_loop,
    }[graph_name]()
    rep = morita_combinatorics(g, m, n, 4)
    assert rep.ok, rep.to_text()


# m L <= 6: the (P,S) part builds the representation of D_n(E)(0,m) on paths
# of length <= L, which are paths of length <= m L of the delay graph
_MORITA_PARAMETERS = st.sampled_from(
    [(m, n) for m in range(1, 6) for n in range(1, 7) if math.gcd(m, n) == 1]
).flatmap(lambda mn: st.tuples(st.just(mn), st.integers(1, max(1, min(4, 6 // mn[0])))))


@given(g=no_sink_source_graphs(), mnL=_MORITA_PARAMETERS)
@settings(max_examples=150, deadline=None)
def test_morita_fullness_matches_reference(g, mnL):
    (m, n), L = mnL
    ok, witnesses = reference_fullness(delay(g, n), m, n)
    checks = {c.name: c for c in morita_combinatorics(g, m, n, L).checks}
    full = checks["morita.fullness_reachability"]
    assert (full.passed, full.detail) == (ok, f"{witnesses} vertices witnessed")


def test_morita_rejects_non_coprime(two_loop):
    with pytest.raises(PreconditionError):
        morita_combinatorics(two_loop, 2, 4, 3)
