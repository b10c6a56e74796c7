"""Sparse operators over exact rationals, and the truncated path-space representation."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suspquiver import (
    Path,
    PreconditionError,
    SparseOperator,
    build_rep,
    combo,
    enumerate_paths,
    higher_dual,
    operator_norm_est,
    rank_on_columns,
    sum_sq_norm,
    vertex_path,
)

from conftest import (
    ReferenceOperator,
    brute_paths,
    column,
    identity,
    random_no_sink_source_graph,
    reference_add,
    reference_creation,
    reference_generators,
    reference_lincomb,
    reference_norm_squared,
    reference_scale,
    reference_sub,
    small_graphs,
)

rationals = st.fractions(max_denominator=12, min_value=-3, max_value=3)


@given(
    seed=st.integers(0, 500),
    m=st.integers(1, 2),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_combo_matches_fold_of_add_and_scale(seed, m, data):
    g = random_no_sink_source_graph(seed, max_vertices=3, max_edges=4)
    rep = build_rep(higher_dual(g, 1, m + 1), 2)
    gens = [rep.T[k] for k in sorted(rep.T)] + [rep.Q[k] for k in sorted(rep.Q)]
    # a scaled generator too, so that terms carry entries other than the shared 1
    gens.append(gens[0].scale(Fraction(-2, 3)))
    drawn = data.draw(
        st.lists(st.tuples(st.integers(0, len(gens) - 1), rationals), max_size=6)
    )
    terms = [(c, gens[i]) for i, c in drawn]
    # repeat a prefix with negated coefficients, so that some entries cancel
    k = data.draw(st.integers(0, len(terms)))
    terms += [(-c, op) for c, op in terms[:k]]
    # and an int coefficient, as the callers in opalg pass
    terms += [(c.numerator, gens[i]) for i, c in drawn[:1]]
    expected = rep.zero()
    for c, op in terms:
        expected = expected + op.scale(c)
    got = combo(rep, terms)
    assert got == expected
    assert got.basis is rep.basis and all(got.entries.values())


def test_combo_cancellation_empty_and_foreign_basis(two_loop, cycle_plus_loop):
    rep = build_rep(two_loop, 2)
    t = rep.T["e"]
    assert combo(rep, []) == rep.zero()
    assert combo(rep, [(Fraction(1, 2), t), (Fraction(-1, 2), t)]).is_zero()
    assert combo(rep, [(0, t)]).is_zero()
    f = rep.T["f"]
    assert rep.delta("v") == rep.Q["v"] - t @ t.adjoint() - f @ f.adjoint()
    other = build_rep(cycle_plus_loop, 2)
    with pytest.raises(PreconditionError):
        combo(rep, [(1, t), (1, other.T["p"])])
    with pytest.raises(PreconditionError):
        combo(rep, [(0, other.T["p"])])


def test_rep_requires_no_sources(single_edge):
    with pytest.raises(PreconditionError):
        build_rep(single_edge, 3)


def test_basis_order(cycle_plus_loop):
    rep = build_rep(cycle_plus_loop, 2)
    lens = [len(p) for p in rep.basis.labels]
    assert lens == sorted(lens)  # ordered by length first
    for n in (0, 1, 2):
        block = [p for p in rep.basis.labels if len(p) == n]
        assert block == enumerate_paths(cycle_plus_loop, n)


def test_creation_prepends(two_loop):
    g = two_loop
    rep = build_rep(g, 3)
    mu = Path(g, ("e", "f"))
    T = rep.creation(mu)
    col = rep.basis.find((), "v")
    assert column(T, col) == {rep.basis.find(mu.edge_ids): 1}
    # products of single-edge generators agree with the direct builder
    assert rep.T["e"] @ rep.T["f"] == T
    # annihilation past the cap
    long_col = rep.basis.find(("e", "f"))
    assert column(T, long_col) == {}


def test_basis_find_walks_the_trie(cycle_plus_loop):
    rep = build_rep(cycle_plus_loop, 2)
    basis = rep.basis
    for i, p in enumerate(basis.labels):
        assert basis.find(p.edge_ids, p.anchor) == basis.find(p.edge_ids, p.r) == i
        if p.edge_ids:
            assert basis.child[(basis.parent[i], basis.last[i])] == i
    # past L, not composable, and anchored off the range of the first edge
    for word, anchor in ((("p", "l", "l"), None), (("p", "p"), None), (("p",), "u")):
        with pytest.raises(KeyError):
            basis.find(word, anchor)


def test_adjoint_product(two_loop):
    rep = build_rep(two_loop, 3)
    a, b = rep.T["e"], rep.T["f"]
    assert (a @ b).adjoint() == b.adjoint() @ a.adjoint()


def test_q_partition_of_identity(cycle_plus_loop):
    rep = build_rep(cycle_plus_loop, 3)
    total = rep.zero()
    for v in cycle_plus_loop.vertices:
        total = total + rep.Q[v]
    assert total == identity(rep)


def test_delta_is_vacuum_projection(two_loop):
    rep = build_rep(two_loop, 4)
    d = rep.delta("v")
    interior = rep.interior_cols(1)
    assert rank_on_columns(d, interior) == 1
    vac = rep.basis.find((), "v")
    assert column(d, vac) == {vac: 1}


def test_matrix_unit_exact(two_loop):
    # T_mu Delta_s(mu) T_nu* is the matrix unit theta_{mu,nu}
    g = two_loop
    rep = build_rep(g, 4)
    mu, nu = Path(g, ("e", "f")), Path(g, ("f",))
    op = rep.creation(mu) @ rep.delta(mu.s) @ rep.creation(nu).adjoint()
    assert op.entries == {(rep.basis.find(mu.edge_ids), rep.basis.find(nu.edge_ids)): 1}


def test_rank_on_columns_exact(two_loop):
    rep = build_rep(two_loop, 2)
    third = Fraction(1, 3)
    op = SparseOperator(rep.basis, {(0, 0): 1, (0, 1): third, (1, 0): 2, (1, 1): third * 2})
    assert rank_on_columns(op, [0, 1]) == 1
    op2 = SparseOperator(rep.basis, {(0, 0): 1, (1, 1): 1})
    assert rank_on_columns(op2, [0, 1]) == 2


def test_norm_estimate_against_svd(cycle_plus_loop):
    rep = build_rep(cycle_plus_loop, 3)
    op = rep.T["p"] + rep.T["l"].scale(Fraction(-1, 2))
    est = operator_norm_est(op)
    svd = float(np.linalg.norm(op.to_dense(), 2))
    assert est == pytest.approx(svd, abs=1e-7)


def test_norm_of_partial_isometry(two_loop):
    rep = build_rep(two_loop, 3)
    assert operator_norm_est(rep.T["e"]) == pytest.approx(1.0, abs=1e-9)
    assert operator_norm_est(rep.zero()) == 0.0


@given(
    seed=st.integers(0, 500),
    m=st.integers(1, 2),
    kind=st.sampled_from(["T", "Q"]),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_norm_squared_matches_svd(seed, m, kind, data):
    # the former norm_squared, kept as the reference that sum_sq_norm is
    # tested against, on rational combinations of one kind of generator
    g = random_no_sink_source_graph(seed, max_vertices=3, max_edges=4)
    rep = build_rep(higher_dual(g, 1, m + 1), 2)
    gens = rep.T if kind == "T" else rep.Q
    terms = data.draw(
        st.lists(
            st.tuples(st.sampled_from(sorted(gens)), rationals),
            min_size=1,
            max_size=6,
        )
    )
    op = rep.zero()
    for key, c in terms:
        op = op + gens[key].scale(c)
    exact = reference_norm_squared(op)
    assert isinstance(exact, Fraction)
    svd = float(np.linalg.norm(op.to_dense(), 2)) ** 2
    assert float(exact) == pytest.approx(svd, abs=1e-9, rel=1e-9)


def test_norm_squared_shared_rows(two_loop):
    rep = build_rep(two_loop, 2)
    # rows hold two entries, but the columns are orthogonal: A*A = 2 I
    op = SparseOperator(rep.basis, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1})
    assert reference_norm_squared(op) == 2
    assert reference_norm_squared(rep.zero()) == 0


def _int_combination(seed, m, kind, data):
    """Integer coefficients for the generators of one kind on a small dual."""
    g = random_no_sink_source_graph(seed, max_vertices=3, max_edges=4)
    rep = build_rep(higher_dual(g, 1, m + 1), 2)
    table = rep.T if kind == "T" else rep.Q
    gens = [table[k] for k in sorted(table)]
    coeffs = data.draw(
        st.lists(st.integers(-5, 5) | st.just(0), min_size=len(gens), max_size=len(gens))
    )
    return rep, gens, coeffs


@given(
    seed=st.integers(0, 500),
    m=st.integers(1, 2),
    kind=st.sampled_from(["T", "Q"]),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_sum_sq_norm_matches_svd(seed, m, kind, data):
    rep, gens, coeffs = _int_combination(seed, m, kind, data)
    svd = float(np.linalg.norm(combo(rep, zip(coeffs, gens)).to_dense(), 2)) ** 2
    assert sum_sq_norm(gens)(coeffs) == pytest.approx(svd, abs=1e-9, rel=1e-9)


@given(
    seed=st.integers(0, 500),
    m=st.integers(1, 2),
    kind=st.sampled_from(["T", "Q"]),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_sum_sq_norm_matches_norm_squared_of_the_sum(seed, m, kind, data):
    # against the former norm_squared of the sum, summed entry by entry in Fraction
    rep, gens, coeffs = _int_combination(seed, m, kind, data)
    want = reference_norm_squared(reference_lincomb(rep.basis, zip(coeffs, gens)))
    assert sum_sq_norm(gens)(coeffs) == want


def test_sum_sq_norm_refuses_shared_rows(two_loop):
    rep = build_rep(two_loop, 2)
    with pytest.raises(PreconditionError):
        sum_sq_norm([rep.T["e"], rep.Q["v"]])
    with pytest.raises(PreconditionError):
        sum_sq_norm([rep.T["e"].scale(Fraction(1, 2))])


def test_norm_squared_refuses_non_diagonal_gram(two_loop):
    rep = build_rep(two_loop, 2)
    op = SparseOperator(rep.basis, {(0, 0): 1, (0, 1): 1})
    with pytest.raises(PreconditionError):
        reference_norm_squared(op)


def test_operators_refuse_mixed_bases(two_loop, cycle_plus_loop):
    a = build_rep(two_loop, 2)
    b = build_rep(cycle_plus_loop, 2)
    with pytest.raises(PreconditionError):
        _ = a.T["e"] + b.T["p"]


def _small_rep(seed: int, m: int, L: int):
    """A small random graph (m = 0) or its E(1,m+1) dual, truncated at
    L' = min(L, 4 - m): at most 341 basis paths."""
    g = random_no_sink_source_graph(seed, max_vertices=3, max_edges=4 if m == 0 else 3)
    return build_rep(g if m == 0 else higher_dual(g, 1, m + 1), min(L, 4 - m))


@given(
    seed=st.integers(0, 500),
    m=st.integers(0, 2),
    L=st.integers(1, 4),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_add_sub_scale_match_reference_loops(seed, m, L, data):
    rep = _small_rep(seed, m, L)
    gens = [rep.T[k] for k in sorted(rep.T)] + [rep.Q[k] for k in sorted(rep.Q)]
    # scaled sums, so that operands carry entries other than the shared 1
    for _ in range(2):
        x, y = data.draw(st.sampled_from(gens)), data.draw(st.sampled_from(gens))
        c = data.draw(rationals)
        gens.append(reference_add(x, reference_scale(y, c)))
    a, b = data.draw(st.sampled_from(gens)), data.draw(st.sampled_from(gens))
    c = data.draw(rationals)
    before = (dict(a.entries), dict(b.entries))
    for got, want in (
        (a + b, reference_add(a, b)),
        (a - b, reference_sub(a, b)),
        (a.scale(c), reference_scale(a, c)),
        (a.scale(-1), reference_scale(a, -1)),
        (a.scale(Fraction(1, 3)), reference_scale(a, Fraction(1, 3))),
        (b + a.scale(c), reference_add(b, reference_scale(a, c))),
    ):
        assert got == want and got.basis is rep.basis and all(got.entries.values())
    # cancellation to zero, through each operation
    assert (a - a).is_zero() and (a + a.scale(-1)).is_zero() and a.scale(0).is_zero()
    assert (a.scale(c) - a.scale(c)).is_zero()
    assert (a.entries, b.entries) == before  # the operands are left as they were


def test_add_sub_scale_refuse_a_foreign_basis(two_loop):
    a, b = build_rep(two_loop, 2), build_rep(two_loop, 2)
    for op in (lambda x, y: x + y, lambda x, y: x - y, reference_add, reference_sub):
        with pytest.raises(PreconditionError):
            op(a.T["e"], b.T["e"])
    with pytest.raises(PreconditionError):
        combo(a, [(1, a.T["e"]), (-1, b.T["e"])])


@given(seed=st.integers(0, 500), m=st.integers(0, 2), L=st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_generators_match_path_built_reference(seed, m, L):
    rep = _small_rep(seed, m, L)
    Q, T = reference_generators(rep)
    assert rep.Q == Q and rep.T == T
    for mu in rep.basis.labels:  # every path with |mu| <= L
        T_mu = rep.creation(mu)
        assert T_mu == reference_creation(rep, mu)
        product = rep.Q[mu.r]
        for e in mu.edge_ids:
            product = product @ rep.T[e]
        assert T_mu == product
        assert rep.basis.find(mu.edge_ids, mu.anchor) == rep.basis.labels.index(mu)


def test_generators_match_reference_on_a_long_single_loop(single_loop):
    # at L=200 each row of T_e and T_mu is found from the row of its parent
    rep = build_rep(single_loop, 200)
    Q, T = reference_generators(rep)
    assert rep.Q == Q and rep.T == T
    for n in (1, 2, 100, 199, 200):
        mu = Path(single_loop, ("e",) * n)
        assert rep.creation(mu) == reference_creation(rep, mu)


def test_generators_build_no_path_per_column(cycle_plus_loop, monkeypatch):
    dual = higher_dual(cycle_plus_loop, 1, 3)
    built = []
    init = Path.__init__

    def counted(p, *args):
        built.append(p)
        init(p, *args)

    monkeypatch.setattr(Path, "__init__", counted)
    rep = build_rep(dual, 4)
    # the basis enumeration builds each label once; Q and T build none
    assert len(built) <= len(rep.basis)
    mus = list(rep.basis.labels)
    built.clear()
    for mu in mus:
        rep.creation(mu)
    assert built == []
    for v in rep.graph.vertices:
        assert mus[rep.basis.find((), v)] == vertex_path(rep.graph, v)


# coprime denominators, units and plain rationals
coefficients = st.one_of(
    st.sampled_from([Fraction(1, 3), Fraction(5, 7), Fraction(-5, 7), 1, -1, 3]),
    rationals,
)


@given(
    seed=st.integers(0, 500),
    m=st.integers(0, 2),
    L=st.integers(1, 4),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_integer_kernel_matches_fraction_reference(seed, m, L, data):
    rep = _small_rep(seed, m, L)
    gens = [rep.T[k] for k in sorted(rep.T)] + [rep.Q[k] for k in sorted(rep.Q)]
    pool = [(x, ReferenceOperator.of(x)) for x in gens]
    for _ in range(data.draw(st.integers(1, 8))):
        kind = data.draw(st.sampled_from(["+", "-", "scale", "@", "adjoint", "combo"]))
        (x, rx), (y, ry) = data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool))
        c = data.draw(coefficients)
        if kind == "+":
            got, want = x + y.scale(c), rx + ry.scale(c)
        elif kind == "-":
            got, want = x.scale(c) - y, rx.scale(c) - ry
        elif kind == "scale":
            got, want = x.scale(c), rx.scale(c)
        elif kind == "@":
            got, want = x.scale(c) @ y, rx.scale(c) @ ry
        elif kind == "adjoint":
            got, want = x.scale(c).adjoint(), rx.scale(c).adjoint()
        else:  # c X - c X + Y cancels to Y, through one combo
            got = combo(rep, [(c, x), (1, y), (-c, x)])
            want = reference_lincomb(rep.basis, [(c, rx), (1, ry), (-c, rx)])
            assert got == y
        assert got.entries == want.entries and len(got.entries) == len(want.entries)
        assert all(type(v) is int for v in got.num.values())
        pool.append((got, want))
    for (x, rx), (y, ry) in data.draw(
        st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)), max_size=4)
    ):
        assert (x == y) == (rx == ry)
        for max_len in range(rep.L + 1):
            assert x.equal_on_columns(y, max_len) == rx.equal_on_columns(ry, max_len)


def test_integer_kernel_denominators(two_loop):
    rep = build_rep(two_loop, 3)
    x = rep.T["e"] + rep.T["f"].scale(Fraction(-1, 5))
    third = x.scale(Fraction(1, 3))
    assert third.den == 15 and third != x
    assert third.scale(3) == x  # numerators over 15 against numerators over 5
    assert x.scale(Fraction(1, 3)) + x.scale(Fraction(2, 3)) == x
    assert (x.scale(Fraction(5, 7)) - x.scale(Fraction(5, 7))).is_zero()
    assert combo(rep, [(Fraction(1, 3), x), (Fraction(-5, 7), x), (Fraction(8, 21), x)]).is_zero()
    c = Fraction(5, 21)
    assert combo(rep, [(c, x), (-c, x)]).is_zero()
    # equality and equal_on_columns compare values, not stored numerators
    y = rep.T["e"].scale(Fraction(1, 3)) @ rep.T["f"].scale(Fraction(5, 7))
    z = (rep.T["e"] @ rep.T["f"]).scale(Fraction(5, 21))
    assert y.den == 21 and y == z
    assert y.equal_on_columns(z.scale(Fraction(1, 3)).scale(3), 1)
    assert not y.equal_on_columns(z.scale(2), 1)
    assert set(y.entries.values()) == {Fraction(5, 21)}
    # the Fraction view: nonzero entries only, in lowest terms, and a round trip
    want = {Fraction(1, 3), Fraction(-1, 15)}
    assert set(third.entries.values()) == want
    assert SparseOperator(rep.basis, dict(third.entries)) == third
    assert len(x.entries) == len(dict(x.entries)) == len(rep.T["e"].num) + len(rep.T["f"].num)


def test_real_combo_builds_no_fraction_per_entry(cycle_plus_loop, monkeypatch):
    rep = build_rep(higher_dual(cycle_plus_loop, 1, 3), 6)
    terms = [(Fraction(1, 3), rep.T[k]) for k in sorted(rep.T)]
    terms += [(Fraction(-5, 7), rep.Q[k]) for k in sorted(rep.Q)] + [(2, identity(rep))]
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    op = combo(rep, terms)
    gram = op.adjoint() @ op
    same = op == op.scale(Fraction(1, 3)).scale(3)
    n2 = sum_sq_norm([rep.T[k] for k in sorted(rep.T)])([1] * len(rep.T))
    # the entries view counts and lists its keys, as the benchmark's tracer does
    sizes = len(op.entries), len(gram.entries), sum(1 for _ in op.entries)
    monkeypatch.undo()
    assert len(rep.basis) > 1000 and sizes[0] == sizes[2] == len(op.num) > 2000
    assert sizes[1] == len(gram.num) > 2000
    assert same and n2 == 3  # three edges leave each dual vertex
    assert len(built) < 10  # one per scalar argument and result at most, none per entry


@given(seed=st.integers(0, 500), data=st.data())
@settings(max_examples=40, deadline=None)
def test_rank_on_columns_matches_sympy(seed, data):
    import sympy

    rep = _small_rep(seed, 0, 2)
    n = len(rep.basis)
    cols = data.draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 6), unique=True)
    )
    vecs = [
        data.draw(st.dictionaries(st.integers(0, n - 1), rationals, max_size=4)) for _ in cols
    ]
    if len(cols) >= 3:  # a combination of two columns, so that the rank drops
        k = data.draw(coefficients)
        rows = {*vecs[0], *vecs[1]}
        vecs[2] = {r: Fraction(vecs[0].get(r, 0)) * k + vecs[1].get(r, 0) for r in rows}
    ent = {(r, c): v for c, vec in zip(cols, vecs) for r, v in vec.items()}
    op = SparseOperator(rep.basis, ent)
    mat = sympy.zeros(n, len(cols))
    for j, vec in enumerate(vecs):
        for r, v in vec.items():
            mat[r, j] = sympy.Rational(v.numerator, v.denominator)
    assert rank_on_columns(op, cols) == mat.rank(simplify=True)


@given(g=small_graphs(), L=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_basis_matches_brute_force_paths(g, L):
    if any(not g.received(v) for v in g.vertices):
        return  # sources are refused
    rep = build_rep(g, L)
    got = [p.edge_ids or (p.anchor,) for p in rep.basis.labels]
    assert got == [ids for n in range(L + 1) for ids in brute_paths(g, n)]
    for p in rep.basis.labels:  # each unchecked label is a valid path
        q = Path(g, p.edge_ids, p.anchor)
        assert (p.r, p.s, len(p)) == (q.r, q.s, len(q))
