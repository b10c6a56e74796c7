"""Smith normal form, K-groups, homology, and hypothesis checkers."""

import math
import random

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from hypothesis import given, settings
from hypothesis import strategies as st

from suspquiver import (
    AbelianGroup,
    Graph,
    IntMatrix,
    PreconditionError,
    adjacency,
    delay,
    dual_K_invariance,
    coker_ker,
    direct_sum,
    graph_K,
    higher_power,
    homology,
    hypothesis_check,
    opposite,
    smith_normal_form,
    suspension_K,
    validate,
)
from suspquiver.ktheory import _shift_rows

from conftest import (
    higher_power_hypothesis_check,
    make_single_loop,
    make_three_cycle,
    make_two_loop,
    no_sink_source_graphs,
    random_no_sink_source_graph,
    reference_graph_K,
    reference_homology,
    small_graphs,
)


def _to_sympy(m: IntMatrix) -> sympy.Matrix:
    return sympy.Matrix(m.rows, m.cols, m.entries)


def _random_int_matrix(rng: random.Random, rows: int, cols: int) -> IntMatrix:
    return IntMatrix(rows, cols, [rng.randint(-5, 5) for _ in range(rows * cols)])


def test_abelian_group_str():
    assert str(AbelianGroup(0)) == "0"
    assert str(AbelianGroup(1)) == "Z"
    assert str(AbelianGroup(2, (3,))) == "Z^2 (+) Z/3"
    with pytest.raises(PreconditionError):
        AbelianGroup(0, (4, 6))  # 6 not divisible by 4


def test_abelian_group_contract():
    # compared and hashed by rank and factors, frozen, refused with the same
    # errors, and printed as before
    assert AbelianGroup(1, (2, 4)) == AbelianGroup(1, (2, 4)) != AbelianGroup(0, (2, 4))
    assert AbelianGroup(0) != AbelianGroup(0, (2,))
    assert hash(AbelianGroup(1, (2, 4))) == hash(AbelianGroup(1, (2, 4)))
    assert len({AbelianGroup(0), AbelianGroup(free_rank=0, torsion=()), AbelianGroup(1)}) == 2
    group = AbelianGroup(3, (2, 2, 6))
    for name in ("free_rank", "torsion"):
        with pytest.raises(AttributeError):
            setattr(group, name, 1)
    assert str(group) == "Z^3 (+) Z/2 (+) Z/2 (+) Z/6"
    assert str(AbelianGroup(0, (5,))) == "Z/5"
    with pytest.raises(PreconditionError, match="^invariant factors must form a divisor chain$"):
        AbelianGroup(1, (2, 3))
    for rank, torsion in [(-1, ()), (0, (1,)), (0, (0, 2))]:
        with pytest.raises(PreconditionError, match="^bad group data$"):
            AbelianGroup(rank, torsion)


def test_direct_sum_recanonicalizes():
    s = direct_sum(AbelianGroup(1, (4,)), AbelianGroup(0, (6,)))
    assert s == AbelianGroup(1, (2, 12))


@pytest.mark.parametrize("seed", range(10))
def test_snf_matches_sympy_and_reconstructs(seed):
    rng = random.Random(seed)
    m = _random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
    res = smith_normal_form(m)
    # witness identity U M V = S with unimodular U, V
    assert res.U @ m @ res.V == res.S
    assert abs(_to_sympy(res.U).det()) == 1
    assert abs(_to_sympy(res.V).det()) == 1
    # diagonal, nonnegative, divisibility chain
    diag = [res.S[i, i] for i in range(min(m.rows, m.cols))]
    assert all(
        res.S[i, j] == 0
        for i in range(m.rows)
        for j in range(m.cols)
        if i != j
    )
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert (a == 0 and b == 0) or (a != 0 and b % a == 0) or b == 0
    # invariant factors agree with the sympy oracle
    oracle = [int(x) for x in sympy_snf(_to_sympy(m)).diagonal()]
    assert sorted(abs(d) for d in diag if d) == sorted(abs(d) for d in oracle if d)


@pytest.mark.parametrize("seed", range(5))
def test_snf_invariant_under_unimodular_conjugation(seed):
    rng = random.Random(100 + seed)
    m = _random_int_matrix(rng, 3, 3)
    base = coker_ker(m)
    # random unimodular factors built from elementary operations
    u = IntMatrix.identity(3).row_lists()
    for _ in range(6):
        i, j = rng.sample(range(3), 2)
        k = rng.randint(-2, 2)
        u[i] = [a + k * b for a, b in zip(u[i], u[j])]
    um = IntMatrix(3, 3, [x for row in u for x in row]) @ m
    assert coker_ker(um) == base


def _sympy_coker_ker(m: IntMatrix) -> tuple[AbelianGroup, AbelianGroup]:
    diag = [abs(int(x)) for x in sympy_snf(_to_sympy(m)).diagonal()]
    rank = sum(1 for d in diag if d)
    torsion = tuple(sorted(d for d in diag if d > 1))
    return AbelianGroup(m.rows - rank, torsion), AbelianGroup(m.cols - rank)


@pytest.mark.parametrize("seed", range(12))
def test_coker_ker_matches_sympy_on_graph_matrices(seed):
    rng = random.Random(500 + seed)
    nv = rng.randint(10, 30)
    vs = [f"v{i}" for i in range(nv)]
    edges = [(f"e{j}", rng.choice(vs), rng.choice(vs)) for j in range(rng.randint(nv, 2 * nv))]
    at = adjacency(Graph(vs, edges)).transpose().pow(rng.randint(1, 4))
    b = IntMatrix.identity(nv) - at
    assert coker_ker(b) == _sympy_coker_ker(b)


@pytest.mark.parametrize("seed", range(40))
def test_coker_ker_and_snf_on_sparse_rectangular(seed):
    rng = random.Random(700 + seed)
    rows, cols = rng.randint(1, 9), rng.randint(1, 9)
    density = rng.choice([0.15, 0.3, 0.6])
    m = IntMatrix(
        rows, cols,
        [rng.randint(-12, 12) if rng.random() < density else 0 for _ in range(rows * cols)],
    )
    assert coker_ker(m) == _sympy_coker_ker(m)
    res = smith_normal_form(m)
    assert res.U @ m @ res.V == res.S
    assert abs(_to_sympy(res.U).det()) == 1 and abs(_to_sympy(res.V).det()) == 1
    diag = [res.S[i, i] for i in range(min(rows, cols))]
    assert res.S == IntMatrix(
        rows, cols, [diag[i] if i == j else 0 for i in range(rows) for j in range(cols)]
    )
    nonzero = [d for d in diag if d]
    assert diag[: len(nonzero)] == nonzero and all(d > 0 for d in nonzero)
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))


@pytest.mark.parametrize("seed", range(40))
def test_coker_ker_matches_sympy_with_non_unit_entries(seed):
    # few units, so that most of the matrix is left to the dense elimination
    rng = random.Random(900 + seed)
    rows, cols = rng.randint(1, 8), rng.randint(1, 8)
    values = [0] * 8 + [1, -1, 2, -2, 3, -3, 4, -6, 9, 12]
    grid = [[rng.choice(values) for _ in range(cols)] for _ in range(rows)]
    if rng.random() < 0.5:
        grid[rng.randrange(rows)] = [0] * cols
    if rng.random() < 0.5:
        j = rng.randrange(cols)
        for row in grid:
            row[j] = 0
    m = IntMatrix(rows, cols, [x for row in grid for x in row])
    assert coker_ker(m) == _sympy_coker_ker(m)


def test_coker_ker_non_unit_pinned():
    # a +-2 is no unit: Z/2 (+) Z/6, not 0
    assert coker_ker(IntMatrix(2, 2, [2, 0, 0, 6])) == (AbelianGroup(0, (2, 6)), AbelianGroup(0))
    assert coker_ker(IntMatrix(2, 2, [2, 4, 4, 2])) == (AbelianGroup(0, (2, 6)), AbelianGroup(0))
    assert coker_ker(IntMatrix(1, 2, [-2, 0])) == (AbelianGroup(0, (2,)), AbelianGroup(1))


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0)])
def test_coker_ker_empty_shapes(rows, cols):
    assert coker_ker(IntMatrix(rows, cols, [])) == (AbelianGroup(rows), AbelianGroup(cols))


@given(g=small_graphs(), m=st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_shift_rows_are_one_minus_the_transposed_power(g, m):
    at = adjacency(g).transpose().pow(m)
    dense = (IntMatrix.identity(at.rows) - at).row_lists()
    assert _shift_rows(g, m) == [{j: x for j, x in enumerate(row) if x} for row in dense]


@given(g=small_graphs(), m=st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_graph_K_and_homology_match_dense_reference(g, m):
    assert homology(g) == reference_homology(g)
    if validate(g).sinks:
        with pytest.raises(PreconditionError):
            graph_K(g, m)
    else:
        assert graph_K(g, m) == reference_graph_K(g, m)


# draws of 40-100 vertices with about 0.5 extra edges per vertex, as the
# benchmark's wide graphs
_WIDE_SEEDS = [
    s for s in range(40)
    if len(random_no_sink_source_graph(s, 100, 150).vertices) >= 40
][:6]


@pytest.mark.parametrize("seed", _WIDE_SEEDS)
@pytest.mark.parametrize("m", [1, 3])
def test_graph_K_and_homology_match_dense_reference_on_wide_graphs(seed, m):
    g = random_no_sink_source_graph(seed, 100, 150)
    assert graph_K(g, m) == reference_graph_K(g, m)
    assert homology(g) == reference_homology(g)


def test_coker_ker_pinned():
    # 1 - A for the 2-loop graph: A = [2], matrix [-1]
    m = IntMatrix(1, 1, [-1])
    assert coker_ker(m) == (AbelianGroup(0), AbelianGroup(0))
    m = IntMatrix(1, 1, [-3])
    assert coker_ker(m) == (AbelianGroup(0, (3,)), AbelianGroup(0))
    m = IntMatrix(2, 1, [0, 0])
    assert coker_ker(m) == (AbelianGroup(2), AbelianGroup(1))


def test_graph_K_pinned():
    assert graph_K(make_two_loop(), 1) == (AbelianGroup(0), AbelianGroup(0))
    assert graph_K(make_two_loop(), 2) == (AbelianGroup(0, (3,)), AbelianGroup(0))
    assert graph_K(make_three_cycle(), 1) == (AbelianGroup(1), AbelianGroup(1))
    assert graph_K(make_single_loop(), 1) == (AbelianGroup(1), AbelianGroup(1))


@pytest.mark.parametrize("seed", range(6))
def test_coker_transpose_invariance(seed):
    g = random_no_sink_source_graph(200 + seed)
    a = adjacency(g)
    one = IntMatrix.identity(a.rows)
    assert coker_ker(one - a) == coker_ker(one - a.transpose())


def test_homology_pinned():
    assert homology(make_three_cycle()) == (AbelianGroup(1), AbelianGroup(1))
    assert homology(make_two_loop()) == (AbelianGroup(1), AbelianGroup(2))
    assert homology(make_single_loop()) == (AbelianGroup(1), AbelianGroup(1))


def test_hypothesis_check_examples():
    assert not hypothesis_check(make_single_loop(), 1).ok
    assert hypothesis_check(make_two_loop(), 1).ok
    assert hypothesis_check(make_two_loop(), 2).ok
    # simple cycle: no vertex emits two edges
    assert not hypothesis_check(make_three_cycle(), 1).ok


@given(g=small_graphs(), m=st.integers(1, 5))
@settings(max_examples=120, deadline=None)
def test_hypothesis_check_matches_higher_power_reference(g, m):
    got = hypothesis_check(g, m)
    want = higher_power_hypothesis_check(g, m)
    assert (got.per_vertex, got.ok) == (want.per_vertex, want.ok)


def test_suspension_K_pinned():
    rep = suspension_K(make_two_loop(), 2, 3)
    assert (rep.k0, rep.k1) == (AbelianGroup(0, (3,)), AbelianGroup(0))
    assert rep.hypotheses_met
    rep = suspension_K(make_two_loop(), 1, 1)
    assert (rep.k0, rep.k1) == (AbelianGroup(0), AbelianGroup(0))
    rep = suspension_K(make_two_loop(), 0, 1)
    assert (rep.k0, rep.k1) == (AbelianGroup(3), AbelianGroup(3))
    rep = suspension_K(make_single_loop(), 1, 2)
    assert not rep.hypotheses_met and "hypotheses unmet" in rep.flags
    with pytest.raises(PreconditionError):
        suspension_K(make_two_loop(), 2, 4)


def test_suspension_K_deep_two_loop():
    # E(0,64) has 2^64 edges; the check walks (vertex, length mod 64) states
    rep = suspension_K(make_two_loop(), 64, 1)
    assert (rep.k0, rep.k1) == (AbelianGroup(0, (2**64 - 1,)), AbelianGroup(0))
    assert str(rep.k0) == "Z/18446744073709551615"
    assert rep.hypotheses_met and rep.hypothesis_table == {"v": True}


def test_suspension_K_negative_parameter():
    g = make_two_loop()
    rep = suspension_K(g, -2, 3)
    # 1 - A^2 of g equals 1 - (A^T)^2 of the opposite graph
    assert (rep.k0, rep.k1) == graph_K(opposite(g), 2)


_COPRIME_UP_TO_6 = [
    (m, n) for m in range(1, 7) for n in range(1, 7) if m * n <= 6 and math.gcd(m, n) == 1
]


@given(g=no_sink_source_graphs(), mn=st.sampled_from(_COPRIME_UP_TO_6), negative=st.booleans())
@settings(max_examples=150, deadline=None)
def test_suspension_K_matches_long_route(g, mn, negative):
    # l = m/n reduces to integer parameter |m| over D_n(E), or D_n(E^op) for m < 0,
    # and that to the higher power E(0,|m|) of the delay graph at parameter 1
    m, n = mn
    base = opposite(g) if negative else g
    rep = suspension_K(g, -m if negative else m, n)
    assert (rep.k0, rep.k1) == graph_K(higher_power(delay(base, n), m), 1)


def test_dual_K_invariance_pinned():
    rep = dual_K_invariance(make_two_loop(), 1, 2)
    assert rep.isomorphic
    assert rep.dual_K == (AbelianGroup(0), AbelianGroup(0))
    rep = dual_K_invariance(make_three_cycle(), 1, 2)
    assert rep.isomorphic and rep.dual_K == (AbelianGroup(1), AbelianGroup(1))
    with pytest.raises(PreconditionError):
        dual_K_invariance(make_two_loop(), 2, 1)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_dual_K_invariance_random(seed):
    g = random_no_sink_source_graph(seed, max_vertices=4, max_edges=5)
    for p, q in ((1, 2), (1, 3), (2, 3)):
        assert dual_K_invariance(g, p, q).isomorphic
