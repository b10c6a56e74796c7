"""Suspension flow: gluing, semigroup law, orbits, lattice decomposition."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suspquiver import (
    FlowPoint,
    Path,
    PrecisionError,
    PreconditionError,
    apply_flow,
    lattice_decomposition_check,
    make_flow_point,
    orbit_lines,
)
from suspquiver.report import rat_str

from conftest import (
    make_single_loop,
    make_two_loop,
    no_sink_source_graphs,
    reference_lattice_decomposition,
)


def test_make_flow_point_glues(two_loop):
    g = two_loop
    p = make_flow_point(Path(g, ("e", "f", "e")), Fraction(5, 4))
    # (x, 1 + 1/4) ~ (sigma x, 1/4)
    assert p.prefix.edge_ids == ("f", "e") and p.t == Fraction(1, 4)
    with pytest.raises(PrecisionError):
        make_flow_point(Path(g, ("e",)), 1)
    with pytest.raises(PreconditionError):
        FlowPoint(Path(g, ("e",)), Fraction(3, 2))


@given(
    j1=st.integers(0, 6),
    j2=st.integers(0, 6),
    t0=st.fractions(min_value=0, max_value=Fraction(11, 12), max_denominator=12),
)
@settings(max_examples=60, deadline=None)
def test_apply_flow_semigroup(j1, j2, t0):
    g = make_two_loop()
    prefix = Path(g, tuple("ef"[i % 2] for i in range(10)))
    p = FlowPoint(prefix, t0)
    l1, l2 = Fraction(j1, 4), Fraction(j2, 4)
    one = apply_flow(apply_flow(p, l1), l2)
    both = apply_flow(p, l1 + l2)
    assert one.t == both.t
    # prefixes agree up to the shorter knowledge horizon
    k = min(len(one.prefix), len(both.prefix))
    assert one.prefix.edge_ids[:k] == both.prefix.edge_ids[:k]


def test_apply_flow_precision(single_loop):
    p = FlowPoint(Path(make_single_loop(), ("e", "e")), Fraction(1, 2))
    with pytest.raises(PrecisionError):
        apply_flow(p, 2)
    q = apply_flow(p, 0.5)  # float increments are flagged inexact
    assert not q.exact and q.t == 0 and q.prefix.edge_ids == ("e",)


def test_orbit_lines(two_loop):
    g = two_loop
    p = FlowPoint(Path(g, ("e", "f", "e", "f")), Fraction(0))
    lines = list(orbit_lines(p, Fraction(1, 2), 3))
    assert lines == [
        "0\te,f,e,f",
        "1/2\te,f,e,f",
        "0\tf,e,f",
        "1/2\tf,e,f",
    ]


@given(
    size=st.integers(1, 6),
    t0=st.fractions(min_value=0, max_value=Fraction(11, 12), max_denominator=12),
    step=st.fractions(min_value=0, max_value=4, max_denominator=7),
    count=st.integers(0, 30),
)
@settings(max_examples=200, deadline=None)
def test_orbit_lines_match_stepping(size, t0, step, count):
    # the lines or the first step's PrecisionError, refused before any line
    p = FlowPoint(Path(make_two_loop(), ("e",) * size), t0)
    want, q = [p], p
    try:
        for _ in range(count):
            q = apply_flow(q, step)
            want.append(q)
    except PrecisionError as exc:
        with pytest.raises(PrecisionError) as got:
            next(orbit_lines(p, step, count))
        assert str(got.value) == str(exc)
        return
    lines = [f"{rat_str(q.t)}\t{','.join(q.prefix.edge_ids)}" for q in want]
    assert list(orbit_lines(p, step, count)) == lines


@pytest.mark.parametrize("m,n", [(1, 2), (2, 3)])
def test_lattice_decomposition(m, n):
    for g in (make_single_loop(), make_two_loop()):
        rep = lattice_decomposition_check(g, m, n, 5)
        assert rep.ok, rep.to_text()


# m up to 12 reaches past n L, where apply_flow runs out of prefix
_COPRIME_N_UP_TO_6 = [(m, n) for m in range(1, 13) for n in range(1, 7) if math.gcd(m, n) == 1]


@given(g=no_sink_source_graphs(), mn=st.sampled_from(_COPRIME_N_UP_TO_6), L=st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_lattice_decomposition_matches_reference(g, mn, L):
    m, n = mn
    try:
        cases, mismatch = reference_lattice_decomposition(g, m, n, L)
    except PrecisionError as exc:
        with pytest.raises(PrecisionError) as got:
            lattice_decomposition_check(g, m, n, L)
        assert str(got.value) == str(exc)
        return
    detail = f"graph={len(g.vertices)}v/{len(g.edges)}e l={m}/{n} L={L} cases={cases}"
    if mismatch is not None:
        detail += f" first_mismatch={mismatch}"
    (check,) = lattice_decomposition_check(g, m, n, L).checks
    assert (check.name, check.passed, check.detail) == (
        "flow.lattice_decomposition", mismatch is None, detail
    )


def test_flow_point_contract(two_loop):
    x = Path(two_loop, ("e", "f"))
    p = FlowPoint(x, Fraction(1, 3))
    assert p == FlowPoint(Path(make_two_loop(), ("e", "f")), Fraction(1, 3), exact=True)
    assert hash(p) == hash(FlowPoint(x, Fraction(1, 3)))
    assert p != FlowPoint(x, Fraction(1, 3), exact=False) and p.exact
    for name in ("prefix", "t", "exact"):
        with pytest.raises(AttributeError):
            setattr(p, name, None)
    assert repr(p) == "FlowPoint(e f, t=1/3)"
    for t in (Fraction(-1, 3), Fraction(1), Fraction(4, 3)):
        with pytest.raises(PreconditionError, match=r"^flow time must lie in \[0,1\)$"):
            FlowPoint(x, t)
    with pytest.raises(PreconditionError, match="^flow point needs a nonempty prefix$"):
        FlowPoint(Path(two_loop, (), "v"), Fraction(0))


def test_lattice_decomposition_rejects_non_coprime(two_loop):
    with pytest.raises(PreconditionError):
        lattice_decomposition_check(two_loop, 2, 4, 3)
