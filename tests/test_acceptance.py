"""Acceptance suite: the eleven end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s -q`` to see the CRITERION lines.
Every numeric value asserted here was first derived by the independent oracles
in this file (dynamic-programming path counts, union-find relation closure,
Smith-normal-form reductions) or pinned by hand on desk-sized examples.
"""

import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from suspquiver import (
    AbelianGroup,
    Path,
    adjacency,
    dual_K_invariance,
    build_rep,
    check_tck,
    cli,
    delay,
    edge_fn_interpolated,
    enumerate_paths,
    eta_generators,
    jmath,
    kappa_eval,
    lattice_decomposition_check,
    limit_formulas,
    morita_combinatorics,
    normalize_edge,
    suspension_K,
    vertex_fn_interpolated,
)
from suspquiver.opalg import _delay_layer

from conftest import (
    make_cycle_plus_loop,
    make_single_loop,
    make_three_cycle,
    make_two_loop,
    normal_form_closure,
    random_no_sink_source_graph,
)

SEEDS = range(20)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num:02d} {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def _dp_path_counts(g, n):
    """Independent oracle: c[(v,w)] = #paths of length n with r = v, s = w."""
    counts = {(v, v): 1 for v in g.vertices}
    for _ in range(n):
        nxt = Counter()
        for e in g.edges:
            for (u, w), c in counts.items():
                if u == e.src:
                    nxt[(e.dst, w)] += c
        counts = nxt
    return counts


def test_criterion_01_path_adjacency_oracle():
    checked = 0
    for seed in SEEDS:
        g = random_no_sink_source_graph(seed)
        idx = {v: i for i, v in enumerate(g.vertices)}
        for n in range(7):
            an = adjacency(g).pow(n)
            oracle = _dp_path_counts(g, n)
            by_pair = Counter((p.r, p.s) for p in enumerate_paths(g, n))
            for v in g.vertices:
                for w in g.vertices:
                    a = an[idx[v], idx[w]]
                    assert a == oracle.get((v, w), 0) == by_pair.get((v, w), 0)
                    checked += 1
    _report(1, True, f"20 seeded graphs, n <= 6, {checked} (v,w,n) cells")


def test_criterion_02_normal_form_closure():
    graphs = [make_two_loop(), make_cycle_plus_loop(), random_no_sink_source_graph(2)]
    classes = 0
    for g in graphs:
        for m in (1, 2):
            closure = normal_form_closure(g, m)
            by_class = {}
            for (mu, t), rep in closure.items():
                qe = normalize_edge(mu, t, m)
                key = (qe.m, qe.word.edge_ids or ("@", qe.word.anchor), qe.t)
                by_class.setdefault(rep, set()).add(key)
            assert all(len(ks) == 1 for ks in by_class.values())
            forms = [next(iter(ks)) for ks in by_class.values()]
            assert len(forms) == len(set(forms))
            classes += len(by_class)
    _report(2, True, f"|mu| <= 4, t in {{0..5}}/6, m in {{1,2}}, {classes} classes")


def test_criterion_03_tck_exactness():
    rng = random.Random(0)
    for seed in SEEDS:
        g = random_no_sink_source_graph(seed)
        rep = check_tck(build_rep(g, 5), rng)
        assert rep.ok, rep.to_text()
    _report(3, True, "L = 5, TCK1/TCK2 + rank-1 vacuum defects on 20 graphs")


def test_criterion_04_jmath_suite():
    graphs = [make_two_loop(), make_cycle_plus_loop()] + [
        random_no_sink_source_graph(500 + s, max_edges=4) for s in range(3)
    ]
    runs = 0
    for g in graphs:
        for p, q in ((1, 2), (1, 3), (2, 3)):
            jm = jmath(g, p, q, 3)
            assert jm.report.ok, jm.report.to_text()
            runs += 1
    _report(4, True, f"t*t = delta q and the defect identity exact, {runs} runs")


def test_criterion_05_dual_K_invariance():
    graphs = [make_two_loop(), make_three_cycle(), make_cycle_plus_loop()] + [
        random_no_sink_source_graph(600 + s, max_vertices=4, max_edges=5)
        for s in range(5)
    ]
    runs = 0
    for g in graphs:
        for p, q in ((1, 2), (1, 3), (2, 3)):
            assert dual_K_invariance(g, p, q).isomorphic
            runs += 1
    _report(5, True, f"graph_K(E(p,q)) = graph_K(E(0,q-p)) on {runs} cases")


def test_criterion_06_suspension_K_pinned():
    rep = suspension_K(make_two_loop(), 2, 3)
    assert (rep.k0, rep.k1) == (AbelianGroup(0, (3,)), AbelianGroup(0))
    rep = suspension_K(make_two_loop(), 1, 1)
    assert (rep.k0, rep.k1) == (AbelianGroup(0), AbelianGroup(0))
    rep = suspension_K(make_two_loop(), 0, 1)
    assert (rep.k0, rep.k1) == (AbelianGroup(3), AbelianGroup(3))
    for m, n in ((1, 2), (2, 3), (5, 7)):
        assert not suspension_K(make_single_loop(), m, n).hypotheses_met
    _report(6, True, "2-loop: (Z/3,0), (0,0), (Z^3,Z^3); single loop fractional unmet")


def _lipschitz_functions(g, m):
    """Seeded test data with value spread <= 1/4, so the fibre operators are
    1-Lipschitz in t and the k = 10 error sits under 2^-10 < 1e-3."""
    rng = random.Random(11)
    vvals = {v: Fraction(rng.randrange(3), 8) for v in g.vertices}
    wvals = {w.edge_ids: Fraction(rng.randrange(3), 8) for w in enumerate_paths(g, m)}
    return vertex_fn_interpolated(g, vvals), edge_fn_interpolated(g, m, wvals)


def test_criterion_07_fibre_limit_consistency():
    worst = 0.0
    for g in (make_two_loop(), make_three_cycle()):
        a, xi = _lipschitz_functions(g, 1)
        lim = limit_formulas(g, 1, 3, a, xi, K=10)
        assert lim.report.ok, lim.report.to_text()
        for seq in lim.errors.values():
            assert seq[-1] < 1e-3
            worst = max(worst, seq[-1])
        for t in (0, 1):
            res = kappa_eval(g, 1, 3, a, xi, t)
            assert res.report.ok, res.report.to_text()
        # endpoint operators agree exactly with the closed-form limits
        k0 = kappa_eval(g, 1, 3, a, xi, 0)
        # the t = 0 value is built from jmath tables; its report asserts
        # equality with eps0, so membership in the jmath span is structural
        assert any(c.name == "kappa.t0_in_jmath_span" and c.passed for c in k0.report.checks)
    _report(7, True, f"nonincreasing errors, worst at k=10 is {worst:.2e} < 1e-3")


def test_criterion_08_eta_relations():
    graphs = [make_two_loop(), make_three_cycle(), make_cycle_plus_loop()]
    runs = 0
    for g in graphs:
        for m in (1, 2):
            et = eta_generators(g, m, 3)
            assert et.report.ok, et.report.to_text()
            runs += 1
    _report(8, True, f"y*y = |E1 r(mu)| Q exact on {runs} (graph, m) pairs")


def test_criterion_09_morita_combinatorics():
    cases = [
        (make_two_loop(), 1, 2),
        (make_three_cycle(), 2, 3),
        (make_cycle_plus_loop(), 3, 2),
    ]
    for g, m, n in cases:
        # partition shift law on all delay-graph paths of length <= 6
        D = delay(g, n)
        for length in range(1, 7):
            for lam in enumerate_paths(D, length):
                assert _delay_layer(D, lam.s) == (_delay_layer(D, lam.r) + length) % n
        rep = morita_combinatorics(g, m, n, 4)
        assert rep.ok, rep.to_text()
    _report(9, True, "shift law <= 6, fullness and (P,S) for (1,2),(2,3),(3,2)")


def test_criterion_10_flow_decomposition():
    for g in (make_single_loop(), make_two_loop()):
        for m, n in ((1, 2), (2, 3)):
            rep = lattice_decomposition_check(g, m, n, 8)
            assert rep.ok, rep.to_text()
    _report(10, True, "lt_{m/n} lattice restriction = D_n(E)(0,m) shift, prefixes <= 8")


def test_criterion_11_cli_contract(tmp_path, capsys):
    path = tmp_path / "two_loop.json"
    path.write_text(
        json.dumps(
            {
                "vertices": ["v"],
                "edges": [
                    {"id": "e", "src": "v", "dst": "v"},
                    {"id": "f", "src": "v", "dst": "v"},
                ],
            }
        )
    )
    args = ["verify", str(path), "--suite", "all", "--json", "--seed", "5"]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    assert cli.main(args) == 0
    assert capsys.readouterr().out == first
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert cli.main(["ktheory", str(bad)]) == 1
    assert cli.main(["transform", str(path), "--op", "dual:2,1"]) == 2
    capsys.readouterr()
    _report(11, True, "byte-identical reports; exit codes 0/1/2 honored")
