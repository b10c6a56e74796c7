"""Generator-level operator identities on truncated path-space representations.

Fibres of the suspension quiver over t != 0 are path spaces of the dual graph
E(1,m+1) and over t = 0 of the higher power E(0,m); all identities below are
verified as exact rational matrix equalities on interior masks; limit errors
are exact squared operator norms.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

from .errors import PreconditionError, StructuralError
from .graph import Graph, Path, enumerate_paths, validate, vertex_path
from .ktheory import hypothesis_check
from .operators import (
    SparseOperator,
    TruncatedRep,
    build_rep,
    combo,
    rank_on_columns,
    sum_sq_norm,
)
from .report import RunReport, rat_str
from .transform import (
    LabeledGraph,
    delay,
    delay_embed_path,
    higher_dual,
    higher_power,
    join_ids,
)


def _unit_parts(t, what: str) -> tuple[int, int]:
    """The ints (tn, td) with t = tn / td, td > 0, for t in [0,1]."""
    if type(t) is not Fraction:
        t = Fraction(t)
    tn, td = t.numerator, t.denominator
    if not 0 <= tn <= td:
        raise PreconditionError(f"{what} coordinate must lie in [0,1]")
    return tn, td


class FunctionOnEdges:
    """A function on SG[m]E^1: lattice weights, interpolated affinely along each word.

    weights is keyed by m-tuples of edge ids (by vertex ids when m = 0, where
    this is a function on SG{E}^0); words missing from it weigh 0.
    xi([w]) = weights[w] for w in E^m and
    xi([mu,t]) = (1-t) xi([mu(0,m)]) + t xi([mu(1,m+1)]) for mu in E^{m+1},
    so the gluing xi([mu,1]) = xi([mu(1,m+1) f, 0]) holds by construction.
    """

    def __init__(self, g: Graph, m: int, weights: dict):
        if m < 0:
            raise PreconditionError("parameter m must be >= 0")
        self.m = m
        keys = [w.edge_ids if m else w.anchor for w in enumerate_paths(g, m)]
        wts = self.weights = {k: Fraction(weights.get(k, 0)) for k in keys}
        # (lo, slope) numerators over den per word mu: xi([mu,t]) = (lo + slope t) / den
        den = self.den = math.lcm(*(x.denominator for x in wts.values()))
        num = {k: x.numerator * (den // x.denominator) for k, x in wts.items()}
        self._lines = {}
        for mu in enumerate_paths(g, m + 1):
            lo, hi = (mu.edge_ids[:m], mu.edge_ids[1:]) if m else (mu.r, mu.s)
            self._lines[mu.edge_ids] = (num[lo], num[hi] - num[lo])

    def at_word(self, word: tuple, t) -> Fraction:
        tn, td = _unit_parts(t, "word")
        try:
            lo, slope = self._lines[tuple(word)]
        except KeyError:
            raise StructuralError(f"unknown word {tuple(word)!r}") from None
        return Fraction(lo * td + slope * tn, self.den * td)

    def at_lattice(self, w: Path) -> Fraction:
        key = w.edge_ids if self.m else w.anchor
        try:
            return self.weights[key]
        except KeyError:
            raise StructuralError(f"unknown lattice word {key!r}") from None

    def limit(self, g: Graph, end: int) -> dict:
        """The values at t -> 0+ (end 0) or t -> 1- (end 1), keyed by word of
        E^{m+1}, read off the lattice weights: at 0 each w in E^m extends to
        we with r(e) = s(w), at 1 to ew with s(e) = r(w)."""
        words = enumerate_paths(g, self.m)
        at = self.at_lattice
        if end == 0:
            return {w.edge_ids + (e.id,): at(w) for w in words for e in g.received(w.s)}
        return {(e.id,) + w.edge_ids: at(w) for w in words for e in g.emitted(w.r)}


def vertex_fn_interpolated(g: Graph, values: dict) -> FunctionOnEdges:
    """The function a on SG{E}^0 = SG[0]E^1 of these vertex values: the
    FunctionOnEdges at m = 0, read a([e,t]) = (1-t) a([r(e)]) + t a([s(e)])
    on the one-edge word (e,)."""
    return FunctionOnEdges(g, 0, values)


def edge_fn_interpolated(g: Graph, m: int, weights: dict) -> FunctionOnEdges:
    """The FunctionOnEdges of these lattice weights, affine along each word."""
    return FunctionOnEdges(g, m, weights)


# ---------------------------------------------------------------------------
# TCK checks
# ---------------------------------------------------------------------------


def check_tck(rep: TruncatedRep, rng: random.Random) -> RunReport:
    """TCK1/TCK2 on interior depth 1, the Cuntz-Krieger defect ranks, and a
    spot check of the product formula."""
    out = RunReport()
    g = rep.graph
    ok1 = all(
        (rep.T[e.id].adjoint() @ rep.T[e.id]).equal_on_columns(rep.Q[e.src], rep.L - 1)
        for e in g.edges
    )
    out.add("tck.T*T=Q_s", ok1, f"{len(g.edges)} edges, interior depth 1")
    ok2 = True
    okv = True
    deltas = {v: rep.delta(v) for v in g.vertices}
    for v, d in deltas.items():
        if any(r != c or val != 1 for (r, c), val in d.entries.items()):
            ok2 = False
        unit = SparseOperator(rep.basis, {(rep.vertex_index(v), rep.vertex_index(v)): 1})
        if not d.equal_on_columns(unit, rep.L - 1):
            okv = False
    out.add("tck.defect_diagonal_01", ok2, "TCK2 positivity: defects are 0/1 diagonal")
    out.add("tck.defect_is_vacuum", okv, "Delta_v = |h_v><h_v| on interior depth 1")
    ranks_ok = all(
        rank_on_columns(d, rep.interior_cols(1)) == 1 for d in deltas.values()
    )
    out.add("ck.defect_interior_rank_1", ranks_ok, "one vacuum vector per vertex")
    out.extend(_product_formula_spot_check(rep, rng))
    return out


def _product_formula_spot_check(rep: TruncatedRep, rng: random.Random, trials: int = 6) -> RunReport:
    out = RunReport()
    g = rep.graph
    pool = [p for n in (1, 2) for p in enumerate_paths(g, n)]
    ok = True
    tried = 0
    for _ in range(trials * 5):
        if tried >= trials:
            break
        # sample each factor from the pool members still fitting the depth budget
        cand = [p for p in pool if len(p) + 3 <= rep.L]
        if not cand:
            break
        mu = rng.choice(cand)
        cand = [p for p in pool if p.s == mu.s and len(mu) + len(p) + 2 <= rep.L]
        if not cand:
            continue
        nu = rng.choice(cand)
        cand = [p for p in pool if len(mu) + len(nu) + len(p) + 1 <= rep.L]
        if not cand:
            continue
        eta = rng.choice(cand)
        cand = [
            p
            for p in pool
            if p.s == eta.s and len(mu) + len(nu) + len(eta) + len(p) <= rep.L
        ]
        if not cand:
            continue
        zeta = rng.choice(cand)
        depth = len(mu) + len(nu) + len(eta) + len(zeta)
        tried += 1
        lhs = (
            rep.creation(mu)
            @ rep.creation(nu).adjoint()
            @ rep.creation(eta)
            @ rep.creation(zeta).adjoint()
        )
        if len(nu) >= len(eta) and nu.edge_ids[: len(eta)] == eta.edge_ids:
            nu2 = Path(g, zeta.edge_ids + nu.edge_ids[len(eta):]) if (
                zeta.edge_ids + nu.edge_ids[len(eta):]
            ) else vertex_path(g, zeta.s)
            rhs = rep.creation(mu) @ rep.creation(nu2).adjoint()
        elif len(eta) > len(nu) and eta.edge_ids[: len(nu)] == nu.edge_ids:
            mu2 = Path(g, mu.edge_ids + eta.edge_ids[len(nu):])
            rhs = rep.creation(mu2) @ rep.creation(zeta).adjoint()
        else:
            rhs = rep.zero()
        if not lhs.equal_on_columns(rhs, rep.L - depth):
            ok = False
    out.add("tck.product_formula", ok, f"{tried} random (mu,nu,eta,zeta) spot checks")
    return out


# ---------------------------------------------------------------------------
# jmath
# ---------------------------------------------------------------------------


class JmathTables(NamedTuple):
    graph: Graph
    p: int
    q: int
    rep: TruncatedRep
    q_table: dict
    t_table: dict
    report: RunReport


def jmath(g: Graph, p: int, q: int, L: int) -> JmathTables:
    """The embedding of the E(0,q-p) generators into the E(p,q) representation.

    q_v = sum_{mu in vE^p} Q_mu and t_mu = sum_{nu in s(mu)E^p} T_{mu nu};
    verifies t_mu* t_nu = delta_{mu,nu} q_{s(mu)} on interior depth 1 and the
    defect identity q_v - sum t t* = sum_{mu in vE^p} Delta_mu exactly.
    A graph with an isolated vertex, which E(p,q) drops, is refused.
    """
    if not 0 < p < q:
        raise PreconditionError("jmath requires 0 < p < q")
    diag = validate(g)
    isolated = diag.sinks & diag.sources
    if isolated:
        raise PreconditionError(
            f"graph has isolated vertices {sorted(isolated)}; E({p},{q}) drops them, "
            "so no defect of theirs can be witnessed"
        )
    rep = dual_rep(g, p, q, L)
    out = RunReport()
    q_table, t_table, heads = _jmath_tables(g, p, q, rep)
    zero = rep.zero()
    adjoints = {k: t.adjoint() for k, t in t_table.items()}
    # t_table is keyed by the edge ids of each word mu of E^(q-p)
    ok_tt = all(
        (adjoints[mu] @ t_table[nu]).equal_on_columns(
            q_table[g.s(mu[-1])] if mu == nu else zero, L - 1
        )
        for mu in t_table
        for nu in t_table
    )
    out.add("jmath.t*t=delta_q", ok_tt, f"(p,q)=({p},{q}), {len(t_table)}^2 pairs")
    ok_defect = True
    ok_witness = True
    for v in g.vertices:
        tts = [t_table[nu] @ adjoints[nu] for nu in t_table if g.r(nu[0]) == v]
        d = combo(rep, [(1, q_table[v])] + [(-1, tt) for tt in tts])
        expected = combo(rep, [(1, rep.delta(join_ids(ids))) for ids in heads[v]])
        if d != expected:
            ok_defect = False
        if expected.is_zero():
            ok_witness = False
    out.add("jmath.defect_identity", ok_defect, "q_v - sum tt* = sum Delta_mu, exact")
    out.add(
        "jmath.injectivity_witness",
        ok_witness,
        "each image defect projection is nonzero on the truncation",
    )
    return JmathTables(g, p, q, rep, q_table, t_table, out)


def _once(owner, key, build):
    """build(), run once per key and owner (a graph or a representation) and
    kept on it, so the suites of one command share what they derive from it.
    Nothing kept on a representation refers to the graph that keeps it, which
    would make a cycle that cli.main's freeze keeps from being collected."""
    derived = vars(owner).setdefault("_derived", {})
    if key not in derived:
        derived[key] = build()
    return derived[key]


def dual_rep(g: Graph, p: int, q: int, L: int) -> TruncatedRep:
    """The E(p,q) representation truncated at L, built once per g, (p,q) and L.

    E(p,q) is derived once per g, so representations of it at two L share it.
    """

    def build():
        dual = _once(g, ("dual", p, q), lambda: higher_dual(g, p, q))
        return build_rep(dual, L)

    return _once(g, ("rep", p, q, L), build)


def _jmath_tables(g: Graph, p: int, q: int, rep: TruncatedRep):
    """q_table, t_table (keyed by the edge ids of E^(q-p)) and the edge ids of
    the p-paths by range, on rep = E(p,q) of g; built once per rep."""

    def build():
        heads: dict = {v: [] for v in g.vertices}
        for mu in enumerate_paths(g, p):
            heads[mu.r].append(mu.edge_ids)
        q_table = {
            v: combo(rep, [(1, rep.Q[join_ids(ids)]) for ids in heads[v]]) for v in g.vertices
        }
        t_table = {
            mu.edge_ids: combo(
                rep, [(1, rep.T[join_ids(mu.edge_ids + ids)]) for ids in heads[mu.s]]
            )
            for mu in enumerate_paths(g, q - p)
        }
        return q_table, t_table, heads

    return _once(rep, ("jmath", p, q), build)


# ---------------------------------------------------------------------------
# rho / psi and the fibre structure
# ---------------------------------------------------------------------------


def _fibre_pair(
    rep: TruncatedRep, a: FunctionOnEdges, xi: FunctionOnEdges, coeffs
) -> tuple[SparseOperator, SparseOperator]:
    """(rho, psi) on E(1,m+1): for a with Q and xi with T, the sum over the
    words k of coeffs(fn) (one-edge words (e,) for a, words of E^{m+1} for xi)
    of coeffs(fn)[k] times the generator of id join_ids(k)."""
    return tuple(
        combo(rep, [(c, gens[join_ids(k)]) for k, c in coeffs(fn).items()])
        for fn, gens in ((a, rep.Q), (xi, rep.T))
    )


def _fibre_rep(
    g: Graph, m: int, L: int, a: FunctionOnEdges, xi: FunctionOnEdges
) -> TruncatedRep:
    """The E(1,m+1) representation of dual_rep, for a at m = 0 and xi at m."""
    if (a.m, xi.m) != (0, m):
        raise PreconditionError(f"need a at m = 0 and xi at m = {m}, not at {a.m} and {xi.m}")
    return dual_rep(g, 1, m + 1, L)


def _fibre_rho_psi(
    rep: TruncatedRep, t: Fraction, a: FunctionOnEdges, xi: FunctionOnEdges
) -> tuple[SparseOperator, SparseOperator]:
    """rho = sum_e a([e,t]) Q_e, psi = sum_{mu in E^{m+1}} xi([mu,t]) T_mu on E(1,m+1)."""
    return _fibre_pair(rep, a, xi, lambda fn: {k: fn.at_word(k, t) for k in fn._lines})


# ---------------------------------------------------------------------------
# limits, eta generators, kappa
# ---------------------------------------------------------------------------


class LimitReport(NamedTuple):
    rep: TruncatedRep
    eps0_rho: SparseOperator
    eps0_psi: SparseOperator
    eps1_rho: SparseOperator
    eps1_psi: SparseOperator
    errors: dict
    constants: dict
    report: RunReport


def _limit_ops(
    rep: TruncatedRep, g: Graph, a: FunctionOnEdges, xi: FunctionOnEdges, end: int
) -> tuple[SparseOperator, SparseOperator]:
    """The limits (rho, psi) of the fibre pair at t -> 0+ (end 0) or t -> 1- (end 1),
    built once per rep."""
    build = lambda: _fibre_pair(rep, a, xi, lambda fn: fn.limit(g, end))  # noqa: E731
    return _once(rep, ("limit", a, xi, end), build)


def _limit_errors(rep: TruncatedRep, g: Graph, a: FunctionOnEdges, xi: FunctionOnEdges):
    """err(t, end) = (||rho(t) - eps_rho||^2, ||psi(t) - eps_psi||^2), eps the
    limit at end 0 or 1, exact and with no error operator formed.

    Each error sums one table of generators (the Q_e for rho, the T_mu for
    psi, keyed by every generator of the fibre pair or of a limit) with the
    coefficient differences c_k(t) - eps_k.  For t = tn / td these are the
    ints lo td + slope tn - eps td over den td, with the (lo, slope) numerators
    of the lines of a or xi and the limit values eps over den, the lcm of their
    denominators, and sum_sq_norm takes the squared norm of the sum from them.
    """
    sides = []
    for fn, gens in ((a, rep.Q), (xi, rep.T)):
        lims = [fn.limit(g, end) for end in (0, 1)]
        keys = list(dict.fromkeys([*fn._lines, *lims[0], *lims[1]]))
        den = math.lcm(fn.den, *(x.denominator for lim in lims for x in lim.values()))
        scale = den // fn.den
        lines = [fn._lines.get(k, (0, 0)) for k in keys]
        lines = [(lo * scale, slope * scale) for lo, slope in lines]
        eps = [[int(lim.get(k, 0) * den) for k in keys] for lim in lims]
        sides.append((den, lines, eps, sum_sq_norm([gens[join_ids(k)] for k in keys])))

    def err(t: Fraction, end: int) -> tuple[Fraction, Fraction]:
        tn, td = _unit_parts(t, "fibre")
        return tuple(
            Fraction(
                sq([lo * td + slope * tn - e * td for (lo, slope), e in zip(lines, eps[end])]),
                (den * td) ** 2,
            )
            for den, lines, eps, sq in sides
        )

    return err


def _jmath_image(
    rep: TruncatedRep, g: Graph, a: FunctionOnEdges, xi: FunctionOnEdges
) -> tuple[SparseOperator, SparseOperator]:
    """The jmath images sum_v a([v]) q_v and sum_w xi([w]) t_w of the E(0,m)
    fibre, built once per rep: the tables are keyed as the weights, by vertex
    and by the edge ids of w in E^m."""

    def build():
        q_table, t_table, _ = _jmath_tables(g, 1, xi.m + 1, rep)
        return tuple(
            combo(rep, [(c, table[k]) for k, c in fn.weights.items()])
            for fn, table in ((a, q_table), (xi, t_table))
        )

    return _once(rep, ("image", a, xi), build)


def limit_formulas(
    g: Graph, m: int, L: int, a: FunctionOnEdges, xi: FunctionOnEdges, K: int = 10
) -> LimitReport:
    """Closed-form limit operators at t -> 0+ and t -> 1-, with exact error decay.

    The errors ||rho(t) - eps0_rho|| etc. are taken at t = 1/2^k and 1 - 1/2^k,
    k = 1..K.  Since a and xi are affine in t, each squared error is C d^2 with
    d the distance to the endpoint; the check asserts that closed form exactly
    and reports each C.
    ``errors`` holds the float norms, ``constants`` the exact C per sequence.
    """
    if m < 1:
        raise PreconditionError("limit_formulas requires m >= 1")
    if K < 1:
        raise PreconditionError("limit_formulas requires K >= 1")
    rep = _fibre_rep(g, m, L, a, xi)
    eps0_rho, eps0_psi = _limit_ops(rep, g, a, xi, 0)
    eps1_rho, eps1_psi = _limit_ops(rep, g, a, xi, 1)
    out = RunReport()
    # the t -> 0+ limits are the jmath images of the E(0,m) fibre operators
    want_rho, want_psi = _jmath_image(rep, g, a, xi)
    out.add("limits.eps0_rho_is_jmath_image", eps0_rho == want_rho, "exact")
    out.add("limits.eps0_psi_is_jmath_image", eps0_psi == want_psi, "exact")
    # a and xi are affine in t, so each error operator is d times a fixed
    # operator, d the distance to the endpoint: ||err||^2 = C d^2 exactly
    dists = [Fraction(1, 2**k) for k in range(1, K + 1)]
    sq: dict[str, list[Fraction]] = {
        "rho_at_0": [],
        "psi_at_0": [],
        "rho_at_1": [],
        "psi_at_1": [],
    }
    err = _limit_errors(rep, g, a, xi)
    for d in dists:
        for end, t in ((0, d), (1, 1 - d)):
            rho_sq, psi_sq = err(t, end)
            sq[f"rho_at_{end}"].append(rho_sq)
            sq[f"psi_at_{end}"].append(psi_sq)
    constants = {name: seq[0] / (dists[0] * dists[0]) for name, seq in sq.items()}
    closed_form = all(
        e2 == constants[name] * d * d
        for name, seq in sq.items()
        for d, e2 in zip(dists, seq)
    )
    out.add(
        "limits.monotone_convergence",
        closed_form,
        f"||err||^2 = C d^2 exactly at t = d and 1 - d, d = 1/2^k, k <= {K}; C "
        + " ".join(
            f"{name}={rat_str(c) if c else 'vacuous'}" for name, c in constants.items()
        ),
    )
    errors = {name: [math.sqrt(e2) for e2 in seq] for name, seq in sq.items()}
    return LimitReport(
        rep, eps0_rho, eps0_psi, eps1_rho, eps1_psi, errors, constants, out
    )


class EtaTables(NamedTuple):
    rep: TruncatedRep
    x: dict
    y: dict
    z: dict
    report: RunReport


def eta_generators(g: Graph, m: int, L: int) -> EtaTables:
    """x_v, y_mu, z_mu in the E(1,m+1) representation, with their relations."""
    if m < 1:
        raise PreconditionError("eta_generators requires m >= 1")
    rep = dual_rep(g, 1, m + 1, L)
    out = RunReport()
    x_table = {v: combo(rep, [(1, rep.Q[e.id]) for e in g.received(v)]) for v in g.vertices}
    words = enumerate_paths(g, m)
    y_table = {}
    z_table = {}
    for mu in words:
        # y_mu sums T_(e mu) over s(e) = r(mu), z_mu sums T_(mu e) over r(e) = s(mu)
        ys = [(1, rep.T[join_ids((e.id,) + mu.edge_ids)]) for e in g.emitted(mu.r)]
        zs = [(1, rep.T[join_ids(mu.edge_ids + (e.id,))]) for e in g.received(mu.s)]
        y_table[mu.edge_ids] = combo(rep, ys)
        z_table[mu.edge_ids] = combo(rep, zs)
    ok_y = all(
        (y_table[mu.edge_ids].adjoint() @ y_table[mu.edge_ids]).equal_on_columns(
            rep.Q[mu.edge_ids[-1]].scale(len(g.emitted(mu.r))), L - 1
        )
        for mu in words
    )
    out.add("eta.y*y=|E1r|Q", ok_y, f"{len(words)} words, interior depth 1")
    q_table, t_table, _ = _jmath_tables(g, 1, m + 1, rep)
    ok_x = all(x_table[v] == q_table[v] for v in g.vertices)
    ok_z = all(z_table[mu.edge_ids] == t_table[mu.edge_ids] for mu in words)
    out.add("eta.x=jmath(Q)", ok_x, "exact")
    out.add("eta.z=jmath(T)", ok_z, "exact")
    return EtaTables(rep, x_table, y_table, z_table, out)


class KappaResult(NamedTuple):
    rho: SparseOperator
    psi: SparseOperator
    rep: TruncatedRep
    report: RunReport


def kappa_eval(
    g: Graph, m: int, L: int, a: FunctionOnEdges, xi: FunctionOnEdges, t
) -> KappaResult:
    """The three-case fibre evaluation of (rho(a), psi(xi)) on E(1,m+1)^{<=L}.

    t = 0 gives the jmath images of the E(0,m) fibre, 0 < t < 1 the coefficient
    sums, t = 1 the edge-prepended sums; endpoints match the limit operators.
    """
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise PreconditionError("kappa is evaluated on [0,1]")
    if m < 1:
        raise PreconditionError("kappa_eval requires m >= 1")
    rep = _fibre_rep(g, m, L, a, xi)
    out = RunReport()
    hyp = _once(g, ("hypothesis", m), lambda: hypothesis_check(g, m))
    out.add(
        "kappa.hypothesis_flag",
        True,
        f"hypothesis_check(g,{m}) = {hyp.ok} (recorded, not gating; cannot fail)",
    )
    if t == 0:
        eps0_rho, eps0_psi = _limit_ops(rep, g, a, xi, 0)
        rho, psi = _jmath_image(rep, g, a, xi)
        out.add(
            "kappa.t0_in_jmath_span",
            rho == eps0_rho and psi == eps0_psi,
            "value at 0 built from jmath tables; equals the eps0 limit exactly",
        )
    elif t == 1:
        rho, psi = _limit_ops(rep, g, a, xi, 1)
        out.add(
            "kappa.t1_is_eps1", True, "value at 1 is the eps1 limit by the case split; cannot fail"
        )
    else:
        rho, psi = _fibre_rho_psi(rep, t, a, xi)
    return KappaResult(rho, psi, rep, out)


# ---------------------------------------------------------------------------
# Morita combinatorics of the delay graph
# ---------------------------------------------------------------------------


def _delay_layer(D: LabeledGraph, v: str) -> int:
    label = D.vertex_labels[v]
    return 0 if label[0] == "vertex" else label[2]


def morita_combinatorics(g: Graph, m: int, n: int, L: int) -> RunReport:
    """The V_j partition of D_n(E)^0, fullness reachability, and the (P,S) family.

    In the truncated representation of D_n(E)(0,m) the (P,S) Cuntz-Krieger
    defect at a V_0 vertex is supported on basis paths of length < n (the
    compact-ideal shadow); on the mask n <= length <= L-n it vanishes exactly.
    """
    if m < 1 or n < 1 or math.gcd(m, n) != 1:
        raise PreconditionError("need coprime positive m, n")
    diag = validate(g)
    if diag.sinks or diag.sources:
        raise PreconditionError("need a graph with no sinks and no sources")
    D = delay(g, n)
    out = RunReport()
    # (i) partition shift law on all delay-graph paths of length <= L: it
    # reads only (r(lambda), s(lambda), |lambda|), so it runs over the distinct
    # (range, source) pairs of each length, those of length k + 1 being the
    # pairs of length k extended by each edge received at their source
    pairs = {(v, v): None for v in D.vertices}
    ok_shift = True
    for length in range(1, L + 1):
        pairs = dict.fromkeys((r, e.src) for r, s in pairs for e in D.received(s))
        ok_shift = ok_shift and all(
            _delay_layer(D, s) == (_delay_layer(D, r) + length) % n for r, s in pairs
        )
    out.add(
        "morita.partition_shift",
        ok_shift,
        f"r in V_j iff s in V_(j+|lambda|) mod {n}, paths <= {L}",
    )
    # (ii) fullness: from every vertex u, k m emitted steps (k m = layer of u
    # mod n) end in V_0 when every vertex emits an edge and each edge lowers
    # the layer by one mod n; a vertex is witnessed when it does both
    witnesses = sum(
        bool(D.emitted(u))
        and all(_delay_layer(D, e.src) == (_delay_layer(D, e.dst) + 1) % n for e in D.emitted(u))
        for u in D.vertices
    )
    ok_full = witnesses == len(D.vertices)
    out.add("morita.fullness_reachability", ok_full, f"{witnesses} vertices witnessed")
    # (iii) alpha words and the (P,S) family in the D_n(E)(0,m) representation
    Dm = higher_power(D, m)
    rep = build_rep(Dm, L)
    ok_alpha = True
    family = []  # (r(mu), s(mu), S_mu) for each mu in E^m
    for mu in enumerate_paths(g, m):
        emb = delay_embed_path(g, n, mu, D)
        blocks = tuple(
            join_ids(emb.edge_ids[i * m : (i + 1) * m]) for i in range(n)
        )
        alpha = Path(Dm, blocks)
        if alpha.r != mu.r or alpha.s != mu.s:
            ok_alpha = False
        family.append((mu.r, mu.s, rep.creation(alpha)))
    out.add(
        "morita.alpha_words",
        ok_alpha,
        f"alpha(mu) in D_n(E)(0,{m})^{n} with r,s matching, {len(family)} words",
    )
    ok_tck1 = all(
        (S.adjoint() @ S).equal_on_columns(rep.Q[s], L - n) for _, s, S in family
    )
    out.add("morita.PS_tck1", ok_tck1, f"S*S = P_s(mu), interior depth {n}")
    ok_ck = True
    ok_ideal = True
    mask = sum(n <= k <= L - n for k in rep.basis.lengths)
    for v in g.vertices:
        ss = [S @ S.adjoint() for r, _, S in family if r == v]
        d = combo(rep, [(1, rep.Q[v])] + [(-1, x) for x in ss])
        mid = d.restrict_columns(
            lambda c: n <= rep.basis.lengths[c] <= rep.L - n
        )
        if not mid.is_zero():
            ok_ck = False
        short = d.restrict_columns(lambda c: rep.basis.lengths[c] < n)
        if any(r != c or val != 1 for (r, c), val in short.entries.items()):
            ok_ideal = False
    out.add(
        "morita.PS_ck_at_V0",
        ok_ck,
        f"(P,S) defects vanish on the mask {n} <= length <= L-{n}, "
        + (f"{mask} columns" if mask else "0 columns, vacuous"),
    )
    out.add(
        "morita.PS_defect_in_compact_shadow",
        ok_ideal,
        "short-path defect part is a sum of diagonal matrix units",
    )
    return out
