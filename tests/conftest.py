"""Shared graph fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's own traversal code: paths
are built left to right by scanning the raw edge list, so that agreement with
enumerate_paths / adjacency powers is a real cross-check.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

# One BLAS thread: the oracles' tiny SVDs and norms run many times slower on
# spinning OpenBLAS threads when another process holds a CPU. Set before
# anything imports numpy, which reads these once, at load.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import pytest
from hypothesis import strategies as st

from suspquiver import (
    AbelianGroup,
    FlowPoint,
    Graph,
    IntMatrix,
    LabeledGraph,
    Path,
    PreconditionError,
    SparseOperator,
    SuspensionVertex,
    adjacency,
    apply_flow,
    base_vertex,
    delay,
    delay_embed_path,
    enumerate_paths,
    higher_power,
    join_ids,
    validate,
    vertex_path,
)
from suspquiver.ktheory import HypothesisResult, _divisor_chain, _eliminate
from suspquiver.opalg import _delay_layer


def make_single_loop() -> Graph:
    return Graph(["v"], [("e", "v", "v")])


def make_two_loop() -> Graph:
    return Graph(["v"], [("e", "v", "v"), ("f", "v", "v")])


def make_three_cycle() -> Graph:
    return Graph(
        ["u", "v", "w"],
        [("a", "u", "v"), ("b", "v", "w"), ("c", "w", "u")],
    )


def make_cycle_plus_loop() -> Graph:
    return Graph(
        ["u", "v"],
        [("p", "u", "v"), ("q", "v", "u"), ("l", "u", "u")],
    )


def make_single_edge() -> Graph:
    """u -> v; has a sink and a source."""
    return Graph(["u", "v"], [("e", "u", "v")])


def random_no_sink_source_graph(seed: int, max_vertices: int = 5, max_edges: int = 6) -> Graph:
    """A seeded random graph with no sinks and no sources.

    A Hamiltonian cycle guarantees every vertex both emits and receives;
    random extra edges are layered on top.
    """
    rng = random.Random(seed)
    nv = rng.randint(1, max_vertices)
    vs = [f"v{i}" for i in range(nv)]
    edges = [(f"c{i}", vs[i], vs[(i + 1) % nv]) for i in range(nv)]
    for j in range(rng.randint(0, max(0, max_edges - nv))):
        edges.append((f"x{j}", rng.choice(vs), rng.choice(vs)))
    return Graph(vs, edges)


def brute_paths(g: Graph, n: int, src=None, rng=None) -> list[tuple[str, ...]]:
    """All length-n edge-id sequences composable via s(mu_i) = r(mu_{i+1}),
    optionally filtered by s(mu) = src and r(mu) = rng, sorted."""
    if n == 0:
        return [
            (v,)
            for v in sorted(g.vertices)
            if src in (None, v) and rng in (None, v)
        ]
    seqs: list[tuple] = [()]
    for _ in range(n):
        seqs = [
            s + (e,)
            for s in seqs
            for e in g.edges
            if not s or s[-1].src == e.dst
        ]
    out = [
        tuple(e.id for e in s)
        for s in seqs
        if (rng is None or s[0].dst == rng) and (src is None or s[-1].src == src)
    ]
    out.sort()
    return out


def recursive_paths(g: Graph, n: int, src=None, rng=None) -> list[tuple[str, ...]]:
    """The former recursive enumerate_paths, kept as a reference: sorted edge-id
    tuples of rng E^n src, extended depth-first from the range end (n >= 1)."""
    out: list[tuple[str, ...]] = []

    def extend(prefix: tuple[str, ...], tail_src: str) -> None:
        if len(prefix) == n:
            if src is None or tail_src == src:
                out.append(prefix)
            return
        for e in sorted(g.received(tail_src), key=lambda e: e.id):
            extend(prefix + (e.id,), e.src)

    starts = [rng] if rng is not None else list(g.vertices)
    for v in starts:
        for e in sorted(g.received(v), key=lambda e: e.id):
            extend((e.id,), e.src)
    out.sort()
    return out


def reference_higher_dual(g: Graph, p: int, q: int) -> Graph:
    """The former higher_dual, kept as a reference: E(p,q) built from a Path
    per enumerated p- and q-path, range and source read off each Path."""
    if p < 0 or q <= p:
        raise PreconditionError("higher_dual requires 0 <= p < q")
    if p == 0:
        vertices = list(g.vertices)
    else:
        vertices = [join_ids(mu.edge_ids) for mu in enumerate_paths(g, p)]
    edges = []
    for mu in enumerate_paths(g, q):
        if p == 0:
            dst, src = mu.r, mu.s
        else:
            dst = join_ids(mu.edge_ids[:p])
            src = join_ids(mu.edge_ids[q - p :])
        edges.append((join_ids(mu.edge_ids), src, dst))
    return Graph(vertices, edges)


def dual_word_to_path(g: Graph, p: int, q: int, mu: Path) -> Path:
    """The former transform.dual_word_to_path, kept as a reference: a path of
    E(p,q) (or a vertex, for p >= 1) flattened back to a path of g, each dual
    id mapped back to its word of g; consecutive words overlap in p edges."""
    def words(k):
        return {join_ids(ids): ids for ids in brute_paths(g, k)}

    if not mu.edge_ids:
        return Path(g, words(p)[mu.anchor]) if p else Path(g, (), mu.anchor)
    qwords = words(q)
    out: tuple[str, ...] = qwords[mu.edge_ids[0]]
    for eid in mu.edge_ids[1:]:
        out += qwords[eid][p:]
    return Path(g, out)


def vertex_along(mu: Path, pos: Fraction) -> SuspensionVertex:
    """The former quiver.vertex_along, kept as a reference: the suspension
    vertex a fraction pos of the way along mu."""
    k = int(pos)
    if pos == k:
        return base_vertex(mu.vertex_at(k))
    return SuspensionVertex("interior", edge=mu.edge_ids[k], t=pos - k)


def higher_power_hypothesis_check(g: Graph, m: int) -> HypothesisResult:
    """The former hypothesis_check, kept as a reference: reachability from the
    seeds in the built graph E(0,m), which has |E|^m edges."""
    H = higher_power(g, m)
    seeds = {w for w in g.vertices if len(g.emitted(w)) >= 2}
    reached: set[str] = set()
    frontier = list(seeds)
    while frontier:
        u = frontier.pop()
        for e in H.received(u):  # H-edges with r = u; mark their sources
            if e.src not in reached:
                reached.add(e.src)
                frontier.append(e.src)
    per_vertex = {v: v in reached for v in g.vertices}
    return HypothesisResult(per_vertex, all(per_vertex.values()))


def reference_coker_ker(M: IntMatrix) -> tuple[AbelianGroup, AbelianGroup]:
    """The former coker_ker, kept as a reference: one dense elimination of
    the whole matrix, its diagonal merged into a divisor chain."""
    diag = _eliminate(M.row_lists())
    rank = len(diag)
    return AbelianGroup(M.rows - rank, _divisor_chain(diag)), AbelianGroup(M.cols - rank)


def reference_graph_K(g: Graph, m: int) -> tuple[AbelianGroup, AbelianGroup]:
    """The former graph_K, kept as a reference: 1 - (A^T)^m built densely
    from adjacency, transpose and IntMatrix.pow."""
    if m < 1:
        raise PreconditionError("graph_K requires m >= 1")
    if validate(g).sinks:
        raise PreconditionError("graph has sinks")
    at = adjacency(g).transpose().pow(m)
    return reference_coker_ker(IntMatrix.identity(at.rows) - at)


def reference_homology(g: Graph) -> tuple[AbelianGroup, AbelianGroup]:
    """The former homology, kept as a reference: one dense row per edge."""
    vi = {v: i for i, v in enumerate(g.vertices)}
    entries = []
    for e in g.edges:
        row = [0] * len(g.vertices)
        row[vi[e.dst]] += 1
        row[vi[e.src]] -= 1
        entries.extend(row)
    H1, H0 = reference_coker_ker(IntMatrix(len(g.edges), len(g.vertices), entries))
    return H0, H1


def reference_add(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    """The former SparseOperator.__add__, kept as a reference: copy a, then
    merge b entry by entry, dropping sums that cancel."""
    if a.basis is not b.basis:
        raise PreconditionError("operators live on different bases")
    out = dict(a.entries)
    for rc, val in b.entries.items():
        s = out.get(rc, 0) + val
        if s:
            out[rc] = s
        else:
            out.pop(rc, None)
    return SparseOperator(a.basis, out)


def reference_sub(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    """The former SparseOperator.__sub__, kept as a reference."""
    if a.basis is not b.basis:
        raise PreconditionError("operators live on different bases")
    out = dict(a.entries)
    for rc, val in b.entries.items():
        s = out.get(rc, 0) - val
        if s:
            out[rc] = s
        else:
            out.pop(rc, None)
    return SparseOperator(a.basis, out)


def reference_scale(a: SparseOperator, c) -> SparseOperator:
    """The former SparseOperator.scale, kept as a reference."""
    cq = Fraction(c)
    if not cq:
        return SparseOperator(a.basis)
    return SparseOperator(a.basis, {rc: val * cq for rc, val in a.entries.items()})


class ReferenceOperator:
    """The former SparseOperator arithmetic, kept as a reference: one dict of
    nonzero Fraction entries, every sum and product formed in Fraction."""

    def __init__(self, basis, entries: dict):
        self.basis = basis
        self.entries = {rc: Fraction(v) for rc, v in entries.items() if v}

    @classmethod
    def of(cls, op: SparseOperator) -> "ReferenceOperator":
        return cls(op.basis, dict(op.entries))

    def _same_basis(self, other) -> None:
        if self.basis is not other.basis:
            raise PreconditionError("operators live on different bases")

    def __add__(self, other):
        return reference_lincomb(self.basis, ((1, self), (1, other)))

    def __sub__(self, other):
        return reference_lincomb(self.basis, ((1, self), (-1, other)))

    def scale(self, c):
        return reference_lincomb(self.basis, ((c, self),))

    def __matmul__(self, other):
        self._same_basis(other)
        by_col_left: dict = {}
        for (r, c), val in self.entries.items():
            by_col_left.setdefault(c, []).append((r, val))
        out: dict = {}
        for (k, c), bval in other.entries.items():
            for r, aval in by_col_left.get(k, ()):
                s = out.get((r, c), 0) + aval * bval
                if s:
                    out[(r, c)] = s
                else:
                    out.pop((r, c), None)
        return ReferenceOperator(self.basis, out)

    def adjoint(self):
        return ReferenceOperator(
            self.basis, {(c, r): val for (r, c), val in self.entries.items()}
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ReferenceOperator)
            and self.basis is other.basis
            and self.entries == other.entries
        )

    def equal_on_columns(self, other, max_len: int) -> bool:
        self._same_basis(other)
        lengths = self.basis.lengths
        for rc, val in self.entries.items():
            if lengths[rc[1]] <= max_len and other.entries.get(rc, 0) != val:
                return False
        for rc, val in other.entries.items():
            if lengths[rc[1]] <= max_len and rc not in self.entries:
                return False
        return True


def reference_lincomb(basis, terms) -> ReferenceOperator:
    """The former accumulation loop: every c X summed entry by entry in Fraction."""
    acc: dict = {}
    for c, op in terms:
        if op.basis is not basis:
            raise PreconditionError("operators live on different bases")
        cq = Fraction(c)
        if not cq:
            continue
        for rc, val in op.entries.items():
            s = acc.get(rc, 0) + val * cq
            if s:
                acc[rc] = s
            else:
                acc.pop(rc, None)
    return ReferenceOperator(basis, acc)


def reference_norm_squared(op: ReferenceOperator) -> Fraction:
    """The former norm_squared: max diag(A*A) in Fraction, A*A diagonal."""
    rows: set = set()
    diag: dict = {}
    for (r, c), val in op.entries.items():
        if r in rows:
            break
        rows.add(r)
        diag[c] = diag.get(c, Fraction(0)) + val * val
    else:
        return max(diag.values(), default=Fraction(0))
    gram = op.adjoint() @ op
    if any(r != c for r, c in gram.entries):
        raise PreconditionError("norm_squared needs A*A diagonal")
    return max(gram.entries.values(), default=Fraction(0))


def reference_creation(rep, mu: Path) -> SparseOperator:
    """The former Path-based TruncatedRep.creation, kept as a reference: scan
    the whole basis and look each prepended path up as a validated Path."""
    if not mu.edge_ids:
        return reference_generators(rep)[0][mu.anchor]
    index = {p: i for i, p in enumerate(rep.basis.labels)}
    ent = {}
    for i, p in enumerate(rep.basis.labels):
        if p.r == mu.s and len(p) + len(mu) <= rep.L:
            ent[(index[Path(rep.graph, mu.edge_ids + p.edge_ids)], i)] = 1
    return SparseOperator(rep.basis, ent)


def reference_generators(rep) -> tuple[dict, dict]:
    """The former Q and T builders of TruncatedRep, kept as a reference: one
    full-basis scan per vertex and per edge, rows found through Paths."""
    g, labels = rep.graph, rep.basis.labels
    index = {p: i for i, p in enumerate(labels)}
    Q = {
        v: SparseOperator(
            rep.basis, {(i, i): 1 for i, p in enumerate(labels) if p.r == v}
        )
        for v in g.vertices
    }
    T = {}
    for e in g.edges:
        ent = {}
        for i, p in enumerate(labels):
            if p.r == e.src and len(p) + 1 <= rep.L:
                ent[(index[Path(g, (e.id,) + p.edge_ids)], i)] = 1
        T[e.id] = SparseOperator(rep.basis, ent)
    return Q, T


def _reference_affine(lo: Fraction, hi: Fraction):
    """t -> lo + (hi - lo) t, which is (1-t) lo + t hi."""
    slope = hi - lo
    return lambda t: lo + slope * t


def _reference_evaluate(f, t) -> Fraction:
    """f(t) as a Fraction for t in [0,1] (0 where f is None)."""
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise PreconditionError("coordinate must lie in [0,1]")
    return Fraction(0) if f is None else Fraction(f(t))


class ReferenceFunctionOnVertices:
    """The former FunctionOnVertices, kept as a reference: per-edge callables
    a([e,t]), the vertex value [v] read off the edge ends, whose gluing
    ([e,0] = [r(e)], [e,1] = [s(e)]) is asserted; missing edges read 0."""

    def __init__(self, g: Graph, evals: dict):
        self.evals = dict(evals)
        self._base = {}
        for v in g.vertices:
            vals = [self.at_edge(e.id, 0) for e in g.received(v)]
            vals += [self.at_edge(e.id, 1) for e in g.emitted(v)]
            assert all(x == vals[0] for x in vals), f"vertex values disagree at [{v}]"
            self._base[v] = vals[0] if vals else Fraction(0)

    def at_edge(self, e: str, t) -> Fraction:
        return _reference_evaluate(self.evals.get(e), t)

    def at_base(self, v: str) -> Fraction:
        return self._base[v]


def reference_vertex_fn(g: Graph, values: dict) -> ReferenceFunctionOnVertices:
    """The former vertex_fn_interpolated: one affine callable per edge."""
    vals = {v: Fraction(values.get(v, 0)) for v in g.vertices}
    evals = {e.id: _reference_affine(vals[e.dst], vals[e.src]) for e in g.edges}
    return ReferenceFunctionOnVertices(g, evals)


class ReferenceFunctionOnEdges:
    """The former FunctionOnEdges, kept as a reference: per-word callables
    xi([mu,t]), mu in E^{m+1}; the lattice value [w] (w in E^m) is the common
    value at t = 0 of the extensions wf, and the gluing
    xi([mu,1]) = xi([mu(1,m+1)]) is asserted; missing words read 0."""

    def __init__(self, g: Graph, m: int, evals: dict):
        from suspquiver import enumerate_paths

        self.evals = dict(evals)
        self._lattice = {}
        for w in enumerate_paths(g, m):
            exts = [self.at_word(w.edge_ids + (f.id,), 0) for f in g.received(w.s)]
            assert all(x == exts[0] for x in exts), f"lattice values disagree at [{w!r}]"
            self._lattice[self._lkey(w)] = exts[0] if exts else Fraction(0)
        for mu in enumerate_paths(g, m + 1):
            tail = self._lkey(mu.window(1, m + 1))
            assert self.at_word(mu.edge_ids, 1) == self._lattice[tail], f"gluing at [{mu!r}, 1]"

    @staticmethod
    def _lkey(w: Path):
        return w.edge_ids if w.edge_ids else ("@", w.anchor)

    def at_word(self, word: tuple, t) -> Fraction:
        return _reference_evaluate(self.evals.get(tuple(word)), t)

    def at_lattice(self, w: Path) -> Fraction:
        return self._lattice[self._lkey(w)]


def reference_edge_fn(g: Graph, m: int, weights: dict) -> ReferenceFunctionOnEdges:
    """The former edge_fn_interpolated: one affine callable per word mu of
    E^{m+1}, from the weights of its windows mu(0,m) and mu(1,m+1)."""
    from suspquiver import enumerate_paths

    def weight(w: Path) -> Fraction:
        return Fraction(weights.get(w.edge_ids if w.edge_ids else w.anchor, 0))

    evals = {
        mu.edge_ids: _reference_affine(weight(mu.window(0, m)), weight(mu.window(1, m + 1)))
        for mu in enumerate_paths(g, m + 1)
    }
    return ReferenceFunctionOnEdges(g, m, evals)


@st.composite
def small_graphs(draw):
    """Any small graph, sinks and sources allowed, edges drawn in any order."""
    vs = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    pairs = draw(st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs)), max_size=7))
    ids = draw(st.permutations([f"e{i}" for i in range(len(pairs))]))
    return Graph(vs, [(i, s, d) for i, (s, d) in zip(ids, pairs)])


@st.composite
def odd_id_graphs(draw):
    """A small graph whose vertex and edge ids hold the characters that the
    writers escape or must keep apart: ",", "\\", '"', "%", "(", ")" and
    non-ASCII ones (so "%s" and "(x)" can be drawn too)."""
    ids = st.text(alphabet=',\\"%()sxé𝔼', min_size=1, max_size=3)
    vs = draw(st.lists(ids, min_size=1, max_size=3, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs)), max_size=5))
    eids = draw(st.lists(ids, min_size=len(pairs), max_size=len(pairs), unique=True))
    return Graph(vs, [(i, s, d) for i, (s, d) in zip(eids, pairs)])


@st.composite
def no_sink_source_graphs(draw):
    """1-3 vertices; each emits and receives an edge, plus up to two more."""
    vs = [f"v{i}" for i in range(draw(st.integers(1, 3)))]
    ends = st.sampled_from(vs)
    pairs = [(v, draw(ends)) for v in vs] + [(draw(ends), v) for v in vs]
    pairs += draw(st.lists(st.tuples(ends, ends), max_size=2))
    return Graph(vs, [(f"e{i}", s, d) for i, (s, d) in enumerate(pairs)])


def reference_lattice_decomposition(g: Graph, m: int, n: int, L: int):
    """The former loop of flow.lattice_decomposition_check, kept as a
    reference: for every x in E^L and phase j, both delay embeddings and the
    three windows y(j,|y|), its shift by m and the flowed image.  Returns
    (cases, first mismatch or None)."""
    D = delay(g, n)
    cases = 0
    mismatch = None
    for x in enumerate_paths(g, L):
        y = delay_embed_path(g, n, x, D)
        for j in range(n):
            p = FlowPoint(x, Fraction(j, n))
            q = apply_flow(p, Fraction(m, n))
            k = (j + m) // n
            y_p = y.window(j, len(y))
            y_q = delay_embed_path(g, n, q.prefix, D).window((j + m) % n, n * len(q.prefix))
            shifted = y_p.window(m, len(y_p))
            cases += 1
            if (
                q.t != Fraction((j + m) % n, n)
                or q.prefix.edge_ids != x.edge_ids[k:]
                or y_q.edge_ids != shifted.edge_ids
            ):
                mismatch = mismatch or (x, j)
    return cases, mismatch


def reference_fullness(D: LabeledGraph, m: int, n: int):
    """The former fullness walk of opalg.morita_combinatorics, kept as a
    reference: per vertex u of D = D_n(E), k m least emitted edges (k m =
    layer of u mod n) and a validated witness path from u.  Returns
    (passed, witnesses)."""
    ok_full = True
    witnesses = 0
    m_inv = pow(m, -1, n)
    for u in D.vertices:
        j = _delay_layer(D, u)
        k = (j * m_inv) % n
        if j != 0 and k == 0:
            k = n
        lam_ids: list[str] = []
        here = u
        for _ in range(k * m):
            e = min(D.emitted(here), key=lambda e: e.id)
            lam_ids.append(e.id)
            here = e.dst
        lam_ids.reverse()
        lam = Path(D, tuple(lam_ids)) if lam_ids else vertex_path(D, u)
        if lam.s != u or _delay_layer(D, lam.r) != 0:
            ok_full = False
        else:
            witnesses += 1
    return ok_full, witnesses


def normal_form_closure(g: Graph, m: int, denominator: int = 6, max_len: int = 4):
    """Union-find closure of the generating relations on (mu, t) pairs.

    Pairs are (mu, t) with |mu| <= max_len, t = j/denominator in [0,1), and
    t + m <= |mu|.  Generating relations: dropping an unused trailing edge,
    and (for t = 0) trimming to the leading m-window; both leave the class
    unchanged.  Returns a dict mapping each pair to its class representative.
    """
    from fractions import Fraction

    from suspquiver import enumerate_paths

    pairs = []
    for length in range(max_len + 1):
        for mu in enumerate_paths(g, length):
            for j in range(denominator):
                t = Fraction(j, denominator)
                if t + m <= length:
                    pairs.append((mu, t))
    parent = {i: i for i in range(len(pairs))}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        parent[find(i)] = find(j)

    index = {(mu.edge_ids or ("@", mu.anchor), t): i for i, (mu, t) in enumerate(pairs)}

    def key(mu, t):
        return (mu.edge_ids or ("@", mu.anchor), t)

    for i, (mu, t) in enumerate(pairs):
        k = int(t)
        # drop an unused trailing edge
        if len(mu) > 0 and t + m <= len(mu) - 1:
            union(i, index[key(mu.window(0, len(mu) - 1), t)])
        # drop an unused leading edge (only reachable when t >= 1)
        if k >= 1:
            union(i, index[key(mu.window(1, len(mu)), t - 1)])
    return {pairs[i]: find(i) for i in range(len(pairs))}


@pytest.fixture
def single_loop() -> Graph:
    return make_single_loop()


@pytest.fixture
def two_loop() -> Graph:
    return make_two_loop()


@pytest.fixture
def three_cycle() -> Graph:
    return make_three_cycle()


@pytest.fixture
def cycle_plus_loop() -> Graph:
    return make_cycle_plus_loop()


@pytest.fixture
def single_edge() -> Graph:
    return make_single_edge()
