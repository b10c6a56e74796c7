"""The suspension quiver SG[l]E for integer parameter m >= 0.

Vertices are classes [e,t] of points on the topological realisation of the
graph; edges with parameter m are classes [mu,t] of length-m traversals.
Canonical forms shift floor(t) to 0 and trim the word to the defining window
mu(floor(t), ceil(t+m)), so equality is structural comparison.

Fractional parameters m/n are reached only through reduce_parameter, which
rewrites everything over the delay graph D_n(E) (and the opposite graph for
negative m).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Union

from .errors import CompositionError, PreconditionError, StructuralError
from .graph import Graph, Path, _path_layer
from .transform import (
    LabeledGraph,
    delay,
    delay_edge_id,
    delay_embed_path,
    higher_dual,
    higher_power,
    join_ids,
    opposite,
)


def as_circle(t: Fraction) -> Fraction:
    """Canonical representative of t in [0,1) on the circle R/Z."""
    return Fraction(t) % 1


@dataclass(frozen=True)
class SuspensionVertex:
    """Either Base(v) = the class [v], or Interior(e,t) = [e,t] with 0 < t < 1."""

    kind: str  # "base" | "interior"
    vertex: Optional[str] = None
    edge: Optional[str] = None
    t: Fraction = Fraction(0)

    def __repr__(self) -> str:
        if self.kind == "base":
            return f"[{self.vertex}]"
        return f"[{self.edge},{self.t}]"


def base_vertex(v: str) -> SuspensionVertex:
    return SuspensionVertex("base", vertex=v)


def normalize_vertex(g: Graph, e: str, t) -> SuspensionVertex:
    """[e,0] = [r(e)], [e,1] = [s(e)], else the interior point [e,t]."""
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise PreconditionError("vertex time must lie in [0,1]")
    if t == 0:
        return base_vertex(g.r(e))
    if t == 1:
        return base_vertex(g.s(e))
    g.edge(e)  # existence check
    return SuspensionVertex("interior", edge=e, t=t)


@dataclass(frozen=True)
class QuiverEdge:
    """Canonical representative of [mu,t] with integer parameter m >= 0.

    Lattice kind: t = 0 and the word has length m (a vertex anchor if m = 0).
    Interior kind: 0 < t < 1 and the word has length m + 1.
    """

    m: int
    word: Path
    t: Fraction

    @property
    def kind(self) -> str:
        return "lattice" if self.t == 0 else "interior"

    def __repr__(self) -> str:
        w = " ".join(self.word.edge_ids) if self.word.edge_ids else f"@{self.word.anchor}"
        return f"[{w}; t={self.t}; m={self.m}]"


def normalize_edge(mu: Path, t, m: int) -> QuiverEdge:
    """Canonical representative of [mu,t]_m: shift floor(t) to 0, trim to the window."""
    t = Fraction(t)
    if m < 0:
        raise PreconditionError("parameter m must be >= 0 (use reduce_parameter)")
    if not (0 <= t and t + m <= len(mu)):
        raise PreconditionError(f"window [{t},{t + m}] out of range for length {len(mu)}")
    k = int(t)  # floor: t >= 0
    frac = t - k
    if frac == 0:
        return QuiverEdge(m, mu.window(k, k + m), Fraction(0))
    return QuiverEdge(m, mu.window(k, k + m + 1), frac)


def edge_range(alpha: QuiverEdge) -> SuspensionVertex:
    if alpha.kind == "lattice":
        return base_vertex(alpha.word.r)
    return SuspensionVertex("interior", edge=alpha.word.edge_ids[0], t=alpha.t)


def edge_source(alpha: QuiverEdge) -> SuspensionVertex:
    if alpha.kind == "lattice":
        return base_vertex(alpha.word.s)
    return SuspensionVertex("interior", edge=alpha.word.edge_ids[alpha.m], t=alpha.t)


@dataclass(frozen=True)
class QuiverPath:
    """A composable sequence of QuiverEdges sharing parameter and time."""

    m: int
    t: Fraction
    edges: tuple[QuiverEdge, ...]
    anchor: Optional[SuspensionVertex] = None  # only for length 0

    def __post_init__(self) -> None:
        if self.edges:
            if self.anchor is not None:
                raise StructuralError("nonempty quiver path must not carry an anchor")
            for a in self.edges:
                if a.m != self.m or a.t != self.t:
                    raise StructuralError("mixed parameter or time in quiver path")
            for a, b in zip(self.edges, self.edges[1:]):
                if edge_source(a) != edge_range(b):
                    raise CompositionError("quiver edges not composable")
        elif self.anchor is None:
            raise StructuralError("length-0 quiver path needs an anchor vertex")

    @classmethod
    def _composed(cls, m: int, t: Fraction, edges: tuple[QuiverEdge, ...]) -> "QuiverPath":
        """A nonempty quiver path whose edges the caller built composable, with
        parameter m and time t, unchecked."""
        qp = object.__new__(cls)
        object.__setattr__(qp, "m", m)
        object.__setattr__(qp, "t", t)
        object.__setattr__(qp, "edges", edges)
        object.__setattr__(qp, "anchor", None)
        return qp

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def r(self) -> SuspensionVertex:
        return edge_range(self.edges[0]) if self.edges else self.anchor

    @property
    def s(self) -> SuspensionVertex:
        return edge_source(self.edges[-1]) if self.edges else self.anchor


def varpi(x: Union[SuspensionVertex, QuiverEdge, QuiverPath]) -> Fraction:
    """The fibre coordinate: Base vertices sit over 0, everything else over its t."""
    if isinstance(x, SuspensionVertex):
        return Fraction(0) if x.kind == "base" else x.t
    return as_circle(x.t)


def edge_path(alpha: QuiverEdge) -> QuiverPath:
    return QuiverPath(alpha.m, alpha.t, (alpha,))


def compose(alpha: QuiverPath, beta: QuiverPath) -> QuiverPath:
    """Concatenation, defined when s(alpha) = r(beta); anchors act as identities."""
    if not alpha.edges and not beta.edges:
        if alpha.anchor != beta.anchor:
            raise CompositionError("anchor mismatch")
        return alpha
    if not alpha.edges:
        if alpha.anchor != beta.r:
            raise CompositionError("anchor does not match r(beta)")
        return beta
    if not beta.edges:
        if alpha.s != beta.anchor:
            raise CompositionError("anchor does not match s(alpha)")
        return alpha
    if alpha.s != beta.r:
        raise CompositionError(f"s(alpha)={alpha.s!r} != r(beta)={beta.r!r}")
    if alpha.t != beta.t:
        raise CompositionError("fibre coordinate mismatch")
    return QuiverPath(alpha.m, alpha.t, alpha.edges + beta.edges)


def fibre_dual(g: Graph, m: int, t) -> LabeledGraph:
    """The dual graph whose paths enumerate the fibre: E(1,m+1) off the lattice,
    E(0,m) on it."""
    if m < 1:
        raise PreconditionError("fibre enumeration requires m >= 1")
    return higher_power(g, m) if as_circle(Fraction(t)) == 0 else higher_dual(g, 1, m + 1)


def fibre_paths(g: Graph, m: int, t, n: int) -> list[QuiverPath]:
    """All of SG[m]E^n_t, in lexicographic order of the underlying words.

    For t != 0 these biject with E(1,m+1)^n (words in E^{nm+1} windowed with
    overlap); for t = 0 with E(0,m)^n = E^{nm}.
    """
    if m < 1 or n < 0:
        raise PreconditionError("fibre_paths requires m >= 1 and n >= 0")
    t = as_circle(Fraction(t))
    if n == 0:
        if t == 0:
            return [
                QuiverPath(m, t, (), base_vertex(v)) for v in sorted(g.vertices)
            ]
        return [
            QuiverPath(m, t, (), SuspensionVertex("interior", edge=e.id, t=t))
            for e in sorted(g.edges, key=lambda e: e.id)
        ]
    return [
        QuiverPath._composed(
            m, t, tuple(QuiverEdge(m, Path._composed(g, w), t) for w in words)
        )
        for words in fibre_words(g, m, t, n)
    ]


def fibre_words(g: Graph, m: int, t, n: int) -> list[tuple[tuple[str, ...], ...]]:
    """For n >= 1, the edge-id words of the n edges of each path of
    SG[m]E^n_t, in the order of fibre_paths.

    Edge i of a fibre path is the window mu(im, (i+1)m + k) of one path mu of
    E^{nm+k}, k = 0 for t = 0 and 1 otherwise: windows of one path compose,
    so they are sliced from its edge ids and not checked.
    """
    if m < 1 or n < 1:
        raise PreconditionError("fibre_words requires m >= 1 and n >= 1")
    k = 0 if as_circle(Fraction(t)) == 0 else 1
    return [
        tuple(ids[i * m : (i + 1) * m + k] for i in range(n))
        for ids, _, _ in _path_layer(g, n * m + k)
    ]


def to_dual_word(qp: QuiverPath, dual: LabeledGraph) -> Path:
    """The image of a fibre path in the dual graph E(1,m+1) (t != 0) or E(0,m)."""
    if not qp.edges:
        a = qp.anchor
        return Path(dual, (), a.vertex if a.kind == "base" else a.edge)
    return Path(dual, tuple(join_ids(e.word.edge_ids) for e in qp.edges))


def from_dual_word(g: Graph, m: int, t, dual_path: Path) -> QuiverPath:
    """Inverse of to_dual_word."""
    t = as_circle(Fraction(t))
    dual = dual_path.graph
    if not dual_path.edge_ids:
        label = dual.vertex_labels[dual_path.anchor]
        if label[0] == "vertex":
            anchor = base_vertex(label[1])
        else:
            anchor = SuspensionVertex("interior", edge=label[1][0], t=t)
        return QuiverPath(m, t, (), anchor)
    edges = tuple(
        QuiverEdge(m, Path(g, tuple(dual.edge_labels[eid][1])), t)
        for eid in dual_path.edge_ids
    )
    return QuiverPath(m, t, edges)


def vertex_along(mu: Path, pos: Fraction) -> SuspensionVertex:
    """The suspension vertex a fraction pos of the way along mu."""
    pos = Fraction(pos)
    if not 0 <= pos <= len(mu):
        raise PreconditionError("position out of range")
    k = int(pos)
    frac = pos - k
    if frac == 0:
        return base_vertex(mu.vertex_at(k))
    return SuspensionVertex("interior", edge=mu.edge_ids[k], t=frac)


@dataclass(frozen=True)
class ReduceResult:
    """Reduction of parameter m/n to the integer |m| over a delay graph.

    vertex_map sends a point [e,u] of SG{E}^0 (u in [0,1]) to the matching
    point of SG{D_n(.)}^0; edge_map sends a class [mu,s] with s, s + m/n in
    [0,|mu|] to the canonical quiver edge of parameter |m| over the delay
    graph.  For m < 0 both maps factor through the opposite graph
    (orientation_reversed); reversing both the word and the graph cancels,
    so the composed maps still send r to r and s to s.
    """

    graph: LabeledGraph
    m_abs: int
    n: int
    orientation_reversed: bool
    vertex_map: Callable[[str, Fraction], SuspensionVertex] = field(compare=False)
    edge_map: Callable[[Path, Fraction], QuiverEdge] = field(compare=False)


def reduce_parameter(g: Graph, m: int, n: int) -> ReduceResult:
    """SG[m/n]E rewritten over D_n(E) (resp. D_n(E^op) for m < 0) with integer |m|."""
    if n < 1:
        raise PreconditionError("reduce_parameter requires n >= 1")
    if m >= 0:
        base, reversed_ = g, False
    else:
        base, reversed_ = opposite(g), True
    D = delay(base, n)

    def fid(e: str, j: int) -> str:
        return e if n == 1 else delay_edge_id(e, j)

    def base_vertex_map(e: str, u: Fraction) -> SuspensionVertex:
        u = Fraction(u)
        if not 0 <= u <= 1:
            raise PreconditionError("vertex time must lie in [0,1]")
        if u == 1:
            return normalize_vertex(D, fid(e, n), Fraction(1))
        j = int(n * u) + 1
        return normalize_vertex(D, fid(e, j), n * u - (j - 1))

    def base_edge_map(mu: Path, s: Fraction) -> QuiverEdge:
        # [mu, (j-1+t)/n] -> [D_n^*(mu), j-1+t]
        emb = delay_embed_path(base, n, mu, D)
        return normalize_edge(emb, n * Fraction(s), abs(m))

    if not reversed_:
        return ReduceResult(D, m, n, False, base_vertex_map, base_edge_map)

    def op_vertex_map(e: str, u: Fraction) -> SuspensionVertex:
        # [e,u] in SG{E}^0 equals [e^op, 1-u] over the opposite graph
        return base_vertex_map(e, 1 - Fraction(u))

    def op_edge_map(mu: Path, s: Fraction) -> QuiverEdge:
        if mu.graph is not g:
            raise StructuralError("path does not belong to the given graph")
        s = Fraction(s)
        if not (0 <= s + Fraction(m, n) and s <= len(mu)):
            raise PreconditionError("window out of range")
        mu_op = (
            Path(base, tuple(reversed(mu.edge_ids)))
            if mu.edge_ids
            else Path(base, (), mu.anchor)
        )
        # [mu,s] corresponds to [mu^op, |mu| - s] as an edge of SG[|m|/n]E^op:
        # reversing both the word and the graph leaves r and s in place
        return base_edge_map(mu_op, len(mu) - s)

    return ReduceResult(D, abs(m), n, True, op_vertex_map, op_edge_map)


@dataclass(frozen=True)
class OpennessRecord:
    s_open: bool
    r_open: bool


def openness_report(g: Graph) -> dict:
    """Per-edge openness of the quiver's range and source maps at [e].

    s is open at [e] iff |E1 s(e)| = 1 (s(e) emits exactly one edge);
    r is open at [e] iff |r(e) E1| = 1 (r(e) receives exactly one edge).
    """
    per_edge = {
        e.id: OpennessRecord(
            s_open=len(g.emitted(e.src)) == 1,
            r_open=len(g.received(e.dst)) == 1,
        )
        for e in g.edges
    }
    return {
        "edges": per_edge,
        "s_open_everywhere": all(rec.s_open for rec in per_edge.values()),
        "r_open_everywhere": all(rec.r_open for rec in per_edge.values()),
    }
