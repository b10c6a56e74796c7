"""The suspension quiver SG[l]E for integer parameter m >= 0.

Vertices are classes [e,t] of points on the topological realisation of the
graph; edges with parameter m are classes [mu,t] of length-m traversals.
Canonical forms shift floor(t) to 0 and trim the word to the defining window
mu(floor(t), ceil(t+m)), so equality is structural comparison.

Only integer parameters are represented here.  A fractional parameter m/n
is checked over the delay graph D_n(E) instead (transform.delay), by the
morita and flow suites.  The fibre SG[m]E^n_t is listed by fibre_words as
edge-id words; fibre_paths builds the same fibre as QuiverPaths.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple, Optional

from .errors import CompositionError, PreconditionError, StructuralError
from .graph import Graph, Path, _Frozen, _HalfLayers


def as_circle(t: Fraction) -> Fraction:
    """Canonical representative of t in [0,1) on the circle R/Z."""
    return Fraction(t) % 1


class SuspensionVertex(_Frozen):
    """Either Base(v) = the class [v], or Interior(e,t) = [e,t] with 0 < t < 1."""

    __slots__ = ("kind", "vertex", "edge", "t")  # kind: "base" | "interior"
    _key = attrgetter(*__slots__)

    def __init__(
        self, kind: str, vertex: Optional[str] = None, edge: Optional[str] = None,
        t: Fraction = Fraction(0),
    ):
        init = object.__setattr__
        init(self, "kind", kind)
        init(self, "vertex", vertex)
        init(self, "edge", edge)
        init(self, "t", t)

    def __repr__(self) -> str:
        if self.kind == "base":
            return f"[{self.vertex}]"
        return f"[{self.edge},{self.t}]"


def base_vertex(v: str) -> SuspensionVertex:
    return SuspensionVertex("base", vertex=v)


class QuiverEdge(_Frozen):
    """Canonical representative of [mu,t] with integer parameter m >= 0.

    Lattice kind: t = 0 and the word has length m (a vertex anchor if m = 0).
    Interior kind: 0 < t < 1 and the word has length m + 1.
    """

    __slots__ = ("m", "word", "t")
    _key = attrgetter(*__slots__)

    def __init__(self, m: int, word: Path, t: Fraction):
        init = object.__setattr__
        init(self, "m", m)
        init(self, "word", word)
        init(self, "t", t)

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
        raise PreconditionError("parameter m must be >= 0")
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


class QuiverPath(_Frozen):
    """A composable sequence of QuiverEdges sharing parameter and time."""

    __slots__ = ("m", "t", "edges", "anchor")  # an anchor only for length 0
    _key = attrgetter(*__slots__)

    def __init__(
        self, m: int, t: Fraction, edges: tuple[QuiverEdge, ...],
        anchor: Optional[SuspensionVertex] = None,
    ):
        if edges:
            if anchor is not None:
                raise StructuralError("nonempty quiver path must not carry an anchor")
            for a in edges:
                if a.m != m or a.t != t:
                    raise StructuralError("mixed parameter or time in quiver path")
            for a, b in zip(edges, edges[1:]):
                if edge_source(a) != edge_range(b):
                    raise CompositionError("quiver edges not composable")
        elif anchor is None:
            raise StructuralError("length-0 quiver path needs an anchor vertex")
        init = object.__setattr__
        init(self, "m", m)
        init(self, "t", t)
        init(self, "edges", edges)
        init(self, "anchor", anchor)

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
    E^{nm+k} (see fibre_halves): windows of one path compose, so they are
    sliced from its edge ids and not checked.
    """
    left, right, k = fibre_halves(g, m, t, n)
    words = (u + w for u, tail in left for w, _ in right[tail])
    return [tuple(ids[i * m : (i + 1) * m + k] for i in range(n)) for ids in words]


def fibre_halves(g: Graph, m: int, t, n: int) -> tuple[list, dict, int]:
    """For n >= 1, (left, right, k): the paths u + w of E^{nm+k} that
    SG[m]E^n_t windows (k = 0 at t = 0, else 1), as the layer of their first
    halves u and their second halves w by range (see graph._HalfLayers)."""
    if m < 1 or n < 1:
        raise PreconditionError("fibre_words requires m >= 1 and n >= 1")
    k = 0 if as_circle(Fraction(t)) == 0 else 1
    return *_HalfLayers(g).halves(n * m + k, None), k


class OpennessRecord(NamedTuple):
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
