"""The suspension quiver SG[l]E for integer parameter m >= 0.

Vertices are classes [e,t] of points on the topological realisation of the
graph; edges with parameter m are classes [mu,t] of length-m traversals.
Canonical forms shift floor(t) to 0 and trim the word to the defining window
mu(floor(t), ceil(t+m)), so equality is structural comparison.

Only integer parameters are represented here.  A fractional parameter m/n
is checked over the delay graph D_n(E) instead (transform.delay), by the
morita and flow suites.  The fibre SG[m]E^n_t is built by fibre_paths as
QuiverPaths, each edge a window of one path of E (see fibre_halves).  Windows
of one path compose, s(alpha_i) = r(alpha_(i+1)), by construction, so
QuiverPath has one constructor and checks nothing.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple, Optional

from .errors import PreconditionError
from .graph import Graph, Path, _Frozen, _HalfLayers


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


class QuiverPath(_Frozen):
    """A sequence of QuiverEdges sharing parameter m and time t, composable
    as the caller built them; a length-0 path carries its anchor vertex."""

    __slots__ = ("m", "t", "edges", "anchor")
    _key = attrgetter(*__slots__)

    def __init__(
        self, m: int, t: Fraction, edges: tuple[QuiverEdge, ...],
        anchor: Optional[SuspensionVertex] = None,
    ):
        init = object.__setattr__
        init(self, "m", m)
        init(self, "t", t)
        init(self, "edges", edges)
        init(self, "anchor", anchor)

    def __len__(self) -> int:
        return len(self.edges)


def fibre_paths(g: Graph, m: int, t, n: int) -> list[QuiverPath]:
    """All of SG[m]E^n_t, in lexicographic order of the underlying words.

    For t != 0 these biject with E(1,m+1)^n (words in E^{nm+1} windowed with
    overlap); for t = 0 with E(0,m)^n = E^{nm}.
    """
    if m < 1 or n < 0:
        raise PreconditionError("fibre_paths requires m >= 1 and n >= 0")
    t = Fraction(t) % 1
    if n == 0:
        if t == 0:
            return [
                QuiverPath(m, t, (), SuspensionVertex("base", vertex=v))
                for v in sorted(g.vertices)
            ]
        return [
            QuiverPath(m, t, (), SuspensionVertex("interior", edge=e.id, t=t))
            for e in sorted(g.edges, key=lambda e: e.id)
        ]
    # edge i of a fibre path is the window mu(im, (i+1)m + k) of one path mu
    # of E^{nm+k}: windows of one path compose, so they are sliced unchecked
    k = 0 if t == 0 else 1
    left, right = fibre_halves(g, m, n, k)
    return [
        QuiverPath(m, t, tuple(
            QuiverEdge(m, Path._composed(g, ids[i * m : (i + 1) * m + k]), t) for i in range(n)
        ))
        for u, tail in left for w, _ in right[tail] for ids in [u + w]
    ]


def fibre_halves(g: Graph, m: int, n: int, k: int) -> tuple[list, dict]:
    """For m, n >= 1, (left, right): the paths u + w of E^{nm+k} that
    SG[m]E^n_t windows (k = 0 at t = 0, else 1), as the layer of their first
    halves u and their second halves w by range (see graph._HalfLayers)."""
    return _HalfLayers(g).halves(n * m + k, None)


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
