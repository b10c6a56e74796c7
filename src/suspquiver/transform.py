"""Graph-to-graph constructions: opposite, delay D_n(E), higher dual E(p,q).

Derived graphs are LabeledGraphs: every vertex/edge id carries a provenance
label recording the source-graph object it encodes (a path, or a pair (e,j)
for delay chains).  Dual-graph ids are the edge-id tuples joined with ","
(see join_ids: a one-edge path keeps its edge id, and ids that themselves
hold a comma are escaped, so that distinct paths of one length never share
an id); delay ids are formatted "w(e,j)" / "f(e,j)".
"""

from __future__ import annotations

from typing import Iterator, Optional

from .errors import PreconditionError, StructuralError
from .graph import Graph, Path, _layer_sizes, _path_layer

Label = tuple


class LabeledGraph(Graph):
    """A Graph whose vertices and edges remember what they were built from."""

    def __init__(self, vertices, edges, vertex_labels: dict, edge_labels: dict):
        super().__init__(vertices, edges)
        if set(vertex_labels) != set(self.vertices):
            raise StructuralError("vertex labels not bijective with vertices")
        if set(edge_labels) != {e.id for e in self.edges}:
            raise StructuralError("edge labels not bijective with edges")
        self.vertex_labels = dict(vertex_labels)
        self.edge_labels = dict(edge_labels)


def _identity_labeled(g: Graph) -> LabeledGraph:
    return LabeledGraph(
        g.vertices,
        [(e.id, e.src, e.dst) for e in g.edges],
        {v: ("vertex", v) for v in g.vertices},
        {e.id: ("edge", e.id) for e in g.edges},
    )


def opposite(g: Graph) -> LabeledGraph:
    """Same vertices; each edge reversed: e^op has r(e^op) = s(e), s(e^op) = r(e)."""
    return LabeledGraph(
        g.vertices,
        [(e.id, e.dst, e.src) for e in g.edges],
        {v: ("vertex", v) for v in g.vertices},
        {e.id: ("op", e.id) for e in g.edges},
    )


def delay_vertex_id(e: str, j: int) -> str:
    return f"w({e},{j})"


def delay_edge_id(e: str, j: int) -> str:
    return f"f({e},{j})"


def delay(g: Graph, n: int) -> LabeledGraph:
    """D_n(E): each edge subdivided into an n-edge chain through new vertices.

    r(f_{e,1}) = r(e), r(f_{e,j}) = w_{e,j-1} for j >= 2,
    s(f_{e,j}) = w_{e,j} for j < n, s(f_{e,n}) = s(e).
    """
    if n < 1:
        raise PreconditionError("delay requires n >= 1")
    if n == 1:
        return _identity_labeled(g)
    vertices = list(g.vertices)
    vertex_labels: dict[str, Label] = {v: ("vertex", v) for v in g.vertices}
    edges: list[tuple[str, str, str]] = []
    edge_labels: dict[str, Label] = {}
    for e in g.edges:
        for j in range(1, n):
            w = delay_vertex_id(e.id, j)
            vertices.append(w)
            vertex_labels[w] = ("w", e.id, j)
        for j in range(1, n + 1):
            dst = e.dst if j == 1 else delay_vertex_id(e.id, j - 1)
            src = e.src if j == n else delay_vertex_id(e.id, j)
            f = delay_edge_id(e.id, j)
            edges.append((f, src, dst))
            edge_labels[f] = ("f", e.id, j)
    return LabeledGraph(vertices, edges, vertex_labels, edge_labels)


def delay_layer_sizes(g: Graph, n: int) -> Iterator[int]:
    """|D_n(E)^0|, |D_n(E)^1|, ... (then 0s, endlessly) from the layer sizes of g.
    A K-path of D_n(E) starts o < n edges into the chain of its first edge, so
    it is a window of one E-path of length ceil((o+K)/n): for K = qn + r that
    counts |E^q| + (n-1)|E^(q+1)| if r = 0, else (n-r+1)|E^(q+1)| + (r-1)|E^(q+2)|."""
    sizes = _layer_sizes(g)
    a, b, c = len(g.vertices), next(sizes, 0), next(sizes, 0)
    while True:
        yield a + (n - 1) * b
        for r in range(1, n):
            yield (n - r + 1) * b + (r - 1) * c
        a, b, c = b, c, next(sizes, 0)


def join_ids(ids: tuple[str, ...]) -> str:
    """The id of a derived vertex or edge: one-to-one on words of one length.

    A one-edge word keeps its edge id.  A longer word is joined with ","
    when no id holds a comma, i.e. when the joined string has exactly
    len(ids) - 1 commas; otherwise each id has "\\" and "," escaped with a
    backslash before joining.
    """
    if len(ids) == 1:
        return ids[0]
    joined = ",".join(ids)
    if joined.count(",") == len(ids) - 1:
        return joined
    return ",".join(i.replace("\\", "\\\\").replace(",", "\\,") for i in ids)


def higher_dual(g: Graph, p: int, q: int) -> LabeledGraph:
    """E(p,q): vertices are p-paths, edges are q-paths, range/source by windowing.

    For p >= 1 the range of the edge e_1...e_q is e_1...e_p and its source is
    e_{q-p+1}...e_q; for p = 0 they are r(e_1) and s(e_q).  Both are read off
    the edge-id words of the layers of g, with no Path built.
    """
    if p < 0 or q <= p:
        raise PreconditionError("higher_dual requires 0 <= p < q")
    layer = _path_layer(g, q)
    eids = [join_ids(ids) for ids, _, _ in layer]
    if p == 0:
        vertices = list(g.vertices)
        vertex_labels: dict[str, Label] = {v: ("vertex", v) for v in g.vertices}
        dst = {e.id: e.dst for e in g.edges}
        edges = [(eid, tail, dst[ids[0]]) for eid, (ids, tail, _) in zip(eids, layer)]
    else:
        vid = {ids: join_ids(ids) for ids, _, _ in _path_layer(g, p)}
        vertices = list(vid.values())
        vertex_labels = {v: ("path", ids) for ids, v in vid.items()}
        edges = [
            (eid, vid[ids[q - p :]], vid[ids[:p]]) for eid, (ids, _, _) in zip(eids, layer)
        ]
    edge_labels = {eid: ("path", ids) for eid, (ids, _, _) in zip(eids, layer)}
    return LabeledGraph(vertices, edges, vertex_labels, edge_labels)


def higher_power(g: Graph, m: int) -> LabeledGraph:
    """E(0,m), the m-th higher-power graph."""
    if m < 1:
        raise PreconditionError("higher_power requires m >= 1")
    return higher_dual(g, 0, m)


def delay_embed_path(g: Graph, n: int, mu: Path, D: Optional[LabeledGraph] = None) -> Path:
    """D_n^*(e_1...e_k) = f_{e_1,1}...f_{e_1,n} ... f_{e_k,1}...f_{e_k,n}.

    Range- and source-preserving under the vertex inclusion E^0 into D_n(E)^0.
    A prebuilt delay graph D = delay(g, n) may be passed to avoid rebuilding it.
    The image of a path of g composes in D, so it is not walked again.
    """
    if mu.graph is not g:
        raise StructuralError("path does not belong to the given graph")
    if D is None:
        D = delay(g, n)
    if not mu.edge_ids:
        return Path(D, (), mu.anchor)
    if n == 1:
        return Path._composed(D, mu.edge_ids)
    ids = tuple(
        delay_edge_id(e, j) for e in mu.edge_ids for j in range(1, n + 1)
    )
    return Path._composed(D, ids)

