"""Graph-to-graph constructions: opposite, delay D_n(E), higher dual E(p,q).

The opposite, dual and power graphs are plain Graphs: their ids already say
what they encode.  Dual-graph ids are the edge-id tuples joined with ","
(see join_ids: a one-edge path keeps its edge id, and ids that themselves
hold a comma are escaped, so that distinct paths of one length never share
an id).  transform writes D_n(E) and E(p,q) from their vertex ids and edge
triples, a block at a time (delay_triples, higher_dual_triples).  As a Graph,
D_n(E) is a LabeledGraph whose vertices keep their layer, as the morita suite
reads it back: a vertex of E is ("vertex", v) in layer 0 and the j-th chain
vertex of e ("w", e, j) in layer j.  Delay ids are formatted "w(e,j)"/"f(e,j)".
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .errors import PreconditionError, StructuralError
from .graph import Graph, Path, _HalfLayers, _layer_sizes


class LabeledGraph(Graph):
    """A Graph whose vertices remember what they were built from."""

    def __init__(self, vertices, edges, vertex_labels: dict):
        super().__init__(vertices, edges)
        if set(vertex_labels) != set(self.vertices):
            raise StructuralError("vertex labels not bijective with vertices")
        self.vertex_labels = vertex_labels


def opposite(g: Graph) -> Graph:
    """Same vertices; each edge reversed: e^op has r(e^op) = s(e), s(e^op) = r(e)."""
    return Graph(g.vertices, [(e.id, e.dst, e.src) for e in g.edges])


def delay_vertex_id(e: str, j: int) -> str:
    return f"w({e},{j})"


def delay_edge_id(e: str, j: int) -> str:
    return f"f({e},{j})"


def delay(g: Graph, n: int) -> LabeledGraph:
    """D_n(E) as a LabeledGraph: see delay_triples.  A vertex of E is labelled
    ("vertex", v), and the j-th chain vertex of e ("w", e, j)."""
    vertices, chains = delay_triples(g, n)
    vertices = list(vertices)
    labels = {v: ("vertex", v) for v in g.vertices}
    chain = (("w", e.id, j) for e in g.edges for j in range(1, n))
    labels.update(zip(vertices[len(g.vertices) :], chain))
    return LabeledGraph(vertices, (t for c in chains for t in c), labels)


def delay_triples(g: Graph, n: int) -> tuple[Iterator[str], Iterator[list[tuple[str, str, str]]]]:
    """D_n(E) as vertex ids and (id, src, dst) edge triples, one list per
    edge of E, each made as it is read: each edge subdivided into an n-edge
    chain through new vertices.

    r(f_{e,1}) = r(e), r(f_{e,j}) = w_{e,j-1} for j >= 2,
    s(f_{e,j}) = w_{e,j} for j < n, s(f_{e,n}) = s(e).  D_1(E) keeps the edge
    ids of E.  The vertices are those of E, then each edge's chain vertices
    in edge order.  "w(e,j)" splits at its last comma into e and j, so a
    vertex of E named like a chain vertex is found, and refused, up front.
    """
    if n < 1:
        raise PreconditionError("delay requires n >= 1")
    for v in g.vertices:
        e, _, j = v[2:-1].rpartition(",")
        if j.isdecimal() and len(j) <= len(str(n)) and 0 < int(j) < n and e in g._by_id:
            if v == delay_vertex_id(e, int(j)):
                raise StructuralError("duplicate vertex ids")

    def chains() -> Iterator[list[tuple[str, str, str]]]:
        for e in g.edges:
            # the chain's vertices from its range end: r(e), w_{e,1}, ..., s(e)
            chain = [e.dst, *(delay_vertex_id(e.id, j) for j in range(1, n)), e.src]
            ids = [delay_edge_id(e.id, j) for j in range(1, n + 1)] if n > 1 else [e.id]
            yield list(zip(ids, chain[1:], chain))

    inner = (delay_vertex_id(e.id, j) for e in g.edges for j in range(1, n))
    return itertools.chain(g.vertices, inner), chains()


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


def higher_dual(g: Graph, p: int, q: int) -> Graph:
    """E(p,q) as a Graph, its edges those of the blocks of higher_dual_triples."""
    vertices, blocks = higher_dual_triples(g, p, q)
    edges: list[tuple[str, str, str]] = []
    for u, ws in blocks:
        edges += ws if u is None else [(u[0] + j, d, u[1]) for j, d in ws]
    return Graph(vertices, edges)


def higher_dual_triples(g: Graph, p: int, q: int) -> tuple[list[str], Iterator[tuple]]:
    """E(p,q) as vertex ids (p-paths) and its edges (q-paths) in blocks (u, ws),
    made as they are asked for: one per left half u of the q-words, for the
    right halves w with range s(u) in order (see graph._HalfLayers).

    For p >= 1 the range of the edge e_1...e_q is e_1...e_p and its source is
    e_{q-p+1}...e_q; for p = 0 they are r(e_1) and s(e_q).  If q >= 2, no
    edge id holds a comma and p <= q // 2, the range is read off u and the
    source off w: u = (id head, range) and ws holds an (id tail, source) per
    w, one list for every u with one s(u).  Otherwise u is None and ws holds
    the triples.
    """
    if p < 0 or q <= p:
        raise PreconditionError("higher_dual requires 0 <= p < q")
    dst = {e.id: e.dst for e in g.edges}
    layers = _HalfLayers(g)
    vertices = list(g.vertices) if p == 0 else [join_ids(ids) for ids, _ in layers.layer(p, None)]
    h = q // 2
    left, right = layers.halves(q, None)
    # join_ids escapes whole words, and at q = 1 the left half u is empty
    if not h or any("," in e.id for e in g.edges):
        vid = dict(zip([ids for ids, _ in layers.layer(p, None)], vertices)) if p else {}
        return vertices, ((None, [
            (join_ids(ids), *((vid[ids[q - p :]], vid[ids[:p]]) if p else (src, dst[ids[0]])))
            for w, src in right[tail] for ids in [u + w]
        ]) for u, tail in left)
    if p <= h:  # an id is u, ",", w (join_ids); the range is in u, the source in w
        tails = {
            v: [(",".join(w), ",".join(w[q - p - h :]) if p else src) for w, src in ws]
            for v, ws in right.items()
        }
        return vertices, (
            ((",".join(u) + ",", ",".join(u[:p]) if p else dst[u[0]]), tails[tail])
            for u, tail in left
        )
    # The range p-word is u, ",", w's first p - h edges (b), and the source
    # p-word w's last p edges (d), after u's last h - (q - p) and "," (c).
    joined = {
        v: [(",".join(w), ",".join(w[: p - h]), ",".join(w[max(q - p - h, 0) :])) for w, _ in ws]
        for v, ws in right.items()
    }
    return vertices, (
        (None, [(head + jw, c + d, head + b) for jw, b, d in joined[tail]])
        for u, tail in left
        for head in [",".join(u) + ","]
        for c in [",".join(u[q - p :]) + "," if q - p < h else ""]
    )


def higher_power(g: Graph, m: int) -> Graph:
    """E(0,m), the m-th higher-power graph."""
    if m < 1:
        raise PreconditionError("higher_power requires m >= 1")
    return higher_dual(g, 0, m)


def delay_embed_path(g: Graph, n: int, mu: Path, D: Graph) -> Path:
    """D_n^*(e_1...e_k) = f_{e_1,1}...f_{e_1,n} ... f_{e_k,1}...f_{e_k,n}, in D = delay(g, n).

    Range- and source-preserving under the vertex inclusion E^0 into D_n(E)^0.
    The image of a path of g composes in D, so it is not walked again.
    """
    if mu.graph is not g:
        raise StructuralError("path does not belong to the given graph")
    if not mu.edge_ids:
        return Path(D, (), mu.anchor)
    if n == 1:
        return Path._composed(D, mu.edge_ids)
    ids = tuple(
        delay_edge_id(e, j) for e in mu.edge_ids for j in range(1, n + 1)
    )
    return Path._composed(D, ids)

