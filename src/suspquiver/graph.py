"""Finite directed graphs, paths, and structural predicates.

Conventions are fixed once and used literally everywhere:

* an edge record is ``(id, src, dst)`` with ``src = s(e)`` and ``dst = r(e)``;
* ``vE1`` (received by v) is the set ``{e : r(e) = v}``;
* ``E1v`` (emitted by v) is the set ``{e : s(e) = v}``;
* a sink is a vertex with ``E1v`` empty, a source one with ``vE1`` empty;
* edges of a path compose via ``s(mu_i) = r(mu_{i+1})``, so the range of a
  path is the range of its first edge and the source is the source of its
  last edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import CompositionError, PreconditionError, StructuralError


@dataclass(frozen=True)
class Edge:
    id: str
    src: str
    dst: str


class Graph:
    """A finite directed graph with ordered, uniquely named vertices and edges."""

    def __init__(self, vertices: Sequence[str], edges: Iterable[tuple[str, str, str]]):
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.edges: tuple[Edge, ...] = tuple(Edge(*e) for e in edges)
        if len(set(self.vertices)) != len(self.vertices):
            raise StructuralError("duplicate vertex ids")
        ids = [e.id for e in self.edges]
        if len(set(ids)) != len(ids):
            raise StructuralError("duplicate edge ids")
        vset = set(self.vertices)
        for e in self.edges:
            if e.src not in vset or e.dst not in vset:
                raise StructuralError(f"edge {e.id!r} has a dangling endpoint")
        self._by_id = {e.id: e for e in self.edges}
        self._received: dict[str, tuple[Edge, ...]] = {v: () for v in self.vertices}
        self._emitted: dict[str, tuple[Edge, ...]] = {v: () for v in self.vertices}
        for e in self.edges:
            self._received[e.dst] += (e,)
            self._emitted[e.src] += (e,)

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._by_id[edge_id]
        except KeyError:
            raise StructuralError(f"unknown edge id {edge_id!r}") from None

    def has_edge(self, edge_id: str) -> bool:
        return edge_id in self._by_id

    def r(self, edge_id: str) -> str:
        return self.edge(edge_id).dst

    def s(self, edge_id: str) -> str:
        return self.edge(edge_id).src

    def received(self, v: str) -> tuple[Edge, ...]:
        """vE1 = {e : r(e) = v}."""
        if v not in self._received:
            raise StructuralError(f"unknown vertex id {v!r}")
        return self._received[v]

    def emitted(self, v: str) -> tuple[Edge, ...]:
        """E1v = {e : s(e) = v}."""
        if v not in self._emitted:
            raise StructuralError(f"unknown vertex id {v!r}")
        return self._emitted[v]

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"


@dataclass(frozen=True)
class Path:
    """A composable edge sequence mu_1 ... mu_n; length 0 carries an anchor vertex.

    Equality and hashing compare the combinatorial data only (edge ids and, for
    length 0, the anchor vertex); paths are always used within a single graph.
    """

    graph: Graph = field(compare=False, hash=False, repr=False)
    edge_ids: tuple[str, ...]
    anchor: Optional[str] = None

    def __post_init__(self) -> None:
        g = self.graph
        if self.edge_ids:
            if self.anchor is not None:
                raise StructuralError("nonempty path must not carry an anchor")
            for a, b in zip(self.edge_ids, self.edge_ids[1:]):
                if g.s(a) != g.r(b):
                    raise CompositionError(f"edges {a!r},{b!r} not composable")
        else:
            if self.anchor is None:
                raise StructuralError("length-0 path needs an anchor vertex")
            if self.anchor not in g._received:
                raise StructuralError(f"unknown anchor vertex {self.anchor!r}")

    def __len__(self) -> int:
        return len(self.edge_ids)

    @property
    def r(self) -> str:
        return self.graph.r(self.edge_ids[0]) if self.edge_ids else self.anchor

    @property
    def s(self) -> str:
        return self.graph.s(self.edge_ids[-1]) if self.edge_ids else self.anchor

    def vertex_at(self, i: int) -> str:
        """Vertex visited after traversing i edges (position i along the path)."""
        if not 0 <= i <= len(self):
            raise PreconditionError("position out of range")
        if i < len(self):
            return self.graph.r(self.edge_ids[i])
        return self.s

    def window(self, a: int, b: int) -> "Path":
        """The subpath mu(a,b) = mu_{a+1} ... mu_b (the anchor vertex if a = b)."""
        if not 0 <= a <= b <= len(self):
            raise PreconditionError(f"bad window ({a},{b}) for length {len(self)}")
        if a == b:
            return Path(self.graph, (), self.vertex_at(a))
        return Path(self.graph, self.edge_ids[a:b])

    def __repr__(self) -> str:
        if self.edge_ids:
            return "Path(" + " ".join(self.edge_ids) + ")"
        return f"Path(@{self.anchor})"


def vertex_path(g: Graph, v: str) -> Path:
    return Path(g, (), v)


def concatenate(mu: Path, nu: Path) -> Path:
    """mu nu, defined when s(mu) = r(nu); vertex operands act as identities."""
    if mu.s != nu.r:
        raise CompositionError(f"s(mu)={mu.s!r} != r(nu)={nu.r!r}")
    if not mu.edge_ids and not nu.edge_ids:
        return mu
    return Path(mu.graph, mu.edge_ids + nu.edge_ids)


class IntMatrix:
    """Dense row-major matrix of arbitrary-precision integers."""

    def __init__(self, rows: int, cols: int, entries: Sequence[int]):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise StructuralError("dimensions do not match entry count")
        self.rows = rows
        self.cols = cols
        self.entries = list(int(x) for x in entries)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    def __getitem__(self, rc: tuple[int, int]) -> int:
        i, j = rc
        return self.entries[i * self.cols + j]

    def __setitem__(self, rc: tuple[int, int], val: int) -> None:
        i, j = rc
        self.entries[i * self.cols + j] = int(val)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise PreconditionError("shape mismatch")
        return IntMatrix(
            self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)]
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise PreconditionError("shape mismatch")
        out = IntMatrix.zeros(self.rows, other.cols)
        for i in range(self.rows):
            for k in range(self.cols):
                a = self[i, k]
                if a:
                    for j in range(other.cols):
                        out[i, j] += a * other[k, j]
        return out

    def pow(self, n: int) -> "IntMatrix":
        if self.rows != self.cols or n < 0:
            raise PreconditionError("pow needs a square matrix and n >= 0")
        result = IntMatrix.identity(self.rows)
        for _ in range(n):
            result = result @ self
        return result

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            [self[i, j] for j in range(self.cols) for i in range(self.rows)],
        )

    def trace(self) -> int:
        return sum(self[i, i] for i in range(min(self.rows, self.cols)))

    def copy(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, list(self.entries))

    def __repr__(self) -> str:
        rows = [
            " ".join(str(self[i, j]) for j in range(self.cols))
            for i in range(self.rows)
        ]
        return "IntMatrix[\n  " + "\n  ".join(rows) + "\n]"


@dataclass(frozen=True)
class Diagnostics:
    sinks: frozenset[str]
    sources: frozenset[str]
    ok_for_suspension: bool


def validate(g: Graph) -> Diagnostics:
    """Sinks (E1v empty), sources (vE1 empty), and the no-source flag."""
    sinks = frozenset(v for v in g.vertices if not g.emitted(v))
    sources = frozenset(v for v in g.vertices if not g.received(v))
    return Diagnostics(sinks, sources, not sources)


def enumerate_paths(
    g: Graph, n: int, src: Optional[str] = None, rng: Optional[str] = None
) -> list[Path]:
    """All paths of length n, optionally filtered by source s(mu) and range r(mu).

    The result is exactly the set rng E^n src, ordered lexicographically by
    edge-id sequence (and by anchor vertex for n = 0).
    """
    if n < 0:
        raise PreconditionError("n must be >= 0")
    if n == 0:
        verts = [v for v in sorted(g.vertices) if src in (None, v) and rng in (None, v)]
        return [vertex_path(g, v) for v in verts]
    # Build outward from the range end, one layer per length: the first edge
    # has r(e) = rng, and each later edge f has r(f) = s of the edge before.
    received = {v: sorted(g.received(v), key=lambda e: e.id) for v in g.vertices}
    if rng is not None and rng not in received:
        raise StructuralError(f"unknown vertex id {rng!r}")
    starts = [rng] if rng is not None else g.vertices
    layer = [((e.id,), e.src) for v in starts for e in received[v]]
    for _ in range(n - 1):
        layer = [(ids + (e.id,), e.src) for ids, tail in layer for e in received[tail]]
    out = sorted(ids for ids, tail in layer if src is None or tail == src)
    return [Path(g, ids) for ids in out]


def adjacency(g: Graph) -> IntMatrix:
    """A(v,w) = |vE1w|, the number of edges with r(e) = v and s(e) = w."""
    n = len(g.vertices)
    index = {v: i for i, v in enumerate(g.vertices)}
    m = IntMatrix.zeros(n, n)
    for e in g.edges:
        m[index[e.dst], index[e.src]] += 1
    return m


def is_strongly_connected(g: Graph) -> bool:
    """True iff every ordered vertex pair is joined by a nonempty path.

    A single vertex with no edges is not strongly connected under this
    definition (it has no nonempty path to itself).
    """
    if not g.vertices:
        return False
    for v in g.vertices:
        # vertices reachable from v by a nonempty path, walking r -> s
        seen: set[str] = set()
        frontier = [e.src for e in g.received(v)]
        while frontier:
            u = frontier.pop()
            if u in seen:
                continue
            seen.add(u)
            frontier.extend(e.src for e in g.received(u))
        if seen != set(g.vertices):
            return False
    return True


def simple_cycles(g: Graph) -> list[tuple[str, ...]]:
    """All simple cycles as edge-id sequences (vertices pairwise distinct).

    A cycle mu_1 ... mu_k starts at r(mu_1) and closes with s(mu_k) = r(mu_1);
    rotations are deduplicated by keeping only the lexicographically least
    rotation of each edge sequence.
    """
    found: set[tuple[str, ...]] = set()

    def canonical(seq: tuple[str, ...]) -> tuple[str, ...]:
        rots = [seq[i:] + seq[:i] for i in range(len(seq))]
        return min(rots)

    def walk(start: str, here: str, used: set[str], seq: tuple[str, ...]) -> None:
        # extend at the source end: the next edge f has r(f) = here
        for e in g.received(here):
            nxt = e.src
            if nxt == start:
                found.add(canonical(seq + (e.id,)))
            elif nxt not in used:
                walk(start, nxt, used | {nxt}, seq + (e.id,))

    for v in g.vertices:
        walk(v, v, {v}, ())
    return sorted(found)


def period(g: Graph) -> int:
    """gcd of the lengths of all cycles of a strongly connected graph."""
    if not is_strongly_connected(g):
        raise PreconditionError("period requires a strongly connected graph")
    a = adjacency(g)
    power = IntMatrix.identity(a.rows)
    p = 0
    for length in range(1, len(g.vertices) + 1):
        power = power @ a
        if power.trace() > 0:
            p = math.gcd(p, length)
    return p


def every_cycle_has_entrance(g: Graph) -> bool:
    """True iff every cycle mu has some i with |r(mu_i)E1| >= 2.

    It suffices to check simple cycles: every cycle visits the vertex set of
    one of its simple subcycles.
    """
    ids = {e.id: e for e in g.edges}
    for cyc in simple_cycles(g):
        if not any(len(g.received(ids[eid].dst)) >= 2 for eid in cyc):
            return False
    return True


def hereditary_closure(g: Graph, H: Iterable[str]) -> frozenset[str]:
    """Smallest superset of H closed under v in H, r(e) = v  =>  s(e) in H."""
    closed = set(H)
    for v in closed:
        if v not in g._received:
            raise StructuralError(f"unknown vertex id {v!r}")
    frontier = list(closed)
    while frontier:
        v = frontier.pop()
        for e in g.received(v):
            if e.src not in closed:
                closed.add(e.src)
                frontier.append(e.src)
    return frozenset(closed)


def is_simple_cycle(g: Graph) -> bool:
    """|E0| = |E1| = n with every vertex receiving and emitting exactly one edge,
    and the graph connected (hence a single n-cycle)."""
    n = len(g.vertices)
    if n == 0 or len(g.edges) != n:
        return False
    if any(len(g.received(v)) != 1 or len(g.emitted(v)) != 1 for v in g.vertices):
        return False
    # in = out = 1 means the graph is a disjoint union of cycles; check one orbit
    seen = {g.vertices[0]}
    here = g.vertices[0]
    while True:
        here = g.received(here)[0].src
        if here in seen:
            break
        seen.add(here)
    return len(seen) == n
