"""Finite directed graphs, paths, path counts and sink/source diagnostics.

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

import itertools
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import CompositionError, PreconditionError, StructuralError


class Edge(NamedTuple):
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
        received: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        emitted: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            received[e.dst].append(e)
            emitted[e.src].append(e)
        self._received = {v: tuple(es) for v, es in received.items()}
        self._emitted = {v: tuple(es) for v, es in emitted.items()}

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._by_id[edge_id]
        except KeyError:
            raise StructuralError(f"unknown edge id {edge_id!r}") from None

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


class _Frozen:
    """Base of the immutable value classes.  Each sets its __slots__ once, with
    object.__setattr__, and compares and hashes by the tuple of fields that its
    class attribute _key (an attrgetter) reads."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Path(_Frozen):
    """A composable edge sequence mu_1 ... mu_n; length 0 carries an anchor vertex.

    Equality and hashing compare the combinatorial data only (edge ids and, for
    length 0, the anchor vertex); paths are always used within a single graph.
    """

    __slots__ = ("graph", "edge_ids", "anchor")
    _key = attrgetter("edge_ids", "anchor")

    def __init__(self, graph: Graph, edge_ids: tuple[str, ...], anchor: Optional[str] = None):
        if edge_ids:
            if anchor is not None:
                raise StructuralError("nonempty path must not carry an anchor")
            for a, b in zip(edge_ids, edge_ids[1:]):
                if graph.s(a) != graph.r(b):
                    raise CompositionError(f"edges {a!r},{b!r} not composable")
        else:
            if anchor is None:
                raise StructuralError("length-0 path needs an anchor vertex")
            if anchor not in graph._received:
                raise StructuralError(f"unknown anchor vertex {anchor!r}")
        init = object.__setattr__
        init(self, "graph", graph)
        init(self, "edge_ids", edge_ids)
        init(self, "anchor", anchor)

    @classmethod
    def _composed(cls, graph: Graph, edge_ids: tuple[str, ...]) -> "Path":
        """A nonempty path whose edges the caller built composable, unchecked."""
        p = object.__new__(cls)
        object.__setattr__(p, "graph", graph)
        object.__setattr__(p, "edge_ids", edge_ids)
        object.__setattr__(p, "anchor", None)
        return p

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
        return Path._composed(self.graph, self.edge_ids[a:b])

    def __repr__(self) -> str:
        if self.edge_ids:
            return "Path(" + " ".join(self.edge_ids) + ")"
        return f"Path(@{self.anchor})"


def vertex_path(g: Graph, v: str) -> Path:
    return Path(g, (), v)


def concatenate(mu: Path, nu: Path) -> Path:
    """mu nu, defined when s(mu) = r(nu); vertex operands act as identities."""
    if nu.graph is not mu.graph:
        raise StructuralError("paths belong to different graphs")
    if mu.s != nu.r:
        raise CompositionError(f"s(mu)={mu.s!r} != r(nu)={nu.r!r}")
    if not mu.edge_ids and not nu.edge_ids:
        return mu
    return Path._composed(mu.graph, mu.edge_ids + nu.edge_ids)


class IntMatrix:
    """Dense row-major matrix of arbitrary-precision integers."""

    def __init__(self, rows: int, cols: int, entries: Sequence[int]):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise StructuralError("dimensions do not match entry count")
        self.rows = rows
        self.cols = cols
        self.entries = list(map(int, entries))

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
        brows = other.row_lists()
        out: list[int] = []
        for arow in self.row_lists():
            acc = [0] * other.cols
            for a, brow in zip(arow, brows):
                if a:
                    acc = [x + a * y for x, y in zip(acc, brow)]
            out.extend(acc)
        return IntMatrix(self.rows, other.cols, out)

    def pow(self, n: int) -> "IntMatrix":
        """self^n by repeated squaring."""
        if self.rows != self.cols or n < 0:
            raise PreconditionError("pow needs a square matrix and n >= 0")
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result @ base
            n >>= 1
            if n:
                base = base @ base
        if result is None:
            return IntMatrix.identity(self.rows)
        return result.copy() if result is self else result

    def transpose(self) -> "IntMatrix":
        c = self.cols
        return IntMatrix(
            c, self.rows, [x for j in range(c) for x in self.entries[j::c]]
        )

    def row_lists(self) -> list[list[int]]:
        """The rows as fresh lists."""
        c = self.cols
        return [self.entries[i * c : (i + 1) * c] for i in range(self.rows)]

    def copy(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, list(self.entries))

    def __repr__(self) -> str:
        rows = [
            " ".join(str(self[i, j]) for j in range(self.cols))
            for i in range(self.rows)
        ]
        return "IntMatrix[\n  " + "\n  ".join(rows) + "\n]"


class Diagnostics(NamedTuple):
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
    return [
        Path._composed(g, ids)
        for ids, tail in _HalfLayers(g).layer(n, rng)
        if src is None or tail == src
    ]


class _HalfLayers:
    """The path layers of one graph, each (length, range) built once, a
    layer of length n >= 2 from its two halves.

    A path of length n is a path u of length n // 2 followed by a path w of
    length n - n // 2 whose range is s(u), so u + w runs through layer n in
    lexicographic order as u runs through its layer and w through the paths
    with range s(u).  The lengths built halve at each step, so O(log n)
    lengths are built for layer n, each once per range asked for.  No right
    half is built beside an empty left half, as every longer layer is empty
    too.
    """

    def __init__(self, g: Graph):
        self.received = _received_by_id(g)
        self.layers: dict = {}  # (length, range or None) -> layer
        self.by_range: dict = {}  # length -> {range vertex: layer}

    def layer(self, n: int, rng: Optional[str]) -> list:
        """Layer n >= 1 with range rng (any range for None), as
        lexicographically ordered (edge ids, source vertex) pairs."""
        out = self.layers.get((n, rng))
        if out is None:
            if n > 1:
                left, right = self.halves(n, rng)
                out = [(u + w, src) for u, tail in left for w, src in right[tail]]
            elif rng is None:
                out = sorted(((eid,), src) for pairs in self.received.values() for eid, src in pairs)
            elif rng in self.received:
                out = [((eid,), src) for eid, src in self.received[rng]]
            else:
                raise StructuralError(f"unknown vertex id {rng!r}")
            self.layers[n, rng] = out
        return out

    def halves(self, n: int, rng: Optional[str]) -> tuple[list, dict]:
        """For n >= 1, layer n // 2 with range rng, and layer n - n // 2 as a
        dict from range vertex to its layer (empty beside an empty left half).
        For n = 1 the left half is the empty word, its "source" rng."""
        if n == 1:
            return [((), rng)], {rng: self.layer(1, rng)}
        left = self.layer(n // 2, rng)
        if not left:
            return left, {}
        k = n - n // 2
        if k not in self.by_range:
            self.by_range[k] = {v: self.layer(k, v) for v in self.received}
        return left, self.by_range[k]


def _received_by_id(g: Graph) -> dict[str, list[tuple[str, str]]]:
    """Each vertex's received (edge id, source) pairs in id order, sorted on
    the first call and kept on g: graphs never enumerated never pay for it."""
    try:
        return g._received_sorted
    except AttributeError:
        g._received_sorted = {
            v: sorted((e.id, e.src) for e in es) for v, es in g._received.items()
        }
        return g._received_sorted


def _layer_sizes(g: Graph) -> Iterator[int]:
    """|E^1|, |E^2|, ... up to the last nonzero one: ways[v] counts the
    paths of the current length with source v, and each received edge f at
    v extends them to source s(f)."""
    ways = {v: len(g.emitted(v)) for v in g.vertices}
    while any(ways.values()):
        yield sum(ways.values())
        nxt = dict.fromkeys(g.vertices, 0)
        for v, c in ways.items():
            if c:
                for e in g.received(v):
                    nxt[e.src] += c
        ways = nxt


def path_count(g: Graph, n: int) -> int:
    """|E^n|, the number of paths of length n (of vertices for n = 0), by
    dynamic programming over the received-edge lists: O(n |E|)."""
    if n < 0:
        raise PreconditionError("n must be >= 0")
    if n == 0:
        return len(g.vertices)
    return next(itertools.islice(_layer_sizes(g), n - 1, None), 0)


# The most edge ids that path layers 1..n may hold, summed as k |E^k| over
# k <= n, before a command enumerates them (layer n alone, built from its
# halves, holds n |E^n| of them).  Two loops at one vertex hold
# 4,194,306 ids up to n = 17, and `transform --op power:17`, written from the
# halves of layer 17, takes 0.11-0.20 s and 17 MB (fresh interpreter, 2 CPUs).
MAX_LAYER_IDS = 2**23


def check_layer_ids(g: Graph, n: int) -> None:
    """check_layer_sizes on the layer sizes of g."""
    check_layer_sizes(_layer_sizes(g), n)


def check_layer_sizes(sizes: Iterable[int], n: int) -> None:
    """Refuse, before any path is built, to enumerate layers 1..n of a graph
    of layer sizes |E^1|, |E^2|, ... when they hold more than MAX_LAYER_IDS
    edge ids; the sum stops once it passes."""
    total = 0
    for k, size in zip(range(1, n + 1), sizes):
        total += k * size
        if total > MAX_LAYER_IDS:
            raise PreconditionError(
                f"paths of length <= {n} hold over {MAX_LAYER_IDS} edge ids "
                f"({total} up to length {k}); refusing to enumerate them"
            )


def adjacency(g: Graph) -> IntMatrix:
    """A(v,w) = |vE1w|, the number of edges with r(e) = v and s(e) = w."""
    n = len(g.vertices)
    index = {v: i for i, v in enumerate(g.vertices)}
    entries = [0] * (n * n)
    for e in g.edges:
        entries[index[e.dst] * n + index[e.src]] += 1
    return IntMatrix(n, n, entries)

