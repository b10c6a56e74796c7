"""Sparse operators with exact rational entries, and the truncated path-space
representation.

An operator's entries are Python int numerators over one positive int
denominator, so the kernel (linear combinations, products, adjoints, exact
norms and comparisons) runs on ints alone; Fraction appears only at the
boundary, in scalar arguments and in the {(r, c): Fraction} entries view.
Scalars are real: every generator is a 0/1 partial isometry, and a complex
coefficient enters each checked identity linearly, so its case is the real
part's plus i times the imaginary part's.

The basis of a truncated representation is the set of paths of length at most
L, ordered by (length, lexicographic edge ids); T_e prepends an edge and
annihilates anything that would exceed the cap, Q_v is the diagonal projection
onto paths with range v.  Identities are asserted on interior masks (columns
indexed by paths of length at most L - depth) where truncation artifacts
cannot reach.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, Union

from .errors import PreconditionError
from .graph import Graph, Path, _received_by_id, validate, vertex_path
from .ktheory import _coker_ker_rows

if TYPE_CHECKING:
    import numpy as np

RatLike = Union[int, Fraction]


def _parts(c: RatLike) -> tuple[int, int]:
    """The ints (a, d) with c = a / d and d > 0."""
    if type(c) is int:
        return c, 1
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator, c.denominator


class Basis:
    """The paths of length at most L as a trie that TruncatedRep fills in basis
    order: column i is a vertex (the first columns, sorted; parent[i] = -1) or
    the path parent[i] followed by the edge last[i], and child maps (parent,
    edge id) to i.  No column stores its word; labels, the Paths, are built on read."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.column: dict[str, int] = {v: i for i, v in enumerate(sorted(graph.vertices))}
        self.lengths: list[int] = [0] * len(self.column)
        self.parent: list[int] = [-1] * len(self.column)
        self.last: list[Optional[str]] = [None] * len(self.column)
        self.child: dict[tuple[int, str], int] = {}
        self._labels: Optional[tuple[Path, ...]] = None

    def find(self, word: Sequence[str], anchor: Optional[str] = None) -> int:
        """The column of the path word with range anchor (r(word[0]) if None;
        the vertex anchor for an empty word), one child step per edge;
        KeyError if the basis holds no such path."""
        i = self.column[self.graph.r(word[0]) if anchor is None else anchor]
        for eid in word:
            i = self.child[(i, eid)]
        return i

    @property
    def labels(self) -> tuple[Path, ...]:
        if self._labels is None:
            g, nv = self.graph, len(self.column)
            words: list = [()] * nv
            for p, eid in zip(self.parent[nv:], self.last[nv:]):
                words.append(words[p] + (eid,))
            self._labels = tuple(vertex_path(g, v) for v in self.column) + tuple(
                Path._composed(g, w) for w in words[nv:]
            )
        return self._labels

    def __len__(self) -> int:
        return len(self.lengths)


class SparseOperator:
    """A linear operator stored as a sparse matrix over a shared path basis.

    Entry (r, c) is num[(r, c)] / den: int numerators over one positive int
    denominator.  num holds nonzero numerators only.  Numerators are never
    reduced by a gcd; comparison cross-multiplies.
    """

    __slots__ = ("basis", "num", "den")

    def __init__(self, basis: Basis, entries: Optional[dict] = None):
        self.basis = basis
        self.num: dict[tuple[int, int], int] = {}
        self.den = 1
        if entries:
            parts = {rc: _parts(val) for rc, val in entries.items()}
            self.den = math.lcm(*(d for _, d in parts.values()))
            for rc, (a, d) in parts.items():
                if a:
                    self.num[rc] = a * (self.den // d)

    @classmethod
    def _of(cls, basis: Basis, num: dict, den: int = 1) -> "SparseOperator":
        """An operator owning a dict of nonzero int numerators over den."""
        op = cls.__new__(cls)
        op.basis = basis
        op.num = num
        op.den = den
        return op

    @property
    def entries(self) -> "Entries":
        """The entries as a read-only {(r, c): Fraction} mapping, each built on read."""
        return Entries(self)

    def _same_basis(self, other: "SparseOperator") -> None:
        if self.basis is not other.basis:
            raise PreconditionError("operators live on different bases")

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        return _lincomb(self.basis, ((1, self), (1, other)))

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        return _lincomb(self.basis, ((1, self), (-1, other)))

    def scale(self, c: RatLike) -> "SparseOperator":
        return _lincomb(self.basis, ((c, self),))

    def __matmul__(self, other: "SparseOperator") -> "SparseOperator":
        self._same_basis(other)
        by_col_left: dict[int, list[tuple[int, int]]] = {}
        for (r, k), v in self.num.items():
            by_col_left.setdefault(k, []).append((r, v))
        num: dict[tuple[int, int], int] = {}
        get = num.get
        for (k, c), bv in other.num.items():
            for r, av in by_col_left.get(k, ()):
                rc = (r, c)
                s = get(rc, 0) + av * bv
                if s:
                    num[rc] = s
                else:
                    del num[rc]
        return SparseOperator._of(self.basis, num, self.den * other.den)

    def adjoint(self) -> "SparseOperator":
        return SparseOperator._of(
            self.basis, {(c, r): v for (r, c), v in self.num.items()}, self.den
        )

    def __eq__(self, other: object) -> bool:
        if not (isinstance(other, SparseOperator) and self.basis is other.basis):
            return False
        if self.den == other.den:
            return self.num == other.num
        return _agree(self, other, None)

    def is_zero(self) -> bool:
        return not self.num

    def equal_on_columns(self, other: "SparseOperator", max_len: int) -> bool:
        """Exact equality restricted to columns of basis paths of length <= max_len."""
        self._same_basis(other)
        return _agree(self, other, max_len)

    def restrict_columns(self, keep) -> "SparseOperator":
        """Zero out all columns whose index is not accepted by keep(col)."""
        return SparseOperator._of(
            self.basis, {rc: v for rc, v in self.num.items() if keep(rc[1])}, self.den
        )

    def column(self, c: int) -> dict[int, Fraction]:
        return {r: Fraction(v, self.den) for (r, k), v in self.num.items() if k == c}

    def to_dense(self) -> np.ndarray:
        import numpy as np

        n = len(self.basis)
        out = np.zeros((n, n))
        for (r, c), v in self.num.items():
            out[r, c] = v / self.den  # int true division rounds correctly
        return out

    def __repr__(self) -> str:
        return f"SparseOperator({len(self.num)} entries on {len(self.basis)} basis paths)"


class Entries(Mapping):
    """The {(r, c): Fraction} view of an operator's entries.

    Only nonzero entries are present; len and iteration cost no Fraction.
    A value is built as a Fraction when it is read.
    """

    __slots__ = ("_op",)

    def __init__(self, op: SparseOperator):
        self._op = op

    def __len__(self) -> int:
        return len(self._op.num)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._op.num)

    def __contains__(self, rc: object) -> bool:
        return rc in self._op.num

    def __getitem__(self, rc: tuple[int, int]) -> Fraction:
        return Fraction(self._op.num[rc], self._op.den)


def _agree(x: SparseOperator, y: SparseOperator, max_len: Optional[int]) -> bool:
    """Whether x and y have equal entries in the columns of basis paths of
    length <= max_len (every column for None), by cross-multiplication."""
    lengths = x.basis.lengths
    a, b = x.num, y.num
    dx, dy = x.den, y.den
    for rc, v in a.items():
        if (max_len is None or lengths[rc[1]] <= max_len) and b.get(rc, 0) * dx != v * dy:
            return False
    for rc in b:
        if (max_len is None or lengths[rc[1]] <= max_len) and rc not in a:
            return False
    return True


def rank_on_columns(op: SparseOperator, cols: Iterable[int]) -> int:
    """Rank over the rationals of the submatrix with the given columns (all
    rows): the column count less the free rank of the kernel of its integer
    numerators, one common denominator being no change of rank."""
    wanted = set(cols)
    rows: dict[int, dict[int, int]] = {}
    for (r, c), val in op.num.items():
        if c in wanted:
            rows.setdefault(r, {})[c] = val
    _, ker = _coker_ker_rows(list(rows.values()), len(wanted))
    return len(wanted) - ker.free_rank


class TruncatedRep:
    """Generator matrices of the path-space representation, truncated at length L."""

    def __init__(self, graph: Graph, L: int):
        if L < 1:
            raise PreconditionError("build_rep requires L >= 1")
        diag = validate(graph)
        if diag.sources:
            raise PreconditionError(
                f"graph has sources {sorted(diag.sources)}; path-space truncation "
                "assumes none"
            )
        self.graph = graph
        self.L = L
        # one pass over the lengths, each layer extending the last, so every
        # word composes by construction and no Path is built.  Layer 1 is in
        # edge-id order; each later layer takes the columns of the one before
        # in order, each followed by the edges received at its source in id
        # order, so every layer is in lexicographic order.
        self.basis = basis = Basis(graph)
        lengths, parents, last, child = basis.lengths, basis.parent, basis.last, basis.child
        ranges = list(basis.column)  # r(p) of each column
        tails = list(ranges)  # s(p) of each column
        received = _received_by_id(graph)
        # (edge, source, parent) per column of the next layer
        layer = sorted((e.id, e.src, basis.column[e.dst]) for e in graph.edges)
        for n in range(1, L + 1):
            start = len(lengths)
            for eid, src, parent in layer:
                child[(parent, eid)] = len(lengths)
                lengths.append(n)
                parents.append(parent)
                last.append(eid)
                ranges.append(ranges[parent])
                tails.append(src)
            # made as the next pass reads it, so no layer past L is built
            layer = (
                (eid, src, i) for i in range(start, len(lengths)) for eid, src in received[tails[i]]
            )
        # basis columns grouped by range vertex, in basis (so length) order
        self._by_range: dict[str, list[int]] = {v: [] for v in graph.vertices}
        for i, v in enumerate(ranges):
            self._by_range[v].append(i)
        self.Q: dict[str, SparseOperator] = {
            v: SparseOperator._of(self.basis, {(i, i): 1 for i in cols})
            for v, cols in self._by_range.items()
        }
        self.T: dict[str, SparseOperator] = {
            e.id: self._prepend((e.id,), e.src) for e in graph.edges
        }

    def zero(self) -> SparseOperator:
        return SparseOperator(self.basis)

    def identity(self) -> SparseOperator:
        return SparseOperator._of(self.basis, {(i, i): 1 for i in range(len(self.basis))})

    def creation(self, mu: Path) -> SparseOperator:
        """T_mu = prepend mu (the product T_{mu_1} ... T_{mu_n}), built directly."""
        if not mu.edge_ids:
            return self.Q[mu.anchor]
        return self._prepend(mu.edge_ids, mu.s)

    def _prepend(self, word: tuple[str, ...], src: str) -> SparseOperator:
        """The operator sending each path p with r(p) = src and |word p| <= L to
        word p; every other column is annihilated.

        In basis order a parent p' comes before p = p' f, and word p is the
        child of word p' by f, so each row is one lookup from the row before.
        """
        basis = self.basis
        lengths, parent, last, child = basis.lengths, basis.parent, basis.last, basis.child
        cap = self.L - len(word)
        row: dict[int, int] = {}
        for i in self._by_range.get(src, ()):
            if lengths[i] > cap:
                break
            if lengths[i]:
                row[i] = child[(row[parent[i]], last[i])]
            else:
                row[i] = basis.find(word)
        return SparseOperator._of(basis, {(r, i): 1 for i, r in row.items()})

    def delta(self, v: str) -> SparseOperator:
        """Defect projection Q_v - sum_{e in vE1} T_e T_e*."""
        terms = [(1, self.Q[v])]
        for e in self.graph.received(v):
            t = self.T[e.id]
            terms.append((-1, t @ t.adjoint()))
        return combo(self, terms)

    def interior_cols(self, depth: int):
        return [i for i, n in enumerate(self.basis.lengths) if n <= self.L - depth]


def build_rep(g: Graph, L: int) -> TruncatedRep:
    return TruncatedRep(g, L)


def combo(
    rep: TruncatedRep, terms: Iterable[tuple[RatLike, SparseOperator]]
) -> SparseOperator:
    """The linear combination sum c X over the (c, X) in terms, on rep's basis.

    All terms are added into one numerator dict, with no operator built per
    term.  Entries that cancel to zero are dropped;
    an empty terms gives the zero operator.  A term on another basis raises
    PreconditionError.
    """
    return _lincomb(rep.basis, terms)


def _lincomb(
    basis: Basis, terms: Iterable[tuple[RatLike, SparseOperator]]
) -> SparseOperator:
    """The one accumulation loop behind combo, +, - and scale.

    With c = a / d, each term c X adds k a X.num to the numerators, where
    k = den / (d X.den) and den, the lcm of the terms' d X.den, is found once
    up front.  A sum that reaches zero leaves the dict.
    """
    scaled = []
    den = 1
    for c, op in terms:
        if op.basis is not basis:
            raise PreconditionError("operators live on different bases")
        a, d = _parts(c)
        if a:
            d *= op.den
            scaled.append((a, d, op))
            if den % d:
                den = math.lcm(den, d)
    num: dict[tuple[int, int], int] = {}
    get = num.get
    for a, d, op in scaled:
        m = a * (den // d)
        for rc, v in op.num.items():
            if m != 1:
                v *= m
            old = get(rc)
            if old is None:
                num[rc] = v
            else:
                s = old + v
                if s:
                    num[rc] = s
                else:
                    del num[rc]
    return SparseOperator._of(basis, num, den)


def norm_squared(op: SparseOperator) -> Fraction:
    """Exact squared operator 2-norm ||A||^2 = max diag(A*A) when A*A is diagonal.

    When no row of A holds two entries the columns have disjoint row supports,
    so A*A is diagonal and its diagonal is the sum of a_rc^2 down each
    column.  Otherwise A*A is formed exactly; an operator whose A*A is not
    diagonal is refused rather than estimated.  No command calls it: it is
    the reference that sum_sq_norm, which the limit sweep uses, is tested against.
    """
    num = op.num
    if len({r for r, _ in num}) == len(num):
        diag: dict[int, int] = {}
        for (_, c), v in num.items():
            diag[c] = diag.get(c, 0) + v * v
        return Fraction(max(diag.values(), default=0), op.den * op.den)
    gram = op.adjoint() @ op
    if any(r != c for r, c in gram.num):
        raise PreconditionError("norm_squared needs A*A diagonal")
    return Fraction(max(gram.num.values(), default=0), gram.den)


def sum_sq_norm(gens: Sequence[SparseOperator]):
    """sq with sq(c) = ||sum_k c_k G_k||^2 for int coefficients c_k, exact and
    with no operator formed, for integer matrices G_k no two of which share a
    row (checked here, once; PreconditionError if not).

    The sum then has at most one entry per row, so as in norm_squared's
    diagonal case its squared norm is the max over columns c of
    sum_k c_k^2 w_k(c), w_k(c) the sum of G_k's squared entries in column c.
    That sum depends on c through its profile ((k, w_k(c)) for w_k(c) != 0)
    alone, so each distinct profile is summed once.
    """
    rows: set[int] = set()
    nnz = 0
    cols: dict[int, dict[int, int]] = {}
    for k, op in enumerate(gens):
        if op.den != 1:
            raise PreconditionError("sum_sq_norm needs integer generators")
        nnz += len(op.num)
        for (r, c), v in op.num.items():
            rows.add(r)
            col = cols.setdefault(c, {})
            col[k] = col.get(k, 0) + v * v
    if len(rows) != nnz:
        raise PreconditionError("sum_sq_norm needs generators with disjoint rows")
    profiles = {tuple(col.items()) for col in cols.values()}

    def sq(coeffs: Sequence[int]) -> int:
        return max((sum(coeffs[k] ** 2 * w for k, w in p) for p in profiles), default=0)

    return sq


def operator_norm_est(op: SparseOperator, tol: float = 1e-9, restarts: int = 20) -> float:
    """Float estimate of the operator 2-norm by power iteration on A*A,
    which approaches the norm from below."""
    import numpy as np

    if op.is_zero():
        return 0.0
    a = op.to_dense()
    b = a.T @ a
    n = b.shape[0]
    rng = np.random.default_rng(0)
    best = 0.0
    for _ in range(restarts):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(1000):
            w = b @ v
            nw = np.linalg.norm(w)
            if nw == 0:
                break
            v = w / nw
            new_lam = float(v @ (b @ v))
            if abs(new_lam - lam) <= tol * max(1.0, abs(new_lam)):
                lam = new_lam
                break
            lam = new_lam
        best = max(best, lam)
    return float(np.sqrt(max(best, 0.0)))
