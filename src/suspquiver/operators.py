"""Sparse operators with exact rational-complex scalars, and the truncated
path-space representation.

The basis of a truncated representation is the set of paths of length at most
L, ordered by (length, lexicographic edge ids); T_e prepends an edge and
annihilates anything that would exceed the cap, Q_v is the diagonal projection
onto paths with range v.  Identities are asserted on interior masks (columns
indexed by paths of length at most L - depth) where truncation artifacts
cannot reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from .errors import PreconditionError, StructuralError
from .graph import Graph, Path, enumerate_paths, validate

if TYPE_CHECKING:
    import numpy as np

RatLike = Union[int, Fraction, "QC"]


@dataclass(frozen=True)
class QC:
    """An exact rational complex scalar re + im*i."""

    re: Fraction
    im: Fraction = Fraction(0)

    @staticmethod
    def of(x: RatLike) -> "QC":
        if isinstance(x, QC):
            return x
        return QC(Fraction(x))

    # Real operands (both imaginary parts 0) are the common case; they skip
    # the complex formula, whose value would be the same.
    def __add__(self, other: RatLike) -> "QC":
        o = QC.of(other)
        if not (self.im or o.im):
            return QC(self.re + o.re)
        return QC(self.re + o.re, self.im + o.im)

    def __sub__(self, other: RatLike) -> "QC":
        o = QC.of(other)
        if not (self.im or o.im):
            return QC(self.re - o.re)
        return QC(self.re - o.re, self.im - o.im)

    def __neg__(self) -> "QC":
        return QC(-self.re, -self.im)

    def __mul__(self, other: RatLike) -> "QC":
        o = QC.of(other)
        if not (self.im or o.im):
            return QC(self.re * o.re)
        return QC(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, other: RatLike) -> "QC":
        o = QC.of(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero scalar")
        return self * QC(o.re / d, -o.im / d)

    def conj(self) -> "QC":
        return QC(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"({self.re}+{self.im}i)"


QC_ZERO = QC(Fraction(0))
QC_ONE = QC(Fraction(1))
QC_MINUS_ONE = QC(Fraction(-1))


class Basis:
    """An ordered path basis, indexed by (edge ids, anchor), with path lengths."""

    def __init__(self, labels: Sequence[Path]):
        self.labels: tuple[Path, ...] = tuple(labels)
        self.index: dict[tuple[tuple[str, ...], Optional[str]], int] = {
            (p.edge_ids, p.anchor): i for i, p in enumerate(self.labels)
        }
        if len(self.index) != len(self.labels):
            raise StructuralError("duplicate basis labels")
        self.lengths: tuple[int, ...] = tuple(len(p) for p in self.labels)

    def __len__(self) -> int:
        return len(self.labels)


class SparseOperator:
    """A linear operator stored as a sparse matrix over a shared path basis."""

    def __init__(self, basis: Basis, entries: Optional[dict] = None):
        self.basis = basis
        self.entries: dict[tuple[int, int], QC] = {}
        if entries:
            for rc, val in entries.items():
                q = QC.of(val)
                if q:
                    self.entries[rc] = q

    @classmethod
    def _wrap(cls, basis: Basis, entries: dict) -> "SparseOperator":
        """An operator owning entries that are already nonzero QC values."""
        op = cls.__new__(cls)
        op.basis = basis
        op.entries = entries
        return op

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
        by_col_left: dict[int, list[tuple[int, QC]]] = {}
        for (r, c), val in self.entries.items():
            by_col_left.setdefault(c, []).append((r, val))
        out: dict[tuple[int, int], QC] = {}
        for (k, c), bval in other.entries.items():
            for r, aval in by_col_left.get(k, ()):
                s = out.get((r, c), QC_ZERO) + aval * bval
                if s:
                    out[(r, c)] = s
                else:
                    out.pop((r, c), None)
        return SparseOperator._wrap(self.basis, out)

    def adjoint(self) -> "SparseOperator":
        return SparseOperator._wrap(
            self.basis, {(c, r): val.conj() for (r, c), val in self.entries.items()}
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SparseOperator)
            and self.basis is other.basis
            and self.entries == other.entries
        )

    def is_zero(self) -> bool:
        return not self.entries

    def equal_on_columns(self, other: "SparseOperator", max_len: int) -> bool:
        """Exact equality restricted to columns of basis paths of length <= max_len."""
        self._same_basis(other)
        lengths = self.basis.lengths
        for rc, val in self.entries.items():
            if lengths[rc[1]] <= max_len and other.entries.get(rc, QC_ZERO) != val:
                return False
        for rc, val in other.entries.items():
            if lengths[rc[1]] <= max_len and rc not in self.entries:
                return False
        return True

    def restrict_columns(self, keep) -> "SparseOperator":
        """Zero out all columns whose index is not accepted by keep(col)."""
        return SparseOperator._wrap(
            self.basis, {rc: v for rc, v in self.entries.items() if keep(rc[1])}
        )

    def column(self, c: int) -> dict[int, QC]:
        return {r: v for (r, cc), v in self.entries.items() if cc == c}

    def to_dense(self) -> np.ndarray:
        import numpy as np

        n = len(self.basis)
        out = np.zeros((n, n), dtype=complex)
        for (r, c), val in self.entries.items():
            out[r, c] = complex(val)
        return out

    def __repr__(self) -> str:
        return f"SparseOperator({len(self.entries)} entries on {len(self.basis)} basis paths)"


def rank_on_columns(op: SparseOperator, cols: Iterable[int]) -> int:
    """Rank over the rationals of the submatrix with the given columns (all rows)."""
    pivots: list[tuple[int, dict[int, QC]]] = []  # (pivot row, reduced column)
    for c in cols:
        vec = op.column(c)
        for prow, pvec in pivots:
            coeff = vec.get(prow)
            if coeff:
                for r, v in pvec.items():
                    s = vec.get(r, QC_ZERO) - coeff * v
                    if s:
                        vec[r] = s
                    else:
                        vec.pop(r, None)
        if vec:
            prow = min(vec)
            pivot = vec[prow]
            pivots.append((prow, {r: v / pivot for r, v in vec.items()}))
    return len(pivots)


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
        labels: list[Path] = []
        for n in range(L + 1):
            labels.extend(enumerate_paths(graph, n))
        self.basis = Basis(labels)
        # basis columns grouped by range vertex, in basis (so length) order
        self._by_range: dict[str, list[int]] = {v: [] for v in graph.vertices}
        for i, p in enumerate(labels):
            self._by_range[p.r].append(i)
        self.Q: dict[str, SparseOperator] = {
            v: SparseOperator._wrap(self.basis, {(i, i): QC_ONE for i in cols})
            for v, cols in self._by_range.items()
        }
        self.T: dict[str, SparseOperator] = {
            e.id: self._prepend((e.id,), e.src) for e in graph.edges
        }

    def zero(self) -> SparseOperator:
        return SparseOperator(self.basis)

    def identity(self) -> SparseOperator:
        diagonal = {(i, i): QC_ONE for i in range(len(self.basis))}
        return SparseOperator._wrap(self.basis, diagonal)

    def creation(self, mu: Path) -> SparseOperator:
        """T_mu = prepend mu (the product T_{mu_1} ... T_{mu_n}), built directly."""
        if not mu.edge_ids:
            return self.Q[mu.anchor]
        return self._prepend(mu.edge_ids, mu.s)

    def _prepend(self, word: tuple[str, ...], src: str) -> SparseOperator:
        """The operator sending each path p with r(p) = src and |word p| <= L to
        word p, found by its edge ids; every other column is annihilated."""
        labels, lengths, index = self.basis.labels, self.basis.lengths, self.basis.index
        cap = self.L - len(word)
        ent = {}
        for i in self._by_range.get(src, ()):
            if lengths[i] > cap:
                break
            ent[(index[(word + labels[i].edge_ids, None)], i)] = QC_ONE
        return SparseOperator._wrap(self.basis, ent)

    def delta(self, v: str) -> SparseOperator:
        """Defect projection Q_v - sum_{e in vE1} T_e T_e*."""
        terms = [(1, self.Q[v])]
        for e in self.graph.received(v):
            t = self.T[e.id]
            terms.append((-1, t @ t.adjoint()))
        return combo(self, terms)

    def interior_cols(self, depth: int):
        return [i for i, n in enumerate(self.basis.lengths) if n <= self.L - depth]

    def basis_vector(self, p: Path) -> int:
        return self.basis.index[(p.edge_ids, p.anchor)]

    def vertex_index(self, v: str) -> int:
        return self.basis.index[((), v)]


def build_rep(g: Graph, L: int) -> TruncatedRep:
    return TruncatedRep(g, L)


def combo(
    rep: TruncatedRep, terms: Iterable[tuple[RatLike, SparseOperator]]
) -> SparseOperator:
    """The linear combination sum c X over the (c, X) in terms, on rep's basis.

    All terms are added into one dict, with no operator built per term.
    Entries that cancel to zero are dropped, so == keeps comparing entries;
    an empty terms gives the zero operator.  A term on another basis raises
    PreconditionError.
    """
    return _lincomb(rep.basis, terms)


def _lincomb(
    basis: Basis, terms: Iterable[tuple[RatLike, SparseOperator]]
) -> SparseOperator:
    """The one accumulation loop behind combo, +, - and scale.

    Entries are added as they are for c = 1 and subtracted for c = -1; any
    other c multiplies them (the shared QC_ONE of a generator entry needs no
    product).  A sum that reaches zero leaves the dict at once.
    """
    acc: dict[tuple[int, int], QC] = {}
    get = acc.get
    for c, op in terms:
        if op.basis is not basis:
            raise PreconditionError("operators live on different bases")
        cq = QC.of(c)
        if not cq:
            continue
        neg = cq == QC_MINUS_ONE
        unit = neg or cq == QC_ONE
        for rc, val in op.entries.items():
            if not unit:
                val = cq if val is QC_ONE else val * cq
            old = get(rc)
            if old is None:
                acc[rc] = -val if neg else val
            else:
                s = old - val if neg else old + val
                if s:
                    acc[rc] = s
                else:
                    del acc[rc]
    return SparseOperator._wrap(basis, acc)


def norm_squared(op: SparseOperator) -> Fraction:
    """Exact squared operator 2-norm ||A||^2 = max diag(A*A) when A*A is diagonal.

    When no row of A holds two entries the columns have disjoint row supports,
    so A*A is diagonal and its diagonal is the sum of |a_rc|^2 down each
    column.  Otherwise A*A is formed exactly; an operator whose A*A is not
    diagonal is refused rather than estimated.
    """
    rows: set[int] = set()
    diag: dict[int, Fraction] = {}
    for (r, c), val in op.entries.items():
        if r in rows:
            break
        rows.add(r)
        sq = val.re * val.re + val.im * val.im if val.im else val.re * val.re
        old = diag.get(c)
        diag[c] = sq if old is None else old + sq
    else:
        return max(diag.values(), default=Fraction(0))
    gram = op.adjoint() @ op
    if any(r != c for r, c in gram.entries):
        raise PreconditionError("norm_squared needs A*A diagonal")
    return max((val.re for val in gram.entries.values()), default=Fraction(0))


def operator_norm_est(op: SparseOperator, tol: float = 1e-9, restarts: int = 20) -> float:
    """Float estimate of the operator 2-norm by power iteration on A*A.

    Power iteration approaches the norm from below; the companion
    operator_norm_upper gives a certified upper bound.
    """
    import numpy as np

    if not op.entries:
        return 0.0
    a = op.to_dense()
    b = a.conj().T @ a
    n = b.shape[0]
    rng = np.random.default_rng(0)
    best = 0.0
    for _ in range(restarts):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(1000):
            w = b @ v
            nw = np.linalg.norm(w)
            if nw == 0:
                break
            v = w / nw
            new_lam = float(np.real(np.vdot(v, b @ v)))
            if abs(new_lam - lam) <= tol * max(1.0, abs(new_lam)):
                lam = new_lam
                break
            lam = new_lam
        best = max(best, lam)
    return float(np.sqrt(max(best, 0.0)))


def operator_norm_upper(op: SparseOperator) -> float:
    """Certified upper bound sqrt(|A|_1 * |A|_inf) on the operator 2-norm."""
    if not op.entries:
        return 0.0
    rows: dict[int, float] = {}
    cols: dict[int, float] = {}
    for (r, c), val in op.entries.items():
        m = abs(complex(val))
        rows[r] = rows.get(r, 0.0) + m
        cols[c] = cols.get(c, 0.0) + m
    return math.sqrt(max(rows.values()) * max(cols.values()))
