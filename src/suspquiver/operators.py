"""Sparse operators with exact rational-complex entries, and the truncated
path-space representation.

An operator's entries are Python int numerators over one positive int
denominator, so the kernel (linear combinations, products, adjoints, exact
norms and comparisons) runs on ints alone; the exact scalar QC appears only
at the boundary, in scalar arguments and in the {(r, c): QC} entries view.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, Union

from .errors import PreconditionError, StructuralError
from .graph import Graph, Path, _path_layers, validate, vertex_path

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


def _parts(c: RatLike) -> tuple[int, int, int]:
    """The ints (a, b, d) with c = (a + b i) / d and d > 0."""
    if type(c) is int:
        return c, 0, 1
    if type(c) is Fraction:
        return c.numerator, 0, c.denominator
    q = QC.of(c)
    re, im = q.re, q.im
    d = math.lcm(re.denominator, im.denominator)
    return re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d


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
    """A linear operator stored as a sparse matrix over a shared path basis.

    Entry (r, c) is (re[(r, c)] + im[(r, c)] i) / den: int numerators over one
    positive int denominator.  Both dicts hold nonzero numerators only, and im
    is empty for a real operator, so every loop below skips it at no cost.
    Numerators are never reduced by a gcd; comparison cross-multiplies.
    """

    __slots__ = ("basis", "re", "im", "den")

    def __init__(self, basis: Basis, entries: Optional[dict] = None):
        self.basis = basis
        self.re: dict[tuple[int, int], int] = {}
        self.im: dict[tuple[int, int], int] = {}
        self.den = 1
        if entries:
            parts = {rc: _parts(val) for rc, val in entries.items()}
            self.den = math.lcm(*(d for _, _, d in parts.values()))
            for rc, (a, b, d) in parts.items():
                k = self.den // d
                if a:
                    self.re[rc] = a * k
                if b:
                    self.im[rc] = b * k

    @classmethod
    def _of(
        cls, basis: Basis, re: dict, im: Optional[dict] = None, den: int = 1
    ) -> "SparseOperator":
        """An operator owning dicts of nonzero int numerators over den."""
        op = cls.__new__(cls)
        op.basis = basis
        op.re = re
        op.im = {} if im is None else im
        op.den = den
        return op

    @property
    def entries(self) -> "Entries":
        """The entries as a read-only {(r, c): QC} mapping, each built on read."""
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
        # (A + iB)(C + iD) = (AC - BD) + i(AD + BC), over den(A) den(C)
        self._same_basis(other)
        re: dict[tuple[int, int], int] = {}
        im: dict[tuple[int, int], int] = {}
        _add_product(re, self.re, other.re, 1)
        _add_product(re, self.im, other.im, -1)
        _add_product(im, self.re, other.im, 1)
        _add_product(im, self.im, other.re, 1)
        return SparseOperator._of(self.basis, re, im, self.den * other.den)

    def adjoint(self) -> "SparseOperator":
        return SparseOperator._of(
            self.basis,
            {(c, r): v for (r, c), v in self.re.items()},
            {(c, r): -v for (r, c), v in self.im.items()},
            self.den,
        )

    def __eq__(self, other: object) -> bool:
        if not (isinstance(other, SparseOperator) and self.basis is other.basis):
            return False
        if self.den == other.den:
            return self.re == other.re and self.im == other.im
        return _agree(self, other, None)

    def is_zero(self) -> bool:
        return not (self.re or self.im)

    def equal_on_columns(self, other: "SparseOperator", max_len: int) -> bool:
        """Exact equality restricted to columns of basis paths of length <= max_len."""
        self._same_basis(other)
        return _agree(self, other, max_len)

    def restrict_columns(self, keep) -> "SparseOperator":
        """Zero out all columns whose index is not accepted by keep(col)."""
        return SparseOperator._of(
            self.basis,
            {rc: v for rc, v in self.re.items() if keep(rc[1])},
            {rc: v for rc, v in self.im.items() if keep(rc[1])},
            self.den,
        )

    def column(self, c: int) -> dict[int, QC]:
        ent = self.entries
        return {rc[0]: ent[rc] for rc in ent if rc[1] == c}

    def to_dense(self) -> np.ndarray:
        import numpy as np

        n = len(self.basis)
        out = np.zeros((n, n), dtype=complex)
        for (r, c), val in self.entries.items():
            out[r, c] = complex(val)
        return out

    def __repr__(self) -> str:
        return f"SparseOperator({len(self.entries)} entries on {len(self.basis)} basis paths)"


class Entries(Mapping):
    """The {(r, c): QC} view of an operator's entries.

    Only nonzero entries are present; len is the number of nonzero entries and
    costs no QC.  A value is built as a QC when it is read.
    """

    __slots__ = ("_op",)

    def __init__(self, op: SparseOperator):
        self._op = op

    def __len__(self) -> int:
        re, im = self._op.re, self._op.im
        return len(re.keys() | im.keys()) if im else len(re)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        re, im = self._op.re, self._op.im
        yield from re
        yield from (rc for rc in im if rc not in re)

    def __contains__(self, rc: object) -> bool:
        return rc in self._op.re or rc in self._op.im

    def __getitem__(self, rc: tuple[int, int]) -> QC:
        op = self._op
        a, b = op.re.get(rc, 0), op.im.get(rc, 0)
        if not (a or b):
            raise KeyError(rc)
        return QC(Fraction(a, op.den), Fraction(b, op.den))


def _add_scaled(acc: dict, src: dict, m: int) -> None:
    """acc += m * src on int numerators; a sum that reaches zero leaves acc."""
    if not (m and src):
        return
    get = acc.get
    for rc, v in src.items():
        if m != 1:
            v *= m
        old = get(rc)
        if old is None:
            acc[rc] = v
        else:
            s = old + v
            if s:
                acc[rc] = s
            else:
                del acc[rc]


def _add_product(acc: dict, a: dict, b: dict, sign: int) -> None:
    """acc += sign * (a @ b) on int numerators keyed by (row, col)."""
    if not (a and b):
        return
    by_col_left: dict[int, list[tuple[int, int]]] = {}
    for (r, k), v in a.items():
        by_col_left.setdefault(k, []).append((r, v * sign))
    get = acc.get
    for (k, c), bv in b.items():
        for r, av in by_col_left.get(k, ()):
            rc = (r, c)
            s = get(rc, 0) + av * bv
            if s:
                acc[rc] = s
            else:
                del acc[rc]


def _agree(x: SparseOperator, y: SparseOperator, max_len: Optional[int]) -> bool:
    """Whether x and y have equal entries in the columns of basis paths of
    length <= max_len (every column for None), by cross-multiplication."""
    lengths = x.basis.lengths
    dx, dy = x.den, y.den
    for a, b in ((x.re, y.re), (x.im, y.im)):
        for rc, v in a.items():
            if (max_len is None or lengths[rc[1]] <= max_len) and b.get(rc, 0) * dx != v * dy:
                return False
        for rc in b:
            if (max_len is None or lengths[rc[1]] <= max_len) and rc not in a:
                return False
    return True


def rank_on_columns(op: SparseOperator, cols: Iterable[int]) -> int:
    """Rank over the rationals of the submatrix with the given columns (all rows)."""
    cols = list(cols)
    wanted = set(cols)
    by_col: dict[int, dict[int, QC]] = {}
    for (r, c), val in op.entries.items():
        if c in wanted:
            by_col.setdefault(c, {})[r] = val
    pivots: list[tuple[int, dict[int, QC]]] = []  # (pivot row, reduced column)
    for c in cols:
        vec = dict(by_col.get(c, {}))
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
        # one pass over the lengths, each layer extending the last, so every
        # label composes by construction and is not walked again
        labels = [vertex_path(graph, v) for v in sorted(graph.vertices)]
        for _, layer in zip(range(L), _path_layers(graph)):
            labels.extend(Path._composed(graph, ids) for ids, _ in layer)
        self.basis = Basis(labels)
        # basis columns grouped by range vertex, in basis (so length) order
        self._by_range: dict[str, list[int]] = {v: [] for v in graph.vertices}
        for i, p in enumerate(labels):
            self._by_range[p.r].append(i)
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
        word p, found by its edge ids; every other column is annihilated."""
        labels, lengths, index = self.basis.labels, self.basis.lengths, self.basis.index
        cap = self.L - len(word)
        ent = {}
        for i in self._by_range.get(src, ()):
            if lengths[i] > cap:
                break
            ent[(index[(word + labels[i].edge_ids, None)], i)] = 1
        return SparseOperator._of(self.basis, ent)

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

    All terms are added into one pair of numerator dicts, with no operator
    built per term.  Entries that cancel to zero are dropped;
    an empty terms gives the zero operator.  A term on another basis raises
    PreconditionError.
    """
    return _lincomb(rep.basis, terms)


def _lincomb(
    basis: Basis, terms: Iterable[tuple[RatLike, SparseOperator]]
) -> SparseOperator:
    """The one accumulation loop behind combo, +, - and scale.

    With c = (a + b i) / d, each term c X adds k(a X.re - b X.im) to the real
    and k(a X.im + b X.re) to the imaginary numerators, where k = den / (d
    X.den) and den, the lcm of the terms' d X.den, is found once up front.
    """
    scaled = []
    den = 1
    for c, op in terms:
        if op.basis is not basis:
            raise PreconditionError("operators live on different bases")
        a, b, d = _parts(c)
        if a or b:
            d *= op.den
            scaled.append((a, b, d, op))
            if den % d:
                den = math.lcm(den, d)
    re: dict[tuple[int, int], int] = {}
    im: dict[tuple[int, int], int] = {}
    for a, b, d, op in scaled:
        k = den // d
        _add_scaled(re, op.re, a * k)
        _add_scaled(re, op.im, -b * k)
        _add_scaled(im, op.im, a * k)
        _add_scaled(im, op.re, b * k)
    return SparseOperator._of(basis, re, im, den)


def norm_squared(op: SparseOperator) -> Fraction:
    """Exact squared operator 2-norm ||A||^2 = max diag(A*A) when A*A is diagonal.

    When no row of A holds two entries the columns have disjoint row supports,
    so A*A is diagonal and its diagonal is the sum of |a_rc|^2 down each
    column.  Otherwise A*A is formed exactly; an operator whose A*A is not
    diagonal is refused rather than estimated.
    """
    keys = op.re.keys() | op.im.keys() if op.im else op.re.keys()
    if len({r for r, _ in keys}) == len(keys):
        diag: dict[int, int] = {}
        for part in (op.re, op.im):
            for (_, c), v in part.items():
                diag[c] = diag.get(c, 0) + v * v
        return Fraction(max(diag.values(), default=0), op.den * op.den)
    gram = op.adjoint() @ op
    if gram.im or any(r != c for r, c in gram.re):
        raise PreconditionError("norm_squared needs A*A diagonal")
    return Fraction(max(gram.re.values(), default=0), gram.den)


def operator_norm_est(op: SparseOperator, tol: float = 1e-9, restarts: int = 20) -> float:
    """Float estimate of the operator 2-norm by power iteration on A*A,
    which approaches the norm from below."""
    import numpy as np

    if op.is_zero():
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
