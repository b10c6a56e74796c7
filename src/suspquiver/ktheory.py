"""Integer linear algebra and the K-theoretic / homological invariants.

Cokernels and kernels (the K-groups of ``1 - (A^T)^m`` and the homology of
the boundary map) come from one core on sparse rows: every +-1 pivot is
eliminated in place, and only the rows left without a unit entry are
densified for the Euclidean elimination. ``smith_normal_form`` runs that
dense elimination on the whole matrix, with unimodular witnesses. Groups are
reported as free rank plus invariant factors d_1 | d_2 | ... (no factors 1
stored).
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import NamedTuple, Optional

from .errors import PreconditionError
from .graph import Graph, IntMatrix, _Frozen, validate
from .transform import higher_dual, opposite


class AbelianGroup(_Frozen):
    """Z^free_rank (+) Z/d1 (+) ... with d1 | d2 | ... and every di >= 2."""

    __slots__ = ("free_rank", "torsion")
    _key = attrgetter(*__slots__)

    def __init__(self, free_rank: int, torsion: tuple[int, ...] = ()):
        if free_rank < 0 or any(d < 2 for d in torsion):
            raise PreconditionError("bad group data")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise PreconditionError("invariant factors must form a divisor chain")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " (+) ".join(parts) if parts else "0"


def _divisor_chain(factors) -> tuple[int, ...]:
    """The invariant factors >= 2 of (+) Z/d over ``factors``, as a divisor chain."""
    factors = sorted(abs(d) for d in factors if abs(d) > 1)
    # merge into a divisor chain by repeated gcd/lcm exchanges
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            x, y = factors[i], factors[i + 1]
            if y % x:
                g, l = math.gcd(x, y), x * y // math.gcd(x, y)
                factors[i], factors[i + 1] = g, l
                changed = True
        factors.sort()
    return tuple(d for d in factors if d > 1)


def direct_sum(a: AbelianGroup, b: AbelianGroup) -> AbelianGroup:
    """Direct sum, re-canonicalized to a divisor chain."""
    return AbelianGroup(a.free_rank + b.free_rank, _divisor_chain(a.torsion + b.torsion))


class SNFResult(NamedTuple):
    U: IntMatrix
    S: IntMatrix
    V: IntMatrix


def _pivot(S: list[list[int]], k: int) -> Optional[tuple[int, int]]:
    """A minimal-magnitude nonzero entry of the block S[k:, k:], found row by row
    and stopping at the first +-1; None when the block is zero."""
    best, row = 0, -1
    for i in range(k, len(S)):
        mag = min(map(abs, filter(None, S[i][k:])), default=0)
        if mag and (not best or mag < best):
            best, row = mag, i
            if mag == 1:
                break
    if not best:
        return None
    tail = S[row][k:]
    return row, k + (tail.index(best) if best in tail else tail.index(-best))


def _eliminate(
    S: list[list[int]],
    U: Optional[list[list[int]]] = None,
    Vt: Optional[list[list[int]]] = None,
    chain: bool = False,
) -> list[int]:
    """Diagonalise the row list S in place by unimodular row and column
    operations and return its nonzero diagonal, every entry positive.

    Row operations are repeated on the rows of U and column operations on the
    rows of Vt (V transposed), when given, so that U M V = S for the input M.
    With ``chain`` each pivot is also made to divide the block after it, which
    leaves the diagonal a divisor chain; cokernels need only its values.
    """
    ncols = len(S[0]) if S else 0
    k = 0
    while k < min(len(S), ncols):
        at = _pivot(S, k)
        if at is None:
            break
        i, j = at
        if i != k:
            S[i], S[k] = S[k], S[i]
            if U is not None:
                U[i], U[k] = U[k], U[i]
        if j != k:
            for row in S:
                row[j], row[k] = row[k], row[j]
            if Vt is not None:
                Vt[j], Vt[k] = Vt[k], Vt[j]
        Sk = S[k]
        p = Sk[k]
        tail = Sk[k:]  # entries left of column k are zero below row k
        # clear column k below the pivot; a nonzero remainder is a smaller pivot
        remainder = False
        for i in range(k + 1, len(S)):
            c = S[i][k]
            if c:
                q = c // p
                S[i][k:] = [a - q * b for a, b in zip(S[i][k:], tail)]
                if U is not None:
                    U[i] = [a - q * b for a, b in zip(U[i], U[k])]
                remainder = remainder or bool(S[i][k])
        if remainder:
            continue
        # column k is clear, so clearing row k touches row k alone
        for j in range(k + 1, ncols):
            c = Sk[j]
            if c:
                q = c // p
                Sk[j] = c - q * p
                if Vt is not None:
                    Vt[j] = [a - q * b for a, b in zip(Vt[j], Vt[k])]
        if any(Sk[k + 1 :]):
            continue
        if chain and abs(p) > 1:
            # pull up a row holding an entry the pivot does not divide
            bad = next(
                (i for i in range(k + 1, len(S)) if any(x % p for x in S[i][k + 1 :])),
                None,
            )
            if bad is not None:
                S[k] = [a + b for a, b in zip(Sk, S[bad])]
                if U is not None:
                    U[k] = [a + b for a, b in zip(U[k], U[bad])]
                continue
        if p < 0:
            S[k] = [-a for a in Sk]
            if U is not None:
                U[k] = [-a for a in U[k]]
        k += 1
    return [S[i][i] for i in range(k)]


def _from_rows(rows: list[list[int]], cols: int) -> IntMatrix:
    return IntMatrix(len(rows), cols, [x for row in rows for x in row])


def smith_normal_form(M: IntMatrix) -> SNFResult:
    """U M V = S diagonal with a divisibility chain; U, V unimodular."""
    S = M.row_lists()
    U = IntMatrix.identity(M.rows).row_lists()
    Vt = IntMatrix.identity(M.cols).row_lists()
    _eliminate(S, U, Vt, chain=True)
    return SNFResult(
        _from_rows(U, M.rows), _from_rows(S, M.cols), _from_rows(Vt, M.cols).transpose()
    )


def _coker_ker_rows(
    rows: list[dict[int, int]], ncols: int
) -> tuple[AbelianGroup, AbelianGroup]:
    """Cokernel and kernel of the map Z^ncols -> Z^len(rows) whose i-th row
    holds the nonzero entries ``rows[i]`` as {column: value}; an empty row
    is a zero row and still counts. The rows are consumed.

    Every +-1 entry is a pivot that splits off a trivial factor: clear its
    column with row operations, then drop its row and column. Passes visit
    the rows shortest first and take, in each, the unit entry whose column
    holds the fewest rows, which keeps the fill-in low; they repeat until no
    unit is left. What remains is densified for ``_eliminate``.
    """
    holders: dict[int, set[int]] = {}  # column -> the rows with an entry there
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, set()).add(i)
    live = list(range(len(rows)))
    units = 0
    while True:
        kept = []
        for i in sorted(live, key=lambda i: len(rows[i])):
            row = rows[i]
            unit = [j for j, x in row.items() if x == 1 or x == -1]
            if not unit:
                kept.append(i)
                continue
            j = min(unit, key=lambda j: len(holders[j]))
            p = row.pop(j)  # a unit is its own inverse
            for k in holders.pop(j):
                if k == i:
                    continue
                other = rows[k]
                f = other.pop(j) * p
                for c, x in row.items():
                    y = other.get(c, 0) - f * x
                    if y:
                        if c not in other:
                            holders[c].add(k)
                        other[c] = y
                    else:
                        del other[c]
                        holders[c].discard(k)
            for c in row:
                holders[c].discard(i)
            units += 1
        if len(kept) == len(live):
            break
        live = kept
    rest = [rows[i] for i in live if rows[i]]
    cols = sorted({c for row in rest for c in row})
    diag = _eliminate([[row.get(c, 0) for c in cols] for row in rest])
    rank = units + len(diag)
    return AbelianGroup(len(rows) - rank, _divisor_chain(diag)), AbelianGroup(ncols - rank)


def coker_ker(M: IntMatrix) -> tuple[AbelianGroup, AbelianGroup]:
    """Cokernel and kernel of the map Z^cols -> Z^rows given by M."""
    rows = [{j: x for j, x in enumerate(row) if x} for row in M.row_lists()]
    return _coker_ker_rows(rows, M.cols)


def _times(X: list[dict[int, int]], Y: list[dict[int, int]]) -> list[dict[int, int]]:
    """The product of two square row-dict matrices with nonnegative entries,
    so that no sum cancels to zero."""
    out = []
    for row in X:
        acc: dict[int, int] = {}
        for k, a in row.items():
            for j, b in Y[k].items():
                acc[j] = acc.get(j, 0) + a * b
        out.append(acc)
    return out


def _shift_rows(g: Graph, m: int) -> list[dict[int, int]]:
    """The rows of 1 - (A^T)^m, m >= 1, as {column: nonzero value} in vertex
    order: row s(e), column r(e) of A^T counts the edge e."""
    index = {v: i for i, v in enumerate(g.vertices)}
    at: list[dict[int, int]] = [{} for _ in g.vertices]
    for e in g.edges:
        row, col = at[index[e.src]], index[e.dst]
        row[col] = row.get(col, 0) + 1
    power = None  # (A^T)^m by repeated squaring
    while m:
        if m & 1:
            power = at if power is None else _times(power, at)
        m >>= 1
        if m:
            at = _times(at, at)
    rows = []
    for i, row in enumerate(power):
        row = {j: -x for j, x in row.items()}
        row[i] = row.get(i, 0) + 1
        if not row[i]:
            del row[i]
        rows.append(row)
    return rows


def graph_K(g: Graph, m: int) -> tuple[AbelianGroup, AbelianGroup]:
    """(coker(1 - (A^T)^m), ker(1 - (A^T)^m)) for a finite graph with no sinks."""
    if m < 1:
        raise PreconditionError("graph_K requires m >= 1")
    diag = validate(g)
    if diag.sinks:
        raise PreconditionError(f"graph has sinks {sorted(diag.sinks)}")
    return _coker_ker_rows(_shift_rows(g, m), len(g.vertices))


def homology(g: Graph) -> tuple[AbelianGroup, AbelianGroup]:
    """H0 = ker, H1 = coker of the boundary map ZE0 -> ZE1, a |-> a(r(.)) - a(s(.))."""
    vi = {v: i for i, v in enumerate(g.vertices)}
    # a loop's row is zero, and still a row of the cokernel
    rows = [{} if e.src == e.dst else {vi[e.dst]: 1, vi[e.src]: -1} for e in g.edges]
    H1, H0 = _coker_ker_rows(rows, len(g.vertices))
    return H0, H1


class HypothesisResult(NamedTuple):
    per_vertex: dict
    ok: bool


def hypothesis_check(g: Graph, m: int) -> HypothesisResult:
    """For each v: does some mu with |mu| in m*{1,2,...}, s(mu) = v, have
    |E1 r(mu)| >= 2?

    This is reachability in E(0,m) from the seed W = {w : |E1 w| >= 2},
    traversing edges range -> source and requiring at least one step; it is
    computed on E itself, without building E(0,m), by one reverse
    breadth-first search over the states (vertex, |path| mod m), in
    O(m (|V| + |E|)): a path of E^{km} ending in W is a walk from some (w, 0)
    that follows received edges r(e) -> s(e), stepping the residue by one,
    and comes back to residue 0 after at least one step.
    """
    if m < 1:
        raise PreconditionError("hypothesis_check requires m >= 1")
    seen = {(w, 0) for w in g.vertices if len(g.emitted(w)) >= 2}
    frontier = list(seen)
    reached: set[str] = set()
    for u, j in frontier:  # grows while it is walked
        step = (j + 1) % m
        for e in g.received(u):
            if step == 0:
                reached.add(e.src)
            if (e.src, step) not in seen:
                seen.add((e.src, step))
                frontier.append((e.src, step))
    per_vertex = {v: v in reached for v in g.vertices}
    return HypothesisResult(per_vertex, all(per_vertex.values()))


class SuspensionKReport(NamedTuple):
    l_num: int
    l_den: int
    k0: AbelianGroup
    k1: AbelianGroup
    route: str
    hypotheses_met: bool
    hypothesis_table: dict
    flags: list


# The most decimal digits that a torsion order of a K-group may reach by
# Hadamard's bound: Python's default limit on int-to-str conversion, so that
# every order admitted prints.  Two loops at one vertex reach 4,215 at m =
# 14,000 and 4,516 at m = 15,000.
MAX_ORDER_DIGITS = 4300


def check_order_digits(g: Graph, m: int) -> None:
    """Refuse, before any power, search or elimination, an m >= 1 at which a
    torsion order of coker(1 - (A^T)^m) may pass MAX_ORDER_DIGITS digits.

    A torsion order is at most the product of the nonzero invariant factors,
    which divides a nonzero maximal minor; by Hadamard's inequality that
    minor is at most the product of the row norms of 1 - (A^T)^m.  Row i of
    (A^T)^m is nonnegative and sums to the number of m-paths with source i,
    at most D^m for D the most edges a vertex emits, so the row of
    1 - (A^T)^m has norm at most sqrt(1 + D^(2m)) <= sqrt(2) D^m.
    """
    most = max((len(g.emitted(v)) for v in g.vertices), default=0)
    if not most:
        return
    digits = len(g.vertices) * (m * math.log10(most) + math.log10(2) / 2)
    if digits >= MAX_ORDER_DIGITS:
        raise PreconditionError(
            f"K-group orders at m={m} may have up to {math.floor(digits) + 1} digits "
            f"by Hadamard's bound, over {MAX_ORDER_DIGITS}; refusing to compute them"
        )


def suspension_K(g: Graph, m: int, n: int) -> SuspensionKReport:
    """K-theory of the suspension-quiver algebra at parameter l = m/n."""
    if n < 1 or math.gcd(abs(m), n) != 1:
        raise PreconditionError("need n >= 1 and gcd(m,n) = 1")
    flags: list[str] = []
    if m > 0:
        check_order_digits(g, m)
        hyp = hypothesis_check(g, m)
        k0, k1 = graph_K(g, m)
        route = f"coker/ker(1 - (A^T)^{m}) via the delay and higher-power identifications"
    elif m < 0:
        op = opposite(g)
        check_order_digits(op, -m)
        hyp = hypothesis_check(op, -m)
        # 1 - A^{|m|} of g is 1 - (A^T)^{|m|} of the opposite graph
        k0, k1 = graph_K(op, -m)
        route = (
            f"opposite-graph reduction: coker/ker(1 - A^{-m}) "
            "via the delay and higher-power identifications"
        )
    else:
        hyp = HypothesisResult({v: True for v in g.vertices}, True)
        H0, H1 = homology(g)
        k0 = k1 = direct_sum(H0, H1)
        # H0 is free of rank the number of weak components: Z when connected
        if H0.free_rank == 1:
            route = "Z (+) H1(E) for the connected CW realisation"
        else:
            route = "homology groups H0 (+) H1 reported symbolically"
            flags.append("formula outside proven scope")
    if not hyp.ok:
        flags.append("hypotheses unmet")
    return SuspensionKReport(
        m, n, k0, k1, route, hyp.ok, dict(hyp.per_vertex), flags
    )


class DualKReport(NamedTuple):
    dual_K: tuple
    power_K: tuple
    isomorphic: bool


def dual_K_invariance(g: Graph, p: int, q: int) -> DualKReport:
    """graph_K of E(p,q) against graph_K of E(0,q-p); the groups must agree.

    E(0,q-p) has adjacency matrix A^(q-p), so its groups are graph_K(g, q-p).
    """
    if not 0 < p < q:
        raise PreconditionError("need 0 < p < q")
    diag = validate(g)
    if diag.sinks or diag.sources:
        raise PreconditionError("need a graph with no sinks and no sources")
    dk = graph_K(higher_dual(g, p, q), 1)
    pk = graph_K(g, q - p)
    return DualKReport(dk, pk, dk == pk)
