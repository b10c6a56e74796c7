"""The suspension flow of the one-sided shift, on finite-prefix representatives.

A point [x,t] of the mapping torus is stored as a finite prefix of x together
with t in [0,1); operations that would need more of x than the prefix holds
raise PrecisionError instead of silently extending.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter
from typing import Iterator, Union

from .errors import PrecisionError, PreconditionError
from .graph import Graph, Path, _Frozen, enumerate_paths
from .report import RunReport, rat_str
from .transform import delay, delay_embed_path


class FlowPoint(_Frozen):
    """[x,t] with x known up to |prefix| symbols and t in [0,1)."""

    __slots__ = ("prefix", "t", "exact")
    _key = attrgetter(*__slots__)

    def __init__(self, prefix: Path, t: Fraction, exact: bool = True):
        if len(prefix) == 0:
            raise PreconditionError("flow point needs a nonempty prefix")
        if not 0 <= t < 1:
            raise PreconditionError("flow time must lie in [0,1)")
        init = object.__setattr__
        init(self, "prefix", prefix)
        init(self, "t", t)
        init(self, "exact", exact)

    def __repr__(self) -> str:
        return f"FlowPoint({' '.join(self.prefix.edge_ids)}, t={self.t})"


def make_flow_point(prefix: Path, t) -> FlowPoint:
    """Canonical form: the glue (x,1) ~ (sigma x, 0) applied until t in [0,1)."""
    t = Fraction(t)
    if t < 0:
        raise PreconditionError("flow time must be >= 0")
    k = int(t)
    if k >= len(prefix):
        raise PrecisionError("prefix too short to normalize this time")
    if k:
        prefix = prefix.window(k, len(prefix))
        t -= k
    return FlowPoint(prefix, t)


def apply_flow(p: FlowPoint, l: Union[Fraction, int, float]) -> FlowPoint:
    """lt_l: [x,t] -> [x,t+l], using (x, t+m) ~ (sigma^m x, t) to renormalize."""
    inexact = isinstance(l, float)
    lf = Fraction(l)
    if lf < 0:
        raise PreconditionError("flow increments must be >= 0")
    total = p.t + lf
    k = int(total)
    if k >= len(p.prefix):
        raise PrecisionError(f"needs {k} shifts but prefix has length {len(p.prefix)}")
    prefix = p.prefix.window(k, len(p.prefix)) if k else p.prefix
    return FlowPoint(prefix, total - k, exact=p.exact and not inexact)


def orbit_lines(p: FlowPoint, step, count: int) -> Iterator[str]:
    """Orbit trace: one "t<TAB>prefix" line per flow step, made as it is read.

    An orbit that runs past the prefix, t + count step >= |prefix|, is refused
    before its first line, with the PrecisionError of its first failing step.
    """
    size, lf = len(p.prefix), Fraction(step)
    if count > 0 and p.t + count * lf >= size:
        j = math.ceil((size - p.t) / lf)  # the first step past the prefix
        done = math.floor(p.t + (j - 1) * lf)  # the edges the steps before it dropped
        k = math.floor(p.t + j * lf) - done
        raise PrecisionError(f"needs {k} shifts but prefix has length {size - done}")
    yield f"{rat_str(p.t)}\t{','.join(p.prefix.edge_ids)}"
    for _ in range(count):
        p = apply_flow(p, step)
        yield f"{rat_str(p.t)}\t{','.join(p.prefix.edge_ids)}"


def lattice_decomposition_check(g: Graph, m: int, n: int, L: int) -> RunReport:
    """The lattice restriction of lt_{m/n} against the shift of D_n(E)(0,m).

    Lattice points [x, j/n] are identified with paths of the delay graph by
    embedding x via D_n^* and dropping the first j delay edges; applying
    lt_{m/n} upstairs must match dropping m delay edges (one shift of
    D_n(E)(0,m)) downstairs, prefix by prefix.
    """
    rep = RunReport()
    if m < 1 or n < 1 or math.gcd(m, n) != 1:
        raise PreconditionError("need coprime m/n > 0")
    D = delay(g, n)
    step = Fraction(m, n)
    cases = 0
    mismatch = None
    for x in enumerate_paths(g, L):
        y = delay_embed_path(g, n, x, D).edge_ids
        # k -> whether the embedding of the suffix x(k,|x|) is y(kn,|y|): then
        # for every phase j with (j+m) div n = k, y(j,|y|) shifted by m delay
        # edges is that embedding less its first (j+m) mod n delay edges
        embeds: dict[int, bool] = {}
        for j in range(n):
            q = apply_flow(FlowPoint(x, Fraction(j, n)), step)
            k = (j + m) // n
            if k not in embeds:
                embeds[k] = delay_embed_path(g, n, q.prefix, D).edge_ids == y[k * n :]
            cases += 1
            if (
                q.t != Fraction((j + m) % n, n)
                or q.prefix.edge_ids != x.edge_ids[k:]
                or not embeds[k]
            ):
                mismatch = mismatch or (x, j)
    rep.add(
        "flow.lattice_decomposition",
        mismatch is None,
        f"graph={len(g.vertices)}v/{len(g.edges)}e l={m}/{n} L={L} cases={cases}"
        + ("" if mismatch is None else f" first_mismatch={mismatch}"),
    )
    return rep
