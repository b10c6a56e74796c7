"""The suspension flow of the one-sided shift, on finite-prefix representatives.

A point [x,t] of the mapping torus is stored as a finite prefix of x together
with t in [0,1); operations that would need more of x than the prefix holds
raise PrecisionError instead of silently extending.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import PrecisionError, PreconditionError
from .graph import Graph, Path, enumerate_paths
from .quiver import QuiverPath, normalize_edge
from .report import RunReport, rat_str
from .transform import delay, delay_embed_path


@dataclass(frozen=True)
class FlowPoint:
    """[x,t] with x known up to |prefix| symbols and t in [0,1)."""

    prefix: Path
    t: Fraction
    exact: bool = True

    def __post_init__(self) -> None:
        if len(self.prefix) == 0:
            raise PreconditionError("flow point needs a nonempty prefix")
        if not 0 <= self.t < 1:
            raise PreconditionError("flow time must lie in [0,1)")

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


def theta_inf(p: FlowPoint) -> QuiverPath:
    """The length-(L-1) truncation of theta^inf: edges [x_i x_{i+1}, t]."""
    L = len(p.prefix)
    if L < 2:
        raise PrecisionError("need |prefix| >= 2 to emit a quiver edge")
    edges = tuple(
        normalize_edge(p.prefix.window(i, i + 2), p.t, 1) for i in range(L - 1)
    )
    return QuiverPath(1, edges[0].t, edges)


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


@dataclass(frozen=True)
class CylinderSpec:
    """Z(mu,(a,b)) for an open interval window, or the wrap-around Z(mu,eps).

    window = ("interval", a, b) with 0 < a < b < 1, or ("wrap", eps) with
    0 < eps < 1/2.
    """

    mu: Path
    window: tuple

    def __post_init__(self) -> None:
        if self.window[0] == "interval":
            _, a, b = self.window
            if not 0 < a < b < 1:
                raise PreconditionError("need 0 < a < b < 1")
        elif self.window[0] == "wrap":
            _, eps = self.window
            if not 0 < eps < Fraction(1, 2):
                raise PreconditionError("need 0 < eps < 1/2")
        else:
            raise PreconditionError(f"unknown window kind {self.window[0]!r}")


def _starts_with(prefix: Path, mu: Path) -> bool:
    return prefix.edge_ids[: len(mu)] == mu.edge_ids


def in_cylinder(p: FlowPoint, c: CylinderSpec) -> bool:
    """Membership of theta^inf(x,t) in the basic set, per the two definitions."""
    mu = c.mu
    if c.window[0] == "interval":
        _, a, b = c.window
        if not a < p.t < b:
            return False
        if len(p.prefix) < len(mu):
            raise PrecisionError("prefix too short to decide membership")
        return _starts_with(p.prefix, mu)
    _, eps = c.window
    if p.t < eps:
        if len(p.prefix) < len(mu):
            raise PrecisionError("prefix too short to decide membership")
        return _starts_with(p.prefix, mu)
    if p.t > 1 - eps:
        # x = e mu x' branch: one extra leading edge
        if len(p.prefix) < len(mu) + 1:
            raise PrecisionError("prefix too short to decide wrap membership")
        return p.prefix.edge_ids[1 : len(mu) + 1] == mu.edge_ids
    return False


def mu_vee(mu: Path, nu: Path) -> Optional[Path]:
    """mu if nu is a leading subword of mu, nu in the opposite case, else None."""
    if len(mu) >= len(nu):
        return mu if _starts_with(mu, nu) else None
    return nu if _starts_with(nu, mu) else None


def cylinder_intersection(c1: CylinderSpec, c2: CylinderSpec) -> list[CylinderSpec]:
    """The intersection of two basic sets as a (possibly empty) list of basic sets."""
    if c1.window[0] == "wrap" and c2.window[0] == "interval":
        c1, c2 = c2, c1
    if c1.window[0] == "interval" and c2.window[0] == "interval":
        w = mu_vee(c1.mu, c2.mu)
        if w is None:
            return []
        a = max(c1.window[1], c2.window[1])
        b = min(c1.window[2], c2.window[2])
        return [CylinderSpec(w, ("interval", a, b))] if a < b else []
    if c1.window[0] == "wrap" and c2.window[0] == "wrap":
        w = mu_vee(c1.mu, c2.mu)
        if w is None:
            return []
        return [CylinderSpec(w, ("wrap", min(c1.window[1], c2.window[1])))]
    # interval mu-cylinder against wrap nu-cylinder
    mu, (_, a, b) = c1.mu, c1.window
    nu, eps = c2.mu, c2.window[1]
    g = mu.graph
    out: list[CylinderSpec] = []
    # low branch: t in (a,b) and t in [0,eps)
    lo_hi = min(b, eps)
    if a < lo_hi:
        w = mu_vee(mu, nu)
        if w is not None:
            out.append(CylinderSpec(w, ("interval", a, lo_hi)))
    # high branch: t in (a,b) and t in (1-eps,1); x = e nu x'
    hi_lo = max(a, 1 - eps)
    if hi_lo < b:
        for e in sorted(g.emitted(nu.r), key=lambda e: e.id):
            enu = Path(g, (e.id,) + nu.edge_ids)
            w = mu_vee(mu, enu)
            if w is not None:
                out.append(CylinderSpec(w, ("interval", hi_lo, b)))
    return out


def in_cylinder_list(p: FlowPoint, cs: list[CylinderSpec]) -> bool:
    return any(in_cylinder(p, c) for c in cs)


def orbit_lines(p: FlowPoint, step, count: int) -> list[str]:
    """Orbit trace: one "t<TAB>prefix" line per flow step."""
    lines = [f"{rat_str(p.t)}\t{','.join(p.prefix.edge_ids)}"]
    for _ in range(count):
        p = apply_flow(p, step)
        lines.append(f"{rat_str(p.t)}\t{','.join(p.prefix.edge_ids)}")
    return lines


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
