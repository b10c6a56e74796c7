"""Benchmark inputs: fixed graphs, seeded graphs, and each workload's command list.

A seeded graph is drawn the way ``tests/conftest.py::random_no_sink_source_graph``
draws one (a Hamiltonian cycle plus random extra edges), redrawn until its size
lands in the band of its kind.  The in-band draws of a kind, in generator-seed
order, are its candidates; ``golden.json`` keeps as the pool the candidates
whose command costs, at the recording commit, deviate least from each
command's median over the candidates.
That pool, and the expected outcome of every command on every pool member, are
recorded once, so a run under any ``--seed`` has a recorded answer for each
command and the same cost shape as a run under any other seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

Graph = tuple[list[str], list[tuple[str, str, str]]]  # vertices, (id, src, dst)

FIXED_GRAPHS: dict[str, Graph] = {
    "single_loop": (["v"], [("e", "v", "v")]),
    "two_loop": (["v"], [("e", "v", "v"), ("f", "v", "v")]),
    "three_cycle": (["u", "v", "w"], [("a", "u", "v"), ("b", "v", "w"), ("c", "w", "u")]),
    "cycle_plus_loop": (["u", "v"], [("p", "u", "v"), ("q", "v", "u"), ("l", "u", "u")]),
    # u receives no edge, so u is a source
    "with_source": (["u", "v"], [("e", "u", "v"), ("f", "v", "v")]),
}

VERIFY_LS = ("1/2", "2/3", "1", "2")
KTHEORY_WIDE_LS = ("1", "3", "-1", "1/2", "0")
CANDIDATES = 8  # in-band draws timed per kind when golden.json is recorded
POOL_SIZE = 3  # the most typically costed candidates a seed chooses from


def conftest_graph(seed: int, max_vertices: int, max_edges: int) -> Graph:
    """The draw of tests/conftest.py::random_no_sink_source_graph, as plain data."""
    rng = random.Random(seed)
    nv = rng.randint(1, max_vertices)
    vs = [f"v{i}" for i in range(nv)]
    edges = [(f"c{i}", vs[i], vs[(i + 1) % nv]) for i in range(nv)]
    for j in range(rng.randint(0, max(0, max_edges - nv))):
        edges.append((f"x{j}", rng.choice(vs), rng.choice(vs)))
    return vs, edges


def path_count(g: Graph, n: int) -> int:
    """Number of paths of length n (|E^n|), by dynamic programming."""
    vs, edges = g
    ways = dict.fromkeys(vs, 1)
    for _ in range(n):
        nxt = dict.fromkeys(vs, 0)
        for _id, src, dst in edges:
            nxt[src] += ways[dst]
        ways = nxt
    return sum(ways.values())


def dual_basis(g: Graph, m: int, L: int) -> int:
    """Basis size of the E(1,m+1) path space truncated at length L.

    A path of length k in E(1,m+1) is a path of length 1 + m*k in E.
    """
    return sum(path_count(g, 1 + m * k) for k in range(L + 1))


def size_of(g: Graph) -> dict:
    vs, edges = g
    return {"vertices": len(vs), "edges": len(edges), "basis_E13_L4": dual_basis(g, 2, 4)}


def graph_json(g: Graph) -> str:
    vs, edges = g
    doc = {"vertices": vs, "edges": [{"id": i, "src": s, "dst": d} for i, s, d in edges]}
    return json.dumps(doc)


def walk(g: Graph, length: int) -> str:
    """A deterministic path of the given length, as the comma-separated edge ids
    of a flow prefix: consecutive ids satisfy s(mu_i) = r(mu_{i+1})."""
    _vs, edges = g
    ordered = sorted(edges)
    here = ordered[0]
    ids = [here[0]]
    for i in range(1, length):
        nxt = [e for e in ordered if e[2] == here[1]]
        here = nxt[i % len(nxt)]
        ids.append(here[0])
    return ",".join(ids)


@dataclass(frozen=True)
class Command:
    graph: str
    argv: tuple[str, ...]  # argv[1] is the graph file
    defect: str = ""  # a known defect: the command must only end in 0/1/2

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def cmd(sub: str, graph: str, *args: str, defect: str = "") -> Command:
    return Command(graph, (sub, f"{graph}.json", *args), defect)


@dataclass(frozen=True)
class Kind:
    """A family of seeded graphs: how to draw one, its band, and its commands."""

    workload: str
    max_vertices: int
    max_edges: int
    in_band: Callable[[Graph], bool]
    commands: Callable[[str, Graph], list[Command]]
    per_run: int = 1  # graphs of this kind in one run


def _wide_band(lo: int, hi: int) -> Callable[[Graph], bool]:
    def ok(g: Graph) -> bool:
        nv, ne = len(g[0]), len(g[1])
        return lo <= nv <= hi and 0.45 * nv <= ne - nv <= 0.55 * nv

    return ok


def _wide_commands(name: str, g: Graph) -> list[Command]:
    return [cmd("ktheory", name, "--l", l) for l in KTHEORY_WIDE_LS]


def _paths_small_commands(name: str, g: Graph) -> list[Command]:
    return [
        cmd("transform", name, "--op", "power:8"),
        cmd("transform", name, "--op", "dual:1,5"),
        cmd("transform", name, "--op", "delay:9"),
        cmd("transform", name, "--op", "opposite"),
        cmd("quiver", name, "--m", "1", "--t", "0", "--n", "8"),
        cmd("quiver", name, "--m", "2", "--t", "1/2", "--n", "4"),
        cmd("quiver", name, "--openness"),
        cmd("flow", name, "--start", walk(g, 30), "--t", "0", "--step", "3/4", "--count", "30"),
    ]


KINDS: dict[str, Kind] = {
    # small no-source graphs: exact sparse arithmetic and per-suite rebuilding
    "verify_small": Kind(
        "verify", 5, 6,
        lambda g: 130 <= dual_basis(g, 2, 4) <= 170,
        lambda name, g: [cmd("verify", name, "--suite", "all", "--l", l) for l in VERIFY_LS],
        per_run=2,
    ),
    # one medium graph: the dense float norm estimator dominates
    "verify_medium": Kind(
        "verify", 3, 7,
        lambda g: 900 <= dual_basis(g, 2, 4) <= 1000,
        lambda name, g: [cmd("verify", name, "--suite", "all", "--l", "2")],
    ),
    # wide graphs: Smith normal form and IntMatrix on 40-100 vertices
    # (two of each size, so that no one draw sets the workload's median)
    "ktheory_wide40": Kind("ktheory", 100, 150, _wide_band(40, 42), _wide_commands, 2),
    "ktheory_wide60": Kind("ktheory", 100, 150, _wide_band(60, 62), _wide_commands, 2),
    "ktheory_wide80": Kind("ktheory", 100, 150, _wide_band(80, 82), _wide_commands, 2),
    "ktheory_wide96": Kind("ktheory", 100, 150, _wide_band(96, 98), _wide_commands, 2),
    # a small graph whose paths are written out
    "paths_small": Kind(
        "paths", 3, 5,
        lambda g: len(g[0]) == 3 and 120 <= path_count(g, 8) <= 360,
        _paths_small_commands,
    ),
}


def fixed_commands(workload: str) -> list[Command]:
    if workload == "verify":
        return [
            cmd("verify", g, "--suite", "all", "--l", l)
            for g in ("two_loop", "cycle_plus_loop", "three_cycle")
            for l in VERIFY_LS
        ]
    if workload == "ktheory":
        # deep: hypothesis_check -> higher_power -> enumerate_paths at large m
        return [cmd("ktheory", "two_loop", "--l", str(m)) for m in range(11, 15)] + [
            cmd("ktheory", "cycle_plus_loop", "--l", str(m)) for m in range(16, 21)
        ]
    if workload == "paths":
        two, cpl = FIXED_GRAPHS["two_loop"], FIXED_GRAPHS["cycle_plus_loop"]
        return [
            cmd("transform", "two_loop", "--op", "power:12"),
            cmd("transform", "cycle_plus_loop", "--op", "power:16"),
            cmd("transform", "two_loop", "--op", "dual:2,12"),
            cmd("transform", "three_cycle", "--op", "delay:200"),
            cmd("transform", "cycle_plus_loop", "--op", "opposite"),
            cmd("quiver", "two_loop", "--m", "1", "--t", "1/3", "--n", "8"),
            cmd("quiver", "two_loop", "--m", "2", "--t", "1/3", "--n", "5"),
            cmd("quiver", "cycle_plus_loop", "--m", "2", "--t", "0", "--n", "7"),
            cmd("quiver", "three_cycle", "--m", "1", "--t", "1/2", "--n", "12"),
            cmd("quiver", "two_loop", "--openness"),
            cmd("flow", "two_loop", "--start", walk(two, 40), "--t", "0",
                "--step", "1/2", "--count", "60"),
            cmd("flow", "cycle_plus_loop", "--start", walk(cpl, 40), "--t", "1/3",
                "--step", "2/3", "--count", "50"),
            # documented failures: a source (exit 2), a bad rational and an
            # unknown op (exit 1)
            cmd("ktheory", "with_source", "--l", "1"),
            cmd("ktheory", "two_loop", "--l", "1/0"),
            cmd("transform", "two_loop", "--op", "frob:2"),
            # known defects: RecursionError with a traceback at the seed commit
            cmd("quiver", "single_loop", "--n", "1200", defect="RecursionError"),
            cmd("verify", "single_loop", "--suite", "all", "--L", "1000",
                defect="RecursionError"),
        ]
    raise KeyError(workload)


WORKLOADS = ("verify", "ktheory", "paths")


def candidates(kind: str, count: int = CANDIDATES) -> list[int]:
    """The first `count` generator seeds whose draw lands in the kind's band."""
    k = KINDS[kind]
    out, s = [], 0
    while len(out) < count:
        if k.in_band(conftest_graph(s, k.max_vertices, k.max_edges)):
            out.append(s)
        s += 1
    return out


def seeded_graph(kind: str, gen_seed: int) -> tuple[str, Graph]:
    k = KINDS[kind]
    g = conftest_graph(gen_seed, k.max_vertices, k.max_edges)
    if not k.in_band(g):
        raise ValueError(f"{kind} draw {gen_seed} is outside its band")
    return f"{kind}-{gen_seed}", g


def build(workload: str, seed: int, pools: dict[str, list[int]]):
    """The workload's command list under `seed`, and every graph it names."""
    rng = random.Random(f"{workload}:{seed}")
    graphs = dict(FIXED_GRAPHS)
    cmds = fixed_commands(workload)
    for kind, k in KINDS.items():
        if k.workload != workload:
            continue
        for gen_seed in rng.sample(pools[kind], k.per_run):
            name, g = seeded_graph(kind, gen_seed)
            graphs[name] = g
            cmds.extend(k.commands(name, g))
    used = {c.graph for c in cmds}
    return cmds, {n: g for n, g in graphs.items() if n in used}
