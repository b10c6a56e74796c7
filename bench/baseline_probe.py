"""One-shot, ungated re-measurement of the ROADMAP "Baseline" rows.

Usage (from the repository root):

    python3 bench/baseline_probe.py

Each row that finishes within about a minute is timed in-process as the median
of ``RUNS`` runs (``import suspquiver`` is timed in ``IMPORT_RUNS`` fresh
interpreters).
Rows too slow for that are listed as skipped, with the reason.  Nothing here
is a gate; it prints one line per row and a JSON document as the last line.
Takes about four minutes.
"""

from __future__ import annotations

import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

import run
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

RUNS = 3
IMPORT_RUNS = 5

SKIPPED = [  # (row, ROADMAP figure, reason)
    ("limit_formulas cycle_plus_loop m=2 K=6 L=7", "174 s",
     "174 s for a single run; a median of several exceeds the probe's minute"),
    ("suspension_K two_loop m=18", ">10 min", "more than 10 min for a single run"),
]


def graph_of(name_or_graph):
    from suspquiver import Graph

    vs, edges = (
        workloads.FIXED_GRAPHS[name_or_graph] if isinstance(name_or_graph, str) else name_or_graph
    )
    return Graph(vs, edges)


def forty_vertex_graph():
    """The first conftest-style draw with exactly 40 vertices and 16-24 extra edges."""
    s = 0
    while True:
        g = workloads.conftest_graph(s, 100, 150)
        if len(g[0]) == 40 and 16 <= len(g[1]) - 40 <= 24:
            return g
        s += 1


def rows(workdir):
    from suspquiver import cli, ktheory, opalg, operators

    cpl, two = graph_of("cycle_plus_loop"), graph_of("two_loop")
    a, xi = cli._seeded_functions(cpl, 2, 0)
    g40 = graph_of(forty_vertex_graph())
    two_file = workdir / "two_loop.json"
    two_file.write_text(workloads.graph_json(workloads.FIXED_GRAPHS["two_loop"]))

    def verify_two_loop():
        with redirect_stdout(io.StringIO()):
            return cli.main(["verify", str(two_file), "--suite", "all"])

    return [
        ("verify --suite all two_loop L=4", 0.31, verify_two_loop),
        ("limit_formulas cycle_plus_loop m=2 K=6 L=6", 19.8,
         lambda: opalg.limit_formulas(cpl, 2, 6, a, xi, K=6)),
        ("suspension_K two_loop m=14", 1.5, lambda: ktheory.suspension_K(two, 14, 1)),
        ("suspension_K two_loop m=16", 31.0, lambda: ktheory.suspension_K(two, 16, 1)),
        ("graph_K 40 vertices m=8", 0.49, lambda: ktheory.graph_K(g40, 8)),
        ("build_rep two_loop L=12", 0.19, lambda: operators.build_rep(two, 12)),
    ]


def import_time() -> list[float]:
    code = "import time; t = time.perf_counter(); import suspquiver; print(time.perf_counter() - t)"
    env = run.child_env()
    return [
        float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout)
        for _ in range(IMPORT_RUNS)
    ]


def main() -> int:
    out = []
    samples = import_time()
    out.append({"row": "import suspquiver", "roadmap_s": 0.20,
                "median_s": statistics.median(samples), "runs": len(samples)})
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        for name, roadmap_s, fn in rows(Path(tmp)):
            samples = []
            for _ in range(RUNS):
                t0 = time.perf_counter()
                fn()
                samples.append(time.perf_counter() - t0)
            out.append({"row": name, "roadmap_s": roadmap_s,
                        "median_s": statistics.median(samples), "runs": RUNS})
    for r in out:
        print(f"{r['row']:<46} {r['median_s']:9.3f} s  (ROADMAP {r['roadmap_s']} s, "
              f"median of {r['runs']})")
    for name, roadmap_s, why in SKIPPED:
        print(f"{name:<46}   skipped  (ROADMAP {roadmap_s}): {why}")
    doc = {
        "provenance": run.provenance("baseline_probe", -1, {}),
        "rows": out,
        "skipped": [{"row": n, "roadmap": r, "reason": w} for n, r, w in SKIPPED],
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
