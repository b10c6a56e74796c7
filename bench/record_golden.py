"""Record ``golden.json``: seeded-graph pools and the expected outcome of every command.

Usage (from the repository root, at the commit whose outcomes are the reference):

    python3 bench/record_golden.py

For each seeded kind, every candidate graph's commands run ``REPEATS`` times,
and each command counts at its least, least disturbed, time.  The pool is the
``workloads.POOL_SIZE`` candidates whose commands deviate least, at worst, from
each command's median over the candidates.  Outcomes must agree across
repeats.  Known-defect commands are not recorded: the gate only asks that they
end in a documented exit code.  Takes about fifteen minutes.
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
from pathlib import Path

import run
import gate
import workloads

REPEATS = 3  # runs of each candidate's commands; each counts at its least time


def record(commands, server: run.Server, repeats: int, outcomes: dict) -> list[float]:
    """Run the commands `repeats` times and store their outcomes.

    Returns each command's least time over the repeats.
    """
    passes = []
    for _ in range(repeats):
        passes.append([server.run(c.argv, False) for c in commands])
        for c, report in zip(commands, passes[-1]):
            if c.defect:
                continue
            if report.get("exception"):
                raise RuntimeError(f"{c.key}: uncaught {report['exception']}")
            got = gate.outcome(c.argv, report)
            if outcomes.setdefault(c.key, got) != got:
                raise RuntimeError(f"{c.key}: outcome differs between repeats")
    return [min(r["main_s"] for r in reports) for reports in zip(*passes)]


def main() -> int:
    env = run.child_env()
    outcomes: dict = {}
    pools: dict = {}
    costs: dict = {}
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp, run.Server(Path(tmp), env) as server:
        workdir = Path(tmp)
        run.write_graphs(workdir, workloads.FIXED_GRAPHS)
        for w in workloads.WORKLOADS:
            record(workloads.fixed_commands(w), server, 1, outcomes)
        for kind, k in workloads.KINDS.items():
            cost = {}
            for gen_seed in workloads.candidates(kind):
                name, g = workloads.seeded_graph(kind, gen_seed)
                run.write_graphs(workdir, {name: g})
                cost[gen_seed] = record(k.commands(name, g), server, REPEATS, outcomes)
                print(f"{kind} {gen_seed}: {sum(cost[gen_seed]):.3f} s", file=sys.stderr)
            # the most typical candidates: least worst-case deviation of a
            # command's time from that command's median over the candidates
            mid = [statistics.median(c) for c in zip(*cost.values())]
            worst = {s: max(abs(t - m) / m for t, m in zip(c, mid)) for s, c in cost.items()}
            pools[kind] = sorted(sorted(cost, key=worst.__getitem__)[: workloads.POOL_SIZE])
            costs[kind] = {str(s): [round(t, 4) for t in c] for s, c in cost.items()}
    doc = {
        "recorded_at": run.provenance("all", -1, {}),
        "candidate_cost_s": costs,
        "pools": pools,
        "outcomes": dict(sorted(outcomes.items())),
    }
    run.GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(outcomes)} outcomes to {run.GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
