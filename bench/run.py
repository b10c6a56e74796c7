"""Benchmark runner: seeded ``suspend`` commands, each in a process of its own.

Usage (from the repository root):

    python3 bench/run.py --workload verify|ktheory|paths --seed N --seconds S --trace 0|1

The runner builds the workload's command list from ``--seed`` and runs it one
command at a time (closed loop, one client).  Each command runs in a process
forked from a ``python3 bench/child.py serve`` interpreter that has imported
``suspquiver.cli`` and run nothing else, and that process times
``suspquiver.cli.main(argv)`` from inside.  Set-up time, which forking would
hide, is measured apart, in fresh interpreters.  One pass runs every command;
further passes fill the rest of ``--seconds`` (see ``measure``).  A command's
time is the median ``main()`` time over its samples; the known-defect inputs
are run once, for the gate only, and are not timed.  Every run is checked
against the outcomes in ``golden.json``; ``attempted`` and ``failed`` count
commands, not runs.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` every
command also runs traced, and it prints the per-layer metrics.  The last line
of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

GOLDEN = BENCH / "golden.json"
WORK = ROOT / ".bench_work"
COMMAND_TIMEOUT_S = 120
RUN_CAP_S = 140  # a run must end within 180 s, even when commands hang
SETUP_PROBES = 15  # fresh-interpreter set-up times per run
BLAS_THREADS = "1"

END_TO_END_UNITS = {
    "setup_s": "s",
    "cmds_per_s": "1/s",
    "cmd_p50_ms": "ms",
    "cmd_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# span name -> quantities reported for it
PER_LAYER = {
    "operators.operator_norm_est": ("self_ms", "calls", "dense_bytes"),
    "operators.lincomb": ("self_ms", "calls", "entries_out"),
    "operators.matmul": ("self_ms", "calls", "nnz_out"),
    "operators.rank_on_columns": ("self_ms",),
    "operators.build_rep": ("self_ms", "calls", "distinct", "basis_paths", "reuse_ratio"),
    "opalg.check_tck": ("self_ms",),
    "opalg.jmath": ("self_ms",),
    "opalg.limit_formulas": ("self_ms",),
    "opalg.eta_generators": ("self_ms",),
    "opalg.kappa_eval": ("self_ms",),
    "opalg.morita_combinatorics": ("self_ms",),
    "flow.lattice_decomposition_check": ("self_ms",),
    "quiver.reduce_parameter": ("self_ms",),
    "quiver.fibre_paths": ("self_ms", "paths_out"),
    "transform.higher_dual": ("self_ms", "calls", "edges_out"),
    "transform.delay": ("self_ms",),
    "graph.enumerate_paths": ("self_ms", "calls", "paths_out"),
    "graph.IntMatrix.matmul": ("self_ms", "calls"),
    "ktheory.smith_normal_form": ("self_ms", "calls", "cells_in"),
    "ktheory.hypothesis_check": ("self_ms", "calls"),
    "ktheory.graph_K": ("self_ms",),
    "cli.parse_graph_file": ("self_ms",),
    "cli.main": ("self_ms",),
}
QUANTITY_UNITS = {"self_ms": "ms", "dense_bytes": "bytes", "reuse_ratio": "ratio"}


def per_layer_units() -> dict[str, str]:
    units = {
        f"{name}.{q}": QUANTITY_UNITS.get(q, "count")
        for name, quantities in PER_LAYER.items()
        for q in quantities
    }
    units.update({f"{layer}.self_ms": "ms" for layer in tracing.LAYERS})
    units["trace.overhead_ratio"] = "ratio"
    return units


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SUSPEND_MAX_L", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class Server:
    """A ``child.py serve`` process: each command runs in a child forked from it."""

    def __init__(self, cwd: Path, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), "serve"],
            cwd=cwd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv, trace: bool, timeout: float = COMMAND_TIMEOUT_S) -> dict:
        """Run one command; return child.py's report on it."""
        t0 = time.monotonic()
        request = {"argv": list(argv), "trace": int(trace), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the command server ended")
        report = json.loads(line)
        if report["main_s"] is None:  # the child died: charge its wall time
            report["main_s"] = time.monotonic() - t0
        return report

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def setup_seconds(cwd: Path, env: dict) -> float:
    """Seconds from spawning a fresh interpreter until ``import suspquiver.cli`` returns."""
    spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "setup", repr(spawn)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout)


def write_graphs(workdir: Path, graphs: dict) -> None:
    for name, g in graphs.items():
        (workdir / f"{name}.json").write_text(workloads.graph_json(g), encoding="utf-8")


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def tail_percentile(values: list[float]) -> tuple[int, float]:
    """The highest whole percentile (nearest rank) with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        raise ValueError("a tail percentile needs more than ten samples")
    p = math.floor(100 * (n - 10) / n)
    while n - math.ceil(p * n / 100) < 10:  # guards float rounding only
        p -= 1
    return p, ordered[math.ceil(p * n / 100) - 1]


def command_times(samples: list[list[dict]]) -> list[float]:
    """Each command's median main() time over its samples."""
    return [statistics.median(r["main_s"] for r in reports) for reports in samples]


def end_to_end(samples: list[list[dict]], setup: list[float], failed: int, attempted: int):
    """End-to-end values from the timed commands' samples; returns (values, note)."""
    per_cmd = command_times(samples)
    reports = [r for reports in samples for r in reports]
    p, tail = tail_percentile(per_cmd)
    values = {
        "setup_s": statistics.median(setup),
        "cmds_per_s": len(per_cmd) / sum(per_cmd),
        "cmd_p50_ms": statistics.median(per_cmd) * 1e3,
        "cmd_tail_ms": tail * 1e3,
        "peak_rss_mb": max(r.get("maxrss_kb", 0) for r in reports) / 1024,
        "ok_ratio": 1 - failed / attempted,
    }
    return values, f"cmd_tail_ms is p{p} of {len(per_cmd)} per-command times"


def layer_values(traced_pass: list[dict]) -> dict:
    """Per-layer quantities summed over one traced pass."""
    totals: dict[str, dict] = {}
    for report in traced_pass:
        for name, agg in (report.get("trace") or {}).items():
            t = totals.setdefault(name, {})
            for q, v in agg.items():
                t[q] = t.get(q, 0) + v
    values = {}
    for name, quantities in PER_LAYER.items():
        t = totals.get(name, {})
        for q in quantities:
            if q == "reuse_ratio":
                calls = t.get("calls", 0)
                values[f"{name}.{q}"] = t.get("distinct", 0) / calls if calls else 0.0
            else:
                values[f"{name}.{q}"] = t.get(q, 0)
    for layer in tracing.LAYERS:
        values[f"{layer}.self_ms"] = sum(
            t.get("self_ms", 0.0)
            for name, t in totals.items()
            if tracing.LAYER_MODULES[name.split(".")[0]] == layer
        )
    return values


def per_layer(untraced: list[list[dict]], traced: list[list[dict]]) -> dict:
    per_pass = [layer_values(list(p)) for p in zip(*traced)]
    values = {k: statistics.median(v[k] for v in per_pass) for k in per_pass[0]}
    values["trace.overhead_ratio"] = sum(command_times(traced)) / sum(command_times(untraced))
    return values


def provenance(workload: str, seed: int, graphs: dict) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():  # never let git search the parent directories
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or commit
        except OSError:
            commit = "unknown (git not available)"
    info = {
        "workload": workload,
        "seed": seed,
        "graphs": {name: workloads.size_of(g) for name, g in sorted(graphs.items())},
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
    }
    try:
        import numpy as np

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["numpy"] = np.__version__
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError) as exc:
        info["numpy"] = f"unavailable ({type(exc).__name__})"
    return info


def measure(cmds, workdir: Path, seconds: float, trace: bool):
    """Run the commands for about `seconds`; return (untraced, traced, setup).

    `untraced` and `traced` hold each command's reports; `setup` holds
    SETUP_PROBES set-up times, taken in fresh interpreters spread over the run.
    The first pass runs every command in list order; a known-defect command
    runs only there, untraced.  Untraced, the rest of the run goes, one sample
    at a time, to the command with the least sampled time so far among those
    whose sample still fits: each command gets about the same measured time,
    so a cheap command gets many samples.  Traced, each command runs untraced
    and then traced, and passes over the list repeat while one still fits.
    """
    env = child_env()
    setup_seconds(workdir, env)  # compiles the package's bytecode; untimed
    untraced = [[] for _ in cmds]
    traced = [[] for _ in cmds]
    setup: list[float] = []
    cost = [0.0] * len(cmds)  # wall seconds of one sample, from the first pass
    timed = [i for i, c in enumerate(cmds) if not c.defect]
    start = time.monotonic()

    def sample(server, i: int) -> None:
        if len(setup) < SETUP_PROBES * (time.monotonic() - start) / seconds:
            setup.append(setup_seconds(workdir, env))
        t0 = time.monotonic()
        for reports, traced_run in ((untraced, False), (traced, True))[: 1 + trace]:
            if traced_run and cmds[i].defect:
                continue
            cap = max(1.0, RUN_CAP_S - (time.monotonic() - start))
            reports[i].append(server.run(cmds[i].argv, traced_run, min(cap, COMMAND_TIMEOUT_S)))
        cost[i] = cost[i] or time.monotonic() - t0

    with Server(workdir, env) as server:
        for i in range(len(cmds)):
            sample(server, i)
        while True:
            left = seconds - (time.monotonic() - start)
            if trace:
                if sum(cost[i] for i in timed) > left:
                    break
                for i in timed:
                    sample(server, i)
                continue
            fits = [i for i in timed if cost[i] <= left]
            if not fits:
                break
            sample(server, min(fits, key=lambda i: len(untraced[i]) * cost[i]))
    while len(setup) < SETUP_PROBES:
        setup.append(setup_seconds(workdir, env))
    return untraced, traced, setup


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "suspquiver" / "cli.py").is_file():
        print(f"error: no suspquiver sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    golden = load_golden()
    cmds, graphs = workloads.build(args.workload, args.seed, golden["pools"])
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        workdir = Path(tmp)
        write_graphs(workdir, graphs)
        untraced, traced, setup = measure(cmds, workdir, args.seconds, bool(args.trace))
    failures = {}  # command index -> why it failed the gate, in its first failing run
    for i, c in enumerate(cmds):
        for r in untraced[i] + traced[i]:
            if why := gate.failure(c, r, golden["outcomes"]):
                failures.setdefault(i, why)

    for i, why in failures.items():
        print(f"GATE FAIL{' (known defect)' if cmds[i].defect else ''}: {cmds[i].key}: {why}")
    for c, reports in zip(cmds, untraced):
        times = " ".join(f"{r['main_s'] * 1e3:.1f}" for r in reports)
        print(f"main_ms {times} :: {c.key}")
    timed = [i for i, c in enumerate(cmds) if not c.defect]
    if args.trace:
        values = per_layer([untraced[i] for i in timed], [traced[i] for i in timed])
        units, note = per_layer_units(), f"{len(traced[timed[0]])} traced pass(es)"
    else:
        values, note = end_to_end([untraced[i] for i in timed], setup, len(failures), len(cmds))
        units = END_TO_END_UNITS
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    runs = sum(map(len, untraced + traced))
    print(f"{len(cmds)} commands ({len(timed)} timed), {runs} command runs; {note}")
    print(json.dumps({"provenance": provenance(args.workload, args.seed, graphs)}))
    result = {
        "correct": all(cmds[i].defect for i in failures),
        "attempted": len(cmds),
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
