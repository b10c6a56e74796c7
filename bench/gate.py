"""Correctness gate: the results the paper fixes, compared with recorded outcomes.

Only verdicts and computed objects are compared: the ``CHECK name PASS|FAIL``
verdicts, ``K0``/``K1``, fibre listings, openness lines, the transformed graph
and the orbit lines.  Free-text check detail and ``NOTE`` lines are left out,
so a change of report wording is not a failure.
"""

from __future__ import annotations

import hashlib
import json

DOCUMENTED_EXITS = (0, 1, 2)


def result_lines(sub: str, stdout: str) -> list[str]:
    lines = stdout.splitlines()
    if sub == "verify":
        return sorted(" ".join(l.split(maxsplit=3)[:3]) for l in lines if l.startswith("CHECK "))
    if sub == "ktheory":
        return [l for l in lines if l.startswith(("K0 = ", "K1 = "))]
    if sub == "quiver":
        return [l for l in lines if l.startswith(("FIBRE ", "PATH ", "VERTEX ", "OPEN"))]
    if sub == "transform":
        if not stdout.strip():
            return []
        return [json.dumps(json.loads(stdout), sort_keys=True, separators=(",", ":"))]
    if sub == "flow":
        return lines
    raise KeyError(sub)


def outcome(argv, report: dict) -> dict:
    """The comparable part of one command's run, as reported by child.py."""
    lines = result_lines(argv[0], report["stdout"])
    return {
        "exit": report["exit"],
        "results": len(lines),
        "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
    }


def failure(command, report: dict, golden: dict) -> str:
    """Why the command fails the gate, or "" when it passes."""
    if report.get("exception"):
        return f"uncaught {report['exception']}"
    if "Traceback (most recent call last)" in report.get("stderr", ""):
        return "traceback on stderr"
    if report["exit"] not in DOCUMENTED_EXITS:
        return f"undocumented exit {report['exit']}"
    if command.defect:
        return ""
    expected = golden.get(command.key)
    if expected is None:
        return "no recorded outcome"
    got = outcome(command.argv, report)
    if got != expected:
        return f"outcome {got} differs from recorded {expected}"
    return ""
