"""A fixed table of command lines at the extremes of each parameter.

Each row runs `suspend` in a fresh interpreter under an address-space limit
and a timeout.  Every row must end in its documented exit code (0 for a
result, 1 for a bad input or a failed check, 2 for a refused precondition)
with no traceback on stderr, within its wall-time bound.  The bounds are
several times what each row takes on a 2-CPU machine; the table as a whole
takes about 10 s there.
"""

import json
import os
import random
import resource
import subprocess
import sys
import time

import pytest

MEMORY_LIMIT = 1 << 30  # bytes of address space for each command
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _loop(e: str, v: str) -> dict:
    return {"id": e, "src": v, "dst": v}


GRAPHS = {
    "two_loop": {"vertices": ["v"], "edges": [_loop("e", "v"), _loop("f", "v")]},
    "single_loop": {"vertices": ["v"], "edges": [_loop("e", "v")]},
    # w has no edge at all
    "isolated": {"vertices": ["v", "w"], "edges": [_loop("e", "v"), _loop("f", "v")]},
    # w receives e and emits nothing: a sink
    "sink": {"vertices": ["v", "w"], "edges": [_loop("l", "v"), {"id": "e", "src": "v", "dst": "w"}]},
    # w emits e and receives nothing: a source
    "source": {"vertices": ["v", "w"], "edges": [_loop("l", "v"), {"id": "e", "src": "w", "dst": "v"}]},
    "loops_only": {"vertices": ["u", "v"], "edges": [_loop("a", "u"), _loop("b", "v"), _loop("c", "v")]},
}


def _cycle_with_chords(n: int, chords: int, seed: int) -> dict:
    rng = random.Random(seed)
    vs = [f"v{i}" for i in range(n)]
    edges = [{"id": f"c{i}", "src": vs[i], "dst": vs[(i + 1) % n]} for i in range(n)]
    edges += [{"id": f"x{j}", "src": rng.choice(vs), "dst": rng.choice(vs)} for j in range(chords)]
    return {"vertices": vs, "edges": edges}


GRAPHS["cycle60"] = _cycle_with_chords(60, 30, 0)

MAXSIZE = str(sys.maxsize)

# (graph, argv after the graph file, exit code, seconds allowed)
ROWS = [
    # rationals: the denominator cap 10^6, and past it
    ("two_loop", ("quiver", "--m", "1", "--t", "999999/1000000", "--n", "3"), 0, 3),
    ("two_loop", ("quiver", "--m", "1", "--t", "1/1000001", "--n", "1"), 2, 3),
    ("two_loop", ("ktheory", "--l", "1/1000000"), 0, 3),
    ("two_loop", ("verify", "--suite", "all", "--l", "1/1000000"), 2, 3),
    ("two_loop", ("verify", "--suite", "flow", "--l", "999999/1000000", "--L", "1"), 2, 3),
    # |m| in the thousands
    ("two_loop", ("ktheory", "--l", "5000"), 0, 5),
    ("two_loop", ("ktheory", "--l", "-5000"), 0, 5),
    ("two_loop", ("ktheory", "--l", "15000"), 2, 3),
    ("single_loop", ("quiver", "--m", "3000", "--t", "1/2", "--n", "1"), 0, 3),
    ("two_loop", ("quiver", "--m", "3000", "--n", "1"), 2, 3),
    # delay:N, power:N and dual:p,q at and past their caps
    ("two_loop", ("transform", "--op", "delay:25000"), 0, 5),
    ("two_loop", ("transform", "--op", "delay:1000000"), 2, 3),
    ("two_loop", ("transform", "--op", "power:17"), 0, 5),
    ("two_loop", ("transform", "--op", "power:40"), 2, 3),
    ("two_loop", ("transform", "--op", "dual:12,16"), 0, 5),
    ("two_loop", ("transform", "--op", "dual:0,1"), 0, 3),
    ("two_loop", ("transform", "--op", "dual:1,40"), 2, 3),
    # --L from 0 up to sys.maxsize
    ("two_loop", ("verify", "--suite", "tck", "--L", "0"), 2, 3),
    ("single_loop", ("verify", "--suite", "tck", "--L", "2000"), 0, 5),
    ("two_loop", ("verify", "--suite", "tck", "--L", MAXSIZE), 2, 3),
    ("two_loop", ("verify", "--suite", "all", "--L", MAXSIZE), 2, 3),
    # the flow prefix, --count and a 23-digit --seed
    ("two_loop", ("flow", "--start", "e,,f"), 1, 3),
    ("two_loop", ("flow", "--start", "e", "--step", "0", "--count", "1000000"), 0, 8),
    ("two_loop", ("flow", "--start", "e,e", "--step", "1/1000000", "--count", "100000000"), 2, 3),
    ("two_loop", ("verify", "--suite", "tck", "--seed", "12345678901234567890123"), 0, 3),
    # graph shapes
    ("isolated", ("verify", "--suite", "all"), 2, 5),
    ("isolated", ("ktheory", "--l", "2"), 2, 3),
    ("sink", ("verify", "--suite", "all", "--l", "2/3"), 2, 5),
    ("sink", ("quiver", "--m", "2", "--t", "1/3", "--n", "4"), 0, 3),
    ("source", ("verify", "--suite", "all"), 2, 5),
    ("source", ("flow", "--start", "e", "--step", "1/2", "--count", "3"), 2, 3),
    ("loops_only", ("verify", "--suite", "all", "--l", "2"), 0, 5),
    ("loops_only", ("ktheory", "--l", "-7/3"), 2, 3),
    ("cycle60", ("ktheory", "--l", "118"), 0, 8),
    ("cycle60", ("ktheory", "--l", "119"), 2, 3),
]


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("sweep")
    files = {}
    for name, doc in GRAPHS.items():
        files[name] = folder / f"{name}.json"
        files[name].write_text(json.dumps(doc))
    return files


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


@pytest.mark.parametrize(
    "graph,argv,code,seconds", ROWS, ids=[f"{g}:{' '.join(a)}" for g, a, _, _ in ROWS]
)
def test_command_ends_in_a_documented_exit(graph_files, graph, argv, code, seconds):
    command = [sys.executable, "-m", "suspquiver.cli", argv[0], str(graph_files[graph]), *argv[1:]]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    began = time.perf_counter()
    done = subprocess.run(
        command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        preexec_fn=_limit_memory, timeout=4 * seconds,
    )
    took = time.perf_counter() - began
    err = done.stderr.decode(errors="replace")
    assert "Traceback" not in err, err
    assert done.returncode == code, err
    assert took < seconds, f"{took:.2f} s"
