"""Run ``suspend`` commands, each in a process that has run no command before.

Usage:

    python3 child.py setup SPAWN_TIME
    python3 child.py serve

``setup`` imports ``suspquiver.cli`` in this fresh interpreter and prints the
seconds since SPAWN_TIME, the parent's ``time.monotonic()`` just before it
started this process.

``serve`` imports ``suspquiver.cli`` once and then reads requests from stdin,
one JSON object a line: ``{"argv": [...], "trace": 0|1, "timeout": SECONDS}``.
For each it forks a child from this pristine state, so no module state of one
command reaches the next, and the child runs ``cli.main(argv)`` with its
output captured.  The server never runs a command itself.  It writes one JSON
report a line to stdout.
"""

import io
import json
import math
import os
import resource
import signal
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout


def run_one(cli, argv, trace: bool) -> dict:
    """Run one command in this process and describe the run."""
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer().install()
    out, err = io.StringIO(), io.StringIO()
    exit_code, exception = None, None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            exit_code = cli.main(argv)
        except SystemExit as exc:  # argparse: --help, usage errors
            exit_code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # what a user would see as a traceback
            exception = type(exc).__name__
            traceback.print_exc()
        main_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    return {
        "main_s": main_s,
        "exit": exit_code,
        "exception": exception,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.summary() if tracer else None,
    }


def fork_one(cli, request: dict) -> dict:
    """Run one request in a forked child; a child that dies reports nothing."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report through the pipe, never return
        status = 1
        try:
            os.close(read_fd)
            signal.alarm(max(1, math.ceil(request["timeout"])))  # SIGALRM ends the child
            report = run_one(cli, request["argv"], bool(request["trace"]))
            with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(report))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if data:
        return json.loads(data)
    timed_out = os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGALRM
    return {"main_s": None, "exit": None,
            "exception": "Timeout" if timed_out else "ChildCrashed",
            "stdout": "", "stderr": f"child ended with wait status {status}"}


def serve() -> None:
    import suspquiver.cli as cli

    for line in sys.stdin:
        sys.stdout.write(json.dumps(fork_one(cli, json.loads(line))) + "\n")
        sys.stdout.flush()


def setup(spawn: float) -> None:
    import suspquiver.cli  # noqa: F401

    print(time.monotonic() - spawn)


if __name__ == "__main__":
    if sys.argv[1] == "serve":
        serve()
    else:
        setup(float(sys.argv[2]))
