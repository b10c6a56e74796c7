"""Command-line interface: file I/O, dispatch, and check reports.

Exit codes: 0 all checks pass; 1 structural error (bad file, bad syntax) or a
failed check; 2 precondition or hypothesis unmet, or a malformed command line.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import math
import os
import random
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .errors import PreconditionError, StructuralError, SuspensionError
from . import flow as flowmod
from . import ktheory as kt
from . import opalg
from .graph import Graph, Path, check_layer_ids, enumerate_paths, path_count, validate
from .graph import _layer_sizes, check_layer_sizes
from .operators import build_rep
from .quiver import fibre_halves, fibre_paths, openness_report
from .report import RunReport, rat_str
from .transform import delay_layer_sizes, delay_triples, higher_dual_triples, opposite

MAX_DENOMINATOR = 10**6

# The most that verify builds for one suite, counted from E: flow's cases (n
# phases of each path of E^L, about 30 us each) or the basis paths of each
# representation (about 1 KB each).  On two loops at one vertex (one fresh
# interpreter, 2-CPU machine) --suite flow --l 1/3000 checks 48,000 cases in
# 1.7 s, and --suite tck --L 16 built 131,071 paths in 3.5 s.
MAX_SUITE_SIZE = 10**5

# The most vertices plus edges that `transform --op delay:N` builds, counted
# from E before the build: D_N(E) has |V| + (N-1)|E| vertices and N|E| edges.
# On two loops at one vertex (one fresh interpreter, 2-CPU machine) delay:25000
# (99,999 of them) is written one edge chain at a time in 0.27-0.31 s and 37 MB.
MAX_DELAY_SIZE = 10**5

EXIT_OK = 0
EXIT_STRUCTURAL = 1
EXIT_PRECONDITION = 2
EXIT_USAGE = 2


def parse_graph_file(path: str) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    # ValueError is json's JSONDecodeError, a UnicodeDecodeError (bytes that
    # are not UTF-8) or an integer past Python's int-string digit limit, and
    # RecursionError arrays or objects nested too deep for the decoder
    except (OSError, ValueError, RecursionError) as exc:
        raise StructuralError(f"cannot parse graph file: {exc}") from exc
    # a string or an object would iterate as its characters or keys
    try:
        vertices, edges = doc["vertices"], doc["edges"]
        if not (isinstance(vertices, list) and isinstance(edges, list)):
            raise TypeError("vertices and edges must be JSON arrays")
        if not all(isinstance(e, dict) for e in edges):
            raise TypeError("each edge must be a JSON object")
        edges = [(e["id"], e["src"], e["dst"]) for e in edges]
    except (KeyError, TypeError) as exc:
        raise StructuralError(f"bad graph document: {exc}") from exc
    if not all(isinstance(v, str) and v for v in vertices):
        raise StructuralError("vertex ids must be nonempty strings")
    if not all(isinstance(x, str) and x for e in edges for x in e):
        raise StructuralError("edge fields must be nonempty strings")
    return Graph(vertices, edges)


def write_graph(out, vertices, blocks) -> None:
    """Write json.dumps(doc, indent=2, sort_keys=True) and a newline to out,
    doc = {"vertices": [...], "edges": [{"id", "src", "dst"}]}, a block at a
    time: a block (None, ws) holds the (id, src, dst) triples ws, and ((h, a),
    ws) the edges (h + j, d, a) for (j, d) in ws, one ws serving many blocks
    (see transform.higher_dual_triples).  The layout is written directly, as
    json.dumps with indent runs its pure-Python encoder; its ASCII escaping
    goes one code point at a time, so enc(h + j) = enc(h)[:-1] + enc(j)[1:].
    """
    enc = encode_basestring_ascii
    tails, sep = {}, "\n"  # id(ws) -> ws and the text of each (j, d) in it
    out.write('{\n  "edges": [')
    for u, ws in blocks:
        if u is None:
            head, edges = "", [
                f'    {{\n      "dst": {enc(dst)},\n      "id": {enc(i)},\n'
                f'      "src": {enc(src)}\n    }}'
                for i, src, dst in ws
            ]
        else:
            if id(ws) not in tails:
                tails[id(ws)] = ws, [f'{enc(j)[1:]},\n      "src": {enc(d)}\n    }}' for j, d in ws]
            head = f'    {{\n      "dst": {enc(u[1])},\n      "id": {enc(u[0])[:-1]}'
            edges = tails[id(ws)][1]
        if edges:
            out.write(sep + head + (",\n" + head).join(edges))
            sep = ",\n"
    vertices = ",\n".join("    " + enc(v) for v in vertices)
    out.write(
        ("]" if sep == "\n" else "\n  ]")
        + ',\n  "vertices": ' + (f"[\n{vertices}\n  ]" if vertices else "[]")
        + "\n}\n"
    )


def parse_rational(s: str) -> Fraction:
    """Parse "m/n" (optional sign); the fraction must be in lowest terms."""
    text = s.strip()
    try:
        if "/" in text:
            num_s, den_s = text.split("/", 1)
            num, den = int(num_s), int(den_s)
        else:
            num, den = int(text), 1
        if den <= 0:
            raise ValueError("denominator must be positive")
    except ValueError as exc:
        raise StructuralError(f"cannot parse rational {s!r}") from exc
    if den > MAX_DENOMINATOR:
        raise PreconditionError(f"denominator exceeds {MAX_DENOMINATOR}")
    if math.gcd(abs(num), den) != 1:
        raise PreconditionError(f"rational {s!r} is not in lowest terms")
    return Fraction(num, den)


def capped_L(L: int) -> int:
    cap = os.environ.get("SUSPEND_MAX_L")
    if cap is not None:
        try:
            L = min(int(cap), L)
        except ValueError as exc:
            raise StructuralError("SUSPEND_MAX_L must be an integer") from exc
    if L < 1:
        raise PreconditionError("truncation length must be >= 1")
    return L


def cmd_transform(args) -> int:
    g = parse_graph_file(args.input)
    op = args.op
    if op == "opposite":
        vertices, blocks = g.vertices, [(None, [(e.id, e.src, e.dst) for e in opposite(g).edges])]
    elif op.startswith("delay:"):
        n = _int_param(op[6:])
        size = len(g.vertices) + (2 * n - 1) * len(g.edges)
        if size > MAX_DELAY_SIZE:
            raise PreconditionError(
                f"D_{n}(E) has {size} vertices and edges, over {MAX_DELAY_SIZE}; "
                "refusing to build it"
            )
        vertices, chains = delay_triples(g, n)
        blocks = ((None, chain) for chain in chains)
    elif op.startswith("power:"):
        m = _int_param(op[6:])
        check_layer_ids(g, m)
        if m < 1:  # as higher_power refuses it
            raise PreconditionError("higher_power requires m >= 1")
        vertices, blocks = higher_dual_triples(g, 0, m)
    elif op.startswith("dual:"):
        parts = op[5:].split(",")
        if len(parts) != 2:
            raise StructuralError("dual op needs two parameters p,q")
        p, q = _int_param(parts[0]), _int_param(parts[1])
        check_layer_ids(g, q if 0 <= p < q else 0)  # else higher_dual refuses p,q
        vertices, blocks = higher_dual_triples(g, p, q)
    else:
        raise StructuralError(f"unknown op {op!r}")
    if not args.output:
        write_graph(sys.stdout, vertices, blocks)
        return EXIT_OK
    try:  # opened after every refusal, so that a refused command leaves no file
        with open(args.output, "w", encoding="utf-8") as fh:
            write_graph(fh, vertices, blocks)
    except OSError as exc:
        raise StructuralError(f"cannot write {args.output!r}: {exc.strerror}") from exc
    return EXIT_OK


def _int_param(s: str) -> int:
    try:
        return int(s)
    except ValueError as exc:
        raise StructuralError(f"bad integer parameter {s!r}") from exc


def cmd_ktheory(args) -> int:
    g = parse_graph_file(args.input)
    l = parse_rational(args.l)
    rep = kt.suspension_K(g, l.numerator, l.denominator)
    lines = [f"L = {rat_str(l)}"]
    for v in sorted(rep.hypothesis_table):
        lines.append(f"HYP {v} {rep.hypothesis_table[v]}")
    lines.append(f"ROUTE {rep.route}")
    for flag in rep.flags:
        lines.append(f"FLAG {flag}")
    lines.append(f"K0 = {rep.k0}")
    lines.append(f"K1 = {rep.k1}")
    if not rep.hypotheses_met:
        if l != 0 and len(g.edges) == len(g.vertices) == 1:
            lines.append("NOTE rotation-algebra regime: single loop at fractional l")
    text = "\n".join(lines)
    if args.json:
        doc = {
            "l": rat_str(l),
            "hypotheses": rep.hypothesis_table,
            "route": rep.route,
            "flags": rep.flags,
            "K0": str(rep.k0),
            "K1": str(rep.k1),
        }
        text = json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    return EXIT_OK if rep.hypotheses_met else EXIT_PRECONDITION


def _seeded_functions(g: Graph, m: int, seed: int):
    """Seeded vertex values and lattice weights for m >= 1.  The vertex values
    are redrawn while two or more vertices all share one, which would leave
    the rho half of the limit check vacuous."""
    rng = random.Random(seed)
    vvals: dict = {}
    while len(set(vvals.values())) < min(2, len(g.vertices)):
        vvals = {v: Fraction(rng.randint(0, 4), 8) for v in g.vertices}
    a = opalg.vertex_fn_interpolated(g, vvals)
    wvals = {w.edge_ids: Fraction(rng.randint(0, 4), 8) for w in enumerate_paths(g, m)}
    xi = opalg.edge_fn_interpolated(g, m, wvals)
    return a, xi


def _has_sources(g: Graph, p: int, q: int) -> bool:
    """Whether E(p,q) (E at (0,1)) has a source: a p-path mu (a vertex for p = 0)
    with no (q-p)-path received at s(mu).  The ranges of the k-paths only
    shrink as k grows, so they are fixed from k = |E^0| on."""
    tails, heads = set(g.vertices), set(g.vertices)
    for _ in range(p):
        tails = {e.src for v in tails for e in g.received(v)}
    for _ in range(min(q - p, len(g.vertices))):
        heads = {e.dst for v in heads for e in g.emitted(v)}
    return not tails <= heads


def cmd_verify(args) -> int:
    # each suite's truncation length is L or its cap, the lesser; in report order
    caps = {"tck": math.inf, "jmath": 3, "limits": 4, "eta": 4, "kappa": 4, "morita": 4, "flow": 5}
    if args.suite not in {*caps, "all"}:
        raise StructuralError(f"unknown suite {args.suite!r}")
    g = parse_graph_file(args.input)
    if not g.edges:
        raise PreconditionError("verify needs a graph with at least one edge")
    L = capped_L(args.L)
    l = parse_rational(args.l)
    m, n = l.numerator, l.denominator
    if m < 1:
        raise PreconditionError("verify suites need a positive l")
    depth = {s: min(L, cap) for s, cap in caps.items() if args.suite in (s, "all")}
    # the E(p,q) each suite builds, E(0,1) standing for E; limits, eta and
    # kappa share one E(1,m+1), counted for the first of them that runs
    shared = [s for s in depth if s in ("limits", "eta", "kappa")]
    pqs = {"tck": [(0, 1)], "jmath": [(1, 2), (1, 3), (2, 3)]}
    if shared:
        pqs[shared[0]] = [(1, m + 1)]
    reps = [(s, p, q, at) for s, at in depth.items() for p, q in pqs.get(s, ())]
    # The counts that refuse a suite come here, from E alone, before any runs
    cases = path_count(g, depth["flow"]) * n if "flow" in depth else 0
    if cases > MAX_SUITE_SIZE:
        raise PreconditionError(
            f"flow checks {cases} cases, over {MAX_SUITE_SIZE}; refusing to build D_{n}(E)"
        )
    if shared:
        check_layer_ids(g, m + 1)
    diag = validate(g)
    # morita enumerates E^m and D_n(E)^m, and its basis holds the vertices and
    # the D_n(E)-paths of length k m, k <= its length; it refuses sinks below,
    # and sources in its own turn, after the suites before it
    if "morita" in depth and not (diag.sinks or diag.sources):
        check_layer_ids(g, m)
        sizes = list(itertools.islice(delay_layer_sizes(g, n), depth["morita"] * m + 1))
        check_layer_sizes(sizes[1:], m)
        basis = sum(sizes[::m])
        if basis > MAX_SUITE_SIZE:
            raise PreconditionError(
                f"morita builds D_{n}(E)(0,{m}) at L={depth['morita']} on {basis} basis paths, "
                f"over {MAX_SUITE_SIZE}; refusing to build it"
            )
    shifts = (m + n - 1) // n  # the most edges that flow drops from a path
    if cases and shifts >= depth["flow"]:
        raise PreconditionError(
            f"flow at l={rat_str(l)} shifts each path by up to {shifts}, so it needs "
            f"paths longer than {shifts}; L={L} gives length {depth['flow']}"
        )
    # Then each other representation in suite order, up to the first whose
    # graph has sources, which build_rep refuses in its turn; with no sources
    # no suite before morita refuses, so its refusal of sinks comes first
    if "morita" in depth and diag.sinks and not diag.sources:
        raise PreconditionError("need a graph with no sinks and no sources")
    for suite, p, q, at in reps:
        if _has_sources(g, p, q):
            break
        # |E^(p + k(q-p))| over k <= at, stopped once past the cap or after
        # the last nonempty layer; at may be past sys.maxsize, islice's limit
        sizes = itertools.chain([len(g.vertices)], _layer_sizes(g))
        basis = 0
        for k, size in zip(range(at + 1), itertools.islice(sizes, p, None, q - p)):
            basis += size
            if basis > MAX_SUITE_SIZE:
                raise PreconditionError(
                    f"{suite} builds {f'E({p},{q})' if p else 'E'} at L={at} on "
                    f"{'at least ' * (k < at)}{basis} basis paths, over {MAX_SUITE_SIZE}; "
                    "refusing to build it"
                )
    out = RunReport()
    if "tck" in depth:
        out.extend(opalg.check_tck(build_rep(g, depth["tck"]), random.Random(args.seed)))
    for p, q in pqs["jmath"] if "jmath" in depth else ():
        out.extend(opalg.jmath(g, p, q, depth["jmath"]).report)
    if shared:
        a, xi = _seeded_functions(g, m, args.seed)
    if "limits" in depth:
        out.extend(opalg.limit_formulas(g, m, depth["limits"], a, xi, K=6).report)
    if "eta" in depth:
        out.extend(opalg.eta_generators(g, m, depth["eta"]).report)
    for t in (Fraction(0), Fraction(1, 3), Fraction(1)) if "kappa" in depth else ():
        out.extend(opalg.kappa_eval(g, m, depth["kappa"], a, xi, t).report)
    if "morita" in depth:
        out.extend(opalg.morita_combinatorics(g, m, n, depth["morita"]))
    if "flow" in depth:
        out.extend(flowmod.lattice_decomposition_check(g, m, n, depth["flow"]))
    print(out.to_json() if args.json else out.to_text())
    return EXIT_OK if out.ok else EXIT_STRUCTURAL


def cmd_flow(args) -> int:
    g = parse_graph_file(args.input)
    ids = tuple(x for x in args.start.split(",") if x)
    if not ids:
        raise StructuralError("empty start prefix")
    prefix = Path(g, ids)
    p = flowmod.make_flow_point(prefix, parse_rational(args.t))
    step = parse_rational(args.step)
    if step < 0:
        raise PreconditionError("step must be >= 0")
    if args.count < 0:
        raise PreconditionError("count must be >= 0")
    for line in flowmod.orbit_lines(p, step, args.count):
        print(line)
    return EXIT_OK


def cmd_quiver(args) -> int:
    g = parse_graph_file(args.input)
    lines = []
    if args.openness:
        rep = openness_report(g)
        for eid in sorted(rep["edges"]):
            rec = rep["edges"][eid]
            lines.append(f"OPEN {eid} s_open={rec.s_open} r_open={rec.r_open}")
        lines.append(f"OPEN_ALL s={rep['s_open_everywhere']} r={rep['r_open_everywhere']}")
    else:
        t = parse_rational(args.t)
        head = f"FIBRE m={args.m} t={rat_str(t % 1)} n={args.n} count="
        if args.n < 1:  # the VERTEX anchors, or refused by fibre_paths
            anchors = fibre_paths(g, args.m, t, args.n)
            lines.append(f"{head}{len(anchors)}")
            lines.extend(f"VERTEX {qp.anchor}" for qp in anchors)
        else:
            m, n = args.m, args.n
            check_layer_ids(g, n * m + (t % 1 != 0))
            left, right, k = fibre_halves(g, m, t, n)
            # window i is mu(im, (i+1)m + k): a "%s" per id, filled from its
            # place in mu.  The places run up, so a line is the format's first
            # cut "%s" filled from its first half u = mu(0, j), the rest from w
            j = (n * m + k) // 2
            places = [i * m + x for i in range(n) for x in range(m + k)]
            fmt = ("PATH " + " ".join(["(" + ")(".join(["%s"] * (m + k)) + ")"] * n)).split("%s")
            cut = sum(x < j for x in places)
            fmt_u, fmt_w = "%s".join(fmt[: cut + 1]), "%s".join(["", *fmt[cut + 1 :]])
            tails = {v: [fmt_w % tuple([w[x - j] for x in places[cut:]]) for w, _ in ws]
                     for v, ws in right.items()}
            sys.stdout.write(f"{head}{sum(len(right[tail]) for _, tail in left)}\n")
            for u, tail in left:
                if tails[tail]:
                    line = fmt_u % tuple([u[x] for x in places[:cut]])
                    sys.stdout.write(line + ("\n" + line).join(tails[tail]) + "\n")
            return EXIT_OK
    print("\n".join(lines))
    return EXIT_OK


# command -> (handler, help, options).  An option is (names, dest, kind,
# default, help): kind is str, int or bool (a flag, which takes no value),
# and the default REQUIRED makes the option required.
REQUIRED = object()
COMMANDS = {
    "transform": (cmd_transform, "graph-to-graph constructions", [
        ("--op", "op", str, REQUIRED, "opposite | delay:n | dual:p,q | power:m"),
        ("-o --output", "output", str, None, "write the graph here, not to stdout")]),
    "ktheory": (cmd_ktheory, "K-theory of the suspension algebra", [
        ("--l", "l", str, "1", 'parameter "m/n" (optional sign)'),
        ("--json", "json", bool, False, "print a JSON document")]),
    "verify": (cmd_verify, "operator-identity verification suites", [
        ("--suite", "suite", str, "all", "tck|jmath|limits|eta|kappa|morita|flow|all"),
        ("--L", "L", int, 4, "truncation length"),
        ("--seed", "seed", int, 0, "seed of the spot checks and test functions"),
        ("--l", "l", str, "1/2", "parameter for the l-dependent suites"),
        ("--json", "json", bool, False, "print a JSON report")]),
    "flow": (cmd_flow, "orbit traces of the suspension flow", [
        ("--start", "start", str, REQUIRED, "comma-separated edge ids"),
        ("--t", "t", str, "0", "start time"),
        ("--step", "step", str, "1/2", "time step"),
        ("--count", "count", int, 4, "number of steps")]),
    "quiver": (cmd_quiver, "fibre enumeration and openness report", [
        ("--m", "m", int, 1, "suspension parameter m"),
        ("--t", "t", str, "1/3", "fibre coordinate"),
        ("--n", "n", int, 1, "path length"),
        ("--openness", "openness", bool, False, "report s/r openness, not a fibre")]),
}


class _UsageError(Exception):
    """args = (command or None, reason): argv does not fit COMMANDS."""


class _Args:
    """A parsed command line: command, fn, input and each option's dest."""


def _usage(command) -> str:
    if command is None:
        return "usage: suspend {" + ",".join(COMMANDS) + "} ..."
    words = ["input"]
    for names, dest, kind, default, _ in COMMANDS[command][2]:
        word = names.split()[0] + ("" if kind is bool else " " + dest.upper())
        words.append(word if default is REQUIRED else f"[{word}]")
    return f"usage: suspend {command} " + " ".join(words)


def _print_help(args) -> int:
    if args.command is None:
        rows = [(name, spec[1]) for name, spec in COMMANDS.items()]
    else:
        rows = [("input", "graph JSON file")]
        for names, dest, kind, default, text in COMMANDS[args.command][2]:
            left = names.replace(" ", ", ") + ("" if kind is bool else " " + dest.upper())
            if default is REQUIRED:
                text += " (required)"
            elif kind is not bool and default is not None:
                text += f" (default: {default})"
            rows.append((left, text))
    rows.append(("-h, --help", "print this help and exit"))
    width = max(len(left) for left, _ in rows)
    print(_usage(args.command), "", *(f"  {left:<{width}}  {text}" for left, text in rows), sep="\n")
    return EXIT_OK


def _parse(argv: list) -> _Args:
    """argv as _Args, whose fn runs the command or, after -h, prints help.

    Options and the input come in any order.  A value option takes the text
    after "=", else the next token, whatever it starts with.
    """
    args = _Args()
    args.command, args.fn, args.input = None, _print_help, None
    if argv[:1] in (["-h"], ["--help"]):
        return args
    if not argv or argv[0] not in COMMANDS:
        raise _UsageError(None, f"unknown command {argv[0]!r}" if argv else "missing command")
    args.command, (args.fn, _, options) = argv[0], COMMANDS[argv[0]]
    by_name = {name: option for option in options for name in option[0].split()}
    for _, dest, _, default, _ in options:
        setattr(args, dest, default)
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            args.fn = _print_help
            return args
        name, eq, value = token.partition("=")
        if not token.startswith("-"):
            if args.input is not None:
                raise _UsageError(args.command, f"unexpected argument {token!r}")
            args.input = token
            continue
        if name not in by_name:
            raise _UsageError(args.command, f"unknown option {name!r}")
        _, dest, kind, _, _ = by_name[name]
        if kind is bool and eq:
            raise _UsageError(args.command, f"option {name} takes no value")
        if kind is not bool and not eq:
            value = next(tokens, None)
            if value is None:
                raise _UsageError(args.command, f"option {name} needs a value")
        try:
            setattr(args, dest, True if kind is bool else kind(value))
        except ValueError:
            raise _UsageError(args.command, f"option {name} needs an integer, not {value!r}") from None
    if args.input is None:
        raise _UsageError(args.command, "missing input")
    for names, dest, _, _, _ in options:
        if getattr(args, dest) is REQUIRED:
            raise _UsageError(args.command, f"missing option {names}")
    return args


def main(argv=None) -> int:
    # The objects alive now (modules, functions, tables) are not the
    # command's garbage: frozen, the collector never walks them, so in a
    # forked server it copies none of their pages, and its counters start
    # from zero, so a collection fires by what the command allocates.  A
    # caller's own freeze is left in place.  The check for one costs
    # O(frozen objects): gc.get_freeze_count() walks the permanent
    # generation, free when nothing is frozen but 1.08 ms in a child forked
    # from a server that froze 14,048 objects (2-CPU machine).
    thaw = gc.get_freeze_count() == 0
    gc.freeze()
    try:
        return _run(argv)
    finally:
        if thaw:
            gc.unfreeze()


def _run(argv) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except _UsageError as exc:
        command, reason = exc.args
        print(_usage(command), f"suspend: error: {reason}", sep="\n", file=sys.stderr)
        return EXIT_USAGE
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a reader gone before the end shows here, not at exit
        return code
    except BrokenPipeError:  # on os.devnull, the flush at exit cannot fail again
        with contextlib.suppress(OSError, ValueError):  # a stdout with no fd
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_STRUCTURAL
    except StructuralError as exc:
        print(f"ERROR structural: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except PreconditionError as exc:
        print(f"ERROR precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except SuspensionError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    finally:  # json.dumps with an indent leaves a cycle; the next main would freeze it
        if getattr(args, "json", False):
            gc.collect()


if __name__ == "__main__":
    sys.exit(main())
