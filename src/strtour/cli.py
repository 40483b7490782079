"""Batch command line: generate, solve, verify, and oracle subcommands.

Exit codes: 0 success (tour found, verification passed, graph generated),
2 the graph is not Eulerian or a tour failed verification, 1 anything
broken (usage, unreadable or unwritable file, parse error, internal fault)
or interrupted (SIGINT or SIGTERM), after the run's files are cleaned up.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from contextlib import closing, contextmanager
from typing import Iterator, Optional

# stream_core first: the largest module compiles while the least code is
# alive.  gen, verify and oracle import oracle_gen themselves.
from .stream_core import (
    IntegrityFault,
    NotEulerianError,
    ParseError,
    read_graph_file,
    read_tour_file,
    validate_edges,
    write_graph_file,
    write_tour_file,
)
from .pipeline import solve_file


class UsageError(Exception):
    pass


class Terminated(BaseException):
    """SIGTERM arrived.  Like ``KeyboardInterrupt``, ``except Exception`` misses it."""


def _raise_terminated(signum, frame):
    raise Terminated


@contextmanager
def _sigterm_raises() -> Iterator[None]:
    """Turn SIGTERM into ``Terminated`` for the block, so cleanups run.

    Only the main thread can set a handler; the previous one comes back on
    exit, since tests call ``main`` in-process.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for not-eulerian
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="strtour", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a random Eulerian (or perturbed) graph")
    gen.add_argument("--out", required=True, help="graph file to write")
    gen.add_argument("--n", type=int, required=True, help="vertex count")
    gen.add_argument("--m", type=int, required=True, help="target edge count")
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--perturb", choices=["odd", "disconnected"], default=None,
                     help="break the generated graph in the named way")

    slv = sub.add_parser("solve", help="find an Euler tour with the streaming pipeline")
    slv.add_argument("--in", dest="input", required=True, help="graph file")
    slv.add_argument("--out", dest="output", default=None, help="tour file to write")
    slv.add_argument("--stats", default=None, help="stats file (JSON) to write")
    slv.add_argument("--trace-dir", default=None,
                     help="dump every inter-pass stream here as text "
                          "(the directory must be absent or empty)")

    ver = sub.add_parser("verify", help="check a tour file against a graph file")
    ver.add_argument("--in", dest="input", required=True, help="graph file")
    ver.add_argument("--tour", required=True, help="tour file")

    orc = sub.add_parser("oracle", help="in-memory Eulerian test and tour")
    orc.add_argument("--in", dest="input", required=True, help="graph file")
    orc.add_argument("--out", dest="output", default=None, help="tour file to write")
    return parser


def cmd_gen(args) -> int:
    from .oracle_gen import gen_eulerian, perturb
    n, edges = gen_eulerian(args.n, args.m, args.seed)
    if args.perturb:
        n, edges = perturb(n, edges, args.perturb)
    write_graph_file(args.out, n, edges)
    print(f"wrote {args.out}: n={n} m={len(edges)}")
    return 0


def cmd_solve(args) -> int:
    result = solve_file(
        args.input,
        tour_path=args.output,
        stats_path=args.stats,
        trace_dir=args.trace_dir,
    )
    stats = result.stats
    print(f"tour of {len(result.tour)} edges, "
          f"{stats.circuits_found} circuits, tree height {stats.tree_height}")
    return 0


def load_graph(path: str) -> AdjacencyGraph:
    """The graph of a graph file, its edges checked as ``solve`` checks them."""
    from .oracle_gen import AdjacencyGraph
    n, edges = read_graph_file(path)
    with closing(edges):
        return AdjacencyGraph.from_edges(n, validate_edges(n, edges))


def cmd_verify(args) -> int:
    from .oracle_gen import validate_tour
    g = load_graph(args.input)
    violation = validate_tour(g, read_tour_file(args.tour))
    if violation is not None:
        print(f"invalid tour: {violation}")
        return 2
    print("tour ok")
    return 0


def cmd_oracle(args) -> int:
    from .oracle_gen import eulerian_reason, hierholzer
    g = load_graph(args.input)
    reason = eulerian_reason(g)
    if reason is not None:
        print(f"eulerian: no ({reason})")
        return 2
    print("eulerian: yes")
    tour = hierholzer(g)
    if args.output:
        write_tour_file(args.output, tour)
    else:
        for u, v in tour:
            print(f"{u} {v}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "gen": cmd_gen,
            "solve": cmd_solve,
            "verify": cmd_verify,
            "oracle": cmd_oracle,
        }[args.command]
        with _sigterm_raises():
            return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NotEulerianError as exc:
        print(exc)
        return 2
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IntegrityFault as exc:
        print(f"integrity fault: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except (KeyboardInterrupt, Terminated) as exc:
        name = "SIGTERM" if isinstance(exc, Terminated) else "SIGINT"
        print(f"error: interrupted by {name}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
