"""Batch command line: generate, solve, verify, and oracle subcommands.

Exit codes: 0 success (tour found, verification passed, graph generated),
2 the graph is not Eulerian or a tour failed verification, 1 anything
broken (usage, unreadable or unwritable file, parse error, internal fault).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .oracle_gen import (
    AdjacencyGraph,
    eulerian_reason,
    gen_eulerian,
    hierholzer,
    perturb,
    validate_tour,
)
from .pipeline import solve_file
from .stream_core import (
    IntegrityFault,
    NotEulerianError,
    ParseError,
    read_graph_file,
    read_tour_file,
    write_graph_file,
    write_tour_file,
)


class UsageError(Exception):
    pass


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


def cmd_verify(args) -> int:
    n, edges = read_graph_file(args.input)
    tour = read_tour_file(args.tour)
    violation = validate_tour(AdjacencyGraph.from_edges(n, edges), tour)
    if violation is not None:
        print(f"invalid tour: {violation}")
        return 2
    print("tour ok")
    return 0


def cmd_oracle(args) -> int:
    n, edges = read_graph_file(args.input)
    g = AdjacencyGraph.from_edges(n, edges)
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


if __name__ == "__main__":
    sys.exit(main())
