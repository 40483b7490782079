"""What a command imports: the lazy package and the benchmark's entry point.

``strtour`` resolves its public names on first use, so ``strtour solve``
loads only the modules it runs.  These tests pin the names that must stay
importable, the modules a solve must not load, and the launcher that starts
every benchmark solve, loaded from its file as it is.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import strtour
from strtour.stream_core import StreamPipeline

from conftest import NINE_VERTEX_EDGES, NINE_VERTEX_N

ROOT = Path(__file__).resolve().parent.parent
SCALED_CLI = ROOT / "perfbench" / "scaled_cli.py"

# the package's public names, listed here rather than read from the package
PUBLIC_NAMES = [
    "CircuitFinder", "extract_circuit", "find_circuits", "initial_stream",
    "AdjacencyGraph", "GenerationError", "PERTURB_DISCONNECTED", "PERTURB_ODD",
    "TourViolation", "eulerian_reason", "gen_eulerian", "hierholzer", "merge_spec",
    "perturb", "validate_tour",
    "SolveResult", "solve", "solve_file", "write_stats_file",
    "BudgetViolation", "DISCONNECTED", "EdgeTally", "GraphEdge", "InfoEdge",
    "IntegrityFault", "NotEulerianError", "ODD_DEGREE", "ParseError", "PassStats",
    "Processor", "Stream", "StreamPipeline", "assert_stream_budget", "decode_item",
    "encode_item", "read_graph_file", "read_tour_file", "write_graph_file",
    "write_tour_file",
    "MergeIterationReport", "emit_tour", "iteration_bound", "merge_iteration",
    "run_merges",
    "complete_depths", "prepare", "rotate_member_circuits",
]
SUBMODULES = ["circuit_find", "oracle_gen", "pipeline", "stream_core", "tree_merge"]
# heavy or unneeded on the solve path: dataclasses pulls in inspect, json is
# only for --stats, and oracle_gen only for gen, verify and oracle
NOT_ON_SOLVE_PATH = {"dataclasses", "inspect", "json", "strtour.oracle_gen"}


def run_child(code, *args):
    """Run ``code`` in a fresh interpreter with the package on its path."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_every_public_name_survives_the_lazy_package():
    assert len(PUBLIC_NAMES) == len(set(PUBLIC_NAMES)) == 47
    listed = dir(strtour)
    namespace = {}
    exec("from strtour import *", namespace)
    for name in PUBLIC_NAMES:
        exec(f"from strtour import {name}", {})
        assert name in listed, name
        assert namespace[name] is getattr(strtour, name), name
    from strtour import __version__
    assert __version__ == "0.1.0" and "__version__" in listed
    with pytest.raises(ImportError):
        exec("from strtour import no_such_name", {})


def test_a_plain_import_loads_no_submodule_until_one_is_named():
    out = run_child(
        "import strtour, sys\n"
        "print(sorted(m for m in sys.modules if m.startswith('strtour.')))\n"
        "for name in sys.argv[1:]:\n"
        "    assert getattr(strtour, name) is sys.modules['strtour.' + name], name\n"
        "print('ok')\n",
        *SUBMODULES)
    assert out.splitlines() == ["[]", "ok"]


def test_a_solve_loads_no_dataclasses_json_or_oracle(tmp_path):
    graph = tmp_path / "nine.txt"
    graph.write_text(f"{NINE_VERTEX_N} {len(NINE_VERTEX_EDGES)}\n"
                     + "".join(f"{u} {v}\n" for u, v in NINE_VERTEX_EDGES))
    # only modules that the interpreter had not loaded at start-up count
    out = run_child(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import strtour.cli\n"
        "print(sorted(set(sys.modules) - before))\n"
        "code = strtour.cli.main(['solve', '--in', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(code, sorted(set(sys.modules) - before))\n",
        str(graph), str(tmp_path / "tour.txt"))
    lines = out.splitlines()
    code, solved = lines[-1].split(" ", 1)
    assert code == "0"
    for loaded in (lines[0], solved):
        assert NOT_ON_SOLVE_PATH.isdisjoint(ast.literal_eval(loaded)), loaded


def test_benchmark_launcher_divides_the_sort_chunk_inside_its_block(tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_scaled_cli", SCALED_CLI)
    scaled_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scaled_cli)
    pipelines = []

    def chunk_of_a_fresh_pipeline():
        pipelines.append(StreamPipeline(tmpdir=str(tmp_path)))
        return pipelines[-1].sort_chunk

    try:
        default = chunk_of_a_fresh_pipeline()
        with scaled_cli.sort_memory_divided_by(16) as chunk:
            assert chunk == chunk_of_a_fresh_pipeline() == default // 16 == 4096
        assert chunk_of_a_fresh_pipeline() == default
    finally:
        for pipeline in pipelines:
            pipeline.cleanup()
