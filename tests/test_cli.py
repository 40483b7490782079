"""Command-line contract: subcommands, exit codes, files, and tracing."""

import json
import os

import pytest

from strtour.cli import main
from strtour import decode_item, encode_item, read_tour_file, write_graph_file

from conftest import NINE_VERTEX_EDGES, NINE_VERTEX_N, NINE_VERTEX_PHASE1

STATS_KEYS = {
    "streaming_passes", "sorting_passes", "peak_live_words",
    "peak_live_records", "peak_stream_items", "merge_iterations",
    "circuits_found", "tree_height",
}


def write_nine(tmp_path):
    path = str(tmp_path / "nine.txt")
    write_graph_file(path, NINE_VERTEX_N, NINE_VERTEX_EDGES)
    return path


def test_gen_solve_verify_round_trip(tmp_path, capsys):
    graph = str(tmp_path / "g.txt")
    tour = str(tmp_path / "t.txt")
    stats = str(tmp_path / "s.json")
    assert main(["gen", "--out", graph, "--n", "30", "--m", "80", "--seed", "3"]) == 0
    assert main(["solve", "--in", graph, "--out", tour, "--stats", stats]) == 0
    assert main(["verify", "--in", graph, "--tour", tour]) == 0
    out = capsys.readouterr().out
    assert "tour ok" in out
    with open(stats) as fh:
        data = json.load(fh)
    assert STATS_KEYS <= set(data)
    assert data["peak_stream_items"] <= 2 * len(read_tour_file(tour)) + 4
    assert isinstance(data["passes"], list) and data["passes"]


def test_solve_rejects_odd_degree(tmp_path, capsys):
    graph = str(tmp_path / "g.txt")
    assert main(["gen", "--out", graph, "--n", "12", "--m", "24",
                 "--seed", "2", "--perturb", "odd"]) == 0
    code = main(["solve", "--in", graph])
    assert code == 2
    assert "not eulerian: odd degree" in capsys.readouterr().out


def test_solve_rejects_disconnected(tmp_path, capsys):
    graph = str(tmp_path / "g.txt")
    assert main(["gen", "--out", graph, "--n", "12", "--m", "24",
                 "--seed", "2", "--perturb", "disconnected"]) == 0
    code = main(["solve", "--in", graph])
    assert code == 2
    assert "not eulerian: disconnected" in capsys.readouterr().out


def test_solve_missing_file_exits_1(tmp_path):
    assert main(["solve", "--in", str(tmp_path / "absent.txt")]) == 1


def test_solve_not_a_directory_exits_1(tmp_path, capsys):
    graph = write_nine(tmp_path)
    assert main(["solve", "--in", graph + "/x"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "Not a directory" in err[0]


def test_usage_error_exits_1():
    assert main(["solve"]) == 1
    assert main(["frobnicate"]) == 1


def test_parse_error_exits_1(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n1 1\n")
    assert main(["solve", "--in", str(bad)]) == 1


@pytest.mark.parametrize("n", [10 ** 20, 2 ** 63 - 1])
@pytest.mark.parametrize("command", ["solve", "oracle", "verify"])
def test_vertex_count_beyond_int64_exits_1(tmp_path, capsys, command, n):
    # n + 1 must fit an int64 record field; larger headers are parse errors
    graph = tmp_path / "huge.txt"
    graph.write_text(f"{n} 3\n1 2\n2 3\n3 1\n")
    tour = tmp_path / "t.txt"
    tour.write_text("1 2\n2 3\n3 1\n")
    args = ["--tour", str(tour)] if command == "verify" else []
    assert main([command, "--in", str(graph)] + args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: line 1: bad sizes n={n} m=3"]


def test_verify_truncated_tour_exits_2(tmp_path, capsys):
    graph = write_nine(tmp_path)
    tour = str(tmp_path / "t.txt")
    assert main(["solve", "--in", graph, "--out", tour]) == 0
    with open(tour) as fh:
        lines = fh.read().splitlines()
    with open(tour, "w") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")
    assert main(["verify", "--in", graph, "--tour", tour]) == 2
    assert "invalid tour" in capsys.readouterr().out


def test_oracle_reports_eulerian(tmp_path, capsys):
    graph = write_nine(tmp_path)
    assert main(["oracle", "--in", graph]) == 0
    out = capsys.readouterr().out
    assert "eulerian: yes" in out
    assert len([ln for ln in out.splitlines() if ln and ln[0].isdigit()]) == 16


def test_oracle_reports_reason(tmp_path, capsys):
    graph = str(tmp_path / "g.txt")
    write_graph_file(graph, 3, [(1, 2), (2, 3)])
    assert main(["oracle", "--in", graph]) == 2
    assert "eulerian: no (odd degree)" in capsys.readouterr().out


def test_oracle_time_does_not_follow_the_header_n(tmp_path, capsys):
    # the largest n whose n + 1 fits an int64 field; a scan of 1..n never ends
    tours = []
    for n in (9223372036854775806, 3):
        graph = str(tmp_path / f"g{n}.txt")
        write_graph_file(graph, n, [(1, 2), (2, 3), (3, 1)])
        assert main(["oracle", "--in", graph]) == 0
        tours.append(capsys.readouterr().out)
    assert tours[0] == tours[1]


def test_oracle_writes_tour_file(tmp_path):
    graph = write_nine(tmp_path)
    tour = str(tmp_path / "t.txt")
    assert main(["oracle", "--in", graph, "--out", tour]) == 0
    assert main(["verify", "--in", graph, "--tour", tour]) == 0


def test_solve_rejects_removed_relabel_flag(tmp_path, capsys):
    # phase 1 has one component tracker; the old switch is a usage error
    graph = write_nine(tmp_path)
    assert main(["solve", "--in", graph, "--fidelity-relabel"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error: ")


def test_trace_dir_keeps_streams_and_tree(tmp_path):
    graph = write_nine(tmp_path)
    trace = tmp_path / "trace"
    assert main(["solve", "--in", graph, "--trace-dir", str(trace)]) == 0
    names = sorted(os.listdir(trace))
    assert any(name.startswith("pass_000") for name in names)
    assert len([n for n in names if n.startswith("pass_")]) >= 24
    tree_lines = (trace / "connectivity_tree.txt").read_text().splitlines()
    assert sorted(tree_lines) == ["T 1 2 7", "T 1 4 5", "T 4 3 1"]
    # the dumps are the documented text records, not the binary stream files
    phase1 = [n for n in names if n.startswith("pass_001_")]
    assert len(phase1) == 1
    assert (trace / phase1[0]).read_text().splitlines() == NINE_VERTEX_PHASE1
    for name in names:
        if name.startswith("pass_"):
            for line in (trace / name).read_text(encoding="ascii").splitlines():
                assert encode_item(decode_item(line)) == line


def test_tmpdir_env_honored(tmp_path, monkeypatch):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.setenv("STRTOUR_TMPDIR", str(scratch))
    graph = write_nine(tmp_path)
    assert main(["solve", "--in", graph]) == 0
    # working directories are created beneath the override and cleaned up
    assert list(scratch.iterdir()) == []


def test_uncreatable_trace_dir_leaves_no_work_directory(tmp_path, monkeypatch, capsys):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.setenv("STRTOUR_TMPDIR", str(scratch))
    graph = write_nine(tmp_path)
    (tmp_path / "notadir").write_text("")
    trace = tmp_path / "notadir" / "sub"
    assert main(["solve", "--in", graph, "--trace-dir", str(trace)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert list(scratch.iterdir()) == []


def test_reused_trace_dir_is_refused_and_left_as_it_was(tmp_path, monkeypatch, capsys):
    trace = tmp_path / "trace"
    trace.mkdir()  # an existing empty directory is fine
    assert main(["solve", "--in", write_nine(tmp_path), "--trace-dir", str(trace)]) == 0
    before = {path.name: path.read_bytes() for path in trace.iterdir()}
    assert "connectivity_tree.txt" in before
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.setenv("STRTOUR_TMPDIR", str(scratch))
    triangle = str(tmp_path / "triangle.txt")
    write_graph_file(triangle, 3, [(1, 2), (2, 3), (3, 1)])
    capsys.readouterr()
    assert main(["solve", "--in", triangle, "--trace-dir", str(trace)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert {path.name: path.read_bytes() for path in trace.iterdir()} == before
    assert list(scratch.iterdir()) == []
