"""Command-line contract: subcommands, exit codes, files, and tracing."""

import errno
import json
import os
import signal
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

from strtour.cli import main
from strtour import (
    decode_item, encode_item, read_tour_file, write_graph_file, write_tour_file)

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


def test_solve_rejects_odd_degree_whatever_the_header_n(tmp_path, capsys):
    # the odd set holds the vertices seen, never an entry per header vertex
    graph = str(tmp_path / "g.txt")
    write_graph_file(graph, 2 ** 62, [(1, 2), (2, 3), (3, 1), (1, 2 ** 62)])
    assert main(["solve", "--in", graph]) == 2
    captured = capsys.readouterr()
    assert captured.out == "not eulerian: odd degree\n"
    assert captured.err == ""


def test_solve_rejects_disconnected(tmp_path, capsys):
    graph = str(tmp_path / "g.txt")
    assert main(["gen", "--out", graph, "--n", "12", "--m", "24",
                 "--seed", "2", "--perturb", "disconnected"]) == 0
    code = main(["solve", "--in", graph])
    assert code == 2
    assert "not eulerian: disconnected" in capsys.readouterr().out


def test_gen_negative_seed_exits_1(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    assert main(["gen", "--out", str(graph), "--n", "50", "--m", "150", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need seed >= 0, got -1\n"
    assert not graph.exists()


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


def test_verify_open_trail_exits_2(tmp_path, capsys):
    graph = str(tmp_path / "g.txt")
    tour = str(tmp_path / "t.txt")
    write_graph_file(graph, 3, [(1, 2), (2, 3)])
    write_tour_file(tour, [(1, 2), (2, 3)])
    assert main(["verify", "--in", graph, "--tour", tour]) == 2
    assert capsys.readouterr().out == "invalid tour: chaining violation at tour index 1\n"


def test_oracle_reports_eulerian(tmp_path, capsys):
    graph = write_nine(tmp_path)
    assert main(["oracle", "--in", graph]) == 0
    out = capsys.readouterr().out
    assert "eulerian: yes" in out
    assert len([ln for ln in out.splitlines() if ln and ln[0].isdigit()]) == 16


def test_oracle_edgeless_graph_is_eulerian(tmp_path, capsys):
    graph = str(tmp_path / "g.txt")
    write_graph_file(graph, 3, [])
    assert main(["oracle", "--in", graph]) == 0
    assert capsys.readouterr().out == "eulerian: yes\n"


def test_oracle_reports_reason(tmp_path, capsys):
    graph = str(tmp_path / "g.txt")
    write_graph_file(graph, 3, [(1, 2), (2, 3)])
    assert main(["oracle", "--in", graph]) == 2
    assert "eulerian: no (odd degree)" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["oracle", "solve"])
def test_oracle_time_does_not_follow_the_header_n(tmp_path, capsys, command):
    # the largest n whose n + 1 fits an int64 field; a scan of 1..n never
    # ends, and an array of n + 1 entries cannot be allocated
    tours = []
    for n in (9223372036854775806, 3):
        graph = str(tmp_path / f"g{n}.txt")
        write_graph_file(graph, n, [(1, 2), (2, 3), (3, 1)])
        assert main([command, "--in", graph]) == 0
        tours.append(capsys.readouterr().out)
    assert tours[0] == tours[1]


def test_memory_error_exits_1_with_one_line(tmp_path, monkeypatch, capsys):
    from strtour import cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "solve_file", exhausted)
    assert main(["solve", "--in", write_nine(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: out of memory"]


def test_integrity_fault_exits_1_with_one_line(tmp_path, monkeypatch, capsys):
    from strtour import IntegrityFault, pipeline

    def broken(*args, **kwargs):
        raise IntegrityFault("x")

    monkeypatch.setattr(pipeline, "prepare", broken)
    assert main(["solve", "--in", write_nine(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "integrity fault: x\n"


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


def test_uncreatable_work_directory_makes_no_trace_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("STRTOUR_TMPDIR", str(tmp_path / "missing"))
    trace = tmp_path / "trace"
    assert main(["solve", "--in", write_nine(tmp_path), "--trace-dir", str(trace)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not trace.exists()


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


def test_each_failed_block_write_exits_1_and_leaves_nothing(tmp_path, monkeypatch, capsys):
    # every block write of a small solve fails in turn with ENOSPC, while
    # the source pass is still reading the graph file for the first ones.
    # At the default sort chunk only the source pass writes.  With the
    # default lowered, as the benchmark's launcher lowers it, every
    # streaming pass writes the part of its output past its in-memory head,
    # and every sort its spill chunks, but no sorted output.  An odd graph is
    # rejected after its source pass, so every write it makes is one of
    # that pass's blocks
    import importlib.util
    from strtour import gen_eulerian, perturb, stream_core
    from strtour.stream_core import BLOCK_RECORDS

    launcher = Path(__file__).resolve().parent.parent / "perfbench" / "scaled_cli.py"
    spec = importlib.util.spec_from_file_location("perfbench_scaled_cli", launcher)
    scaled_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scaled_cli)
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.setenv("STRTOUR_TMPDIR", str(scratch))
    nine = write_nine(tmp_path)
    odd = str(tmp_path / "odd.txt")
    odd_n, odd_edges = perturb(*gen_eulerian(100, 2500, 1), "odd")
    write_graph_file(odd, odd_n, odd_edges)
    writes, fail_at = [0], [0]

    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def write(self, data):
            writes[0] += 1
            if writes[0] == fail_at[0]:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return self.fh.write(data)

        def close(self):
            self.fh.close()

    def failing_open(file, mode="r", **kwargs):  # stream files open "wb"
        fh = open(file, mode, **kwargs)
        return FullDisk(fh) if mode == "wb" else fh

    monkeypatch.setattr(stream_core, "open", failing_open, raising=False)
    stats = tmp_path / "stats.json"
    assert main(["solve", "--in", nine, "--stats", str(stats)]) == 0
    nine_writes = writes[0]
    assert nine_writes == 1  # the source pass writes its one block
    divisor = 8192
    with scaled_cli.sort_memory_divided_by(divisor) as chunk:
        writes[0] = 0
        assert main(["solve", "--in", nine, "--stats", str(stats)]) == 0
        spilled_writes = writes[0]
    passes = json.loads(stats.read_text())["passes"]
    assert chunk < min(p["items_out"] for p in passes)
    # every pass but a sort writes its one block, and every sort one per
    # spill chunk
    assert spilled_writes == sum(p["kind"] != "sort" for p in passes) + sum(
        -(-p["items_in"] // chunk) for p in passes if p["kind"] == "sort")
    writes[0] = 0
    assert main(["solve", "--in", odd]) == 2
    odd_writes = writes[0]
    assert odd_writes == -(-len(odd_edges) // BLOCK_RECORDS) > 1
    assert capsys.readouterr().out.splitlines()[-1] == "not eulerian: odd degree"
    assert list(scratch.iterdir()) == []
    for graph, total, scale in ((nine, nine_writes, 1), (nine, spilled_writes, divisor),
                                (odd, odd_writes, 1)):
        with scaled_cli.sort_memory_divided_by(scale):
            for k in range(1, total + 1):
                writes[0], fail_at[0] = 0, k
                assert main(["solve", "--in", graph]) == 1
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.splitlines() == [
                    f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"]
                assert list(scratch.iterdir()) == []


def wait_for(condition, timeout=60.0):
    """Poll ``condition`` until it returns something other than None."""
    deadline = time.monotonic() + timeout
    while (found := condition()) is None:
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)
    return found


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=lambda s: s.name)
def test_signal_exits_1_with_one_line_and_leaves_nothing(tmp_path, signum):
    # the graph arrives through a pipe, so the child's source pass waits on
    # it, its first stream file open, until the signal lands
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    fifo = tmp_path / "graph.fifo"
    os.mkfifo(fifo)
    out = tmp_path / "tour.txt"
    out.write_text("earlier\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    child = subprocess.Popen(
        [sys.executable, "-m", "strtour.cli", "solve", "--in", str(fifo), "--out", str(out)],
        env=dict(os.environ, STRTOUR_TMPDIR=str(scratch), PYTHONPATH=src),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        # a shell's background job starts with SIGINT ignored, and so would the child
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    writer = None

    def open_writer():
        assert child.poll() is None, child.communicate()
        try:
            return os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
        except OSError as exc:
            if exc.errno != errno.ENXIO:  # no reader yet
                raise
            return None

    try:
        writer = wait_for(open_writer)
        os.write(writer, f"{NINE_VERTEX_N} {len(NINE_VERTEX_EDGES)}\n1 2\n".encode())
        wait_for(lambda: next(scratch.glob("strtour-*/pass_000_*.bin"), None))
        child.send_signal(signum)
        stdout, stderr = child.communicate(timeout=60)
    finally:
        if writer is not None:
            os.close(writer)
        if child.poll() is None:
            child.kill()
            child.communicate()
    assert child.returncode == 1
    assert stdout == ""
    assert stderr.splitlines() == [f"error: interrupted by {signum.name}"]
    assert list(scratch.iterdir()) == []
    assert out.read_text() == "earlier\n"


def test_main_puts_the_sigterm_handler_back(tmp_path):
    before = signal.getsignal(signal.SIGTERM)
    assert main(["solve", "--in", write_nine(tmp_path)]) == 0
    assert signal.getsignal(signal.SIGTERM) is before


@pytest.mark.parametrize("target", ["tour", "stats", "gen"])
def test_failed_output_write_exits_1_and_keeps_the_earlier_file(
        tmp_path, monkeypatch, capsys, target):
    from strtour import stream_core
    graph = write_nine(tmp_path)
    outputs = {"tour": tmp_path / "tour.txt", "stats": tmp_path / "stats.json",
               "gen": tmp_path / "gen.txt"}
    for path in outputs.values():
        path.write_text("earlier\n")
    failing = f".{outputs[target].name}."
    writes = [0]

    def failing_open(file, mode="r", **kwargs):
        fh = open(file, mode, **kwargs)
        if mode == "x" and os.path.basename(file).startswith(failing):
            real_write = fh.write

            def full_disk(data):
                writes[0] += 1
                if writes[0] == 2:  # after a first write: the temporary is partly made
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return real_write(data)
            fh.write = full_disk
        return fh

    monkeypatch.setattr(stream_core, "open", failing_open, raising=False)
    names = sorted(os.listdir(tmp_path))
    if target == "gen":
        args = ["gen", "--out", str(outputs["gen"]), "--n", "9", "--m", "18"]
    else:
        args = ["solve", "--in", graph, "--out", str(outputs["tour"]),
                "--stats", str(outputs["stats"])]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"]
    assert writes[0] == 2
    assert outputs[target].read_text() == "earlier\n"
    assert sorted(os.listdir(tmp_path)) == names  # no temporary left behind


def test_output_in_a_missing_directory_names_the_output(tmp_path, capsys):
    tour = str(tmp_path / "absent" / "tour.txt")
    assert main(["solve", "--in", write_nine(tmp_path), "--out", tour]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {tour!r}"]


def test_outputs_get_the_mode_that_open_gives(tmp_path):
    from strtour import write_tour_file
    reference, new = tmp_path / "reference.txt", tmp_path / "new.txt"
    reference.write_text("")
    write_tour_file(str(new), [(1, 2), (2, 1)])
    assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)
    new.chmod(0o604)  # open(path, "w") keeps an existing file's mode
    write_tour_file(str(new), [(1, 2)])
    assert stat.S_IMODE(new.stat().st_mode) == 0o604
    assert new.read_text() == "1 2\n"



OUTPUT_NAMES = {"tour": "tour.txt", "stats": "stats.json"}


def solve_nine_to(tmp_path, target, path):
    """Solve the nine-vertex graph with output ``target`` at ``path`` and the
    other in ``tmp_path``; returns the bytes a regular ``target`` file gets."""
    nine = write_nine(tmp_path)
    ref = tmp_path / "ref"
    ref.mkdir(exist_ok=True)
    outputs = {key: tmp_path / name for key, name in OUTPUT_NAMES.items()}
    for paths in ({key: ref / name for key, name in OUTPUT_NAMES.items()},
                  {**outputs, target: path}):
        assert main(["solve", "--in", nine, "--out", str(paths["tour"]),
                     "--stats", str(paths["stats"])]) == 0
    return (ref / OUTPUT_NAMES[target]).read_bytes()


@pytest.mark.parametrize("target", OUTPUT_NAMES)
def test_an_output_symlink_stays_and_its_target_is_replaced(tmp_path, target):
    real_dir = tmp_path / "real"
    real_dir.mkdir()
    real = real_dir / "out.txt"
    real.write_text("earlier\n")
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    expected = solve_nine_to(tmp_path, target, link)
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_bytes() == expected
    assert os.listdir(real_dir) == ["out.txt"]  # no temporary left beside it
    dangling = tmp_path / "dangling.txt"
    dangling.symlink_to(real_dir / "absent.txt")
    assert solve_nine_to(tmp_path, target, dangling) == expected
    assert dangling.is_symlink() and (real_dir / "absent.txt").read_bytes() == expected


@pytest.mark.parametrize("target", OUTPUT_NAMES)
def test_an_output_fifo_is_written_through_and_stays_a_fifo(tmp_path, target):
    # the read end is open before the solve and the output fits the pipe's
    # buffer, so the write cannot block and a replaced FIFO cannot hang here
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        expected = solve_nine_to(tmp_path, target, fifo)
        received = b"".join(iter(lambda: os.read(reader, 1 << 16), b""))
    finally:
        os.close(reader)
    assert received == expected
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]
