"""Substrate tests: codec, passes, sorting, metering, and budgets."""

import os
import random
from contextlib import closing

import pytest
from hypothesis import given, settings, strategies as st

from strtour import stream_core
from strtour import (
    BudgetViolation,
    GraphEdge,
    InfoEdge,
    IntegrityFault,
    ParseError,
    PassStats,
    Processor,
    assert_stream_budget,
    decode_item,
    encode_item,
    read_graph_file,
    read_tour_file,
    write_graph_file,
)
from strtour.stream_core import (
    BLOCK_RECORDS, MERGE_FAN_IN, RECORD, EdgeTally, PassRecord, encode_block,
    validate_edges)

from conftest import make_pipeline


# -- codec -------------------------------------------------------------------

def test_encode_graph_edge():
    assert encode_item(GraphEdge(1, 2, 1, 1, 0, 0)) == "G 1 2 1 1 0 0"


def test_encode_info_edge():
    assert encode_item(InfoEdge(3, 5, 0, 2, 1)) == "I 3 5 0 2 1"


@pytest.mark.parametrize("item", [
    GraphEdge(1, 2, 1, 1, 0, 0),
    GraphEdge(7, 3, 12, 99, 4, 18),
    InfoEdge(3, 5, 0, 2, 1),
    InfoEdge(1, 4, 0, 5, 0),
])
def test_codec_round_trip(item):
    assert decode_item(encode_item(item)) == item


def test_codec_round_trip_random():
    rng = random.Random(7)
    for _ in range(200):
        if rng.random() < 0.5:
            item = GraphEdge(*(rng.randrange(0, 1000) for _ in range(6)))
        else:
            item = InfoEdge(*(rng.randrange(0, 1000) for _ in range(5)))
        assert decode_item(encode_item(item)) == item


@pytest.mark.parametrize("line", [
    "G 1 2",            # arity
    "G 1 2 3 4 5",      # arity
    "I 1 2 3 4",        # arity
    "X 1 2 3 4 5",      # tag
    "G 1 2 3 4 5 x",    # non-integer
    "G +1 1 0 0 0 0",   # a sign other than -
    "G 1 1_0 0 0 0 0",  # a digit separator
    "I 1 2 0 -- 0",     # no digits after the sign
    "I 1 2 0 \u0663 0",  # a digit outside ASCII
    "G 1 2 3 4 5 -1",   # negative
    "",
])
def test_decode_rejects(line):
    with pytest.raises(ParseError):
        decode_item(line)


def test_stream_parse_error_names_line(tmp_path):
    pl, _ = make_pipeline(tmp_path)
    stream = pl.materialize([GraphEdge(1, 2), GraphEdge(2, 3)])
    with open(stream.path, "ab") as fh:
        fh.write(RECORD.pack(ord("G"), 9, 9, 0, 0, 0, 0)[:20])
    with pytest.raises(ParseError, match="record 3"):
        list(stream.iter_items())
    pl.cleanup()


# -- binary stream records ------------------------------------------------------

BINARY_ITEMS = [
    GraphEdge(1, 2, 1, 1, 0, 0),
    GraphEdge(7, 3, 12, 99, 4, 18),
    InfoEdge(3, 5, 0, 2, 1),
    InfoEdge(1, 4, 0, 5, 0),
    GraphEdge(2**62, 1, 0, 0, 0, 2**63 - 1),
]


@pytest.mark.parametrize("count", [1, 5, BLOCK_RECORDS, 2 * BLOCK_RECORDS + 3])
def test_binary_stream_round_trip(tmp_path, count):
    items = [BINARY_ITEMS[i % len(BINARY_ITEMS)] for i in range(count)]
    items += [GraphEdge(i, i + 1, 2, i) for i in range(1, count + 1)]
    pl, _ = make_pipeline(tmp_path)
    stream = pl.materialize(items)
    assert stream.items == len(items)
    assert os.path.getsize(stream.path) == len(items) * RECORD.size
    got = list(stream.iter_items())
    assert got == items
    assert [len(it) for it in got] == [len(it) for it in items]
    assert {type(it) for it in got} == {tuple}
    pl.cleanup()


def named_records(kind, count, seed):
    """``count`` NamedTuple records: all graph edges, all info edges, or mixed."""
    rng = random.Random(seed)
    field = lambda: rng.randrange(0, 2**63)
    graph = lambda: GraphEdge(*(field() for _ in range(6)))
    info = lambda: InfoEdge(*(field() for _ in range(5)))
    make = {"graph": graph, "info": info,
            "mixed": lambda: graph() if rng.random() < 0.7 else info()}[kind]
    return [make() for _ in range(count)]


@pytest.mark.parametrize("kind", ["graph", "info", "mixed"])
@pytest.mark.parametrize("count", [BLOCK_RECORDS, 37])  # a full block and a short last one
def test_plain_and_named_records_encode_alike(kind, count):
    named = named_records(kind, count, count)
    plain = [tuple(it) for it in named]
    assert {type(it) for it in plain} == {tuple}
    block = encode_block(named)
    assert encode_block(plain) == block
    assert [encode_item(it) for it in plain] == [encode_item(it) for it in named]
    decoded = stream_core.decode_block(bytes(block), 1)
    assert decoded == plain
    assert {type(it) for it in decoded} == {tuple}


def corrupt_stream(tmp_path, record):
    pl, _ = make_pipeline(tmp_path)
    stream = pl.materialize([GraphEdge(1, 2), GraphEdge(2, 3)])
    with open(stream.path, "ab") as fh:
        fh.write(record)
    return pl, stream


@pytest.mark.parametrize("record, reason", [
    (RECORD.pack(ord("X"), 1, 2, 3, 4, 5, 6), "unknown record tag"),
    (RECORD.pack(ord("G"), 1, 2, 3, -4, 5, 6), "negative field"),
    (RECORD.pack(ord("I"), 1, 2, -3, 4, 5, 0), "negative field"),
    (RECORD.pack(ord("I"), 1, 2, 3, 4, 5, 6), "pad"),
    (RECORD.pack(ord("G"), 1, 2, 3, 4, 5, 6)[:-1], "truncated"),
    (b"G", "truncated"),
])
def test_binary_stream_rejects(tmp_path, record, reason):
    pl, stream = corrupt_stream(tmp_path, record)
    with pytest.raises(ParseError, match=f"record 3: .*{reason}"):
        list(stream.iter_items())
    pl.cleanup()


def test_binary_error_names_record_in_a_later_block(tmp_path):
    pl, _ = make_pipeline(tmp_path)
    stream = pl.materialize([GraphEdge(1, 2)] * (BLOCK_RECORDS + 9))
    with open(stream.path, "r+b") as fh:
        fh.seek((BLOCK_RECORDS + 4) * RECORD.size)
        fh.write(b"Q")
    with pytest.raises(ParseError, match=f"record {BLOCK_RECORDS + 5}: unknown record tag"):
        list(stream.iter_items())
    pl.cleanup()


def test_unencodable_record_is_an_integrity_fault(tmp_path):
    pl, _ = make_pipeline(tmp_path)
    with pytest.raises(IntegrityFault, match="does not fit"):
        pl.materialize([GraphEdge(2**63, 1)])
    pl.cleanup()


def packed_one_by_one(items):
    return b"".join(RECORD.pack(ord("G"), *item) if len(item) == 6
                    else RECORD.pack(ord("I"), *item, 0) for item in items)


FIELD = st.integers(0, 2**63 - 1)
RECORDS = st.one_of(st.builds(GraphEdge, *[FIELD] * 6), st.builds(InfoEdge, *[FIELD] * 5))


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.lists(RECORDS, max_size=2100),
    st.sampled_from([0, 1, BLOCK_RECORDS - 1, BLOCK_RECORDS]).flatmap(
        lambda size: st.lists(RECORDS, min_size=size, max_size=size))))
def test_block_encoding_matches_per_record_packing(items):
    assert encode_block(items) == packed_one_by_one(items)


@pytest.mark.parametrize("info_at", ["first", "last", "all", "none"])
@pytest.mark.parametrize("size", [1, BLOCK_RECORDS - 1, BLOCK_RECORDS, 2100])
def test_block_encoding_places_info_edges(size, info_at):
    info = {"first": {0}, "last": {size - 1}, "all": set(range(size)), "none": set()}[info_at]
    items = [InfoEdge(i, i + 1, 2, 3, i % 2) if i in info else GraphEdge(i, i + 1, 3, i)
             for i in range(size)]
    assert encode_block(items) == packed_one_by_one(items)


@pytest.mark.parametrize("at", [0, BLOCK_RECORDS // 2, BLOCK_RECORDS - 1])
@pytest.mark.parametrize("bad", [GraphEdge(1, 2, 3, 4, 5, 2**63), InfoEdge(1, 2, 3, 2**64, 0)])
def test_out_of_range_field_in_a_full_block_is_an_integrity_fault(at, bad):
    items = [GraphEdge(i, i + 1) for i in range(BLOCK_RECORDS)]
    items[at] = bad
    with pytest.raises(IntegrityFault, match="record does not fit the stream format"):
        encode_block(items)


# -- streaming passes ---------------------------------------------------------

class Identity(Processor):
    def on_item(self, item, emit):
        emit(item)


class Counting(Processor):
    """Rewrites each graph edge's position with a running count."""

    def __init__(self):
        self.count = 0

    def on_item(self, item, emit):
        self.count += 1
        tail, head, circuit = item[:3]
        emit((tail, head, circuit, self.count, 0, 0))

    def scalar_words(self):
        return 1


class EndOnly(Processor):
    def on_item(self, item, emit):
        pass

    def on_end(self, emit):
        emit(InfoEdge(1, 2, 0, 3, 0))
        emit(InfoEdge(1, 4, 0, 5, 0))


def test_identity_pass(tmp_path):
    pl, stats = make_pipeline(tmp_path)
    items = [GraphEdge(i, i + 1, 1, i) for i in range(1, 6)]
    stream = pl.materialize(items)
    out = pl.run_streaming_pass(Identity(), stream, "test")
    assert list(out.iter_items()) == items
    assert stats.core_dict()["streaming_passes"] == 1
    pl.cleanup()


def test_empty_stream_emits_end_only(tmp_path):
    pl, _ = make_pipeline(tmp_path)
    out = pl.run_streaming_pass(EndOnly(), pl.materialize([]), "test")
    assert list(out.iter_items()) == [InfoEdge(1, 2, 0, 3, 0), InfoEdge(1, 4, 0, 5, 0)]
    pl.cleanup()


def test_counting_processor_meter(tmp_path):
    pl, stats = make_pipeline(tmp_path)
    stream = pl.materialize([GraphEdge(1, 2), GraphEdge(2, 3), GraphEdge(3, 1)])
    out = pl.run_streaming_pass(Counting(), stream, "test")
    assert [it[3] for it in out.iter_items()] == [1, 2, 3]
    # the processor retains nothing, so the only live record is the one in flight
    assert stats.passes[-1].peak_live_records == 1
    pl.cleanup()


class Holder(Processor):
    """Retains a window of the last k items; for metering soundness checks."""

    def __init__(self, k):
        self.k = k
        self.held = []

    def on_item(self, item, emit):
        self.held.append(item)
        if len(self.held) > self.k:
            emit(self.held.pop(0))

    def on_end(self, emit):
        for item in self.held:
            emit(item)
        self.held = []

    def live_records(self):
        return len(self.held)


def test_metering_reports_at_least_true_holdings(tmp_path):
    pl, stats = make_pipeline(tmp_path)
    stream = pl.materialize([GraphEdge(i, i + 1) for i in range(1, 10)])
    pl.run_streaming_pass(Holder(4), stream, "test")
    assert stats.passes[-1].peak_live_records >= 4
    pl.cleanup()


class Scripted(Processor):
    """Reports a scripted live state: the next (records, words) pair after
    ``on_start``, after each item, and after ``on_end``.  Its records cost
    no words, so the scripted words are the whole reading."""

    record_words = 0

    def __init__(self, states):
        self.states = iter(states)
        self.state = None

    def on_start(self, emit):
        self.state = next(self.states)

    def on_item(self, item, emit):
        self.state = next(self.states)
        emit(item)

    def on_end(self, emit):
        self.state = next(self.states)

    def live_records(self):
        return self.state[0]

    def scalar_words(self):
        return self.state[1]


@pytest.mark.parametrize("states, peak_records, peak_words", [
    # the peak is in on_start: nothing is in flight there
    ([(5, 17), (1, 3), (2, 4), (1, 2), (0, 0)], 5, 17),
    # the peak is mid-stream, with the 5-word info edge in flight
    ([(1, 1), (2, 5), (4, 20), (2, 5), (1, 1)], 5, 25),
    # the peak is in on_end
    ([(0, 0), (1, 4), (1, 4), (1, 4), (7, 30)], 7, 30),
    # records peak in on_start, words with the first graph edge in flight
    ([(6, 6), (1, 40), (1, 1), (1, 1), (0, 0)], 6, 46),
])
def test_meter_reads_start_each_item_in_flight_and_end(
        tmp_path, states, peak_records, peak_words):
    items = [GraphEdge(1, 2), InfoEdge(1, 2, 0, 3, 0), GraphEdge(2, 3)]
    pl, stats = make_pipeline(tmp_path)
    out = pl.run_streaming_pass(Scripted(states), pl.materialize(items), "test")
    assert list(out.iter_items()) == items
    rec = stats.passes[-1]
    assert (rec.peak_live_records, rec.peak_live_words) == (peak_records, peak_words)
    core = stats.core_dict()
    assert (core["peak_live_records"], core["peak_live_words"]) == (peak_records, peak_words)
    pl.cleanup()


class CountedReads(Counting):
    """Counts the meter's record and scalar-word reads."""

    reads = scalar_reads = 0

    def live_records(self):
        self.reads += 1
        return 0

    def scalar_words(self):
        self.scalar_reads += 1
        return super().scalar_words()


@pytest.mark.parametrize("record_words", [6, 2])
def test_meter_reads_live_records_and_scalar_words_once_per_reading(
        tmp_path, record_words):
    items = [GraphEdge(i, i + 1) for i in range(1, 8)]
    pl, stats = make_pipeline(tmp_path)
    processor = CountedReads()
    processor.record_words = record_words
    pl.run_streaming_pass(processor, pl.materialize(items), "test")
    # after on_start, after each item, after on_end
    assert processor.reads == len(items) + 2
    assert processor.scalar_reads == len(items) + 2
    # 1 scalar word plus the graph edge in flight
    assert (stats.passes[-1].peak_live_records, stats.passes[-1].peak_live_words) == (1, 7)
    pl.cleanup()


class Tripling(Processor):
    """Emits each item three times, so a full block overshoots mid-callback."""

    def on_item(self, item, emit):
        emit(item)
        emit(item)
        emit(item)


@pytest.mark.parametrize("processor, copies", [(Identity(), 1), (Tripling(), 3)],
                         ids=["identity", "tripling"])
def test_writer_encodes_whole_blocks_but_the_last(tmp_path, monkeypatch, processor, copies):
    # a chunk below the output's length, aligned to a block or not, makes
    # the pass keep one chunk as its head and write the rest; the default
    # chunk keeps it all in memory
    items = [GraphEdge(i, i + 1) for i in range(1, 5001)]
    expected = [item for item in items for _ in range(copies)]
    sizes = []

    def spy(block):
        sizes.append(len(block))
        return encode_block(block)

    for chunk in (BLOCK_RECORDS, 2500, None):
        pl, _ = make_pipeline(tmp_path / str(chunk),
                              **({} if chunk is None else {"sort_chunk": chunk}))
        stream = pl.materialize(items)
        monkeypatch.setattr(stream_core, "encode_block", spy)
        out = pl.run_streaming_pass(processor, stream, "test")
        monkeypatch.undo()
        if chunk is None:
            assert sizes == [] and out.records == expected
        else:
            whole, tail = divmod(len(expected) - chunk, BLOCK_RECORDS)
            assert sizes == [BLOCK_RECORDS] * whole + [tail]
            assert out.records == expected[:chunk]
        assert list(out.iter_items()) == expected
        sizes.clear()
        pl.cleanup()


def test_path_writes_a_list_backed_stream_as_a_chunk_of_one_would(tmp_path):
    # the same sort at sort_chunk 1 spills 2051 chunk files and merges them
    # 64 at a time into 33, whose merge backs its output
    items = [BINARY_ITEMS[i % len(BINARY_ITEMS)] for i in range(2 * BLOCK_RECORDS + 3)]
    written = {}
    for chunk in (None, 1):
        pl, _ = make_pipeline(tmp_path / str(chunk),
                              **({} if chunk is None else {"sort_chunk": chunk}))
        source = pl.materialize(items)
        out = pl.run_sorting_pass(
            head_key, pl.run_streaming_pass(Identity(), source, "test"), "test", "sort")
        assert (out.records is not None) == (chunk is None)
        assert len(os.listdir(pl.workdir)) == (0 if chunk is None else 33)
        with open(out.path, "rb") as fh:
            written[chunk] = os.path.basename(out.path), fh.read()
        assert out.records is None and out.items == len(items)
        assert list(out.iter_items()) == sorted(items, key=head_key)
        assert os.listdir(pl.workdir) == [written[chunk][0]]
        pl.discard(out)
        assert os.listdir(pl.workdir) == []
        pl.cleanup()
    assert written[None] == written[1]


def test_pass_composition_matches_record_replay(tmp_path):
    """P1;P2 through files equals replaying P1's emissions straight into P2."""
    items = [GraphEdge(i, i + 1, 1, i) for i in range(1, 8)]

    pl, _ = make_pipeline(tmp_path)
    out = pl.run_streaming_pass(Counting(), pl.materialize(items), "test")
    via_files = list(pl.run_streaming_pass(Holder(3), out, "test").iter_items())
    pl.cleanup()

    emitted = []
    p1 = Counting()
    p1.on_start(emitted.append)
    for item in items:
        p1.on_item(item, emitted.append)
    p1.on_end(emitted.append)
    replayed = []
    p2 = Holder(3)
    p2.on_start(replayed.append)
    for item in emitted:
        p2.on_item(item, replayed.append)
    p2.on_end(replayed.append)
    assert via_files == replayed


def test_stats_monotone_across_passes(tmp_path):
    pl, stats = make_pipeline(tmp_path)
    stream = pl.materialize([GraphEdge(i, i + 1) for i in range(1, 6)])
    snapshots = [dict(stats.core_dict())]
    stream = pl.run_streaming_pass(Identity(), stream, "test")
    snapshots.append(dict(stats.core_dict()))
    stream = pl.run_sorting_pass(tuple, stream, "test", "sort")
    snapshots.append(dict(stats.core_dict()))
    for before, after in zip(snapshots, snapshots[1:]):
        for key in before:
            assert after[key] >= before[key]
    pl.cleanup()


# -- sorting passes -----------------------------------------------------------

def head_key(item):
    return (item[1],)


def test_sort_already_sorted_identity(tmp_path):
    pl, stats = make_pipeline(tmp_path)
    items = [GraphEdge(1, h, 1, i) for i, h in enumerate([2, 3, 5, 8], start=1)]
    out = pl.run_sorting_pass(head_key, pl.materialize(items), "test", "sort")
    assert list(out.iter_items()) == items
    assert stats.core_dict()["sorting_passes"] == 1
    pl.cleanup()


def test_sort_reversed(tmp_path):
    pl, _ = make_pipeline(tmp_path)
    items = [GraphEdge(1, h, 1, i) for i, h in enumerate([9, 7, 4, 2], start=1)]
    out = pl.run_sorting_pass(head_key, pl.materialize(items), "test", "sort")
    assert [it[1] for it in out.iter_items()] == [2, 4, 7, 9]
    pl.cleanup()


def test_sort_stability_against_indexed_reference(tmp_path):
    rng = random.Random(11)
    items = [GraphEdge(rng.randrange(1, 4), rng.randrange(1, 4), 1, i)
             for i in range(1, 60)]
    # reference: python's stable sort over (key, original index)
    expected = [it for _, it in sorted(
        enumerate(items), key=lambda pair: (head_key(pair[1]), pair[0]))]
    pl, _ = make_pipeline(tmp_path)
    out = pl.run_sorting_pass(head_key, pl.materialize(items), "test", "sort")
    assert list(out.iter_items()) == expected
    pl.cleanup()


def test_sort_multi_chunk_matches_single_chunk(tmp_path):
    rng = random.Random(13)
    items = [GraphEdge(rng.randrange(1, 9), rng.randrange(1, 9), rng.randrange(1, 5), i)
             for i in range(1, 101)]
    small, _ = make_pipeline(tmp_path / "a", sort_chunk=7)  # force the external merge path
    big, _ = make_pipeline(tmp_path / "b")
    key = lambda it: (it[2], it[1])
    got_small = list(small.run_sorting_pass(key, small.materialize(items), "t", "s").iter_items())
    got_big = list(big.run_sorting_pass(key, big.materialize(items), "t", "s").iter_items())
    assert got_small == got_big
    small.cleanup()
    big.cleanup()


def test_sort_chunk_is_read_only(tmp_path):
    # only the constructor checks the size, so it must be the only setter
    pl, _ = make_pipeline(tmp_path, sort_chunk=7)
    with pytest.raises(AttributeError):
        pl.sort_chunk = 0
    assert pl.sort_chunk == 7
    pl.cleanup()


@pytest.mark.parametrize("chunk", [1, 3, 8])
def test_sort_spills_one_chunk_per_full_or_partial_chunk(tmp_path, monkeypatch, chunk):
    from strtour import stream_core
    spills = []
    real = stream_core.tempfile.mkstemp

    def counting_mkstemp(*args, **kwargs):
        spills.append(kwargs.get("prefix"))
        return real(*args, **kwargs)

    monkeypatch.setattr(stream_core.tempfile, "mkstemp", counting_mkstemp)
    rng = random.Random(chunk)
    for length in sorted({0, chunk - 1, chunk, chunk + 1, 2 * chunk, 2 * chunk + 1}):
        items = [GraphEdge(rng.randrange(1, 4), rng.randrange(1, 4), 1, i)
                 for i in range(1, length + 1)]
        big, _ = make_pipeline(tmp_path / f"big{length}")
        expected = list(big.run_sorting_pass(
            head_key, big.materialize(items), "t", "s").iter_items())
        big.cleanup()
        assert spills == []

        small, _ = make_pipeline(tmp_path / f"small{length}", sort_chunk=chunk)
        got = list(small.run_sorting_pass(
            head_key, small.materialize(items), "t", "s").iter_items())
        small.cleanup()
        assert got == expected
        assert len(spills) == (0 if length < chunk else -(-length // chunk))
        spills.clear()


@pytest.mark.parametrize("fan_in", [2, 3, MERGE_FAN_IN])
def test_sort_merge_holds_at_most_fan_in_files_open(tmp_path, monkeypatch, fan_in):
    # one record per chunk: 197 chunks merge in runs, and runs of runs at a
    # small fan-in, each run of consecutive chunks, so ties keep input order
    opened = []
    peak = [0]

    def tracking_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        peak[0] = max(peak[0], sum(not f.closed for f in opened))
        return fh

    rng = random.Random(fan_in)
    items = [GraphEdge(rng.randrange(1, 4), rng.randrange(1, 4), 1, i)
             for i in range(1, 3 * MERGE_FAN_IN + 6)]
    expected = [it for _, it in sorted(
        enumerate(items), key=lambda pair: (head_key(pair[1]), pair[0]))]
    pl, _ = make_pipeline(tmp_path, sort_chunk=1)
    source = pl.materialize(items)
    monkeypatch.setattr(stream_core, "MERGE_FAN_IN", fan_in)
    monkeypatch.setattr(stream_core, "open", tracking_open, raising=False)
    out = pl.run_sorting_pass(head_key, source, "test", "sort")
    monkeypatch.undo()
    assert list(out.iter_items()) == expected
    assert peak[0] == fan_in + 1  # a full run of chunks and the file it merges into
    # the output is the merge of the last runs, which are the only files
    assert sorted(os.listdir(pl.workdir)) == sorted(
        os.path.basename(run.path) for run in out.runs)
    assert len(out.runs) <= fan_in
    path = out.path  # drains the merge into the output's file
    assert os.listdir(pl.workdir) == [os.path.basename(path)]
    pl.cleanup()


def test_sort_is_permutation(tmp_path):
    rng = random.Random(17)
    items = [GraphEdge(rng.randrange(1, 50), rng.randrange(1, 50)) for _ in range(80)]
    pl, _ = make_pipeline(tmp_path)
    out = pl.run_sorting_pass(head_key, pl.materialize(items), "test", "sort")
    assert sorted(tuple(it) for it in out.iter_items()) == sorted(tuple(it) for it in items)
    pl.cleanup()


# -- stream forms: a head and a file, and merge-backed -------------------------

class FailingAt(Processor):
    """Passes records through and raises on its ``k``-th."""

    def __init__(self, k):
        self.k = k
        self.seen = 0

    def on_item(self, item, emit):
        self.seen += 1
        if self.seen == self.k:
            raise ValueError(f"record {self.k}")
        emit(item)


def tracked_opens(monkeypatch):
    """Every file that stream_core opens from now on."""
    opened = []

    def tracking_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr(stream_core, "open", tracking_open, raising=False)
    return opened


FORM_CHUNK = 7
FORM_ITEMS = [GraphEdge(i * 7919 % 23, i * 104729 % 31, 1, i) for i in range(1, 6 * FORM_CHUNK)]


def head_and_file(pl):
    stream = pl.run_streaming_pass(Identity(), pl.materialize(FORM_ITEMS), "test")
    # reading ``path`` would write the whole stream, so list the files
    assert len(stream.records) == FORM_CHUNK < stream.items
    assert len(os.listdir(pl.workdir)) == 1
    return stream


def merge_backed(pl):
    stream = pl.run_sorting_pass(head_key, head_and_file(pl), "test", "sort")
    assert stream.records is None and len(stream.runs) == -(-len(FORM_ITEMS) // FORM_CHUNK)
    return stream


@pytest.mark.parametrize("make_input, k", [
    (head_and_file, FORM_CHUNK),  # the head's last record
    (head_and_file, FORM_CHUNK + 1),  # the file's first record
    (merge_backed, 3 * FORM_CHUNK + 2),
], ids=["head-end", "file-start", "merge"])
def test_a_pass_that_raises_closes_its_input_and_leaves_nothing(
        tmp_path, monkeypatch, make_input, k):
    pl, _ = make_pipeline(tmp_path / "work", sort_chunk=FORM_CHUNK)
    stream = make_input(pl)
    opened = tracked_opens(monkeypatch)
    with pytest.raises(ValueError, match=f"record {k}") as raised:
        pl.run_streaming_pass(FailingAt(k), stream, "test")
    # closed by the pass, not when the traceback, still held here, is freed;
    # a pass that fails in its input's head has opened no file
    assert raised.traceback and all(fh.closed for fh in opened)
    assert bool(opened) == (k > FORM_CHUNK)
    pl.cleanup()
    assert os.listdir(tmp_path / "work") == []


@pytest.mark.parametrize("make_input", [head_and_file, merge_backed])
def test_a_sort_whose_key_raises_closes_its_input_and_leaves_nothing(
        tmp_path, monkeypatch, make_input):
    # the key fails in the second chunk, read from the input's file or merge
    pl, _ = make_pipeline(tmp_path / "work", sort_chunk=FORM_CHUNK)
    stream = make_input(pl)
    opened = tracked_opens(monkeypatch)
    calls = [0]

    def failing_key(item):
        calls[0] += 1
        if calls[0] == FORM_CHUNK + 2:
            raise ValueError("key")
        return head_key(item)

    with pytest.raises(ValueError, match="key") as raised:
        pl.run_sorting_pass(failing_key, stream, "test", "sort")
    assert raised.traceback and opened and all(fh.closed for fh in opened)
    pl.cleanup()
    assert os.listdir(tmp_path / "work") == []


def test_discard_of_an_unread_merge_deletes_its_chunks_and_writes_no_sorted_file(
        tmp_path, monkeypatch):
    pl, _ = make_pipeline(tmp_path, sort_chunk=FORM_CHUNK)
    source = head_and_file(pl)
    opened = tracked_opens(monkeypatch)
    out = pl.run_sorting_pass(head_key, source, "test", "sort")
    runs = len(out.runs)
    assert sorted(os.listdir(pl.workdir)) == sorted(
        os.path.basename(run.path) for run in out.runs)
    pl.discard(out)
    assert os.listdir(pl.workdir) == [] and out.runs is None
    # the input's file and each chunk file, opened once each; never a sorted file
    assert len(opened) == 1 + runs and all(fh.closed for fh in opened)
    assert not any(fh.name.endswith("_sort.bin") for fh in opened)
    pl.cleanup()


@settings(max_examples=60, deadline=None)
@given(sort_chunk=st.sampled_from([1, 2, 7, BLOCK_RECORDS - 1, BLOCK_RECORDS, BLOCK_RECORDS + 1]),
       offset=st.integers(-3, 3), scale=st.sampled_from([0, 1, 2]),
       seed=st.integers(0, 2**32 - 1), ties=st.sampled_from([1, 3, 1000]),
       read_sorted_path=st.booleans())
def test_identity_sort_identity_across_chunk_boundaries(
        tmp_path_factory, sort_chunk, offset, scale, seed, ties, read_sorted_path):
    # lengths on both sides of a chunk, and of two or three chunks: the
    # outputs are lists, a head and a file, and merges of several chunks
    length = max(0, (scale + 1) * sort_chunk + offset)
    rng = random.Random(seed)
    items = [GraphEdge(rng.randrange(9), rng.randrange(ties), 1, i) if rng.random() < 0.8
             else InfoEdge(rng.randrange(9), rng.randrange(ties), 0, i, 0)
             for i in range(1, length + 1)]
    expected = sorted(items, key=head_key)
    pl, _ = make_pipeline(tmp_path_factory.mktemp("forms"), sort_chunk=sort_chunk)
    try:
        first = pl.run_streaming_pass(Identity(), pl.materialize(items), "test")
        assert first.items == length and list(first.iter_items()) == items
        ordered = pl.run_sorting_pass(head_key, first, "test", "sort")
        assert ordered.items == length and list(ordered.iter_items()) == expected
        if read_sorted_path:
            with open(ordered.path, "rb") as fh:
                assert fh.read() == encode_block(expected)
        out = pl.run_streaming_pass(Identity(), ordered, "test")
        assert out.items == length and list(out.iter_items()) == expected
        with open(out.path, "rb") as fh:
            assert fh.read() == encode_block(expected)
        assert out.records is None and list(out.iter_items()) == expected
        pl.discard(out)
        assert os.listdir(pl.workdir) == []
    finally:
        pl.cleanup()


# -- merging spilled chunks longer than one block -----------------------------

def sorted_by_sorter(tmp_path, items, key, sort_chunk):
    pl, _ = make_pipeline(tmp_path, sort_chunk=sort_chunk)
    try:
        out = pl.run_sorting_pass(key, pl.materialize(items), "test", "sort")
        return list(out.iter_items())
    finally:
        pl.cleanup()


def horizon_straddling_items():
    # Chunk 0's first block ends on key 2 and its second block goes on with
    # key 2; chunk 1 holds keys below 2, key 2 and above, so the merge's
    # first batch must take chunk 1's keys below 2 and hold back its 2s.
    chunk0 = [1] * 1000 + [2] * 1048
    chunk1 = [0] * 500 + [2] * 1000 + [3] * 548
    # the same with the chunks' roles swapped: the later chunk's block ends
    # on the key that the earlier chunk goes on with
    chunk2 = [0] * 500 + [2] * 1000 + [3] * 548
    chunk3 = [1] * 1000 + [2] * 1048
    return [GraphEdge(1, 1, k, i) for i, k in
            enumerate(chunk0 + chunk1 + chunk2 + chunk3, start=1)]


MERGE_CASES = {
    # name: (items, key, sort_chunk)
    "heavy ties": ([GraphEdge(1, i * 7919 % 5003, 1, i) for i in range(1, 6001)],
                   lambda r: (r[1] % 3,), 1500),
    "all keys equal": ([GraphEdge(1, 2, 1, i) for i in range(1, 5001)],
                       lambda r: (), 1100),
    "block ends on the horizon": (horizon_straddling_items(),
                                  lambda r: (r[2],), 2048),
    "presorted": ([GraphEdge(1, i, 1, i) for i in range(1, 8001)],
                  lambda r: (r[1],), 1200),
    "reverse partitioned": ([GraphEdge(1, 8000 - i // 1200 * 1200 + i % 1200, 1, i)
                             for i in range(8000)], lambda r: (r[1],), 1200),
    "more chunks than the fan-in": (
        [GraphEdge(1, i * 7919 % 97, 1, i)
         for i in range(1, (MERGE_FAN_IN + 1) * (BLOCK_RECORDS + 1) + 2)],
        lambda r: (r[1],), BLOCK_RECORDS + 1),
}


@pytest.mark.parametrize("case", list(MERGE_CASES))
def test_merge_of_chunks_longer_than_a_block_matches_a_stable_sort(tmp_path, case):
    items, key, sort_chunk = MERGE_CASES[case]
    assert sort_chunk > BLOCK_RECORDS and len(items) > 2 * sort_chunk
    assert sorted_by_sorter(tmp_path, items, key, sort_chunk) == sorted(items, key=key)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), length=st.integers(0, 6000),
       sort_chunk=st.sampled_from([1, 3, 700, BLOCK_RECORDS, BLOCK_RECORDS + 1, 1500, 2500]),
       ties=st.sampled_from([1, 2, 3, 10, 1000, 2**40]))
def test_merge_matches_a_stable_sort(tmp_path_factory, seed, length, sort_chunk, ties):
    if sort_chunk < 16:
        length //= 20  # keep the chunk files few
    rng = random.Random(seed)
    items = [GraphEdge(1, rng.randrange(ties), 1, i) for i in range(1, length + 1)]
    key = lambda r: (r[1],)
    got = sorted_by_sorter(tmp_path_factory.mktemp("merge"), items, key, sort_chunk)
    assert got == sorted(items, key=key)


@pytest.mark.parametrize("shape, limit", [("presorted", 1.25), ("random", 2.1)])
def test_key_calls_of_a_spilling_sort(tmp_path, shape, limit):
    # The chunk sorts call the key once per record; every call beyond n is
    # the merge's.  A merge that calls it once per record makes 2n calls.
    n = 8 * 2048
    rng = random.Random(5)
    heads = list(range(n)) if shape == "presorted" else [rng.randrange(n) for _ in range(n)]
    items = [GraphEdge(1, h, 1, i) for i, h in enumerate(heads, start=1)]
    calls = [0]

    def key(item):
        calls[0] += 1
        return (item[1],)

    assert sorted_by_sorter(tmp_path, items, key, 2048) == sorted(items, key=lambda r: r[1])
    assert calls[0] < limit * n


# -- budgets ------------------------------------------------------------------

def fabricated_stats(peaks):
    stats = PassStats()
    for i, items in enumerate(peaks):
        stats.passes.append(PassRecord(i, "stream", "x", "test", items, items, 0, 0))
    return stats


def test_core_dict_reads_pass_counters_off_the_records():
    stats = PassStats(merge_iterations=2, circuits_found=5, tree_height=3)
    assert stats.core_dict() == {
        "streaming_passes": 0, "sorting_passes": 0, "peak_live_words": 0,
        "peak_live_records": 0, "peak_stream_items": 0, "merge_iterations": 2,
        "circuits_found": 5, "tree_height": 3}
    stats.passes += [
        PassRecord(0, "source", "input", "source", 0, 7, 0, 0),
        PassRecord(1, "stream", "a", "phase1", 7, 9, 4, 30),
        PassRecord(2, "sort", "b", "prep", 9, 9, 0, 0),
        PassRecord(3, "stream", "c", "prep", 9, 8, 6, 12),
    ]
    core = stats.core_dict()
    assert list(core) == [
        "streaming_passes", "sorting_passes", "peak_live_words",
        "peak_live_records", "peak_stream_items", "merge_iterations",
        "circuits_found", "tree_height"]
    assert core == {
        "streaming_passes": 2, "sorting_passes": 1, "peak_live_words": 30,
        "peak_live_records": 6, "peak_stream_items": 9, "merge_iterations": 2,
        "circuits_found": 5, "tree_height": 3}


def test_budget_ok_at_180_of_200():
    assert assert_stream_budget(fabricated_stats([150, 180, 120]), 100) is None


def test_budget_violation_at_300():
    violation = assert_stream_budget(fabricated_stats([150, 300, 120]), 100)
    assert violation == BudgetViolation(pass_index=1, items=300, limit=204)


# -- graph files --------------------------------------------------------------

def read_checked(path):
    """A graph file's n and edges, checked as ``solve`` checks them."""
    n, edges = read_graph_file(path)
    with closing(edges):
        return n, list(validate_edges(n, edges))


def test_graph_file_round_trip(tmp_path):
    path = str(tmp_path / "g.txt")
    edges = [(1, 2), (2, 3), (3, 1)]
    write_graph_file(path, 3, edges)
    assert read_checked(path) == (3, edges)


def test_graph_file_edges_are_read_lazily_and_closed(tmp_path, monkeypatch):
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(stream_core, "open", recording_open, raising=False)
    path = tmp_path / "g.txt"
    path.write_text("3 3\n1 2\n2 x\n")
    n, edges = read_graph_file(str(path))  # the bad line is not read yet
    assert n == 3 and next(edges) == (1, 2) and not opened[0].closed
    edges.close()  # as a failed solve leaves it
    assert opened[0].closed
    _, edges = read_graph_file(str(path))
    with pytest.raises(ParseError):
        list(edges)
    assert opened[1].closed
    path.write_text("3 1\n1 2\n")
    _, edges = read_graph_file(str(path))
    assert list(edges) == [(1, 2)] and opened[2].closed
    path.write_text("\n3\n1 2\n")
    with pytest.raises(ParseError):
        read_graph_file(str(path))
    assert opened[3].closed


@pytest.mark.parametrize("content", [
    "",                       # empty
    "3\n1 2\n",               # bad header
    "3 2\n1 2\n",             # wrong edge count
    "3 1\n1 1\n",             # self-loop
    "3 2\n1 2\n1 2\n",        # duplicate
    "3 1\n1 4\n",             # out of range
    "3 1\n1 x\n",             # non-integer
])
def test_graph_file_rejects(tmp_path, content):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(ParseError):
        read_checked(str(path))


def test_graph_file_largest_vertex_count(tmp_path):
    # the largest n whose n + 1 still fits an int64 record field
    path = tmp_path / "g.txt"
    path.write_text(f"{2 ** 63 - 2} 3\n1 2\n2 3\n3 1\n")
    assert read_checked(str(path)) == (2 ** 63 - 2, [(1, 2), (2, 3), (3, 1)])


@pytest.mark.parametrize("reader, content, message", [
    (read_checked, "3 3\n\n1 2\n2 x\n3 1\n", "line 4: expected integers 'u v'"),
    (read_checked, "3 3\n1 2\n2 x\n", "line 3: expected integers 'u v'"),
    (read_checked, "3 3\n1 2\n\n\n2 3 1\n3 1\n", "line 5: expected 'u v'"),
    (read_checked, "\n3\n1 2\n", "line 2: expected 'n m'"),
    (read_checked, "\n\nx 1\n1 2\n", "line 3: expected integers 'n m'"),
    (read_tour_file, "1 2\n\n2 x\n", "line 3: expected integers 'u v'"),
    # a non-ASCII byte is a parse error on its line, not a decoding error
    (read_checked, "3 3\n1 2\n2 3\n3 \u00e91\n", "line 4: expected integers 'u v'"),
    (read_checked, "\ufeff3 3\n1 2\n2 3\n3 1\n", "line 1: expected integers 'n m'"),
    (read_tour_file, "1 2\n2 \u00e93\n", "line 2: expected integers 'u v'"),
    # a field is decimal: an optional "-" and digits, never "_" or "+"
    (read_checked, "1_0 3\n1 2\n2 3\n3 1\n", "line 1: expected integers 'n m'"),
    (read_checked, "+3 3\n1 2\n2 3\n3 1\n", "line 1: expected integers 'n m'"),
    (read_checked, "3 3\n1 2\n2 3\n3 1_0\n", "line 4: expected integers 'u v'"),
    (read_checked, "3 3\n1 2\n2 3\n3 --1\n", "line 4: expected integers 'u v'"),
    (read_tour_file, "+2 3\n3 1\n", "line 1: expected integers 'u v'"),
], ids=["graph-edge", "graph-edge-before-count", "graph-edge-fields", "graph-header",
        "graph-header-integers", "tour-edge", "graph-edge-non-ascii", "graph-header-bom",
        "tour-edge-non-ascii", "graph-header-underscore", "graph-header-plus",
        "graph-edge-underscore", "graph-edge-double-sign", "tour-edge-plus"])
def test_parse_errors_name_the_physical_line(tmp_path, reader, content, message):
    # blank lines are skipped but still counted
    path = tmp_path / "bad.txt"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        reader(str(path))
    assert str(err.value) == message


@pytest.mark.parametrize("content, message", [
    ("-3 3\n1 2\n2 3\n3 1\n", "line 1: bad sizes n=-3 m=3"),
    ("3 -1\n", "line 1: bad sizes n=3 m=-1"),
    ("3 1\n1 -2\n", "edge 1: endpoint outside 1..3: (1, -2)"),
])
def test_negative_fields_are_range_errors(tmp_path, content, message):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(ParseError) as err:
        read_checked(str(path))
    assert str(err.value) == message


def test_validate_edges_names_first_offending_edge():
    edges = [(1, 2), (3, 2), (2, 1), (2, 3)]  # reversed pairs are duplicates too
    with pytest.raises(ParseError, match=r"^edge 3: duplicate edge \(2, 1\)$"):
        list(validate_edges(3, edges))
    with pytest.raises(ParseError, match=r"^edge 2: self-loop at vertex 3$"):
        list(validate_edges(3, [(1, 2), (3, 3), (1, 2)]))


def test_edge_tally_ignores_order_and_orientation():
    tally = EdgeTally.of([(1, 2), (3, 2), (4, 1)])
    assert tally == EdgeTally.of([(1, 4), (2, 3), (2, 1)])
    assert tally.count == 3 and 0 <= tally.total < 1 << 64
    assert tally != EdgeTally.of([(1, 2), (3, 2), (4, 2)])  # one endpoint moved
    assert tally != EdgeTally.of([(1, 2), (3, 2)])
    assert tally != EdgeTally.of([(1, 2), (3, 2), (4, 1), (4, 1)])


def test_edge_tally_tells_apart_ids_a_hash_modulus_apart():
    # CPython hashes an int to its value mod 2**61 - 1
    p = (1 << 61) - 1
    assert hash(2) == hash(2 + p)
    assert EdgeTally.of([(1, 2)]) != EdgeTally.of([(1, 2 + p)])
    assert EdgeTally.of([(1, 2)]) != EdgeTally.of([(1 + 2 * p, 2 + 3 * p)])
    big = (1 << 63) - 1
    assert EdgeTally.of([(big - p, big)]) == EdgeTally.of([(big, big - p)])


def test_edge_tally_passing_yields_then_adds():
    tally = EdgeTally.of([(5, 6)])
    passing = tally.passing([(2, 1), (3, 4)])
    assert next(passing) == (2, 1)
    assert tally == EdgeTally.of([(6, 5)])  # nothing added before the end
    assert list(passing) == [(3, 4)]
    assert tally == EdgeTally.of([(1, 2), (4, 3), (5, 6)])
