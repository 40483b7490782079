"""In-memory spans around strtour's layers, installed from outside the package.

``instrument`` swaps wrappers in for public names of the solver's modules
and puts the originals back on exit.  Whole-call wrappers (passes, phases,
file I/O) record a span: name, start, end, parent and run id.  Per-call
wrappers (record codec, sort keys, processor callbacks, circuit extraction,
spill-chunk creation) only add to counters on the innermost open span, so a
run of millions of records still keeps a few dozen spans.  ``layer_metrics``
turns the spans into the benchmark's per-layer numbers.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

from strtour import circuit_find, pipeline, stream_core, tree_merge
from strtour.stream_core import StreamPipeline

clock = time.perf_counter


@dataclass
class Span:
    name: str
    id: int
    parent: Optional[int]
    run_id: str
    start: float
    end: float = 0.0
    attrs: defaultdict = field(default_factory=lambda: defaultdict(int))

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one traced solve, kept in memory until ``dump``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.stats: Optional[stream_core.PassStats] = None
        self.sort_chunk: Optional[int] = None

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1].id if self._open else None
        span = Span(name, len(self.spans), parent, self.run_id, clock())
        span.attrs.update(attrs)
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = clock()
            self._open.pop()

    @property
    def current(self) -> Span:
        return self._open[-1]

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def dump(self, path: str) -> None:
        base = self.spans[0].start if self.spans else 0.0
        rows = [{"name": s.name, "id": s.id, "parent": s.parent, "run_id": s.run_id,
                 "start": s.start - base, "end": s.end - base, "attrs": dict(s.attrs)}
                for s in self.spans]
        with open(path, "w", encoding="ascii") as fh:
            json.dump(rows, fh, indent=1)
            fh.write("\n")


def _spanned(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


# The per-call wrappers below run millions of times in one solve, so they
# bind everything they touch to locals and avoid *args where they can.

def _counted(tracer: Tracer, prefix: str, fn, clock=clock):
    """Add call count and seconds under ``prefix`` to the enclosing span."""
    seconds, calls = prefix + "_s", prefix + "_calls"
    open_spans = tracer._open

    def wrapper(arg):
        t0 = clock()
        result = fn(arg)
        attrs = open_spans[-1].attrs
        attrs[seconds] += clock() - t0
        attrs[calls] += 1
        return result
    return wrapper


def _processor_callback(tracer: Tracer, fn, clock=clock):
    """Processor time, excluding the encoding of records it emits."""
    open_spans = tracer._open

    def wrapper(*args):
        attrs = open_spans[-1].attrs
        encoded = attrs["encode_s"]
        t0 = clock()
        fn(*args)
        attrs["processor_s"] += clock() - t0 - (attrs["encode_s"] - encoded)
    return wrapper


class _TempfileProxy:
    """Stands in for ``tempfile`` inside stream_core to count spill chunks."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(tempfile, name)

    def mkstemp(self, *args, **kwargs):
        self._tracer.current.attrs["spill_chunks"] += 1
        return tempfile.mkstemp(*args, **kwargs)


def _pass_span(tracer: Tracer, span: Span, pipe: StreamPipeline, out) -> None:
    span.attrs["items_out"] = out.items
    span.attrs["bytes"] = os.path.getsize(out.path)
    tracer.stats = pipe.stats
    tracer.sort_chunk = pipe.sort_chunk


@contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    materialize = StreamPipeline.materialize
    streaming = StreamPipeline.run_streaming_pass
    sorting = StreamPipeline.run_sorting_pass

    def traced_materialize(self, items, label="source"):
        with tracer.span("ingest.source", kind="source", phase="source") as span:
            out = materialize(self, items, label)
            _pass_span(tracer, span, self, out)
        return out

    def traced_streaming(self, processor, stream, phase, label=None):
        with tracer.span("pass.stream", kind="stream", phase=phase,
                         label=label or processor.label, items_in=stream.items) as span:
            for hook in ("on_start", "on_item", "on_end"):
                setattr(processor, hook, _processor_callback(tracer, getattr(processor, hook)))
            try:
                out = streaming(self, processor, stream, phase, label)
            finally:
                for hook in ("on_start", "on_item", "on_end"):
                    delattr(processor, hook)
            _pass_span(tracer, span, self, out)
        return out

    def traced_sorting(self, key, stream, phase, label):
        with tracer.span("pass.sort", kind="sort", phase=phase, label=label,
                         items_in=stream.items) as span:
            out = sorting(self, _counted(tracer, "key", key), stream, phase, label)
            _pass_span(tracer, span, self, out)
        return out

    def traced_extract(buffer):
        t0 = clock()
        circuit = extract(buffer)
        attrs = tracer.current.attrs
        attrs["extract_s"] += clock() - t0
        attrs["extract_calls"] += 1
        attrs["circuits"] += circuit is not None
        return circuit

    extract = circuit_find.extract_circuit
    patches = [
        (StreamPipeline, "materialize", traced_materialize),
        (StreamPipeline, "run_streaming_pass", traced_streaming),
        (StreamPipeline, "run_sorting_pass", traced_sorting),
        (stream_core, "decode_item", _counted(tracer, "decode", stream_core.decode_item)),
        (stream_core, "encode_item", _counted(tracer, "encode", stream_core.encode_item)),
        (stream_core, "tempfile", _TempfileProxy(tracer)),
        (circuit_find, "extract_circuit", traced_extract),
        (pipeline, "read_graph_file", _spanned(tracer, "ingest.read", pipeline.read_graph_file)),
        (pipeline, "find_circuits", _spanned(tracer, "circuit_find.find", pipeline.find_circuits)),
        (pipeline, "prepare", _spanned(tracer, "tree_prep.prepare", pipeline.prepare)),
        (tree_merge, "merge_iteration",
         _spanned(tracer, "tree_merge.round", tree_merge.merge_iteration)),
        (pipeline, "emit_tour", _spanned(tracer, "tree_merge.emit", pipeline.emit_tour)),
        (pipeline, "write_tour_file",
         _spanned(tracer, "pipeline.write_tour", pipeline.write_tour_file)),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    for owner, attr, replacement in patches:
        setattr(owner, attr, replacement)
    try:
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def _total(spans, key: str) -> float:
    return sum(s.attrs.get(key, 0) for s in spans)


def _duration(spans) -> float:
    return sum(s.duration for s in spans)


def coverage(tracer: Tracer, root: Span) -> float:
    """Share of the root span's wall time covered by its child spans."""
    children = [s for s in tracer.spans if s.parent == root.id]
    return _duration(children) / root.duration


def layer_metrics(tracer: Tracer, root: Span, m: int) -> dict[str, float]:
    """Per-layer numbers of one traced solve, keyed by metric name."""
    spans = tracer.spans
    sorts = tracer.named("pass.sort")
    streams = tracer.named("pass.stream")
    phase1 = [s for s in streams if s.attrs["phase"] == "phase1"]
    rounds = tracer.named("tree_merge.round")
    passes = tracer.named("ingest.source") + streams + sorts
    stats = tracer.stats
    phase1_words = [r.peak_live_words for r in stats.passes if r.phase == "phase1"] if stats else []
    decode_calls = _total(spans, "decode_calls")
    return {
        "stream_core.decode_s": _total(spans, "decode_s"),
        "stream_core.decode_calls": decode_calls,
        "stream_core.encode_s": _total(spans, "encode_s"),
        "stream_core.encode_calls": _total(spans, "encode_calls"),
        "stream_core.sort_pass_s": _duration(sorts),
        "stream_core.sort_passes": len(sorts),
        "stream_core.sort_key_s": _total(sorts, "key_s"),
        "stream_core.sort_other_s": _duration(sorts) - sum(
            _total(sorts, k) for k in ("key_s", "decode_s", "encode_s")),
        "stream_core.sort_spill_chunks": _total(sorts, "spill_chunks"),
        "stream_core.stream_pass_s": _duration(streams),
        "stream_core.stream_passes": len(streams),
        "stream_core.processor_s": _total(streams, "processor_s"),
        "stream_core.bytes_written": _total(passes, "bytes"),
        "stream_core.items_read_per_edge": decode_calls / m,
        "ingest.read_s": _duration(tracer.named("ingest.read")),
        "ingest.source_s": _duration(tracer.named("ingest.source")),
        "circuit_find.pass_s": _duration(phase1),
        "circuit_find.extract_s": _total(spans, "extract_s"),
        "circuit_find.extract_calls": _total(spans, "extract_calls"),
        "circuit_find.circuits": _total(spans, "circuits"),
        "circuit_find.peak_live_words": max(phase1_words, default=0),
        "tree_prep.s": _duration(tracer.named("tree_prep.prepare")),
        "tree_merge.s": _duration(rounds),
        "tree_merge.rounds": len(rounds),
        "tree_merge.round_max_s": max((s.duration for s in rounds), default=0.0),
        "tree_merge.emit_s": _duration(tracer.named("tree_merge.emit")),
        "pipeline.write_s": _duration(tracer.named("pipeline.write_tour")),
        "trace.solve_s": root.duration,
        "trace.coverage": coverage(tracer, root),
    }
