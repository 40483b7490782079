"""Golden corpus: fixed graphs must keep their exact tours, counters and passes.

Each entry holds sha256 digests of the tour file text, of ``core_dict()``
and of the list of per-pass ``PassRecord`` dicts, all as JSON with sorted
keys.  The first four were recorded with the original text-line stream
codec, the two shuffled ones with the restarting phase-1 walk, and the
triangle chain, the only entry with more than 4 merge rounds, with the
resumed walk; a change to the stream representation, the sorter, the walk
or the passes must reproduce them, never re-record them.

``GOLDEN_FILES`` adds two digests per entry, recorded before the pass
counters were computed from the pass records: the exact text that
``write_stats_file`` writes, and every file of the solve's trace directory
(sorted names and bytes).  So every golden solve runs with a trace
directory.
"""

import hashlib
import json
import os
import random

import pytest

from strtour import gen_eulerian, solve, write_stats_file

from conftest import triangle_chain_shuffled


def lollipop(big_n):
    """Path 1..N, N/2 triangles hanging off vertex N, then the edge (N, 1)."""
    n = 2 * big_n
    edges = [(v, v + 1) for v in range(1, big_n)]
    for k in range(big_n + 1, n + 1, 2):
        edges += [(big_n, k), (k, k + 1), (k + 1, big_n)]
    edges.append((big_n, 1))
    return n, edges


def lollipop_shuffled(big_n, seed):
    """As ``lollipop``, but the seed permutes the triangle-vertex labels.

    A triangle vertex can then sort below its partner and dangle off the
    walk's path when the buffer fills, which sequential labels rarely do.
    """
    n = 2 * big_n
    fresh = list(range(big_n + 1, n + 1))
    random.Random(seed).shuffle(fresh)
    edges = [(v, v + 1) for v in range(1, big_n)]
    for k in range(0, big_n, 2):
        a, b = fresh[k], fresh[k + 1]
        edges += [(big_n, a), (a, b), (b, big_n)]
    edges.append((big_n, 1))
    return n, edges


def shuffled(graph, seed):
    n, edges = graph
    edges = list(edges)
    random.Random(seed).shuffle(edges)
    return n, edges


GRAPHS = {
    "random-10-20-1": lambda: gen_eulerian(10, 20, 1),
    "random-100-400-3": lambda: gen_eulerian(100, 400, 3),
    "random-1000-5000-1": lambda: gen_eulerian(1000, 5000, 1),
    "lollipop-300": lambda: lollipop(300),
    "lollipop-shuffled-300-1": lambda: lollipop_shuffled(300, 1),
    "random-100-400-5-shuffled-1": lambda: shuffled(gen_eulerian(100, 400, 5), 1),
    "triangle-chain-500-1": lambda: triangle_chain_shuffled(500, 1),
}

# name: (edges, passes, tour, core_dict, pass records)
GOLDEN = {
    "random-10-20-1": (
        20, 25,
        "d764981b12c52b0fce5bbed15d9cd0c0dea5d41e4e0b4a8868358dd26517c0c2",
        "2d5fd45da198f0d1d5581b703d6e74a42c723423acc747ed62d90ff508f3c217",
        "a08c8355e2942a3896bbd7b5602c93240b29c8cfcfb8d124bbc5bf7c5fa37f51"),
    "random-100-400-3": (
        361, 33,
        "7df8c30bd757408302355f7bed9ebd94a21437af3775b482d094da0b1778bf29",
        "155b80340b7b8433bf41b4c604cacb9fb8863ccbdb5800cfaed4f03fc6077bb3",
        "fb54d4ff09db6c91fc9cae5ba3e441290f08286e9b543e9001a9676574131cb4"),
    "random-1000-5000-1": (
        4503, 41,
        "6bc1ec48b05a0be7564a20f25fbd731955dc7cfd57645ccf468b3cdaca8c14c2",
        "d4a60ef7ff60a4cdf13fe8647e6e0ce7473b1fe3ef81c152df1c08c3a0e5e85d",
        "71cc5165d102031464923265e2304337b91045cfb944f9d06d811878cd4c49e2"),
    "lollipop-300": (
        750, 17,
        "d35c812cd7d87a988044fcb30adedcd767476d0a30021b0c863f5ab543604c94",
        "29fef04b61fb1f8a1dce28004cdefb9d0400ea686ac4d408366e2d477fe76d9d",
        "907973e17e7abcdf713e2c90e22715d2df4bf9d1f3114a7509621b6071e0a033"),
    "lollipop-shuffled-300-1": (
        750, 17,
        "8047f873b5fcd5842fe1ca336bb608abd1b17c343f825f58f6f1c951dc815b06",
        "29fef04b61fb1f8a1dce28004cdefb9d0400ea686ac4d408366e2d477fe76d9d",
        "907973e17e7abcdf713e2c90e22715d2df4bf9d1f3114a7509621b6071e0a033"),
    "random-100-400-5-shuffled-1": (
        361, 33,
        "a28975b646a6dc6547d03d307e1b8d36d6e7c7b0cb4d60456170ba7739e3d135",
        "8216ae8ffeea9b38aeeb47e1cd9fcda35f86d0f9a2642cd474e6c32f8f2470a6",
        "d0daf48de8014f843f76c841dc72f1c1819e37c1d63c5b01684f0323466698ef"),
    "triangle-chain-500-1": (
        1500, 81,
        "d290842841ee9df76912011a058b5ddecbcd54fdaf1ea41d741d30c733a76536",
        "85a6d36e61d809b7dc3e837f88737b5cebfd58c5601f7ea8ef97ef314de661b3",
        "907597a2ed867d5f366fe459514a296c9cdca0824ca3663643e1b24c37fc2d25"),
}

# name: (stats file text, trace directory)
GOLDEN_FILES = {
    "random-10-20-1": (
        "d49e52b2e71f36c701887faef323781fa06878584bb7d215f0825bf50baa8fad",
        "d8b89e0018026c993e0109eb518064bbb37b242d2ad8eb10cbb28616595c61a1"),
    "random-100-400-3": (
        "bdf581a45e31fa8060e028dcb1bb1fb3753d301f3dd864835d6886dd1d966363",
        "02dffff1253fa412ada70f8529c08ae5cde1c6890dfb6a8781b0665379cd8638"),
    "random-1000-5000-1": (
        "524701632e799714067125eb6b0cf0dd2572b240b929016d094d25eb7cae7434",
        "41978f5cdf409949277ce0f80e80b885880cdbbc01b25f006dccc3608359b2a4"),
    "lollipop-300": (
        "a1d625980db1e0daa94849f9ef43798aa1658f5266769ad8c45750dc994749be",
        "df3f0aee6ed234f306e1d91ce7e9a8b879a6a838f9201b0763fd8f4c006a63c5"),
    "lollipop-shuffled-300-1": (
        "a1d625980db1e0daa94849f9ef43798aa1658f5266769ad8c45750dc994749be",
        "fdbea47eb921376e8b2fa7e348deb010a709bd47fcdbc7974ca422fb28c83a04"),
    "random-100-400-5-shuffled-1": (
        "156d28eb2fa79f5cb8b43d0e3f65cd11d6470a203422aae4244b885307c3a476",
        "74b2742a930796b60a52c1540af89a1e1b22b1262ccdfeb604cad757b9a58c2c"),
    "triangle-chain-500-1": (
        "639d780c2b4ef6d89626a3bd080312ddb64ce2b3f904c03c03f4d01df0194f39",
        "0cccfe2e7df2998276e70852a8aff571f75354578aafbde72c112f296bda0beb"),
}


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("ascii")).hexdigest()


def tour_digest(tour):
    text = "".join(f"{u} {v}\n" for u, v in tour)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def trace_digest(trace_dir):
    """One digest of every file in ``trace_dir``: sorted names and bytes."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name), "rb") as fh:
            data = fh.read()
        h.update(f"{name} {len(data)}\n".encode("ascii"))
        h.update(data)
    return h.hexdigest()


# A chunk of 64 records makes every sort of every entry but the smallest
# spill and merge, so the corpus also pins the external merge-sort path.
CHUNKS = [pytest.param(name, None, id=name) for name in sorted(GOLDEN)] + [
    pytest.param(name, 64, id=f"{name}-chunk64") for name in sorted(GOLDEN)]


@pytest.mark.parametrize("name, sort_chunk", CHUNKS)
def test_golden_corpus(name, sort_chunk, tmp_path):
    n, edges = GRAPHS[name]()
    m, passes, tour, core, records = GOLDEN[name]
    stats_text, trace = GOLDEN_FILES[name]
    assert len(edges) == m
    trace_dir = str(tmp_path / "trace")
    result = solve(n, edges, tmpdir=str(tmp_path), trace_dir=trace_dir,
                   sort_chunk=sort_chunk)
    assert len(result.stats.passes) == passes
    assert tour_digest(result.tour) == tour
    assert digest(result.stats.core_dict()) == core
    assert digest([rec.as_dict() for rec in result.stats.passes]) == records
    stats_path = str(tmp_path / "stats.json")
    write_stats_file(stats_path, result)
    assert file_digest(stats_path) == stats_text
    assert trace_digest(trace_dir) == trace
