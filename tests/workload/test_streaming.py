"""The Workload protocol: chunk-invariant streaming request sources."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ndn.errors import NameError_
from repro.workload.ircache import IrcacheConfig, IrcacheGenerator
from repro.workload.sharded import compile_stream
from repro.workload.streaming import (
    RequestBlock,
    TraceWorkload,
    TsvWorkload,
    Workload,
    iter_requests,
    materialize,
    rechunk,
)
from repro.workload.trace import Trace

CONFIG = IrcacheConfig(requests=5000, users=60, objects=800, sites=12, seed=3)


def _concat(blocks):
    blocks = list(blocks)
    return (
        np.concatenate([b.times for b in blocks]),
        np.concatenate([b.users for b in blocks]),
        np.concatenate([b.keys for b in blocks]),
    )


# ----------------------------------------------------------------------
# Protocol conformance
# ----------------------------------------------------------------------
def test_implementations_satisfy_protocol(tmp_path):
    stream = IrcacheGenerator(CONFIG).stream()
    assert isinstance(stream, Workload)
    trace = IrcacheGenerator(CONFIG).generate()
    assert isinstance(TraceWorkload(trace), Workload)
    path = tmp_path / "trace.tsv"
    trace.save(path)
    assert isinstance(TsvWorkload(path), Workload)


def test_request_block_rejects_ragged_columns():
    with pytest.raises(ValueError, match="ragged"):
        RequestBlock(
            times=np.zeros(3), users=np.zeros(2, np.int64), keys=np.zeros(3, np.int64)
        )


# ----------------------------------------------------------------------
# rechunk
# ----------------------------------------------------------------------
def test_rechunk_is_exact_reslicing():
    rng = np.random.default_rng(0)
    blocks = []
    cursor = 0.0
    for size in (5, 1, 17, 0, 64, 3):
        times = np.sort(rng.random(size)) + cursor
        cursor += 1.0
        blocks.append(
            RequestBlock(
                times=times,
                users=rng.integers(0, 10, size),
                keys=rng.integers(0, 50, size),
            )
        )
    flat = _concat(blocks)
    for chunk in (1, 2, 7, 90, 1000):
        rechunked = list(rechunk(iter(blocks), chunk))
        assert all(len(b) == chunk for b in rechunked[:-1])
        assert 0 < len(rechunked[-1]) <= chunk
        out = _concat(rechunked)
        for a, b in zip(flat, out):
            np.testing.assert_array_equal(a, b)
    # chunk_size=None passes blocks through untouched.
    assert [len(b) for b in rechunk(iter(blocks), None)] == [5, 1, 17, 0, 64, 3]
    with pytest.raises(ValueError):
        list(rechunk(iter(blocks), 0))


# ----------------------------------------------------------------------
# The synthetic generator's stream
# ----------------------------------------------------------------------
def test_stream_is_chunk_size_invariant():
    """The acceptance criterion: the byte stream is a function of the
    seed alone — consumer chunking never perturbs sampling."""
    stream = IrcacheGenerator(CONFIG).stream()
    baseline = _concat(stream.iter_blocks())
    for chunk in (1000, 777, 13):
        out = _concat(IrcacheGenerator(CONFIG).stream().iter_blocks(chunk))
        for a, b in zip(baseline, out):
            np.testing.assert_array_equal(a, b)


def test_stream_matches_generate():
    trace = IrcacheGenerator(CONFIG).generate()
    stream = IrcacheGenerator(CONFIG).stream()
    requests = list(iter_requests(stream))
    assert len(requests) == len(trace) == CONFIG.requests
    for a, b in zip(requests, trace):
        assert (a.time, a.user, str(a.name)) == (b.time, b.user, str(b.name))
    assert stream.n_requests == CONFIG.requests
    assert stream.key_space == CONFIG.objects
    assert 0 < stream.n_names <= CONFIG.objects


def test_stream_times_sorted_and_bounded():
    stream = IrcacheGenerator(CONFIG).stream()
    times = _concat(stream.iter_blocks(512))[0]
    assert np.all(np.diff(times) >= 0)
    assert times[0] >= 0.0
    assert times[-1] <= CONFIG.duration_hours * 3_600_000.0  # ms


def test_materialize_roundtrip():
    trace = materialize(IrcacheGenerator(CONFIG).stream())
    direct = IrcacheGenerator(CONFIG).generate()
    assert len(trace) == len(direct)
    assert str(trace[0].name) == str(direct[0].name)


# ----------------------------------------------------------------------
# TSV reader and trace adapter
# ----------------------------------------------------------------------
def test_tsv_workload_streams_the_saved_trace(tmp_path):
    trace = IrcacheGenerator(CONFIG).generate()
    path = tmp_path / "trace.tsv"
    trace.save(path)
    workload = TsvWorkload(path)
    assert workload.key_space is None  # unknown before the first pass
    requests = list(iter_requests(workload))
    reloaded = Trace.load(path)
    assert len(requests) == len(reloaded)
    for a, b in zip(requests, reloaded):
        assert (a.time, a.user, str(a.name)) == (b.time, b.user, str(b.name))
    # Counts are exact after one full pass; keys are stable across passes.
    assert workload.n_requests == len(trace)
    assert workload.key_space == workload.n_names
    again = _concat(workload.iter_blocks(97))
    first = _concat(TsvWorkload(path).iter_blocks(11))
    for a, b in zip(first, again):
        np.testing.assert_array_equal(a, b)


def test_tsv_workload_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("1.0\t2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="3 tab-separated"):
        list(TsvWorkload(path).iter_blocks())


@pytest.mark.parametrize(
    "line,exc,match",
    [
        ("1.0\t2\tfoo/bar", NameError_, "must start with '/'"),
        ("1.0\t2\t/a//b", NameError_, "empty component"),
        ("-1.0\t2\t/a", ValueError, ">= 0"),
        ("1.0\t-2\t/a", ValueError, ">= 0"),
        ("1.0\t2", ValueError, "3 tab-separated"),
    ],
)
def test_both_tsv_readers_reject_the_same_lines(tmp_path, line, exc, match):
    """``Trace.load`` and a streamed compile fail on the same malformed
    line with the same ``path:line`` error, instead of the stream storing
    a name it cannot rebuild (or failing only later)."""
    path = tmp_path / "bad.tsv"
    path.write_text(f"0.0\t1\t/ok\n{line}\n", encoding="utf-8")
    with pytest.raises(exc, match=match) as loaded:
        Trace.load(path)
    with pytest.raises(exc) as streamed:
        compile_stream(TsvWorkload(path), tmp_path / "shards")
    assert str(streamed.value) == str(loaded.value)
    assert str(loaded.value).startswith(f"{path}:2: ")


def test_trace_workload_uses_compiled_ids():
    trace = IrcacheGenerator(CONFIG).generate()
    compiled = trace.compile()
    (shard,) = compiled.iter_shards()
    workload = TraceWorkload(trace)
    assert workload.n_requests == compiled.n_requests
    assert workload.key_space == compiled.n_names
    times, users, keys = _concat(workload.iter_blocks(333))
    np.testing.assert_array_equal(times, shard.times)
    np.testing.assert_array_equal(users, shard.users)
    np.testing.assert_array_equal(keys, shard.ids)
    assert workload.uri_of(int(keys[0])) == str(compiled.names[int(keys[0])])
