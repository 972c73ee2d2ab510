"""Sharded compiled traces: bit-equality with the in-RAM compiler,
checksummed integrity, and bounded-residency replay parity."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schemes.always_delay import AlwaysDelayScheme
from repro.core.schemes.exponential import ExponentialRandomCache
from repro.core.schemes.no_privacy import NoPrivacyScheme
from repro.core.schemes.uniform import UniformRandomCache
from repro.workload.compiled import CompiledTrace, compile_trace
from repro.workload.fast_replay import fast_replay
from repro.workload.ircache import IrcacheConfig, IrcacheGenerator
from repro.workload.marking import ContentMarking, NoMarking, RequestMarking
from repro.workload.replay import replay
from repro.workload.sharded import (
    ShardedCompiledTrace,
    ShardIntegrityError,
    compile_stream,
)
from repro.workload.streaming import TraceWorkload


def _config(requests: int, seed: int) -> IrcacheConfig:
    return IrcacheConfig(
        requests=requests, users=30, objects=300, sites=8,
        session_locality=0.3, seed=seed,
    )


def _columns(compiled: CompiledTrace) -> dict:
    """Every shard column, concatenated in request order."""
    shards = list(compiled.iter_shards())
    return {
        field: np.concatenate([getattr(shard, field) for shard in shards])
        for field in ("ids", "times", "users", "occurrence", "first_occurrence")
    }


def _assert_bit_equal(sharded: ShardedCompiledTrace, trace) -> None:
    compiled = compile_trace(trace)
    assert sharded.n_requests == compiled.n_requests
    assert sharded.n_names == compiled.n_names
    theirs = _columns(compiled)
    for field, ours in _columns(sharded).items():
        assert ours.dtype == theirs[field].dtype, field
        np.testing.assert_array_equal(ours, theirs[field], err_msg=field)
    assert [str(n) for n in sharded.names] == [str(n) for n in compiled.names]
    assert sharded.max_hit_rate == pytest.approx(compiled.max_hit_rate)


# ----------------------------------------------------------------------
# Satellite: the Hypothesis bit-equality property
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(
    requests=st.integers(min_value=1, max_value=2500),
    shard_size=st.integers(min_value=1, max_value=3000),
    chunk_size=st.one_of(st.none(), st.integers(min_value=1, max_value=900)),
    seed=st.integers(min_value=0, max_value=5),
)
def test_compile_stream_bit_equal_to_compile_trace(
    tmp_path_factory, requests, shard_size, chunk_size, seed
):
    """Shards concatenate bit-equal to ``compile_trace`` for arbitrary
    shard/chunk sizes and seeds — dtypes, intern order, occurrence index."""
    out = tmp_path_factory.mktemp("shards")
    trace = IrcacheGenerator(_config(requests, seed)).generate()
    sharded = compile_stream(
        TraceWorkload(trace), out, shard_size=shard_size, chunk_size=chunk_size
    )
    _assert_bit_equal(sharded, trace)
    expected_shards = -(-requests // shard_size)
    assert sharded.n_shards == expected_shards


def test_compile_stream_from_generator_stream(tmp_path):
    """stream → shards (never materializing) equals generate → compile."""
    config = _config(4000, seed=11)
    sharded = compile_stream(
        IrcacheGenerator(config).stream(), tmp_path, shard_size=700, chunk_size=513
    )
    _assert_bit_equal(sharded, IrcacheGenerator(config).generate())


# ----------------------------------------------------------------------
# Integrity: checksums, corruption, open-time validation
# ----------------------------------------------------------------------
def test_verify_passes_then_catches_corruption(tmp_path):
    config = _config(1500, seed=2)
    sharded = compile_stream(
        IrcacheGenerator(config).stream(), tmp_path, shard_size=400
    )
    sharded.verify()
    victim = tmp_path / "shard-00001.times.npy"
    payload = bytearray(victim.read_bytes())
    payload[-1] ^= 0xFF
    victim.write_bytes(bytes(payload))
    with pytest.raises(ShardIntegrityError, match="checksum"):
        ShardedCompiledTrace.open(tmp_path).verify()
    with pytest.raises(ShardIntegrityError, match="checksum"):
        ShardedCompiledTrace.open(tmp_path).load_shard(1, verify=True)


def test_corrupted_name_table_detected(tmp_path):
    sharded = compile_stream(
        IrcacheGenerator(_config(800, seed=4)).stream(), tmp_path, shard_size=300
    )
    names_path = tmp_path / "names.tsv"
    names_path.write_text(
        names_path.read_text(encoding="utf-8") + "/evil/extra\n", encoding="utf-8"
    )
    with pytest.raises(ShardIntegrityError, match="checksum"):
        ShardedCompiledTrace.open(tmp_path).verify()


def test_open_rejects_missing_or_malformed_manifest(tmp_path):
    with pytest.raises(ShardIntegrityError, match="manifest"):
        ShardedCompiledTrace.open(tmp_path)
    (tmp_path / "manifest.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(ShardIntegrityError):
        ShardedCompiledTrace.open(tmp_path)
    (tmp_path / "manifest.json").write_text(
        '{"format": "something-else", "version": 1}', encoding="utf-8"
    )
    with pytest.raises(ShardIntegrityError, match="format"):
        ShardedCompiledTrace.open(tmp_path)


def test_shards_are_memory_mapped_and_releasable(tmp_path):
    sharded = compile_stream(
        IrcacheGenerator(_config(1000, seed=7)).stream(), tmp_path, shard_size=256
    )
    shard = sharded.load_shard(0)
    assert isinstance(shard.ids, np.memmap)
    assert len(shard) == 256
    shard.release()  # must not invalidate the mapping
    assert int(shard.ids[0]) >= 0
    total = sum(len(s) for s in sharded.iter_shards())
    assert total == sharded.n_requests


# ----------------------------------------------------------------------
# Replay parity: shard-by-shard fast_replay equals in-RAM fast_replay
# ----------------------------------------------------------------------
def _scheme(name: str, seed: int):
    rng = np.random.default_rng(seed)
    return {
        "no-privacy": lambda: NoPrivacyScheme(),
        "always-delay": lambda: AlwaysDelayScheme(),
        "uniform": lambda: UniformRandomCache(K=8, rng=rng),
        "exponential": lambda: ExponentialRandomCache(alpha=0.5, K=16, rng=rng),
    }[name]()


@pytest.mark.parametrize(
    "scheme_name,marking_factory,policy,cache_size",
    [
        ("no-privacy", lambda: NoMarking(), "lru", 64),
        ("uniform", lambda: ContentMarking(0.2, salt=1), "fifo", 32),
        ("exponential", lambda: RequestMarking(0.15, seed=9), "lfu", 128),
        ("always-delay", lambda: ContentMarking(0.1, salt=2), "random", None),
    ],
)
def test_sharded_replay_bit_identical(
    tmp_path, scheme_name, marking_factory, policy, cache_size
):
    """stream→shards→replay == generate→compile→replay on every
    observable.  Fresh scheme/marking instances per leg: both carry RNG
    state, so sharing one across legs would continue its stream."""
    config = _config(3000, seed=13)
    trace = IrcacheGenerator(config).generate()
    sharded = compile_stream(
        IrcacheGenerator(config).stream(), tmp_path, shard_size=512
    )
    in_ram = fast_replay(
        trace,
        scheme=_scheme(scheme_name, 5),
        marking=marking_factory(),
        cache_size=cache_size,
        policy=policy,
        seed=17,
    )
    streamed = fast_replay(
        sharded,
        scheme=_scheme(scheme_name, 5),
        marking=marking_factory(),
        cache_size=cache_size,
        policy=policy,
        seed=17,
    )
    assert in_ram == streamed


def test_sharded_replay_falls_back_for_kernelless_scheme(tmp_path):
    """Schemes without a fast kernel need the reference replay, which
    needs Request objects: a sharded trace rebuilds its source trace
    (names, full-precision times, users) and replays that."""

    class KernellessScheme(NoPrivacyScheme):
        def make_kernel(self, names):
            return None

    config = _config(200, seed=1)
    sharded = compile_stream(
        IrcacheGenerator(config).stream(), tmp_path, shard_size=64
    )
    expected = replay(
        IrcacheGenerator(config).generate(), scheme=KernellessScheme(),
        marking=RequestMarking(0.3, seed=2), cache_size=32, seed=3,
    )
    assert fast_replay(
        sharded, scheme=KernellessScheme(), marking=RequestMarking(0.3, seed=2),
        cache_size=32, seed=3,
    ) == expected
