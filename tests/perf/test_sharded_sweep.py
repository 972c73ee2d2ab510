"""Sharded sweeps: bounded-RSS workers, cache-key disjointness,
checksum-verified regenerate-on-corruption, no TSV transport."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import run_fig5a
from repro.ndn.name import Name
from repro.perf.parallel import (
    ReplaySpec,
    _cache_trace_object,
    _config_key,
    _trace_key,
    ensure_sharded_trace_cached,
    run_replay_sweep,
)
from repro.workload.ircache import IrcacheConfig, IrcacheGenerator
from repro.workload.marking import ContentMarking, RequestMarking
from repro.workload.sharded import ShardedCompiledTrace
from repro.workload.trace import Request, Trace


CONFIG = IrcacheConfig(requests=6000, users=40, objects=500, sites=8, seed=21)

SPECS = [
    ReplaySpec(
        scheme="uniform",
        scheme_params={"k": 5, "delta": 0.01},
        cache_size=64,
        marking=ContentMarking(0.15, salt=3),
        seed=11,
    ),
    ReplaySpec(
        scheme="exponential",
        scheme_params={"k": 5, "epsilon": 0.005, "delta": 0.01},
        cache_size=128,
        policy="lfu",
        marking=RequestMarking(0.2, seed=5),
        seed=12,
    ),
    ReplaySpec(scheme="no-privacy", cache_size=None, policy="random", seed=13),
    ReplaySpec(scheme="always-delay", cache_size=48, policy="fifo", seed=14),
]


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))


def test_sharded_sweep_matches_materialized_serial_and_parallel():
    """The streaming/sharded path must be bit-identical to the in-RAM
    path for every spec — across serial and multi-worker execution."""
    materialized = run_replay_sweep(
        SPECS, trace=IrcacheGenerator(CONFIG).generate(), workers=1
    )
    serial = run_replay_sweep(
        SPECS, trace_config=CONFIG, workers=1, shard_size=1024
    )
    parallel = run_replay_sweep(
        SPECS, trace_config=CONFIG, workers=3, shard_size=1024
    )
    assert materialized == serial == parallel


def test_cache_keys_disjoint_across_layout_and_shard_size():
    """The cache fingerprint covers the shard size, and generator-config
    entries and ad-hoc-trace entries live under different names, so no
    two layouts of the same requests can collide."""
    keys = {
        _config_key(CONFIG),
        _config_key(CONFIG, shard_size=1024),
        _config_key(CONFIG, shard_size=4096),
    }
    assert len(keys) == 3
    trace = IrcacheGenerator(CONFIG).generate()
    paths = {
        ensure_sharded_trace_cached(CONFIG, shard_size=1024),
        ensure_sharded_trace_cached(CONFIG, shard_size=4096),
        _cache_trace_object(trace, shard_size=1024),
        _cache_trace_object(trace, shard_size=4096),
    }
    assert len(paths) == 4
    assert all(path.is_dir() for path in paths)


def test_sweeps_write_no_tsv_entries(tmp_path):
    """Every sweep transports its trace as checksummed shards: no TSV
    cache entry and no digest sidecar is ever written."""
    trace = IrcacheGenerator(CONFIG).generate()
    run_fig5a(trace, cache_sizes=(64, None), workers=2)
    run_fig5a(CONFIG, cache_sizes=(64, None), workers=2)
    written = [path.name for path in tmp_path.rglob("*")]
    assert not [name for name in written if name.endswith(".sha256")]
    assert [name for name in written if name.endswith(".tsv")] == [
        "names.tsv", "names.tsv",
    ]
    assert sorted(path.name.split("-")[0] for path in tmp_path.iterdir()) == [
        "ircache", "trace",
    ]


def _with_line_breaks(trace: Trace) -> Trace:
    """The same requests, every name's first component holding a line
    feed, and odd-length last components ending in a literal backslash-n."""
    out = Trace()
    for request in trace:
        parts = list(request.name.components)
        parts[0] += "\nx"
        if len(parts[-1]) % 2:
            parts[-1] += "\\n"
        out.append(Request(request.time, request.user, Name(parts)))
    return out


def test_names_with_line_breaks_independent_of_worker_count(tmp_path):
    """The shard name table escapes line feeds and backslashes, so a
    2-worker sweep (shards) marks the same names as the serial sweep
    (in RAM), and the shards rebuild the exact names."""
    trace = _with_line_breaks(IrcacheGenerator(CONFIG).generate().head(2000))
    specs = [
        ReplaySpec(scheme="uniform", cache_size=size, seed=3,
                   marking=ContentMarking(0.5))
        for size in (64, 256)
    ]
    serial = run_replay_sweep(specs, trace=trace, workers=1)
    assert run_replay_sweep(specs, trace=trace, workers=2) == serial
    assert run_replay_sweep(
        specs, trace=trace, workers=2, engine="reference"
    ) == serial
    sharded = ShardedCompiledTrace.open(_cache_trace_object(trace))
    assert list(sharded.names) == list(trace.compile().names)
    # Unescaped, both name tables would read "/a\n/b\n/c".
    def two(first: Name, second: Name) -> Trace:
        return Trace([Request(0.0, 0, first), Request(1.0, 0, second)])

    assert _trace_key(two(Name(["a\n", "b"]), Name(["c"]))) != _trace_key(
        two(Name(["a"]), Name(["b\n", "c"]))
    )


def test_config_key_covers_every_config_field():
    base = _config_key(CONFIG)
    for name in CONFIG.__dataclass_fields__:
        value = getattr(CONFIG, name)
        if isinstance(value, int):
            bumped: object = value + 1
        elif isinstance(value, float):
            bumped = value + 0.25  # stays inside every field's valid range
        else:  # sequence-valued (e.g. the diurnal profile)
            bumped = tuple(value) + tuple(value)[:1]
        other = IrcacheConfig(**{**CONFIG.__dict__, name: bumped})
        assert _config_key(other) != base, f"field {name} not fingerprinted"


def test_sharded_cache_reused_then_regenerated_on_corruption():
    path = ensure_sharded_trace_cached(CONFIG, shard_size=1024)
    stamp = (path / "manifest.json").stat().st_mtime_ns
    # Clean entry: verified and reused in place.
    assert ensure_sharded_trace_cached(CONFIG, shard_size=1024) == path
    assert (path / "manifest.json").stat().st_mtime_ns == stamp
    # Corrupt one shard payload: the entry must be rebuilt, and the
    # rebuilt entry must pass a full checksum verification.
    (path / "shard-00000.ids.npy").write_bytes(b"garbage")
    rebuilt = ensure_sharded_trace_cached(CONFIG, shard_size=1024)
    assert rebuilt == path
    sharded = ShardedCompiledTrace.open(rebuilt)
    sharded.verify()
    assert sharded.n_requests == CONFIG.requests


def test_sharded_mode_input_validation(tmp_path):
    with pytest.raises(ValueError, match="Trace"):
        run_replay_sweep(SPECS[:1], trace=object())  # type: ignore[arg-type]
    with pytest.raises(ValueError, match="shard_size"):
        run_replay_sweep(SPECS[:1], trace_config=CONFIG, shard_size=0)
