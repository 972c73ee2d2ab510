"""The parallel sweep runner: worker-independence, seeding, trace cache."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro.perf.parallel as parallel_module
from repro.ndn.name import Name
from repro.perf.parallel import (
    ReplaySpec,
    _cache_trace_object,
    _trace_key,
    build_scheme,
    derive_seeds,
    ensure_sharded_trace_cached,
    resolve_workers,
    run_replay_sweep,
    trace_cache_dir,
)
from repro.workload.ircache import IrcacheConfig, IrcacheGenerator
from repro.workload.marking import ContentMarking, RequestMarking
from repro.workload.sharded import ShardedCompiledTrace
from repro.workload.trace import Request, Trace


@pytest.fixture(scope="module")
def trace() -> Trace:
    return IrcacheGenerator(
        IrcacheConfig(requests=2500, objects=2000, seed=5)
    ).generate()


def _grid_specs(trial_seeds):
    return [
        ReplaySpec(
            scheme=name,
            scheme_params={"k": 5, "epsilon": 0.005, "delta": 0.01},
            cache_size=size,
            marking=ContentMarking(0.2, salt=1),
            seed=seed,
            label=f"{name}/{size}/{seed}",
        )
        for name in ("no-privacy", "exponential", "uniform")
        for size in (200, 500)
        for seed in trial_seeds
    ]


def test_sweep_independent_of_worker_count(trace, tmp_path, monkeypatch):
    """The ISSUE's determinism criterion: same results for 1 and 4 workers."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    specs = _grid_specs(derive_seeds(base_seed=42, count=2))
    serial = run_replay_sweep(specs, trace=trace, workers=1)
    parallel = run_replay_sweep(specs, trace=trace, workers=4)
    assert serial == parallel


def test_sweep_engines_agree(trace, monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "1")
    specs = _grid_specs([0])
    fast = run_replay_sweep(specs, trace=trace, engine="fast")
    reference = run_replay_sweep(specs, trace=trace, engine="reference")
    assert fast == reference


def test_sweep_results_in_spec_order(trace, monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "1")
    specs = [
        ReplaySpec(scheme="no-privacy", cache_size=size, seed=0)
        for size in (100, 400, 1600)
    ]
    stats = run_replay_sweep(specs, trace=trace)
    # Bigger caches never hit less: ordered results track the spec order.
    assert stats[0].hits <= stats[1].hits <= stats[2].hits


def test_sweep_input_validation(trace):
    with pytest.raises(ValueError):
        run_replay_sweep([], trace=trace, trace_config=IrcacheConfig())
    with pytest.raises(ValueError):
        run_replay_sweep([])
    with pytest.raises(ValueError):
        run_replay_sweep([], trace=trace, engine="warp")
    assert run_replay_sweep([ ], trace=trace) == []


def test_derive_seeds_deterministic_and_distinct():
    first = derive_seeds(base_seed=7, count=8)
    assert first == derive_seeds(base_seed=7, count=8)
    assert len(set(first)) == 8
    assert derive_seeds(base_seed=8, count=8) != first
    # Prefix-stable: widening the grid keeps existing trial seeds.
    assert derive_seeds(base_seed=7, count=4) == first[:4]


def test_resolve_workers(monkeypatch):
    assert resolve_workers(3) == 3
    monkeypatch.setenv("REPRO_WORKERS", "2")
    assert resolve_workers() == 2
    monkeypatch.delenv("REPRO_WORKERS")
    assert resolve_workers() >= 1
    with pytest.raises(ValueError):
        resolve_workers(0)


def test_trace_cache_reused(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    assert trace_cache_dir() == tmp_path
    config = IrcacheConfig(requests=500, objects=400, seed=9)
    path = ensure_sharded_trace_cached(config)
    assert path.is_dir()
    stamp = (path / "manifest.json").stat().st_mtime_ns
    # Second call must reuse the entry, not regenerate it.
    assert ensure_sharded_trace_cached(config) == path
    assert (path / "manifest.json").stat().st_mtime_ns == stamp
    # A different config gets a different key.
    other = ensure_sharded_trace_cached(
        IrcacheConfig(requests=600, objects=400, seed=9)
    )
    assert other != path
    assert ShardedCompiledTrace.open(path).n_requests == 500


def test_build_scheme_registry():
    scheme = build_scheme("exponential", seed=3, k=5, epsilon=0.005, delta=0.01)
    assert type(scheme).__name__ == "ExponentialRandomCache"
    with pytest.raises(ValueError):
        build_scheme("mystery")


def test_replay_spec_picklable(trace):
    spec = ReplaySpec(
        scheme="uniform",
        scheme_params={"k": 5, "delta": 0.01},
        cache_size=100,
        marking=ContentMarking(0.2),
        seed=4,
    )
    clone = pickle.loads(pickle.dumps(spec))
    assert (clone.scheme, clone.cache_size, clone.seed) == ("uniform", 100, 4)
    assert dict(clone.scheme_params) == {"k": 5, "delta": 0.01}
    assert clone.marking.fraction == spec.marking.fraction


# ----------------------------------------------------------------------
# Reference engine and full-precision transport through the workers
# ----------------------------------------------------------------------
def _mixed_specs():
    return [
        ReplaySpec(
            scheme="exponential",
            scheme_params={"k": 5, "epsilon": 0.005, "delta": 0.01},
            cache_size=300,
            marking=ContentMarking(0.2, salt=1),
            seed=3,
        ),
        ReplaySpec(
            scheme="uniform",
            scheme_params={"k": 5, "delta": 0.01},
            cache_size=200,
            policy="lfu",
            marking=RequestMarking(0.3, seed=2),
            seed=4,
        ),
        ReplaySpec(scheme="always-delay", cache_size=None, seed=5),
    ]


@pytest.fixture()
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    monkeypatch.setattr(parallel_module, "_PROCESS_SHARDED", {})
    return tmp_path


@pytest.mark.parametrize("source", ["trace", "config"])
def test_reference_engine_with_workers(trace, fresh_cache, source):
    """Workers get shards, yet the reference engine still replays the
    exact trace: reference x 2 workers == fast == reference x 1 worker."""
    if source == "trace":
        workload = {"trace": trace}
    else:
        workload = {
            "trace_config": IrcacheConfig(requests=2500, objects=2000, seed=5)
        }
    specs = _mixed_specs()
    reference_parallel = run_replay_sweep(
        specs, workers=2, engine="reference", **workload
    )
    fast_parallel = run_replay_sweep(specs, workers=2, engine="fast", **workload)
    reference_serial = run_replay_sweep(
        specs, workers=1, engine="reference", **workload
    )
    assert reference_parallel == fast_parallel == reference_serial


def _sub_microsecond_trace() -> Trace:
    """Requests whose timestamps differ below 1 us (lost by %.3f ms)."""
    trace = Trace()
    for i in range(1500):
        name = Name.parse(f"/site{i % 7}/obj{(i * 7919) % 311}")
        time = i * 1e-4 + 1e-7 * (i % 3)
        trace.append(Request(time=time, user=i % 13, name=name))
    return trace


def test_worker_count_independent_at_full_time_precision(fresh_cache):
    trace = _sub_microsecond_trace()
    specs = _mixed_specs()
    for engine in ("fast", "reference"):
        serial = run_replay_sweep(specs, trace=trace, workers=1, engine=engine)
        parallel = run_replay_sweep(specs, trace=trace, workers=2, engine=engine)
        assert serial == parallel
    # What the workers replay is the parent's trace, to the last bit.
    rebuilt = ShardedCompiledTrace.open(_cache_trace_object(trace)).to_trace()
    assert [(r.time, r.user, r.name) for r in rebuilt] == [
        (r.time, r.user, r.name) for r in trace
    ]


def test_adhoc_trace_key_stable_and_content_sensitive():
    trace = _sub_microsecond_trace()
    key = _trace_key(trace)
    assert key == _trace_key(_sub_microsecond_trace())
    # Stable across interpreter runs (no dependence on hash seeding).
    package_root = Path(parallel_module.__file__).resolve().parents[2]
    repo_root = Path(__file__).resolve().parents[2]
    script = (
        "from tests.perf.test_parallel import _sub_microsecond_trace\n"
        "from repro.perf.parallel import _trace_key\n"
        "print(_trace_key(_sub_microsecond_trace()))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    env["PYTHONPATH"] = os.pathsep.join([str(package_root), str(repo_root)])
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.strip() == key

    def variant(index: int, **change) -> Trace:
        requests = list(trace)
        old = requests[index]
        fields = {"time": old.time, "user": old.user, "name": old.name, **change}
        requests[index] = Request(**fields)
        return Trace(requests)

    last = len(trace) - 1
    assert _trace_key(variant(last, time=trace[last].time + 1e-9)) != key
    assert _trace_key(variant(3, user=trace[3].user + 1)) != key
    assert _trace_key(variant(5, name=Name.parse("/elsewhere/obj"))) != key
