"""The per-trace content-marking memo of the fast replay.

A :class:`ContentMarking` coin is a per-name constant, so fast replay
computes its per-name bitmap once per (trace, rule) and reuses it across
sweep points.  These tests pin the contract on both shard sources (the
one in-RAM shard of ``compile_trace`` and on-disk shards):

* a fig5b-style grid mixing fractions and salts gives the same flags and
  stats from fresh per-point evaluation, from the memo, and from the
  oracle ``replay()``,
* the memo key separates rule types (a subclass overriding the coin gets
  its own bitmap) and every piece of rule state,
* a subclass overriding :meth:`ContentMarking.is_private` is asked per
  name on every path, sweeps on any worker count included,
* :class:`RequestMarking` is never memoized: its flags follow the RNG in
  request order exactly as before.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.schemes.exponential import ExponentialRandomCache
from repro.perf.parallel import ReplaySpec, build_scheme, run_replay_sweep
from repro.workload.compiled import CompiledTrace, compile_trace
from repro.workload.fast_replay import _spans, fast_replay
from repro.workload.ircache import IrcacheConfig, IrcacheGenerator
from repro.workload.marking import ContentMarking, RequestMarking
from repro.workload.replay import replay
from repro.workload.sharded import ShardedCompiledTrace, compile_stream
from repro.workload.streaming import TraceWorkload
from repro.workload.trace import Trace

#: fig5b-style grid: fractions x salts, with repeats, interleaved.
GRID = [
    (0.05, 0), (0.10, 0), (0.20, 0), (0.40, 0),
    (0.20, 7), (0.05, 0), (0.40, 7), (0.20, 0),
]


@pytest.fixture(scope="module")
def trace() -> Trace:
    return IrcacheGenerator(
        IrcacheConfig(requests=3000, objects=1500, sites=12, seed=31)
    ).generate()


@pytest.fixture()
def compiled(trace) -> CompiledTrace:
    # A fresh compilation per test, so memo state never leaks between tests.
    return compile_trace(trace)


@pytest.fixture()
def sharded(trace, tmp_path) -> ShardedCompiledTrace:
    return compile_stream(TraceWorkload(trace), tmp_path, shard_size=700)


def _fresh_flags(rule, trace: Trace):
    """Per-request flags straight from the rule, no memo involved."""
    return [rule.is_private(request.name, 0) for request in trace]


def _flags(rule, target: CompiledTrace):
    """Per-request flags as fast replay computes them, shard by shard."""
    return [bit for _, span in _spans(rule, target) for bit in span]


def _scheme():
    return ExponentialRandomCache.for_privacy_target(
        5, 0.005, 0.01, rng=np.random.default_rng(3)
    )


@pytest.mark.parametrize("path", ["in-ram", "sharded"])
def test_grid_memo_equals_fresh_and_oracle(trace, compiled, sharded, path):
    target = compiled if path == "in-ram" else sharded
    for fraction, salt in GRID:
        rule = ContentMarking(fraction, salt=salt)
        fresh = _fresh_flags(rule, trace)
        assert _flags(ContentMarking(fraction, salt), target) == fresh
        fast = fast_replay(
            target, scheme=_scheme(), marking=ContentMarking(fraction, salt),
            cache_size=200, seed=5,
        )
        oracle = replay(
            trace, scheme=_scheme(), marking=ContentMarking(fraction, salt),
            cache_size=200, seed=5,
        )
        assert fast == oracle
    # One bitmap per distinct (fraction, salt), shared by the repeats.
    assert len(target.marking_bitmaps) == len(set(GRID))


@pytest.mark.parametrize("path", ["in-ram", "sharded"])
def test_memo_reused_across_equal_rules(compiled, sharded, path):
    target = compiled if path == "in-ram" else sharded
    _flags(ContentMarking(0.2, salt=1), target)
    (bitmap,) = target.marking_bitmaps.values()
    _flags(ContentMarking(0.2, salt=1), target)  # an equal rule, new object
    assert list(target.marking_bitmaps.values()) == [bitmap]
    _flags(ContentMarking(0.2, salt=2), target)
    assert len(target.marking_bitmaps) == 2


class InvertedMarking(ContentMarking):
    """Same fraction and salt as the base class, opposite coin (the base
    :meth:`is_private` delegates to :meth:`is_private_uri`)."""

    def is_private_uri(self, uri):
        return not super().is_private_uri(uri)


@pytest.mark.parametrize("path", ["in-ram", "sharded"])
def test_subclass_overriding_coin_gets_its_own_bitmap(trace, compiled, sharded, path):
    target = compiled if path == "in-ram" else sharded
    base = _flags(ContentMarking(0.3, salt=4), target)
    inverted = _flags(InvertedMarking(0.3, salt=4), target)
    assert inverted == [not bit for bit in base]
    assert inverted == _fresh_flags(InvertedMarking(0.3, salt=4), trace)
    assert len(target.marking_bitmaps) == 2


class NameLengthMarking(ContentMarking):
    """Overrides :meth:`is_private` itself, so the URI coin the base class
    delegates to no longer decides: even-length URIs are private."""

    def is_private(self, name, request_index):
        return len(str(name)) % 2 == 0


def test_subclass_overriding_is_private_agrees_on_every_path(
    trace, compiled, sharded, tmp_path, monkeypatch
):
    """The oracle, both shard sources and a sweep on 1 or 2 workers all
    ask the override, not :meth:`ContentMarking.is_private_uri`."""
    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(cache))
    rule = NameLengthMarking(0.2, salt=1)
    specs = [
        ReplaySpec(scheme="uniform", cache_size=size, marking=rule, seed=5)
        for size in (64, 256)
    ]
    oracles = [
        replay(
            trace, scheme=build_scheme("uniform", seed=5), marking=rule,
            cache_size=spec.cache_size, seed=5,
        )
        for spec in specs
    ]
    assert oracles[0].private_requests == sum(_fresh_flags(rule, trace))
    for target in (compiled, sharded):
        assert [
            fast_replay(
                target, scheme=build_scheme("uniform", seed=5), marking=rule,
                cache_size=spec.cache_size, seed=5,
            )
            for spec in specs
        ] == oracles
    assert run_replay_sweep(specs, trace=trace, workers=1) == oracles
    assert not list(cache.glob("*"))  # the serial sweep replays in RAM
    assert run_replay_sweep(specs, trace=trace, workers=2) == oracles
    assert [path.name[:13] for path in cache.iterdir()] == ["trace-shards-"]


class ListSaltMarking(ContentMarking):
    """Unhashable state: never memoized, still evaluated correctly."""

    def __init__(self, fraction, salts):
        super().__init__(fraction, salt=salts[0])
        self.salts = list(salts)


@pytest.mark.parametrize("path", ["in-ram", "sharded"])
def test_unhashable_rule_state_is_not_memoized(trace, compiled, sharded, path):
    target = compiled if path == "in-ram" else sharded
    rule = ListSaltMarking(0.25, [9, 10])
    assert _flags(rule, target) == _fresh_flags(ContentMarking(0.25, salt=9), trace)
    assert target.marking_bitmaps == {}


@pytest.mark.parametrize("path", ["in-ram", "sharded"])
def test_request_marking_follows_call_order(trace, compiled, sharded, path):
    """RequestMarking's RNG draws once per request, in request order, and
    keeps advancing across calls — it is never served from the memo."""
    target = compiled if path == "in-ram" else sharded
    rule = RequestMarking(0.3, seed=8)
    first = _flags(rule, target)
    second = _flags(rule, target)

    twin = RequestMarking(0.3, seed=8)
    occurrence = [
        occ for shard in compiled.iter_shards() for occ in shard.occurrence.tolist()
    ]
    expected = [twin.is_private(None, occurrence[i]) for i in range(len(trace))]
    expected_next = [twin.is_private(None, occurrence[i]) for i in range(len(trace))]
    assert first == expected
    assert second == expected_next
    assert first != second
    assert target.marking_bitmaps == {}
