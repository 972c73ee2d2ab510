"""The per-trace content-marking memo of the fast replay.

A :class:`ContentMarking` coin is a per-name constant, so fast replay
computes its per-name bitmap once per (trace, rule) and reuses it across
sweep points.  These tests pin the contract on both the in-RAM and the
sharded span paths:

* a fig5b-style grid mixing fractions and salts gives the same flags and
  stats from fresh per-point evaluation, from the memo, and from the
  oracle ``replay()``,
* the memo key separates rule types (a subclass overriding the coin gets
  its own bitmap) and every piece of rule state,
* :class:`RequestMarking` is never memoized: its flags follow the RNG in
  request order exactly as before.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.schemes.exponential import ExponentialRandomCache
from repro.workload.compiled import CompiledTrace, compile_trace
from repro.workload.fast_replay import (
    _sharded_spans,
    compile_private_flags,
    fast_replay,
)
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


def _span_flags(rule, sharded: ShardedCompiledTrace):
    flags = []
    for _, span in _sharded_spans(rule, sharded):
        flags.extend(span)
    return flags


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
        if path == "in-ram":
            memo = compile_private_flags(ContentMarking(fraction, salt), target)
        else:
            memo = _span_flags(ContentMarking(fraction, salt), target)
        assert memo == fresh
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
    flags = compile_private_flags if path == "in-ram" else _span_flags
    flags(ContentMarking(0.2, salt=1), target)
    (bitmap,) = target.marking_bitmaps.values()
    flags(ContentMarking(0.2, salt=1), target)  # an equal rule, new object
    assert list(target.marking_bitmaps.values()) == [bitmap]
    flags(ContentMarking(0.2, salt=2), target)
    assert len(target.marking_bitmaps) == 2


class InvertedMarking(ContentMarking):
    """Same fraction and salt as the base class, opposite coin (the base
    :meth:`is_private` delegates to :meth:`is_private_uri`)."""

    def is_private_uri(self, uri):
        return not super().is_private_uri(uri)


@pytest.mark.parametrize("path", ["in-ram", "sharded"])
def test_subclass_overriding_coin_gets_its_own_bitmap(trace, compiled, sharded, path):
    target = compiled if path == "in-ram" else sharded
    flags = compile_private_flags if path == "in-ram" else _span_flags
    base = flags(ContentMarking(0.3, salt=4), target)
    inverted = flags(InvertedMarking(0.3, salt=4), target)
    assert inverted == [not bit for bit in base]
    assert inverted == _fresh_flags(InvertedMarking(0.3, salt=4), trace)
    assert len(target.marking_bitmaps) == 2


class ListSaltMarking(ContentMarking):
    """Unhashable state: never memoized, still evaluated correctly."""

    def __init__(self, fraction, salts):
        super().__init__(fraction, salt=salts[0])
        self.salts = list(salts)


@pytest.mark.parametrize("path", ["in-ram", "sharded"])
def test_unhashable_rule_state_is_not_memoized(trace, compiled, sharded, path):
    target = compiled if path == "in-ram" else sharded
    flags = compile_private_flags if path == "in-ram" else _span_flags
    rule = ListSaltMarking(0.25, [9, 10])
    assert flags(rule, target) == _fresh_flags(ContentMarking(0.25, salt=9), trace)
    assert target.marking_bitmaps == {}


@pytest.mark.parametrize("path", ["in-ram", "sharded"])
def test_request_marking_follows_call_order(trace, compiled, sharded, path):
    """RequestMarking's RNG draws once per request, in request order, and
    keeps advancing across calls — it is never served from the memo."""
    target = compiled if path == "in-ram" else sharded
    flags = compile_private_flags if path == "in-ram" else _span_flags
    rule = RequestMarking(0.3, seed=8)
    first = flags(rule, target)
    second = flags(rule, target)

    twin = RequestMarking(0.3, seed=8)
    occurrence = compiled.occurrence_index.tolist()
    expected = [twin.is_private(None, occurrence[i]) for i in range(len(trace))]
    expected_next = [twin.is_private(None, occurrence[i]) for i in range(len(trace))]
    assert first == expected
    assert second == expected_next
    assert first != second
    assert target.marking_bitmaps == {}
