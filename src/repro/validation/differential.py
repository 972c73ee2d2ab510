"""Differential validation: oracle replay vs the interned fast kernel.

:func:`repro.workload.fast_replay.fast_replay` exists purely for speed;
its contract is *bit-identical* :class:`~repro.workload.replay.ReplayStats`
to the reference implementation :func:`repro.workload.replay.replay` for
any (trace, scheme, marking, cache-size) configuration.  This module
turns that contract into a checkable artifact: run both engines over a
grid of configurations and diff the stats field by field.

Scheme and marking objects are stateful (they own RNG streams), so each
engine gets a **freshly built** pair from the same seed — sharing one
object would advance its RNG in the first run and desynchronize the
second, reporting a false mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional, Sequence

from repro.ndn.link import FixedDelay
from repro.ndn.network import Network
from repro.perf.parallel import build_scheme
from repro.sim.rng import RngRegistry
from repro.workload.fast_replay import fast_replay
from repro.workload.ircache import IrcacheConfig, IrcacheGenerator
from repro.workload.marking import RequestMarking
from repro.workload.replay import ReplayStats, replay
from repro.workload.trace import Trace


def diff_replay_stats(oracle: ReplayStats, fast: ReplayStats) -> List[str]:
    """Field-by-field differences, empty when bit-identical."""
    mismatches: List[str] = []
    for f in fields(ReplayStats):
        a = getattr(oracle, f.name)
        b = getattr(fast, f.name)
        if a != b:
            mismatches.append(f"{f.name}: oracle={a!r} fast={b!r}")
    return mismatches


@dataclass(frozen=True)
class DifferentialCase:
    """One (scheme, cache size, marking) configuration to cross-check."""

    scheme: str
    cache_size: Optional[int] = None
    mark_fraction: float = 0.3
    seed: int = 0

    @property
    def label(self) -> str:
        """Human-readable configuration tag."""
        cap = self.cache_size if self.cache_size is not None else "inf"
        return f"{self.scheme}/cap={cap}/mark={self.mark_fraction}/seed={self.seed}"


def default_differential_cases(seed: int = 0) -> List[DifferentialCase]:
    """The fig5-style grid: every registered scheme family at a bounded
    and an unbounded cache size."""
    cases = []
    for scheme in ("no-privacy", "always-delay", "uniform", "exponential"):
        for cache_size in (64, None):
            cases.append(
                DifferentialCase(scheme=scheme, cache_size=cache_size, seed=seed)
            )
    return cases


@dataclass
class CaseResult:
    """Outcome of one cross-checked configuration."""

    case: DifferentialCase
    oracle: ReplayStats
    fast: ReplayStats
    mismatches: List[str]

    @property
    def ok(self) -> bool:
        """True when the two engines agreed bit-for-bit."""
        return not self.mismatches


@dataclass
class DifferentialReport:
    """All case results of one differential validation run."""

    results: List[CaseResult]
    trace_requests: int

    @property
    def ok(self) -> bool:
        """True when every configuration agreed."""
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> List[CaseResult]:
        """The disagreeing configurations."""
        return [r for r in self.results if not r.ok]

    def summary(self) -> str:
        """One line per case, pass/fail."""
        lines = []
        for r in self.results:
            status = "ok" if r.ok else "MISMATCH " + "; ".join(r.mismatches)
            lines.append(f"{r.case.label}: {status}")
        return "\n".join(lines)


def small_validation_trace(
    requests: int = 2000, seed: int = 0
) -> Trace:
    """A small, seed-reproducible trace for CI-speed validation runs."""
    return IrcacheGenerator(
        IrcacheConfig(
            requests=requests,
            users=20,
            objects=400,
            sites=40,
            duration_hours=1.0,
            seed=seed,
        )
    ).generate()


def _run_case(trace: Trace, case: DifferentialCase, engine) -> ReplayStats:
    # Fresh scheme AND fresh marking per engine: both are RNG-stateful.
    scheme = build_scheme(case.scheme, seed=case.seed)
    marking = (
        RequestMarking(case.mark_fraction, seed=case.seed)
        if case.mark_fraction > 0
        else None
    )
    return engine(
        trace,
        scheme=scheme,
        marking=marking,
        cache_size=case.cache_size,
        seed=case.seed,
    )


def validate_differential(
    trace: Optional[Trace] = None,
    cases: Optional[Sequence[DifferentialCase]] = None,
    seed: int = 0,
) -> DifferentialReport:
    """Cross-check oracle vs fast replay over ``cases``.

    Defaults: a small synthetic trace and the full
    :func:`default_differential_cases` grid.  The report's :attr:`~DifferentialReport.ok`
    is the ship/no-ship bit; per-field mismatches are in the results.
    """
    if trace is None:
        trace = small_validation_trace(seed=seed)
    if cases is None:
        cases = default_differential_cases(seed=seed)
    results: List[CaseResult] = []
    for case in cases:
        oracle_stats = _run_case(trace, case, replay)
        fast_stats = _run_case(trace, case, fast_replay)
        results.append(
            CaseResult(
                case=case,
                oracle=oracle_stats,
                fast=fast_stats,
                mismatches=diff_replay_stats(oracle_stats, fast_stats),
            )
        )
    return DifferentialReport(results=results, trace_requests=len(trace))


# ======================================================================
# Streaming differential: stream→shards→replay vs generate→compile→replay
# ======================================================================
@dataclass(frozen=True)
class StreamingCase:
    """One replay configuration cross-checked between the sharded and
    the in-RAM fast path."""

    scheme: str
    policy: str = "lru"
    cache_size: Optional[int] = 64
    marking: str = "request"  # "none" | "content" | "request"
    seed: int = 0

    @property
    def label(self) -> str:
        cap = self.cache_size if self.cache_size is not None else "inf"
        return (
            f"{self.scheme}/{self.policy}/cap={cap}/"
            f"mark={self.marking}/seed={self.seed}"
        )


def default_streaming_cases(seed: int = 0) -> List[StreamingCase]:
    """Scheme × policy × marking corners of the streaming-replay grid."""
    return [
        StreamingCase("no-privacy", "lru", 64, "none", seed),
        StreamingCase("uniform", "fifo", 48, "content", seed),
        StreamingCase("exponential", "lfu", 96, "request", seed),
        StreamingCase("always-delay", "random", None, "request", seed),
    ]


@dataclass
class StreamingCaseResult:
    """Outcome of one streaming-vs-materialized comparison."""

    label: str
    mismatches: List[str]

    @property
    def ok(self) -> bool:
        return not self.mismatches


@dataclass
class StreamingDifferentialReport:
    """All comparisons of one streaming-differential run."""

    results: List[StreamingCaseResult]
    trace_requests: int

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> List[StreamingCaseResult]:
        return [r for r in self.results if not r.ok]

    def summary(self) -> str:
        lines = []
        for r in self.results:
            status = "ok" if r.ok else "MISMATCH " + "; ".join(r.mismatches)
            lines.append(f"{r.label}: {status}")
        return "\n".join(lines)


def _streaming_marking(kind: str, fraction: float, seed: int):
    """Fresh marking instance per replay leg (RequestMarking is RNG-
    stateful: sharing one across legs would continue its stream)."""
    from repro.workload.marking import ContentMarking

    if kind == "none":
        return None
    if kind == "content":
        return ContentMarking(fraction, salt=seed)
    if kind == "request":
        return RequestMarking(fraction, seed=seed)
    raise ValueError(f"unknown marking kind {kind!r}")


def _star_edge_network(seed: int, consumers: Sequence[str]) -> Network:
    """A fresh deterministic star edge (same shape as the defense
    suites): consumers → one caching router → one root producer."""
    net = Network(rng=RngRegistry(seed))
    net.add_router("E", capacity=64, scheme=build_scheme("uniform", seed=seed))
    net.add_producer("P", "/")
    for name in consumers:
        net.add_consumer(name)
        net.connect(name, "E", FixedDelay(0.5))
    net.connect("E", "P", FixedDelay(2.0))
    net.add_route("E", "/", "P")
    return net


def validate_streaming_differential(
    cases: Optional[Sequence[StreamingCase]] = None,
    seed: int = 0,
    requests: int = 2500,
    sim_requests: int = 500,
) -> StreamingDifferentialReport:
    """Cross-check the streaming pipeline against the materialized one.

    Three layers, all bit-identity:

    * **replay grid** — ``stream → compile_stream → fast_replay`` (shard
      by shard, mmap'd) vs ``generate → compile → fast_replay`` over the
      scheme/policy/marking grid: identical :class:`ReplayStats`,
    * **oracle anchor** — one cell also compared against the reference
      event-driven :func:`~repro.workload.replay.replay`, pinning the
      sharded path to the original semantics rather than just to the
      fast kernel,
    * **simulator observables** — the packet simulator driven from the
      streaming workload vs from its materialized twin through the same
      :func:`~repro.sim.workload_driver.scripts_from_workload` driver:
      identical scripts and identical
      :class:`~repro.sim.script.TopologyObservables`.

    Every leg gets freshly built scheme/marking instances (both are
    RNG-stateful).
    """
    import tempfile

    from repro.sim.script import diff_observables, run_scripts_reference
    from repro.sim.workload_driver import scripts_from_workload
    from repro.workload.sharded import compile_stream
    from repro.workload.streaming import TraceWorkload

    if cases is None:
        cases = default_streaming_cases(seed=seed)
    config = IrcacheConfig(
        requests=requests,
        users=24,
        objects=400,
        sites=30,
        session_locality=0.3,
        duration_hours=1.0,
        seed=seed,
    )
    trace = IrcacheGenerator(config).generate()
    results: List[StreamingCaseResult] = []
    with tempfile.TemporaryDirectory(prefix="repro-streamdiff-") as tmp:
        sharded = compile_stream(
            IrcacheGenerator(config).stream(),
            tmp,
            shard_size=max(1, requests // 7),
        )
        sharded.verify()

        def run(workload, case: StreamingCase, engine) -> ReplayStats:
            return engine(
                workload,
                scheme=build_scheme(case.scheme, seed=case.seed),
                marking=_streaming_marking(case.marking, 0.25, case.seed),
                cache_size=case.cache_size,
                policy=case.policy,
                seed=case.seed,
            )

        for case in cases:
            in_ram = run(trace, case, fast_replay)
            streamed = run(sharded, case, fast_replay)
            results.append(
                StreamingCaseResult(
                    label=f"replay:{case.label}",
                    mismatches=diff_replay_stats(in_ram, streamed),
                )
            )

        # Oracle anchor: the sharded path against the reference replay.
        anchor = cases[0]
        oracle = run(trace, anchor, replay)
        streamed = run(sharded, anchor, fast_replay)
        results.append(
            StreamingCaseResult(
                label=f"oracle-anchor:{anchor.label}",
                mismatches=diff_replay_stats(oracle, streamed),
            )
        )

    # Simulator observables: streaming vs materialized through the same
    # driver (reference engine both legs; the legs differ only in the
    # workload's representation).
    sim_config = IrcacheConfig(
        requests=sim_requests,
        users=12,
        objects=120,
        sites=16,
        session_locality=0.3,
        duration_hours=0.25,
        seed=seed + 1,
    )
    consumers = [f"F{i}" for i in range(4)]
    driver_kwargs = dict(time_scale=1e-3, timeout=5000.0, private_period=7)
    sim_trace = IrcacheGenerator(sim_config).generate()
    scripts_mat = scripts_from_workload(
        TraceWorkload(sim_trace), consumers, **driver_kwargs
    )
    scripts_stream = scripts_from_workload(
        IrcacheGenerator(sim_config).stream(), consumers, **driver_kwargs
    )
    mismatches: List[str] = []
    if scripts_mat != scripts_stream:
        mismatches.append("driver scripts differ between representations")
    obs_mat = run_scripts_reference(
        _star_edge_network(seed, consumers), scripts_mat
    )
    obs_stream = run_scripts_reference(
        _star_edge_network(seed, consumers), scripts_stream
    )
    mismatches.extend(
        diff_observables(
            obs_mat, obs_stream, labels=("materialized", "streamed")
        )
    )
    if obs_stream.total_delivered == 0:
        mismatches.append("streaming simulator leg delivered nothing")
    results.append(
        StreamingCaseResult(label="simulator:star-edge", mismatches=mismatches)
    )
    return StreamingDifferentialReport(
        results=results, trace_requests=requests
    )
