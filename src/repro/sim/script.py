"""Declarative consumer workloads and the observables they produce.

A :class:`ConsumerScript` is a consumer's whole sequential workload;
:func:`run_scripts_reference` interprets a list of them on the engine and
reports :class:`TopologyObservables`, so "bit-identical" between two runs
is a checkable statement about concrete values rather than a claim about
internals.  The scripts are deliberately restricted to what
:meth:`Consumer.fetch` does on the seed path (one outstanding interest
per consumer, fixed timeout, no retries): that is exactly the workload
shape the sim-core benchmarks and the fig3 panels drive.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Sequence, Tuple, Union

from repro.ndn.network import Network
from repro.sim.process import Timeout


@dataclass(frozen=True)
class FetchStep:
    """One ``consumer.fetch`` call: name, wait budget, privacy marking."""

    name: str
    timeout: float = 4000.0
    lifetime: float = 4000.0
    private: bool = False


@dataclass(frozen=True)
class SleepStep:
    """Idle think time between fetches (``yield Timeout(delay)``)."""

    delay: float


Step = Union[FetchStep, SleepStep]


@dataclass(frozen=True)
class ConsumerScript:
    """A consumer's whole sequential workload, executed step by step."""

    consumer: str
    steps: Tuple[Step, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.steps, tuple):
            object.__setattr__(self, "steps", tuple(self.steps))


@dataclass
class TopologyObservables:
    """Everything a differential compares between two scripted runs."""

    #: Per-consumer completed fetches (fetch returned a result).
    delivered: Dict[str, int]
    #: Per-consumer RTT samples in completion order (bit-exact floats).
    rtts: Dict[str, List[float]]
    #: Per-link ``packets_sent`` (every transmit is one packet-hop).
    link_packets: Dict[str, int]
    #: Per-router non-zero monitor counters.
    router_counters: Dict[str, Dict[str, int]]
    #: Per-router :meth:`Forwarder.stats_summary` dicts.
    router_stats: Dict[str, Dict[str, float]]
    #: Engine events fired (cancelled events excluded), both lanes.
    events_processed: int
    #: Simulated time when the event queue drained.
    end_time: float

    @property
    def total_delivered(self) -> int:
        """Completed fetches across all consumers."""
        return sum(self.delivered.values())


def diff_observables(
    a: TopologyObservables,
    b: TopologyObservables,
    *,
    labels: Tuple[str, str],
) -> List[str]:
    """Field-by-field differences; empty when bit-identical.

    ``labels`` names the two legs in the messages, e.g.
    ``("materialized", "streamed")``.
    """
    mismatches: List[str] = []
    for f in fields(TopologyObservables):
        va = getattr(a, f.name)
        vb = getattr(b, f.name)
        if va != vb:
            mismatches.append(_describe_mismatch(f.name, va, vb, labels))
    return mismatches


def _describe_mismatch(field_name: str, a, b, labels: Tuple[str, str]) -> str:
    """A compact, debuggable description of one mismatching field."""
    la, lb = labels
    if isinstance(a, dict) and isinstance(b, dict):
        keys = sorted(set(a) | set(b), key=str)
        parts = []
        for key in keys:
            va, vb = a.get(key), b.get(key)
            if va != vb:
                parts.append(f"{key}: {la}={va!r} {lb}={vb!r}")
            if len(parts) >= 4:
                parts.append("...")
                break
        return f"{field_name}: " + "; ".join(parts)
    return f"{field_name}: {la}={a!r} {lb}={b!r}"


def _script_process(script: ConsumerScript, consumer, delivered: Dict[str, int]):
    """One script as an engine process; counts completed fetches."""
    for step in script.steps:
        if isinstance(step, SleepStep):
            yield Timeout(step.delay)
        else:
            result = yield from consumer.fetch(
                step.name,
                private=step.private,
                lifetime=step.lifetime,
                timeout=step.timeout,
            )
            if result is not None:
                delivered[script.consumer] += 1


def run_scripts_reference(
    net: Network, scripts: Sequence[ConsumerScript]
) -> TopologyObservables:
    """Run the scripts on the engine and collect their observables.

    Scripts spawn in list order; each spawn executes the script inline up
    to its first suspension, exactly like the hand-written fetch loops in
    :mod:`repro.perf.simcore`.
    """
    delivered = {s.consumer: 0 for s in scripts}
    for script in scripts:
        net.spawn(
            _script_process(script, net[script.consumer], delivered),
            label=f"script:{script.consumer}",
        )
    end = net.run()
    return TopologyObservables(
        delivered=delivered,
        rtts={s.consumer: list(net[s.consumer].rtts) for s in scripts},
        link_packets={
            name: link.packets_sent for name, link in net.links.items()
        },
        router_counters={
            name: {k: v for k, v in router.monitor.counters.items() if v}
            for name, router in net.routers.items()
        },
        router_stats=net.router_summaries(),
        events_processed=net.engine.events_processed,
        end_time=end,
    )
