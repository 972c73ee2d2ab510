"""Layer spans for the benchmark's traced run, recorded from outside the program.

:func:`install` wraps the public entry point of each layer (the table
:data:`LAYERS`) so that every call opens a span.  Spans are folded into
per-name totals as they close: a hot entry point such as
``Link.transmit`` fires millions of times per run, far too many to keep
one record each.  Per name the tracer keeps the call count, the inclusive
time and the self time (inclusive time minus the time of child spans), so
the self times of all names in one process add up exactly to the time the
outermost spans cover.  Only the few coarse spans that later arithmetic
needs one by one (sweep intervals, sweep-worker tasks, defense runs) are
kept as records.

A function is patched wherever a caller looks it up: in the module that
defines it, in every ``repro`` module that imported it by name, and in
module-level dicts that hold it (such as the Fig. 3 collector table).  A
method is patched on its class and on every subclass that overrides it.
A caller that holds a reference the patch cannot reach shows up as
uncovered time in the root span, not as a silent loss.

Sweep workers are forked from the traced process, so they inherit the
wrappers.  A fork handler empties the child's tracer, and each worker
writes its totals to ``<worker_dir>/worker-<pid>.json`` after every task
it finishes, because the pool may terminate idle workers without warning.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from workloads import SWEEP_WORKERS

#: Span that the benchmark opens around one traced batch.  Its self
#: time is the part of the batch no layer span covers.
ROOT = "bench.batch"

#: Span names whose individual (start, end) intervals are kept.
INTERVAL_SPANS = ("perf.sweep", "perf.worker_task", "defense.run")

#: Defense presets whose detector cost is reported separately.
DETECT_PRESETS = ("off", "monitor", "adaptive")


class Tracer:
    """Span stack plus per-name totals for one process."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        #: Directory that sweep workers write their totals to.
        self.worker_dir: Optional[Path] = None
        #: Defense preset of the scenario currently running ("" outside).
        self.context = ""
        self.reset()

    def reset(self) -> None:
        """Forget every span and count (used in forked children too)."""
        self.pid = os.getpid()
        self.stack: List[list] = []
        #: name -> [calls, inclusive_ns, self_ns]
        self.totals: Dict[str, List[int]] = {}
        self.counts: Dict[str, int] = defaultdict(int)
        self.intervals: List[Tuple[str, int, int]] = []

    def enter(self, name: str) -> bool:
        """Open a span; True when it nests directly in a span of the same
        name (a subclass override calling ``super()``)."""
        stack = self.stack
        nested = bool(stack) and stack[-1][0] == name
        stack.append([name, self.clock(), 0])
        return nested

    def exit(self) -> Tuple[int, int]:
        """Close the innermost span; returns its (start, end) in ns."""
        name, start, child_ns = self.stack.pop()
        end = self.clock()
        span = end - start
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0, 0]
        total[0] += 1
        total[1] += span
        total[2] += span - child_ns
        if self.stack:
            self.stack[-1][2] += span
        if name in INTERVAL_SPANS:
            self.intervals.append((name, start, end))
        return start, end

    def snapshot(self) -> dict:
        """The process's totals as plain JSON-able data."""
        return {
            "pid": self.pid,
            "totals": {name: list(t) for name, t in self.totals.items()},
            "counts": dict(self.counts),
            "intervals": [list(i) for i in self.intervals],
        }

    def dump_worker(self) -> None:
        """Write this (worker) process's totals next to its siblings'."""
        if self.worker_dir is None:
            return
        path = self.worker_dir / f"worker-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()), encoding="utf-8")
        tmp.replace(path)


# ======================================================================
# Wrappers
# ======================================================================
Hook = Callable[..., object]


def _wrap(tracer: Tracer, span: Optional[str], fn, before: Optional[Hook],
          after: Optional[Hook]):
    """``fn`` inside a span (``span=None``: hooks only, no span).

    ``before(tracer, args)`` returns a token handed to
    ``after(tracer, args, result, start_ns, end_ns, token)``, which runs
    only for the outermost of directly nested same-name spans.
    """
    if span is None:
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(tracer, args, result, 0, 0, None)
            return result

        return functools.wraps(fn)(counted)

    def spanned(*args, **kwargs):
        token = before(tracer, args) if before is not None else None
        nested = tracer.enter(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            start, end = tracer.exit()
        if after is not None and not nested:
            after(tracer, args, result, start, end, token)
        return result

    return functools.wraps(fn)(spanned)


def _count(key: str, test: Optional[Callable[[object], bool]] = None) -> Hook:
    def after(tracer, args, result, start, end, token):
        if test is None or test(result):
            tracer.counts[key] += 1

    return after


def _count_ratio(key: str, test: Callable[[object], bool]) -> Hook:
    """Count calls as ``key.calls`` and those passing ``test`` as ``key.yes``."""
    def after(tracer, args, result, start, end, token):
        tracer.counts[key + ".calls"] += 1
        if test(result):
            tracer.counts[key + ".yes"] += 1

    return after


def _events_before(tracer, args):
    return args[0].events_processed


def _events_after(tracer, args, result, start, end, token):
    tracer.counts["sim.events"] += args[0].events_processed - token


def _replayed(tracer, args, result, start, end, token):
    tracer.counts["replay.requests"] += result.requests


def _preset_before(tracer, args):
    previous = tracer.context
    tracer.context = args[0].defense
    return previous


def _preset_after(tracer, args, result, start, end, token):
    tracer.context = token


def _observed(tracer, args, result, start, end, token):
    tracer.counts["defense.observe_ns." + tracer.context] += end - start
    tracer.counts["defense.observe_calls." + tracer.context] += 1


def _worker_done(tracer, args, result, start, end, token):
    tracer.dump_worker()


_IS_NOT_NONE = (lambda result: result is not None)
_COLLAPSED = (lambda result: result[0] is not None and not result[1])

#: (target, span, before, after).  A target is ``module:function`` or
#: ``module:Class.method``; ``span=None`` counts calls without timing them.
LAYERS = (
    ("repro.workload.ircache:IrcacheGenerator.generate", "workload.generate", None, None),
    ("repro.workload.trace:Trace.load", "workload.trace_io", None, _count("workload.trace_loads")),
    ("repro.workload.trace:Trace.save", "workload.trace_io", None, None),
    ("repro.perf.parallel:_cache_trace_object", "workload.trace_io", None, None),
    ("repro.workload.sharded:ShardedCompiledTrace.open", "workload.trace_io", None,
     _count("workload.trace_loads")),
    ("repro.workload.trace:Trace.compile", "workload.compile", None, None),
    ("repro.workload.compiled:compile_trace", "workload.compile", None, None),
    ("repro.workload.sharded:compile_stream", "workload.compile", None, None),
    ("repro.perf.parallel:run_replay_sweep", "perf.sweep", None, None),
    ("repro.perf.parallel:_worker_run", "perf.worker_task", None, _worker_done),
    ("repro.workload.fast_replay:fast_replay", "replay.fast", None, _replayed),
    ("repro.core.schemes.base:CacheScheme.make_kernel", "schemes.kernel_build", None, None),
    ("repro.core.schemes.base:CacheScheme.on_request", "schemes.decide", None,
     _count("schemes.decisions")),
    ("repro.sim.engine:Engine.run", "sim.run", _events_before, _events_after),
    ("repro.ndn.forwarder:Forwarder.receive_interest", "ndn.forwarder.interest", None, None),
    ("repro.ndn.forwarder:Forwarder.receive_data", "ndn.forwarder.data", None, None),
    ("repro.ndn.forwarder:Forwarder.receive_nack", "ndn.forwarder.nack", None, None),
    ("repro.ndn.cs:ContentStore.lookup", "ndn.cs.lookup", None,
     _count_ratio("ndn.cs.lookups", _IS_NOT_NONE)),
    ("repro.ndn.cs:ContentStore.insert", "ndn.cs.insert", None, None),
    ("repro.ndn.pit:Pit.insert_or_collapse", "ndn.pit.insert", None,
     _count_ratio("ndn.pit.inserts", _COLLAPSED)),
    ("repro.ndn.pit:Pit.expire", None, None, _count("ndn.pit.expired", _IS_NOT_NONE)),
    ("repro.ndn.link:Link.transmit", "ndn.link.transmit", None, _count("ndn.link.packets")),
    ("repro.ndn.wire:fast_wire_size", "ndn.wire.size", None, None),
    ("repro.ndn.apps.producer:Producer.receive_interest", "ndn.producer.serve", None, None),
    ("repro.ndn.fib:Fib.longest_prefix_match", "ndn.fib.lpm", None, None),
    ("repro.ndn.fib:Fib.add_route", None, None, _count("ndn.fib.routes_added")),
    ("repro.ndn.topology:local_lan", "ndn.topology.build", None, None),
    ("repro.ndn.topology:wan", "ndn.topology.build", None, None),
    ("repro.ndn.topology:wan_producer", "ndn.topology.build", None, None),
    ("repro.ndn.topology:local_host", "ndn.topology.build", None, None),
    ("repro.ndn.topology:fat_tree", "ndn.topology.build", None, None),
    ("repro.ndn.topology:rocketfuel_isp", "ndn.topology.build", None, None),
    ("repro.ndn.topology:geant_backbone", "ndn.topology.build", None, None),
    ("repro.defense.scenario:_build_tree", "ndn.topology.build", None, None),
    ("repro.ndn.strategy:CachingStrategy.admit", "ndn.strategy.admit", None,
     _count_ratio("ndn.strategy.admits", bool)),
    ("repro.defense.agent:DefenseAgent.observe_interest", "defense.observe", None, _observed),
    ("repro.defense.agent:DefenseAgent.observe_pit_expired", "defense.observe", None, _observed),
    ("repro.defense.agent:DefenseAgent.observe_pit_overflow", "defense.observe", None, _observed),
    ("repro.defense.controller:MitigationController.on_alarm", "defense.mitigate", None, None),
    ("repro.defense.controller:MitigationController.allow_interest", "defense.mitigate", None, None),
    ("repro.defense.controller:MitigationController.veto_cache", "defense.mitigate", None, None),
    ("repro.defense.controller:MitigationController.deescalate", "defense.mitigate", None, None),
    ("repro.defense.controller:MitigationController.reset", "defense.mitigate", None, None),
    ("repro.defense.scenario:run_defense_scenario", "defense.run", _preset_before, _preset_after),
    ("repro.attacks.timing:collect_rtt_distributions", "attacks.probe", None, None),
    ("repro.attacks.producer_probe:collect_producer_probe_distributions", "attacks.probe",
     None, None),
    ("repro.analysis.stats:pdf_pair", "analysis.stats", None, None),
    ("repro.analysis.stats:PdfPair.bayes_success", "analysis.stats", None, None),
    ("repro.attacks.classifier:bayes_success", "analysis.stats", None, None),
    ("repro.analysis.stats:separation_score", "analysis.stats", None, None),
    ("repro.analysis.placement:run_placement_point", "analysis.point", None, None),
    ("repro.analysis.experiments:Fig3Result.render", "analysis.render", None, None),
    ("repro.analysis.experiments:Fig5Result.render", "analysis.render", None, None),
    ("repro.analysis.placement:PlacementFrontier.render", "analysis.render", None, None),
    ("repro.analysis.placement:PlacementFrontier.to_dict", "analysis.render", None, None),
    ("repro.analysis.defense:DefenseFrontier.render", "analysis.render", None, None),
    ("repro.analysis.defense:DefenseFrontier.to_dict", "analysis.render", None, None),
)


# ======================================================================
# Installation
# ======================================================================
class Installation:
    """The patches one :func:`install` made; :meth:`remove` undoes them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.missing: List[str] = []
        self._undo: List[Tuple[object, object, object, bool]] = []

    def _set(self, container, key, value, is_dict: bool) -> None:
        old = container[key] if is_dict else container.__dict__[key]
        self._undo.append((container, key, old, is_dict))
        if is_dict:
            container[key] = value
        else:
            setattr(container, key, value)

    def remove(self) -> None:
        for container, key, old, is_dict in reversed(self._undo):
            if is_dict:
                container[key] = old
            else:
                setattr(container, key, old)
        self._undo.clear()

    def patch_function(self, module, attr: str, span, before, after) -> None:
        original = getattr(module, attr)
        wrapped = _wrap(self.tracer, span, original, before, after)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, key, wrapped, is_dict=False)
                elif isinstance(value, dict):
                    self._patch_table(value, original, wrapped)

    def _patch_table(self, table: dict, original, wrapped) -> None:
        for key, value in list(table.items()):
            if value is original:
                self._set(table, key, wrapped, is_dict=True)
            elif isinstance(value, tuple) and any(v is original for v in value):
                swapped = tuple(wrapped if v is original else v for v in value)
                self._set(table, key, swapped, is_dict=True)

    def patch_method(self, cls: type, attr: str, span, before, after) -> None:
        for klass in _with_subclasses(cls):
            raw = klass.__dict__.get(attr)
            if raw is None:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(_wrap(self.tracer, span, raw.__func__, before, after))
            else:
                wrapped = _wrap(self.tracer, span, raw, before, after)
            self._set(klass, attr, wrapped, is_dict=False)


def _with_subclasses(cls: type) -> List[type]:
    seen: List[type] = []
    pending = [cls]
    while pending:
        klass = pending.pop()
        if klass not in seen:
            seen.append(klass)
            pending.extend(klass.__subclasses__())
    return seen


def install(tracer: Tracer) -> Installation:
    """Wrap every target in :data:`LAYERS`; targets absent from the program
    are listed in ``Installation.missing`` rather than failing the run."""
    installation = Installation(tracer)
    for target, span, before, after in LAYERS:
        module_name, _, path = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            installation.missing.append(target)
            continue
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or not hasattr(owner, attr):
            installation.missing.append(target)
        elif owner_name:
            installation.patch_method(owner, attr, span, before, after)
        else:
            installation.patch_function(module, attr, span, before, after)
    os.register_at_fork(after_in_child=tracer.reset)
    return installation


def read_worker_snapshots(worker_dir: Path) -> List[dict]:
    """Every sweep worker's last dump in ``worker_dir``."""
    return [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(worker_dir.glob("worker-*.json"))
    ]


# ======================================================================
# Per-layer metrics
# ======================================================================
#: Per-layer metric name -> unit.  Times ending in ``_s`` are self times.
PER_LAYER_UNITS: Dict[str, str] = {
    "workload.generate_s": "s",
    "workload.trace_io_s": "s",
    "workload.compile_s": "s",
    "workload.trace_loads": "count",
    "perf.sweep_s": "s",
    "perf.dispatch_s": "s",
    "perf.worker_busy_frac": "fraction",
    "replay.busy_s": "s",
    "replay.ns_per_request": "ns",
    "schemes.kernel_build_s": "s",
    "schemes.decide_s": "s",
    "schemes.decisions": "count",
    "sim.events": "count",
    "sim.run_self_s": "s",
    "sim.ns_per_event": "ns",
    "ndn.forwarder.interest_s": "s",
    "ndn.forwarder.data_s": "s",
    "ndn.forwarder.nack_s": "s",
    "ndn.cs.lookup_s": "s",
    "ndn.cs.insert_s": "s",
    "ndn.cs.hit_ratio": "fraction",
    "ndn.pit.insert_s": "s",
    "ndn.pit.collapse_ratio": "fraction",
    "ndn.pit.expired": "count",
    "ndn.link.transmit_s": "s",
    "ndn.link.packets": "count",
    "ndn.wire.size_s": "s",
    "ndn.producer.serve_s": "s",
    "ndn.fib.lpm_s": "s",
    "ndn.fib.routes_added": "count",
    "ndn.topology.build_s": "s",
    "ndn.strategy.admit_s": "s",
    "ndn.strategy.admit_ratio": "fraction",
    "defense.detect_ns_per_packet.off": "ns",
    "defense.detect_ns_per_packet.monitor": "ns",
    "defense.detect_ns_per_packet.adaptive": "ns",
    "defense.mitigate_s": "s",
    "defense.run_median_s": "s",
    "defense.run_max_s": "s",
    "attacks.probe_s": "s",
    "analysis.stats_s": "s",
    "analysis.point_s": "s",
    "analysis.render_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}

#: Per-layer self-time metric -> span name.
_SELF_TIMES = {
    "workload.trace_io_s": "workload.trace_io",
    "workload.compile_s": "workload.compile",
    "perf.sweep_s": "perf.sweep",
    "replay.busy_s": "replay.fast",
    "schemes.kernel_build_s": "schemes.kernel_build",
    "schemes.decide_s": "schemes.decide",
    "sim.run_self_s": "sim.run",
    "ndn.forwarder.interest_s": "ndn.forwarder.interest",
    "ndn.forwarder.data_s": "ndn.forwarder.data",
    "ndn.forwarder.nack_s": "ndn.forwarder.nack",
    "ndn.cs.lookup_s": "ndn.cs.lookup",
    "ndn.cs.insert_s": "ndn.cs.insert",
    "ndn.pit.insert_s": "ndn.pit.insert",
    "ndn.link.transmit_s": "ndn.link.transmit",
    "ndn.wire.size_s": "ndn.wire.size",
    "ndn.producer.serve_s": "ndn.producer.serve",
    "ndn.fib.lpm_s": "ndn.fib.lpm",
    "ndn.topology.build_s": "ndn.topology.build",
    "ndn.strategy.admit_s": "ndn.strategy.admit",
    "defense.mitigate_s": "defense.mitigate",
    "attacks.probe_s": "attacks.probe",
    "analysis.stats_s": "analysis.stats",
    "analysis.point_s": "analysis.point",
    "analysis.render_s": "analysis.render",
    "trace.uncovered_s": ROOT,
}

_COUNTS = {
    "workload.trace_loads": "workload.trace_loads",
    "schemes.decisions": "schemes.decisions",
    "sim.events": "sim.events",
    "ndn.pit.expired": "ndn.pit.expired",
    "ndn.link.packets": "ndn.link.packets",
    "ndn.fib.routes_added": "ndn.fib.routes_added",
}

_RATIOS = {
    "ndn.cs.hit_ratio": "ndn.cs.lookups",
    "ndn.pit.collapse_ratio": "ndn.pit.inserts",
    "ndn.strategy.admit_ratio": "ndn.strategy.admits",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def self_seconds(snapshots: List[dict], span: str) -> float:
    """Summed self time of ``span`` over every process's snapshot."""
    return sum(s["totals"].get(span, (0, 0, 0))[2] for s in snapshots) / 1e9


def _inclusive_ns(snapshots: List[dict], span: str) -> int:
    return sum(s["totals"].get(span, (0, 0, 0))[1] for s in snapshots)


def _sweep_split(parent: dict, workers: List[dict]) -> Tuple[float, float]:
    """(dispatch seconds, worker busy fraction) over every sweep.

    Dispatch is the sweep time the busiest worker's task spans do not
    cover; busy fraction is all worker task time over workers × sweep time.
    """
    sweeps = [(s, e) for name, s, e in parent["intervals"] if name == "perf.sweep"]
    tasks = [
        (w["pid"], s, e)
        for w in workers
        for name, s, e in w["intervals"]
        if name == "perf.worker_task"
    ]
    dispatch_ns = busy_ns = sweep_ns = 0
    for start, end in sweeps:
        per_pid: Dict[int, int] = defaultdict(int)
        for pid, s, e in tasks:
            if start <= s and e <= end:
                per_pid[pid] += e - s
        sweep_ns += end - start
        busy_ns += sum(per_pid.values())
        dispatch_ns += (end - start) - max(per_pid.values(), default=0)
    return dispatch_ns / 1e9, _ratio(busy_ns, SWEEP_WORKERS * sweep_ns)


def layer_metrics(parent: dict, workers: List[dict], setup: dict,
                  traced_wall_s: float, untraced_wall_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced batch.

    ``parent`` is the traced process's snapshot of the batch, ``workers``
    those of the sweep workers it started and ``setup`` that of one traced
    input generation; ``untraced_wall_s`` is the same run's untraced wall
    time, for the tracing overhead.
    """
    every = [parent] + workers
    counts: Dict[str, int] = defaultdict(int)
    for snapshot in every:
        for key, value in snapshot["counts"].items():
            counts[key] += value
    metrics = {name: self_seconds(every, span) for name, span in _SELF_TIMES.items()}
    metrics["workload.generate_s"] = self_seconds([setup], "workload.generate")
    metrics.update({name: float(counts[key]) for name, key in _COUNTS.items()})
    metrics.update({
        name: _ratio(counts[key + ".yes"], counts[key + ".calls"])
        for name, key in _RATIOS.items()
    })
    metrics["perf.dispatch_s"], metrics["perf.worker_busy_frac"] = (
        _sweep_split(parent, workers)
    )
    metrics["replay.ns_per_request"] = _ratio(
        _inclusive_ns(every, "replay.fast"), counts["replay.requests"]
    )
    metrics["sim.ns_per_event"] = _ratio(
        _inclusive_ns(every, "sim.run"), counts["sim.events"]
    )
    for preset in DETECT_PRESETS:
        metrics["defense.detect_ns_per_packet." + preset] = _ratio(
            counts["defense.observe_ns." + preset],
            counts["defense.observe_calls." + preset],
        )
    runs = [(e - s) / 1e9 for name, s, e in parent["intervals"] if name == "defense.run"]
    metrics["defense.run_median_s"] = statistics.median(runs) if runs else 0.0
    metrics["defense.run_max_s"] = max(runs, default=0.0)
    metrics["trace.wall_s"] = traced_wall_s
    metrics["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    return metrics


def accounting_gap_s(parent: dict, traced_wall_s: float) -> float:
    """Traced wall time minus the summed self time of every span in the
    traced process (the root's self time being the uncovered part).

    Near zero when the spans nest properly; a span left open or closed
    twice moves it by the span's length.
    """
    covered_ns = sum(total[2] for total in parent["totals"].values())
    return traced_wall_s - covered_ns / 1e9
