"""One benchmark process: set a workload up from its seed, then measure it.

``run.py`` starts this file in a fresh interpreter with a scrubbed
environment.  In ``setup`` mode it only imports and builds the inputs,
then prints the monotonic clock, so the caller can time set-up from the
moment it started the interpreter.  In ``measure`` mode it does the same,
then runs batches of the workload for the given number of seconds and
prints one JSON line describing them.  With ``--trace 1`` the first half
of the time runs untraced (the overhead baseline) and the second half
runs with the layer wrappers of :mod:`tracer` installed.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import tracer as layer_tracer
import workloads

#: Output digests recorded at full scale, by workload and seed.
REFERENCE = Path(__file__).with_name("reference.json")

#: How long to wait for a finished sweep's pool workers to be reaped.
_REAP_TIMEOUT_S = 30.0


def _cpu_seconds() -> float:
    """User + system CPU of this process and every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _reap_children() -> None:
    """Wait for the sweep pool's workers so their CPU time is counted."""
    for child in multiprocessing.active_children():
        child.join(_REAP_TIMEOUT_S)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


@dataclass
class Batch:
    """One measured batch: timings plus the digest of each operation."""

    wall_s: float
    cpu_s: float
    digests: Dict[str, str]
    error: Optional[str]


def run_batch(workload, inputs, seed: int, workdir: Path,
              tracer: Optional[layer_tracer.Tracer] = None) -> Batch:
    """Run one batch in its own fresh directory (trace cache included)."""
    workdir.mkdir(parents=True)
    os.environ["REPRO_TRACE_CACHE"] = str(workdir / "traces")
    cpu0 = _cpu_seconds()
    error = None
    output = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            output = workload.run(inputs, seed, workdir)
        else:
            tracer.enter(layer_tracer.ROOT)
            try:
                output = workload.run(inputs, seed, workdir)
            finally:
                tracer.exit()
    except Exception:  # a failed batch is counted, not fatal
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    _reap_children()
    cpu = _cpu_seconds() - cpu0
    digests = workload.digests(output) if error is None else {}
    return Batch(wall, cpu, digests, error)


def _run_for(seconds: float, run_one) -> List[Batch]:
    """At least one batch, then more while the next is expected to end
    within ``seconds`` of the start."""
    batches: List[Batch] = []
    start = time.perf_counter()
    while True:
        batches.append(run_one(len(batches)))
        elapsed = time.perf_counter() - start
        typical = statistics.median(b.wall_s for b in batches)
        if elapsed + typical > seconds:
            return batches


def count_failures(op_names: List[str], batches: List[Batch],
                   reference: Optional[Dict[str, str]]) -> int:
    """Operations whose digest is missing or differs from the expected one.

    The expected digests are the recorded reference for this seed, or,
    for a seed with no recorded reference, the first complete batch of
    this run, so every later batch (traced ones included) must repeat it.
    """
    expected = reference
    if expected is None:
        expected = next((b.digests for b in batches if b.error is None), {})
    failed = 0
    for batch in batches:
        if batch.error is not None:
            print(batch.error, file=sys.stderr)
        for op in op_names:
            got = batch.digests.get(op)
            if got is None or got != expected.get(op):
                failed += 1
    return failed


def load_reference(workload: str, seed: int, scale: str) -> Optional[Dict[str, str]]:
    """The recorded digests for this workload and seed, if there are any."""
    if scale != "full":
        return None
    recorded = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return recorded["workloads"][workload].get(str(seed))


def measure(args, workload, inputs, reference, workdir: Path) -> dict:
    untraced_budget = args.seconds / 2 if args.trace else args.seconds
    untraced = _run_for(
        untraced_budget,
        lambda i: run_batch(workload, inputs, args.seed, workdir / f"plain{i}"),
    )
    traced: List[Batch] = []
    layers: List[Dict[str, float]] = []
    gaps: List[float] = []
    missing: List[str] = []
    if args.trace:
        untraced_wall = statistics.median(b.wall_s for b in untraced)
        tracer = layer_tracer.Tracer()
        installation = layer_tracer.install(tracer)
        missing = installation.missing
        # Input generation happens once, before the batches; trace it once
        # more here so the traced run sees the workload layer's set-up cost.
        workload.setup(args.seed)
        setup_snapshot = tracer.snapshot()

        def run_traced(i: int) -> Batch:
            tracer.reset()
            tracer.worker_dir = workdir / f"spans{i}"
            tracer.worker_dir.mkdir(parents=True)
            batch = run_batch(workload, inputs, args.seed, workdir / f"traced{i}", tracer)
            parent = tracer.snapshot()
            workers = layer_tracer.read_worker_snapshots(tracer.worker_dir)
            layers.append(
                layer_tracer.layer_metrics(
                    parent, workers, setup_snapshot, batch.wall_s, untraced_wall
                )
            )
            gaps.append(layer_tracer.accounting_gap_s(parent, batch.wall_s))
            return batch

        try:
            traced = _run_for(args.seconds / 2, run_traced)
        finally:
            installation.remove()
    batches = untraced + traced
    op_names = workload.op_names()
    return {
        "untraced": [{"wall_s": b.wall_s, "cpu_s": b.cpu_s} for b in untraced],
        "layers": layers,
        "accounting_gaps_s": gaps,
        "missing_targets": missing,
        "ops_per_batch": len(op_names),
        "attempted": len(op_names) * len(batches),
        "failed": count_failures(op_names, batches, reference),
        "peak_rss_mb": _peak_rss_mb(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full", choices=sorted(workloads.SCALES))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, help="scratch directory (measure mode)")
    args = parser.parse_args(argv)

    workload = workloads.make(args.workload, args.scale)
    inputs = workload.setup(args.seed)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0
    reference = load_reference(args.workload, args.seed, args.scale)
    result = measure(args, workload, inputs, reference, args.workdir)
    result["ready"] = ready
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
