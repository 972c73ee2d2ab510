"""Performance infrastructure: parallel sweep running and timing.

* :mod:`repro.perf.parallel` — a process-pool sweep runner for Figure-5
  style (scheme × cache-size × trial) grids, with deterministic per-task
  seeding and a checksummed, memory-mapped shard cache shared between
  workers,
* :mod:`repro.perf.timing` — a small wall-clock harness plus the
  ``BENCH_*.json`` record writer the benchmarks emit for the perf
  trajectory.
"""

from repro.perf.parallel import (
    ReplaySpec,
    build_scheme,
    derive_seeds,
    ensure_sharded_trace_cached,
    resolve_workers,
    run_replay_sweep,
    trace_cache_dir,
)
from repro.perf.timing import BenchReporter, StopWatch, TimingRecord, time_call

__all__ = [
    "ReplaySpec",
    "build_scheme",
    "derive_seeds",
    "ensure_sharded_trace_cached",
    "resolve_workers",
    "run_replay_sweep",
    "trace_cache_dir",
    "BenchReporter",
    "StopWatch",
    "TimingRecord",
    "time_call",
]
