"""Smoke test of the benchmark itself, at tiny scale.

Usage, from the root of a checkout::

    python3 perfbench/smoke.py

Checks the self-time arithmetic on a synthetic span tree, that every
layer entry point named in ``tracer.LAYERS`` exists in the program and is
patched where its callers look it up, that one tiny run of each workload
prints every metric of ``BENCHMARK.json`` by name with its unit, and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()


class FakeClock:
    """A clock the test advances by hand (ns)."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_span_tree(self):
        # root [0, 100] > a [10, 40] > b [20, 30];  root > c [50, 90]
        clock = FakeClock()
        t = tracer.Tracer(clock=clock)
        for now, action in [(0, "root"), (10, "a"), (20, "b"), (30, None), (40, None),
                            (50, "c"), (90, None), (100, None)]:
            clock.now = now
            if action is None:
                t.exit()
            else:
                t.enter(action)
        snap = t.snapshot()
        selfs = {name: total[2] for name, total in snap["totals"].items()}
        self.assertEqual(selfs, {"root": 30, "a": 20, "b": 10, "c": 40})
        self.assertEqual(snap["totals"]["a"][1], 30)
        self.assertEqual(tracer.accounting_gap_s(snap, 100 / 1e9), 0.0)

    def test_same_name_nesting_counts_once(self):
        clock = FakeClock()
        t = tracer.Tracer(clock=clock)
        self.assertFalse(t.enter("x"))
        clock.now = 5
        self.assertTrue(t.enter("x"))
        clock.now = 7
        t.exit()
        clock.now = 10
        t.exit()
        self.assertEqual(t.snapshot()["totals"]["x"], [2, 12, 10])

    def test_sweep_split(self):
        parent = {"pid": 1, "totals": {}, "counts": {},
                  "intervals": [["perf.sweep", 0, 1000]]}
        workers = [
            {"pid": 2, "totals": {}, "counts": {},
             "intervals": [["perf.worker_task", 100, 500], ["perf.worker_task", 500, 900]]},
            {"pid": 3, "totals": {}, "counts": {},
             "intervals": [["perf.worker_task", 100, 700]]},
        ]
        metrics = tracer.layer_metrics(parent, workers, parent, 2e-6, 1e-6)
        self.assertAlmostEqual(metrics["perf.dispatch_s"], 200 / 1e9)
        self.assertAlmostEqual(metrics["perf.worker_busy_frac"], 1400 / 2000)
        self.assertAlmostEqual(metrics["trace.overhead_s"], 1e-6)
        self.assertEqual(set(metrics), set(tracer.PER_LAYER_UNITS))


class InstallTest(unittest.TestCase):
    def test_every_target_found_and_patched_at_call_sites(self):
        sys.path.insert(0, str(ROOT / "src"))
        for name in workloads.WORKLOADS:
            workloads.make(name, "tiny").setup(0)
        import repro.analysis.experiments as experiments
        import repro.ndn.link as link
        import repro.perf.parallel as parallel

        t = tracer.Tracer()
        installation = tracer.install(t)
        try:
            self.assertEqual(installation.missing, [])
            self.assertTrue(hasattr(parallel.fast_replay, "__wrapped__"))
            self.assertTrue(hasattr(link.fast_wire_size, "__wrapped__"))
            collector = experiments._FIG3_COLLECTORS["fig3a_lan"][1]
            self.assertTrue(hasattr(collector, "__wrapped__"))
        finally:
            installation.remove()
        self.assertFalse(hasattr(parallel.fast_replay, "__wrapped__"))
        self.assertFalse(hasattr(experiments._FIG3_COLLECTORS["fig3a_lan"][0], "__wrapped__"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


class EndToEndTest(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for entry in spec["workloads"]:
            for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=entry["name"], trace=trace):
                    proc = _run(ROOT, "--workload", entry["name"], "--seed", "1",
                                "--seconds", "1", "--trace", trace, "--scale", "tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    wanted = {m["name"]: m["unit"] for m in spec[group]}
                    self.assertEqual(printed, wanted)

    def test_refuses_to_run_without_sources(self):
        scratch = ROOT / ".perfbench_tmp"
        scratch.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(dir=scratch))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = _run(bare, "--workload", "defend-loop", "--seed", "0",
                        "--seconds", "1", "--trace", "0")
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare)
            try:
                scratch.rmdir()
            except OSError:
                pass  # a benchmark run is using it


if __name__ == "__main__":
    unittest.main()
