"""Benchmark of the repository's user-facing commands.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig5-replay --seed 0 --seconds 36 --trace 0

Workloads (see ``workloads.py`` for why each was chosen):

* ``fig5-replay``   — ``run_fig5a`` on a seeded 50k-request IRCache trace,
  two sweep workers;
* ``defend-loop``   — ``run_defense_sweep``, 4 presets × 3 attacks;
* ``probe-attacks`` — the four ``run_fig3`` panels plus ``run_placement_sweep``.

Every process runs hermetically: a fresh interpreter whose environment
has no ``REPRO_*`` variable except ``REPRO_TRACE_CACHE``, which points at
a fresh empty directory per batch; ``TMPDIR`` and every artifact go to a
scratch directory under ``.perfbench_tmp/`` that is deleted at the end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced:

* ``wall_s``       — median wall time of one batch (s);
* ``setup_s``      — median, over three fresh interpreters, of the time from
  interpreter start until the inputs are built: imports plus input
  generation (s);
* ``cpu_s``        — median user + system CPU of one batch, sweep workers
  included (s);
* ``peak_rss_mb``  — highest resident set of any process of the run (MB);
* ``ops_per_s``    — operations (sweep points, frontier cells, Fig. 3
  panels, placement points, rendered tables) per second of ``wall_s``.

With ``--trace 1`` half the time runs untraced and half with the layer
wrappers of ``tracer.py``; the metrics are the per-layer ones (medians
over the traced batches), including the tracing overhead.

Every batch's outputs are digested per operation and compared with
``reference.json`` (recorded for seeds 0–15 at this scale); for another
seed, every batch must repeat the run's first batch.  A traced batch is
held to the same digests, which shows the wrappers do not perturb the
results.  ``correct`` is false when any operation mismatched or raised,
or when the traced spans do not account for the traced wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters timed for ``setup_s``: the measuring process plus these.
EXTRA_SETUPS = 2
#: Hard limit for the whole run, below the 180 s a run may take.
RUN_DEADLINE_S = 170.0
#: Largest tolerated |traced wall − summed self times| per traced batch.
ACCOUNTING_TOLERANCE_S = 0.005

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to measuring a failure)."""


def hermetic_env(src: Path, tmp: Path) -> Dict[str, str]:
    """The environment of every benchmark process."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(src)
    env["TMPDIR"] = str(tmp)
    env["REPRO_TRACE_CACHE"] = str(tmp / "trace-cache")
    return env


def run_child(argv: List[str], env: Dict[str, str], deadline: float) -> dict:
    """Run ``child.py`` in its own session; returns its last JSON line.

    On timeout the whole session (sweep workers included) is killed, and
    the child reaped, before the error propagates.
    """
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")] + argv,
        env=env,
        stdout=subprocess.PIPE,
        start_new_session=True,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_session(proc.pid)
        proc.communicate()
        raise BenchError(f"child {argv[0]} exceeded the run deadline") from None
    finally:
        _kill_session(proc.pid)
    if proc.returncode != 0:
        raise BenchError(f"child {argv[0]} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"child {argv[0]} printed no result")
    result = json.loads(lines[-1])
    result["started"] = started
    return result


def _kill_session(pgid: int) -> None:
    """Stop anything the child left running in its session."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def bench(args, root: Path) -> dict:
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {src}")
    deadline = time.monotonic() + RUN_DEADLINE_S
    tmp = root / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        env = hermetic_env(src, tmp)
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--scale", args.scale]
        setups = []
        for _ in range(EXTRA_SETUPS):
            child = run_child(["setup", *common], env, deadline)
            setups.append(child["ready"] - child["started"])
        child = run_child(
            ["measure", *common, "--seconds", str(args.seconds), "--trace",
             str(args.trace), "--workdir", str(tmp / "measure")],
            env, deadline,
        )
        setups.append(child["ready"] - child["started"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run is using it, or it is not empty
    return summarize(args, child, setups)


def summarize(args, child: dict, setups: List[float]) -> dict:
    correct = child["failed"] == 0
    if args.trace:
        gaps = child["accounting_gaps_s"]
        if any(abs(g) > ACCOUNTING_TOLERANCE_S for g in gaps):
            print(f"span accounting gaps (s): {gaps}", file=sys.stderr)
            correct = False
        if child["missing_targets"]:
            print(f"trace targets not found: {child['missing_targets']}", file=sys.stderr)
        values = {
            name: statistics.median(layer[name] for layer in child["layers"])
            for name in tracer.PER_LAYER_UNITS
        }
        units = tracer.PER_LAYER_UNITS
    else:
        wall = statistics.median(b["wall_s"] for b in child["untraced"])
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(b["cpu_s"] for b in child["untraced"]),
            "peak_rss_mb": child["peak_rss_mb"],
            "ops_per_s": child["ops_per_batch"] / wall,
        }
        units = END_TO_END_UNITS
    print(
        f"{args.workload} seed={args.seed}: {len(child['untraced'])} untraced and "
        f"{len(child['layers'])} traced batches; untraced walls "
        f"{[round(b['wall_s'], 3) for b in child['untraced']]}",
        file=sys.stderr,
    )
    return {
        "correct": correct,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full", choices=sorted(workloads.SCALES),
                        help="input scale; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        result = bench(args, root)
    except BenchError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
