"""Record the reference output digests the benchmark checks against.

Usage, from the root of a checkout::

    python3 perfbench/record_reference.py

Runs one full-scale batch of each workload per seed, hermetically (no
``REPRO_*`` variable but a scratch trace cache under ``.perfbench_tmp/``),
and writes the per-operation digests to ``reference.json``.  Record
again only when a change is meant to alter the outputs, or when the
benchmark's full scale changes; seed 0 is the default seed and seeds
1–15 are held out.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import workloads  # noqa: E402


#: Seed 0 is the default seed; the others are held out.
SEEDS = range(16)


def main() -> int:
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(Path.cwd() / "src"))
    recorded = {"workloads": {name: {} for name in sorted(workloads.WORKLOADS)}}
    scratch = Path.cwd() / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch, prefix="record-"))
    try:
        for name in sorted(workloads.WORKLOADS):
            workload = workloads.make(name, "full")
            for seed in SEEDS:
                inputs = workload.setup(seed)
                batch = child.run_batch(workload, inputs, seed, tmp / f"{name}-{seed}")
                if batch.error is not None:
                    print(batch.error, file=sys.stderr)
                    return 1
                if sorted(batch.digests) != sorted(workload.op_names()):
                    print(f"{name}: operations differ from op_names()", file=sys.stderr)
                    return 1
                recorded["workloads"][name][str(seed)] = batch.digests
                print(f"{name} seed {seed}: {batch.wall_s:.2f} s", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # a benchmark run is using it
    child.REFERENCE.write_text(
        json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
