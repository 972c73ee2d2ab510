"""The benchmark's three workloads, each driving one user-facing command
through its public Python entry point.

Each workload is a closed loop: one process runs one batch at a time, and
the sweep pool (``fig5-replay`` only) is pinned to two workers.  A
workload has three steps:

* ``setup(seed)`` builds the inputs from the seed; the benchmark times
  it, together with the imports, as ``setup_s``;
* ``run(inputs, seed, outdir)`` is one measured batch.  Like the CLI
  command it mirrors, it renders its result and writes the artifact, here
  into ``outdir``;
* ``digests(output)`` maps every operation of the batch (a sweep point,
  a frontier cell, a Fig. 3 panel or a placement point, plus the rendered
  table or frontier header) to a SHA-256 of its exact output, which the
  benchmark compares against ``reference.json``.

Why these three: ``fig5-replay`` runs the trace-replay stack (replay
core, scheme kernels, trace transport, sweep dispatch) and no packet
simulation; ``defend-loop`` runs one long-lived network through the
engine, forwarder, CS/PIT, links, producer and detectors, with no replay;
``probe-attacks`` runs the same simulator layers over many short-lived
topologies with jittered delays, plus a scheme decision and an admission
decision on every cached hit, and the attack and analysis layers.

The ``repro`` imports sit inside the functions so that the orchestrator
can list workloads without loading the program.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import astuple
from pathlib import Path
from typing import Dict, List

#: Scales: ``full`` is what the benchmark measures; ``tiny`` is for the
#: smoke test.  Changing a ``full`` value changes every output, so the
#: reference digests must be recorded again (``record_reference.py``).
SCALES = {
    "full": {
        "fig5_requests": 50_000,
        "defend_horizon": 2500.0,
        "fig3_trials": 6,
        "fig3_objects": 60,
        "placement_trials": 3,
        "placement_targets": 20,
    },
    "tiny": {
        "fig5_requests": 3_000,
        "defend_horizon": 600.0,
        "fig3_trials": 1,
        "fig3_objects": 6,
        "placement_trials": 1,
        "placement_targets": 4,
    },
}

#: Sweep workers of the ``fig5-replay`` pool.
SWEEP_WORKERS = 2

FIG5_SCHEMES = ("no-privacy", "exponential", "uniform", "always-delay")
FIG5_SIZES = (2000, 4000, 8000, 16000, 32000, None)
DEFEND_PRESETS = ("off", "static", "monitor", "adaptive")
DEFEND_ATTACKS = ("pollution", "flood", "adaptive")
FIG3_PANELS = ("fig3a_lan", "fig3b_wan", "fig3c_wan_producer", "fig3d_local_host")
PLACEMENT_TOPOLOGIES = ("fig3a_lan", "fat_tree")
PLACEMENT_SCHEMES = ("no-privacy", "uniform", "exponential")
PLACEMENT_STRATEGIES = ("lce", "lcd", "probcache", "edge", "cl4m", "bernoulli")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


class Fig5Replay:
    """``repro-experiments fig5a``: the Fig. 5(a) grid on a seeded
    IRCache trace — 4 schemes × 6 cache sizes, 20% private marking."""

    name = "fig5-replay"

    def __init__(self, scale: dict) -> None:
        self.requests = scale["fig5_requests"]

    def op_names(self) -> List[str]:
        return [f"point:{s}:{c}" for s in FIG5_SCHEMES for c in FIG5_SIZES] + ["table"]

    def setup(self, seed: int):
        from repro.analysis import experiments  # noqa: F401  (import cost is set-up)
        from repro.workload.ircache import IrcacheConfig, IrcacheGenerator

        return IrcacheGenerator(IrcacheConfig(requests=self.requests, seed=seed)).generate()

    def run(self, trace, seed: int, outdir: Path):
        from repro.analysis.experiments import run_fig5a

        result = run_fig5a(trace, cache_sizes=FIG5_SIZES, seed=seed, workers=SWEEP_WORKERS)
        table = result.render()
        (outdir / "fig5a.txt").write_text(table + "\n", encoding="utf-8")
        return result, table

    def digests(self, output) -> Dict[str, str]:
        result, table = output
        found = {
            f"point:{label}:{size}": _sha(repr(astuple(stats)))
            for (label, size), stats in result.stats.items()
        }
        found["table"] = _sha(table)
        return found


class DefendLoop:
    """``repro-experiments defend``: 4 presets × 3 attacks, each cell a
    baseline plus an attacked closed-loop run on the 6-node tree.  The
    horizon is an eighth of the CLI default, with the attack window kept
    at the same share of it (20%–70%)."""

    name = "defend-loop"

    def __init__(self, scale: dict) -> None:
        horizon = scale["defend_horizon"]
        self.spec = dict(
            horizon=horizon, attack_start=0.2 * horizon, attack_end=0.7 * horizon
        )

    def op_names(self) -> List[str]:
        return [f"cell:{d}/{a}" for a in DEFEND_ATTACKS for d in DEFEND_PRESETS] + ["frontier"]

    def setup(self, seed: int):
        from repro.analysis import defense  # noqa: F401  (import cost is set-up)

        return None

    def run(self, inputs, seed: int, outdir: Path):
        from repro.analysis.defense import run_defense_sweep

        frontier = run_defense_sweep(
            defenses=DEFEND_PRESETS, attacks=DEFEND_ATTACKS, seed=seed, **self.spec
        )
        payload = frontier.to_dict()
        _write_json(outdir / "defense_frontier.json", payload)
        return payload

    def digests(self, payload) -> Dict[str, str]:
        found = {
            f"cell:{p['defense']}/{p['attack']}": _sha(json.dumps(p, sort_keys=True))
            for p in payload["points"]
        }
        header = {k: v for k, v in payload.items() if k != "points"}
        found["frontier"] = _sha(json.dumps(header, sort_keys=True))
        return found


class ProbeAttacks:
    """``repro-experiments fig3 --all`` plus ``strategy``: the four
    Fig. 3 timing-attack panels, then 3 schemes × 6 admission strategies
    on ``fig3a_lan`` and ``fat_tree``."""

    name = "probe-attacks"

    def __init__(self, scale: dict) -> None:
        self.fig3 = dict(trials=scale["fig3_trials"], objects_per_trial=scale["fig3_objects"])
        self.placement = dict(
            trials=scale["placement_trials"], targets_per_trial=scale["placement_targets"]
        )

    def op_names(self) -> List[str]:
        points = [
            f"point:{t}/{s}/{st}"
            for t in PLACEMENT_TOPOLOGIES
            for s in PLACEMENT_SCHEMES
            for st in PLACEMENT_STRATEGIES
        ]
        return [f"panel:{p}" for p in FIG3_PANELS] + points + ["frontier"]

    def setup(self, seed: int):
        from repro.analysis import experiments, placement  # noqa: F401  (set-up)

        return None

    def run(self, inputs, seed: int, outdir: Path):
        from repro.analysis.experiments import run_fig3
        from repro.analysis.placement import run_placement_sweep

        panels = {p: run_fig3(p, seed=seed, **self.fig3).render() for p in FIG3_PANELS}
        (outdir / "fig3.txt").write_text("\n\n".join(panels.values()) + "\n", encoding="utf-8")
        frontier = run_placement_sweep(
            topologies=PLACEMENT_TOPOLOGIES,
            schemes=PLACEMENT_SCHEMES,
            strategies=PLACEMENT_STRATEGIES,
            seed=seed,
            **self.placement,
        )
        payload = frontier.to_dict()
        _write_json(outdir / "strategy_frontier.json", payload)
        return panels, payload

    def digests(self, output) -> Dict[str, str]:
        panels, payload = output
        found = {f"panel:{p}": _sha(text) for p, text in panels.items()}
        for point in payload["points"]:
            key = f"point:{point['topology']}/{point['scheme']}/{point['strategy']}"
            found[key] = _sha(json.dumps(point, sort_keys=True))
        header = {k: v for k, v in payload.items() if k != "points"}
        found["frontier"] = _sha(json.dumps(header, sort_keys=True))
        return found


WORKLOADS = {w.name: w for w in (Fig5Replay, DefendLoop, ProbeAttacks)}


def make(name: str, scale: str):
    """The workload called ``name`` at scale ``scale``."""
    return WORKLOADS[name](SCALES[scale])

