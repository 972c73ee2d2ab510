"""Online attack detection and adaptive mitigation for the NDN core.

The closed defense loop of ROADMAP item 5: streaming detectors
(:mod:`~repro.defense.detectors`) observe the forwarding pipeline
through the hooks on :class:`~repro.ndn.forwarder.Forwarder`, raise
typed :class:`~repro.defense.alarms.Alarm` records, and the
:class:`~repro.defense.controller.MitigationController` answers with
reversible per-face countermeasures (throttle / quarantine / shed) that
de-escalate on a hysteresis timer.  :mod:`~repro.defense.scenario`
closes the loop against the seeded adversarial windows of
:mod:`repro.faults.adversarial`.

Everything here rides the simulation engine and the real-time daemon,
and with no agent installed the forwarder hot path is bit-identical to
the seed.
"""

from repro.defense.agent import (
    DEFENSE_PRESETS,
    DefenseAgent,
    DefenseConfig,
    install_defense,
    install_network_defense,
    uninstall_defense,
)
from repro.defense.alarms import ALARM_KINDS, Alarm, AlarmLog
from repro.defense.controller import (
    Mitigation,
    MitigationController,
    MitigationPolicy,
)
from repro.defense.detectors import (
    Detector,
    FloodDetector,
    PollutionDetector,
    ProbeDetector,
)
from repro.defense.scenario import (
    ClosedLoopReport,
    DefenseRunResult,
    DefenseScenarioSpec,
    SCENARIO_ATTACKS,
    defense_transparency_mismatches,
    run_closed_loop,
    run_defense_scenario,
)

__all__ = [
    "ALARM_KINDS",
    "Alarm",
    "AlarmLog",
    "ClosedLoopReport",
    "DEFENSE_PRESETS",
    "DefenseAgent",
    "DefenseConfig",
    "DefenseRunResult",
    "DefenseScenarioSpec",
    "Detector",
    "FloodDetector",
    "Mitigation",
    "MitigationController",
    "MitigationPolicy",
    "PollutionDetector",
    "ProbeDetector",
    "SCENARIO_ATTACKS",
    "defense_transparency_mismatches",
    "install_defense",
    "install_network_defense",
    "run_closed_loop",
    "run_defense_scenario",
    "uninstall_defense",
]
