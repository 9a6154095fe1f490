"""Differential validation, fault injection, and seeded fuzzing.

The subsystem that tests the rest of the library *against itself*:

* :mod:`repro.validation.scenarios` — randomized-but-reproducible
  observation epochs from a seed, spanning well-conditioned to
  near-coplanar geometry, with clock-bias sweeps;
* :mod:`repro.validation.faults` — composable, serializable epoch
  corruptions (spikes, dropouts, NaN/Inf, clock jumps, duplicates);
* :mod:`repro.validation.oracles` — every solver path on the same
  epoch, pairwise agreement under geometry-scaled tolerances, plus the
  bulk engine/parallel stream check;
* :mod:`repro.validation.metamorphic` — permutation invariance,
  translation equivariance, and clock-shift linearity per path;
* :mod:`repro.validation.fuzzer` — the seeded budget-driven harness
  behind ``repro-gps fuzz``, persisting failures as replayable JSON
  artifacts;
* :mod:`repro.validation.chaos` — the two seeded chaos campaigns
  behind ``repro-gps fuzz --fde`` (pseudorange spikes against the
  batch FDE gate, graded on injected-PRN identification and realized
  false-alarm rate) and ``repro-gps fuzz --spoof`` (spoofing and
  interference streams against the signal-plausibility monitors,
  graded on in-time detection and clean-stream false-alarm rate).
"""

from repro.validation.chaos import (
    ATTACK_FAMILIES,
    ChaosGate,
    FamilyStats,
    FdeChaosCase,
    FdeChaosConfig,
    FdeChaosReport,
    MonitorChaosCase,
    MonitorChaosConfig,
    MonitorChaosReport,
    run_fde_chaos,
    run_monitor_chaos,
)

from repro.validation.faults import (
    EXPECT_ANSWERED,
    EXPECT_REJECTED,
    FAULT_REGISTRY,
    SPOOF_FAULTS,
    ClockJump,
    ClockPull,
    CompositeFault,
    DuplicateSatellite,
    FaultProfile,
    JammingRamp,
    Meaconing,
    NonFiniteMeasurement,
    PseudorangeSpike,
    SatelliteDropout,
    SlowPositionDrag,
    SpoofFault,
    fault_from_spec,
)
from repro.validation.fuzzer import (
    FUZZ_FAILURE_KINDS,
    FuzzCaseResult,
    FuzzConfig,
    FuzzHarness,
    FuzzReport,
    replay_artifact,
)
from repro.validation.metamorphic import (
    METAMORPHIC_INVARIANTS,
    MetamorphicDeviation,
    MetamorphicReport,
    relabeled_epoch,
    run_metamorphic,
    run_relabeling,
)
from repro.validation.oracles import (
    MULTI_ORACLE_PATHS,
    ORACLE_PATHS,
    TOLERANCE_CONDITION_RATE,
    TOLERANCE_FLOOR_METERS,
    TOLERANCE_NOISE_RATE,
    DifferentialReport,
    Disagreement,
    SolverOutcome,
    StreamCheckReport,
    agreement_tolerance,
    run_differential,
    run_multi_differential,
    run_stream_differential,
)
from repro.validation.scenarios import (
    Scenario,
    ScenarioConfig,
    ScenarioGenerator,
    scenario_with_noise,
)

__all__ = [
    "EXPECT_ANSWERED",
    "EXPECT_REJECTED",
    "FAULT_REGISTRY",
    "SPOOF_FAULTS",
    "ClockJump",
    "ClockPull",
    "CompositeFault",
    "DuplicateSatellite",
    "FaultProfile",
    "JammingRamp",
    "Meaconing",
    "NonFiniteMeasurement",
    "PseudorangeSpike",
    "SatelliteDropout",
    "SlowPositionDrag",
    "SpoofFault",
    "fault_from_spec",
    "ChaosGate",
    "FdeChaosCase",
    "FdeChaosConfig",
    "FdeChaosReport",
    "run_fde_chaos",
    "ATTACK_FAMILIES",
    "FamilyStats",
    "MonitorChaosCase",
    "MonitorChaosConfig",
    "MonitorChaosReport",
    "run_monitor_chaos",
    "FUZZ_FAILURE_KINDS",
    "FuzzCaseResult",
    "FuzzConfig",
    "FuzzHarness",
    "FuzzReport",
    "replay_artifact",
    "METAMORPHIC_INVARIANTS",
    "MetamorphicDeviation",
    "MetamorphicReport",
    "relabeled_epoch",
    "run_metamorphic",
    "run_relabeling",
    "MULTI_ORACLE_PATHS",
    "ORACLE_PATHS",
    "TOLERANCE_CONDITION_RATE",
    "TOLERANCE_FLOOR_METERS",
    "TOLERANCE_NOISE_RATE",
    "DifferentialReport",
    "Disagreement",
    "SolverOutcome",
    "StreamCheckReport",
    "agreement_tolerance",
    "run_differential",
    "run_multi_differential",
    "run_stream_differential",
    "Scenario",
    "ScenarioConfig",
    "ScenarioGenerator",
    "scenario_with_noise",
]
