"""Chaos-testing the signal-plausibility monitors: seeded spoof storms.

:mod:`repro.validation.fdechaos` grades the residual gate against the
faults residuals *can* see; this module grades the monitor plane
(:mod:`repro.integrity.monitors`) against the attacks residuals
*cannot* — coherent spoofing and interference from
:class:`~repro.validation.faults.SpoofFault` profiles.  A run is a
pure function of its :class:`MonitorChaosConfig`:

* each seed draws one scenario (receiver, sky, clock bias) and expands
  it into a 1 Hz *stream* — same geometry every epoch, fresh seeded
  pseudorange noise, seeded C/N0 from
  :class:`~repro.signals.SignalFeatureModel`;
* seeds cycle through five arms — clean, meaconing, slow position
  drag, clock pull, jamming ramp — with per-seed attack parameters
  drawn from the seed's own stream and a fixed mid-stream onset (past
  the stationary monitors' learning window);
* every stream runs through a fresh monitor-armed
  :class:`~repro.service.executor.BatchExecutor` in serving-sized
  batches — the exact code path the service and shard workers run,
  confirmed-``spoofed`` blocking included.

The report grades three things (release gates of
``repro-gps fuzz --spoof``):

* **detection** — of the attacked streams, how many raised a verdict
  at or after onset *before the served position error crossed the
  profile's* ``tolerance_meters`` *harm budget* (attacks that never
  move the fix — meaconing, clock pull — just need detecting at all);
* **false alarms** — the fraction of clean-stream epochs carrying any
  verdict (per-stream counts are recorded too);
* **time to detect** — onset-to-first-verdict latency per family,
  recorded in ``BENCH_monitors.json`` for trend tracking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api import SolverConfig
from repro.errors import ConfigurationError
from repro.integrity.monitors import MonitorConfig
from repro.observations import ObservationEpoch, SatelliteObservation
from repro.signals import SignalFeatureConfig, SignalFeatureModel
from repro.timebase import GpsTime
from repro.validation.faults import (
    ClockPull,
    JammingRamp,
    Meaconing,
    SlowPositionDrag,
    SpoofFault,
)
from repro.validation.scenarios import ScenarioConfig, ScenarioGenerator

#: Campaign arm order: seed index modulo 5 picks one.  Arm 0 is the
#: clean (false-alarm) arm; the rest are the attack families.
ARM_CLEAN = "clean"
ATTACK_FAMILIES: Tuple[str, ...] = (
    "meaconing",
    "slow_drag",
    "clock_pull",
    "jamming_ramp",
)

#: Seed offsets for the independent per-scenario streams (disjoint
#: from the fuzzer's fault offsets by construction — these only seed
#: streams the fuzzer never draws).
_STREAM_NOISE_OFFSET = 7_000_003
_ATTACK_PARAM_OFFSET = 7_000_017


@dataclass(frozen=True)
class MonitorChaosConfig:
    """Everything one spoof chaos run depends on.

    Attributes
    ----------
    scenarios:
        Stream count; seeds advance consecutively from ``start_seed``
        and cycle clean/meaconing/slow-drag/clock-pull/jamming-ramp.
    epochs_per_stream:
        Stream length at 1 Hz.  Must leave room for the monitors'
        learning window *and* a post-onset observation span.
    onset_seconds:
        When attacks switch on (stream time starts at zero).  The
        default sits past the stationary monitors' 8-epoch learning
        window with margin.
    sigma_meters:
        Per-epoch pseudorange noise — what makes the solved-fix
        scatter (and thus the stationarity thresholds) realistic.
    min_satellites, max_satellites, max_flatness:
        The scenario geometry band (see
        :class:`~repro.validation.scenarios.ScenarioConfig`).
    monitors:
        The suite under test.  The default arms everything with
        default tuning — the campaign grades the shipped
        configuration, not a bespoke one.
    batch_size:
        Serving-batch granularity streams are chunked into (monitor
        verdicts are batch-boundary invariant; this just mirrors how
        the service would feed the suite).
    detection_floor:
        Minimum fraction of attacked streams detected in time.
    false_alarm_budget:
        Ceiling on the clean-epoch verdict rate.
    """

    scenarios: int = 400
    start_seed: int = 0
    epochs_per_stream: int = 40
    onset_seconds: float = 15.0
    sigma_meters: float = 3.0
    min_satellites: int = 6
    max_satellites: int = 10
    max_flatness: float = 0.5
    monitors: MonitorConfig = MonitorConfig()
    batch_size: int = 16
    detection_floor: float = 0.90
    false_alarm_budget: float = 0.02

    def __post_init__(self) -> None:
        if self.scenarios < len(ATTACK_FAMILIES) + 1:
            raise ConfigurationError(
                "need at least one scenario per campaign arm "
                f"({len(ATTACK_FAMILIES) + 1})"
            )
        if self.epochs_per_stream < 2:
            raise ConfigurationError("epochs_per_stream must be at least 2")
        if not 0.0 < self.onset_seconds < self.epochs_per_stream - 1:
            raise ConfigurationError(
                "onset_seconds must fall inside the stream"
            )
        if self.onset_seconds <= self.monitors.learn_epochs:
            raise ConfigurationError(
                "onset_seconds must clear the monitors' learning window "
                "(attacks during learning would poison the reference)"
            )
        if self.sigma_meters <= 0 or not np.isfinite(self.sigma_meters):
            raise ConfigurationError("sigma_meters must be positive and finite")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be at least 1")
        if not 0.0 < self.detection_floor <= 1.0:
            raise ConfigurationError("detection_floor must be in (0, 1]")
        if not 0.0 <= self.false_alarm_budget < 1.0:
            raise ConfigurationError("false_alarm_budget must be in [0, 1)")

    def to_dict(self) -> Dict:
        return {
            "scenarios": self.scenarios,
            "start_seed": self.start_seed,
            "epochs_per_stream": self.epochs_per_stream,
            "onset_seconds": self.onset_seconds,
            "sigma_meters": self.sigma_meters,
            "min_satellites": self.min_satellites,
            "max_satellites": self.max_satellites,
            "max_flatness": self.max_flatness,
            "monitors": self.monitors.to_dict(),
            "batch_size": self.batch_size,
            "detection_floor": self.detection_floor,
            "false_alarm_budget": self.false_alarm_budget,
        }


@dataclass(frozen=True)
class MonitorChaosCase:
    """One stream the suite got wrong (seed + what happened)."""

    seed: int
    family: str
    outcome: str  # "missed" | "late" | "false_alarm"
    detect_second: Optional[float]
    harm_second: Optional[float]

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "family": self.family,
            "outcome": self.outcome,
            "detect_second": self.detect_second,
            "harm_second": self.harm_second,
        }


@dataclass(frozen=True)
class FamilyStats:
    """Detection statistics for one attack family."""

    attacks: int
    detected: int
    detected_in_time: int
    time_to_detect: Tuple[float, ...]

    @property
    def detection_rate(self) -> float:
        return self.detected_in_time / self.attacks if self.attacks else 1.0

    def to_dict(self) -> Dict:
        times = np.asarray(self.time_to_detect, dtype=float)
        return {
            "attacks": self.attacks,
            "detected": self.detected,
            "detected_in_time": self.detected_in_time,
            "detection_rate": self.detection_rate,
            "time_to_detect_seconds": {
                "mean": float(times.mean()) if times.size else None,
                "p90": (
                    float(np.percentile(times, 90)) if times.size else None
                ),
                "max": float(times.max()) if times.size else None,
            },
        }


@dataclass(frozen=True)
class MonitorChaosReport:
    """Aggregate verdict of one spoof chaos run."""

    config: MonitorChaosConfig
    families: Dict[str, FamilyStats]
    clean_streams: int
    clean_epochs: int
    false_alarm_streams: int
    false_alarm_epochs: int
    blocked_attack_epochs: int
    mistakes: Tuple[MonitorChaosCase, ...]

    @property
    def attacks(self) -> int:
        return sum(stats.attacks for stats in self.families.values())

    @property
    def detected_in_time(self) -> int:
        return sum(s.detected_in_time for s in self.families.values())

    @property
    def detection_rate(self) -> float:
        """Attacked streams detected before their harm budget, overall."""
        return self.detected_in_time / self.attacks if self.attacks else 1.0

    @property
    def false_alarm_rate(self) -> float:
        """Clean epochs carrying any verdict."""
        return (
            self.false_alarm_epochs / self.clean_epochs
            if self.clean_epochs
            else 0.0
        )

    @property
    def detection_ok(self) -> bool:
        return self.detection_rate >= self.config.detection_floor

    @property
    def false_alarm_ok(self) -> bool:
        return self.false_alarm_rate <= self.config.false_alarm_budget

    @property
    def ok(self) -> bool:
        return self.detection_ok and self.false_alarm_ok

    def to_dict(self) -> Dict:
        return {
            "config": self.config.to_dict(),
            "families": {
                name: stats.to_dict() for name, stats in self.families.items()
            },
            "attacks": self.attacks,
            "detected_in_time": self.detected_in_time,
            "detection_rate": self.detection_rate,
            "clean_streams": self.clean_streams,
            "clean_epochs": self.clean_epochs,
            "false_alarm_streams": self.false_alarm_streams,
            "false_alarm_epochs": self.false_alarm_epochs,
            "false_alarm_rate": self.false_alarm_rate,
            "blocked_attack_epochs": self.blocked_attack_epochs,
            "gates": {
                "detection": {
                    "floor": self.config.detection_floor,
                    "rate": self.detection_rate,
                    "passed": self.detection_ok,
                },
                "false_alarm": {
                    "budget": self.config.false_alarm_budget,
                    "rate": self.false_alarm_rate,
                    "passed": self.false_alarm_ok,
                },
            },
            "ok": self.ok,
            "mistakes": [case.to_dict() for case in self.mistakes],
        }


def build_stream(
    scenario, config: MonitorChaosConfig, seed: int
) -> List[ObservationEpoch]:
    """One 1 Hz observation stream from a scenario, C/N0 attached.

    Same sky every epoch (the stationary-receiver regime the monitors
    are tuned for), fresh seeded pseudorange noise per epoch, times
    starting at zero so ``onset_seconds`` is stream-relative.
    """
    truth = scenario.epoch.truth
    receiver = np.asarray(truth.receiver_position, dtype=float)
    bias = scenario.clock_bias_meters
    noise_rng = np.random.default_rng(seed + _STREAM_NOISE_OFFSET)
    model = SignalFeatureModel(SignalFeatureConfig(), seed=seed)
    template = scenario.epoch.observations
    ranges = [
        float(np.linalg.norm(np.asarray(obs.position, dtype=float) - receiver))
        for obs in template
    ]
    epochs: List[ObservationEpoch] = []
    for t in range(config.epochs_per_stream):
        noise = noise_rng.normal(0.0, config.sigma_meters, size=len(template))
        observations = [
            SatelliteObservation(
                prn=obs.prn,
                position=obs.position,
                pseudorange=ranges[index] + bias + float(noise[index]),
                system=obs.system,
            )
            for index, obs in enumerate(template)
        ]
        epochs.append(
            model.attach(
                ObservationEpoch(
                    time=GpsTime(week=2200, seconds_of_week=float(t)),
                    observations=tuple(observations),
                    truth=truth,
                )
            )
        )
    return epochs


def _draw_attack(family: str, config: MonitorChaosConfig, seed: int) -> SpoofFault:
    """One attack instance with seed-drawn parameters."""
    rng = np.random.default_rng(seed + _ATTACK_PARAM_OFFSET)
    onset = config.onset_seconds
    if family == "meaconing":
        return Meaconing(
            delay_meters=float(rng.uniform(200.0, 800.0)),
            cn0_dbhz=float(rng.uniform(41.0, 47.0)),
            onset_seconds=onset,
        )
    if family == "slow_drag":
        direction = rng.normal(size=3)
        return SlowPositionDrag(
            rate_mps=float(rng.uniform(1.0, 4.0)),
            direction=tuple(direction / np.linalg.norm(direction)),
            onset_seconds=onset,
        )
    if family == "clock_pull":
        return ClockPull(
            rate_mps=float(rng.uniform(6.0, 20.0)), onset_seconds=onset
        )
    if family == "jamming_ramp":
        return JammingRamp(
            ramp_db_per_second=float(rng.uniform(0.5, 1.5)),
            floor_dbhz=20.0,
            onset_seconds=onset,
        )
    raise ConfigurationError(f"unknown attack family {family!r}")


def _arm_for(index: int) -> str:
    """Campaign arm for the ``index``-th seed (clean every fifth)."""
    slot = index % (len(ATTACK_FAMILIES) + 1)
    return ARM_CLEAN if slot == 0 else ATTACK_FAMILIES[slot - 1]


def run_monitor_chaos(
    config: Optional[MonitorChaosConfig] = None,
) -> MonitorChaosReport:
    """One spoof chaos run: generate streams, attack, serve, grade."""
    from repro.service.executor import BatchExecutor
    from repro.service.types import ServiceConfig

    config = config if config is not None else MonitorChaosConfig()
    generator = ScenarioGenerator(
        ScenarioConfig(
            min_satellites=config.min_satellites,
            max_satellites=config.max_satellites,
            max_flatness=config.max_flatness,
        )
    )
    service_config = ServiceConfig(
        solver=SolverConfig(algorithm="dlg"),
        max_batch_size=config.batch_size,
        monitors=config.monitors,
    )

    detected: Dict[str, List[bool]] = {f: [] for f in ATTACK_FAMILIES}
    in_time: Dict[str, List[bool]] = {f: [] for f in ATTACK_FAMILIES}
    latencies: Dict[str, List[float]] = {f: [] for f in ATTACK_FAMILIES}
    clean_streams = clean_epochs = 0
    false_alarm_streams = false_alarm_epochs = 0
    blocked_attack_epochs = 0
    mistakes: List[MonitorChaosCase] = []

    for index in range(config.scenarios):
        seed = config.start_seed + index
        family = _arm_for(index)
        scenario = generator.generate(seed)
        stream = build_stream(scenario, config, seed)
        tolerance = np.inf
        if family != ARM_CLEAN:
            attack = _draw_attack(family, config, seed)
            tolerance = attack.tolerance_meters
            rng = np.random.default_rng(seed + _ATTACK_PARAM_OFFSET + 1)
            stream = [attack.apply(epoch, rng) for epoch in stream]

        # A fresh executor per stream: monitor / health state must not
        # leak across scenarios.  Chunked at serving granularity.
        executor = BatchExecutor(service_config)
        biases = [scenario.clock_bias_meters] * len(stream)
        results = []
        for start in range(0, len(stream), config.batch_size):
            chunk = stream[start : start + config.batch_size]
            block, _meta = executor.execute(
                chunk, biases[start : start + config.batch_size]
            )
            results.extend(block.results(executor.algorithm, len(chunk)))

        truth_position = np.asarray(
            scenario.epoch.truth.receiver_position, dtype=float
        )
        detect_second: Optional[float] = None
        harm_second: Optional[float] = None
        flagged_epochs = 0
        for t, result in enumerate(results):
            status, position, monitor = result.status, result.position, result.monitor
            if monitor is not None:
                flagged_epochs += 1
                if detect_second is None and t >= config.onset_seconds:
                    detect_second = float(t)
                if status == "failed" and t >= config.onset_seconds:
                    blocked_attack_epochs += family != ARM_CLEAN
            if (
                harm_second is None
                and t >= config.onset_seconds
                and status == "ok"
                and position is not None
                and float(np.linalg.norm(position - truth_position))
                > tolerance
            ):
                harm_second = float(t)

        if family == ARM_CLEAN:
            clean_streams += 1
            clean_epochs += len(results)
            if flagged_epochs:
                false_alarm_streams += 1
                false_alarm_epochs += flagged_epochs
                mistakes.append(
                    MonitorChaosCase(
                        seed=seed,
                        family=family,
                        outcome="false_alarm",
                        detect_second=detect_second,
                        harm_second=None,
                    )
                )
            continue

        was_detected = detect_second is not None
        was_in_time = was_detected and (
            harm_second is None or detect_second <= harm_second
        )
        detected[family].append(was_detected)
        in_time[family].append(was_in_time)
        if was_detected:
            latencies[family].append(detect_second - config.onset_seconds)
        if not was_in_time:
            mistakes.append(
                MonitorChaosCase(
                    seed=seed,
                    family=family,
                    outcome="missed" if not was_detected else "late",
                    detect_second=detect_second,
                    harm_second=harm_second,
                )
            )

    families = {
        family: FamilyStats(
            attacks=len(detected[family]),
            detected=sum(detected[family]),
            detected_in_time=sum(in_time[family]),
            time_to_detect=tuple(latencies[family]),
        )
        for family in ATTACK_FAMILIES
    }
    return MonitorChaosReport(
        config=config,
        families=families,
        clean_streams=clean_streams,
        clean_epochs=clean_epochs,
        false_alarm_streams=false_alarm_streams,
        false_alarm_epochs=false_alarm_epochs,
        blocked_attack_epochs=blocked_attack_epochs,
        mistakes=tuple(mistakes),
    )
