"""Seeded chaos campaigns: the two integrity release gates.

The fault injectors prove that corrupted epochs *reach* the solvers;
a chaos campaign measures whether the integrity layer *catches* them.
Each run is a pure function of its config: scenarios are drawn from
:class:`~repro.validation.scenarios.ScenarioGenerator` at consecutive
seeds from ``start_seed``, every gate is a rate held to a floor or a
budget (:class:`ChaosGate`), and the verdict document lists the seeds
the integrity layer got wrong.

* **FDE spikes** (``repro-gps fuzz --fde``, :func:`run_fde_chaos`) — a
  seed-derived coin puts a
  :class:`~repro.validation.faults.PseudorangeSpike` on some epochs,
  and the whole population goes through one FDE-armed
  :meth:`~repro.engine.PositioningEngine.solve_stream` call, the code
  path the service's integrity rung runs.  Gates: *identification*
  (faulted epochs repaired with the injected satellite excluded; a
  wrong exclusion still serves the fault, so it counts against the
  gate) and *false alarm* (clean epochs flagged at all, within a slack
  factor of ``p_false_alarm``: the noise is drawn at exactly
  ``sigma_meters``, so the test statistic is genuinely chi-square).
  The injected satellite is recovered by diffing the clean and faulted
  pseudoranges, so the fault profile stays a black box.
* **Spoofing and interference** (``repro-gps fuzz --spoof``,
  :func:`run_monitor_chaos`) — each seed expands one scenario into a
  1 Hz stationary stream with C/N0 attached, seeds cycle through a
  clean arm and four attack families (meaconing, slow position drag,
  clock pull, jamming ramp) switched on mid-stream, past the monitors'
  learning window, and every stream runs through a fresh monitor-armed
  :class:`~repro.service.executor.BatchExecutor` in serving-sized
  batches, the code path the service runs (confirmed-``spoofed``
  blocking included).  Gates: *detection* (attacked streams flagged at
  or after onset before the served fix left the attack's
  ``tolerance_meters``; attacks that never move the fix just need
  detecting) and *false alarm* (clean-stream epochs carrying any
  verdict).  Time to detect is recorded per family.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, is_dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.api import SolverConfig
from repro.engine import PositioningEngine
from repro.errors import ConfigurationError
from repro.integrity import FdeConfig
from repro.integrity.monitors import MonitorConfig
from repro.observations import ObservationEpoch, SatelliteObservation
from repro.signals import SignalFeatureConfig, SignalFeatureModel
from repro.timebase import GpsTime
from repro.validation.faults import (
    ClockPull,
    JammingRamp,
    Meaconing,
    PseudorangeSpike,
    SlowPositionDrag,
    SpoofFault,
)
from repro.validation.fuzzer import _FAULT_SEED_OFFSET
from repro.validation.scenarios import Scenario, ScenarioConfig, ScenarioGenerator

#: Spoof campaign arm order: seed index modulo 5 picks one.  Arm 0 is
#: the clean (false-alarm) arm; the rest are the attack families.
ARM_CLEAN = "clean"
ATTACK_FAMILIES: Tuple[str, ...] = (
    "meaconing",
    "slow_drag",
    "clock_pull",
    "jamming_ramp",
)

#: Seed offsets for the spoof campaign's per-scenario streams (disjoint
#: from the fuzzer's fault offsets: these seed streams it never draws).
_STREAM_NOISE_OFFSET = 7_000_003
_ATTACK_PARAM_OFFSET = 7_000_017


def _plain(value):
    """JSON-ready form of a config or report field."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if is_dataclass(value):
        return asdict(value)
    return value


@dataclass(frozen=True)
class _Campaign:
    """What every campaign is drawn from.

    Attributes
    ----------
    scenarios:
        Population size; seeds advance consecutively from
        ``start_seed``, so a run is described by the pair.
    sigma_meters:
        Pseudorange noise of the drawn epochs.
    min_satellites, max_satellites, max_flatness:
        The scenario geometry band (see
        :class:`~repro.validation.scenarios.ScenarioConfig`).  The
        flatness ceiling stays moderate: near-coplanar skies blunt any
        residual or stationarity test, a property of the geometry, not
        a bug in the gate.
    """

    scenarios: int = 400
    start_seed: int = 0
    sigma_meters: float = 3.0
    min_satellites: int = 6
    max_satellites: int = 12
    max_flatness: float = 0.5

    def __post_init__(self) -> None:
        if self.scenarios < 1:
            raise ConfigurationError("scenarios must be at least 1")
        if self.start_seed < 0:
            raise ConfigurationError("start_seed must be >= 0")
        if not np.isfinite(self.sigma_meters) or self.sigma_meters <= 0:
            raise ConfigurationError("sigma_meters must be positive and finite")
        self.draw()  # builds the ScenarioConfig, which checks the band

    def draw(self, noise_sigma: float = 0.0) -> Iterator[Tuple[int, Scenario]]:
        """``(seed, scenario)`` for every seed of the run, drawn lazily
        with ``noise_sigma`` meters of pseudorange noise."""
        generator = ScenarioGenerator(
            ScenarioConfig(
                min_satellites=self.min_satellites,
                max_satellites=self.max_satellites,
                max_flatness=self.max_flatness,
                noise_sigma=noise_sigma,
            )
        )
        seeds = range(self.start_seed, self.start_seed + self.scenarios)
        return ((seed, generator.generate(seed)) for seed in seeds)

    def to_dict(self) -> Dict:
        """JSON-ready form, embedded in the verdict artifact."""
        return _plain({f.name: getattr(self, f.name) for f in fields(self)})


@dataclass(frozen=True)
class ChaosGate:
    """One release gate: ``count / total`` held to a floor or a budget.

    An empty population passes vacuously (rate 1 against a floor, 0
    against a budget).
    """

    kind: str  # "floor" | "budget"
    limit: float
    count: int
    total: int

    @property
    def rate(self) -> float:
        if not self.total:
            return 1.0 if self.kind == "floor" else 0.0
        return self.count / self.total

    @property
    def passed(self) -> bool:
        if self.kind == "floor":
            return self.rate >= self.limit
        return self.rate <= self.limit

    def to_dict(self) -> Dict:
        return {self.kind: self.limit, "rate": self.rate, "passed": self.passed}

    def __str__(self) -> str:
        return (
            f"{self.count}/{self.total} ({100 * self.rate:.2f}%, {self.kind} "
            f"{100 * self.limit:.2f}%) [{'PASS' if self.passed else 'FAIL'}]"
        )


class _Verdict:
    """Gates, ``ok`` and the verdict document of a campaign report."""

    @property
    def gates(self) -> Dict[str, ChaosGate]:
        raise NotImplementedError

    @property
    def ok(self) -> bool:
        """Whether every gate holds."""
        return all(gate.passed for gate in self.gates.values())

    @property
    def false_alarm_rate(self) -> float:
        return self.gates["false_alarm"].rate

    def to_dict(self) -> Dict:
        """The verdict artifact ``repro-gps fuzz`` writes: every report
        field, each gate's rate as ``<gate>_rate``, the gates and ``ok``."""
        document = _plain({f.name: getattr(self, f.name) for f in fields(self)})
        gates = self.gates
        for name, gate in gates.items():
            document[f"{name}_rate"] = gate.rate
        document["gates"] = _plain(gates)
        document["ok"] = self.ok
        return document


# -- FDE spikes ----------------------------------------------------------


@dataclass(frozen=True)
class FdeChaosConfig(_Campaign):
    """Everything one FDE chaos run depends on (and its verdict records).

    Attributes
    ----------
    spike_meters:
        Magnitude of the injected pseudorange spike.  The gate is
        calibrated for ``>= 50`` m faults; smaller spikes sink into the
        noise floor.
    fault_rate:
        Per-seed probability of injecting a spike (the fuzz harness's
        seed-derived coin, so faulted populations match between
        ``fuzz --inject spike`` and ``fuzz --fde`` at equal seeds).
    p_false_alarm:
        The FDE gate under test, at ``sigma_meters``: keeping the gate's
        sigma equal to the scenario noise makes the false-alarm budget
        testable instead of a tuning accident.
    identification_floor:
        Minimum fraction of faulted epochs repaired with the injected
        PRN excluded.
    false_alarm_slack:
        Allowed multiple of ``p_false_alarm`` for the clean flag rate.

    ``min_satellites`` must be at least 6: exclusion needs a testable
    subset.
    """

    spike_meters: float = 75.0
    fault_rate: float = 0.5
    p_false_alarm: float = 0.01
    identification_floor: float = 0.95
    false_alarm_slack: float = 2.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not np.isfinite(self.spike_meters) or self.spike_meters <= 0:
            raise ConfigurationError("spike_meters must be positive and finite")
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ConfigurationError("fault_rate must be in [0, 1]")
        if not 0.0 < self.p_false_alarm < 1.0:
            raise ConfigurationError("p_false_alarm must be in (0, 1)")
        if self.min_satellites < 6:
            raise ConfigurationError(
                "chaos identification needs exclusion redundancy; "
                "min_satellites must be >= 6"
            )
        if not 0.0 < self.identification_floor <= 1.0:
            raise ConfigurationError("identification_floor must be in (0, 1]")
        if self.false_alarm_slack < 1.0:
            raise ConfigurationError("false_alarm_slack must be >= 1")


@dataclass(frozen=True)
class FdeChaosCase:
    """One epoch the gate got wrong."""

    seed: int
    injected_prn: Optional[int]
    status: str
    excluded_prn: Optional[int]


@dataclass(frozen=True)
class FdeChaosReport(_Verdict):
    """Aggregate verdict of one FDE chaos run.

    ``identified`` counts faulted epochs repaired with the injected PRN
    excluded; ``misidentified`` those repaired around the *wrong*
    satellite; ``detected_unrepaired`` those flagged but left
    ``unusable``; ``missed`` those the gate passed outright.  Clean
    epochs flagged in any way are ``false_alarms``.
    """

    config: FdeChaosConfig
    faulted: int
    identified: int
    misidentified: int
    detected_unrepaired: int
    missed: int
    clean: int
    false_alarms: int
    mistakes: Tuple[FdeChaosCase, ...]

    @property
    def gates(self) -> Dict[str, ChaosGate]:
        config = self.config
        return {
            "identification": ChaosGate(
                "floor", config.identification_floor, self.identified, self.faulted
            ),
            "false_alarm": ChaosGate(
                "budget",
                config.false_alarm_slack * config.p_false_alarm,
                self.false_alarms,
                self.clean,
            ),
        }

    def headline(self) -> str:
        config = self.config
        return (
            f"FDE chaos: {self.faulted} spiked + {self.clean} clean epochs "
            f"from seed {config.start_seed} ({config.spike_meters:g} m "
            f"spikes, m {config.min_satellites}-{config.max_satellites}, "
            f"sigma {config.sigma_meters:g} m); missed {self.missed}, wrong "
            f"satellite {self.misidentified}, detected-unrepaired "
            f"{self.detected_unrepaired}"
        )


def _injected_prn(clean_epoch, faulted_epoch) -> int:
    """The PRN the spike landed on, recovered by diffing pseudoranges."""
    for clean, faulted in zip(clean_epoch.observations, faulted_epoch.observations):
        if faulted.pseudorange != clean.pseudorange:
            return int(faulted.prn)
    raise ConfigurationError("fault profile did not change any pseudorange")


def run_fde_chaos(config: Optional[FdeChaosConfig] = None) -> FdeChaosReport:
    """One FDE chaos run: draw, spike, screen in one stream, grade.

    Every epoch is solved with the exact clock bias truth dictates, so
    the verdicts grade the gate alone, not the bias predictor.
    """
    config = config if config is not None else FdeChaosConfig()
    spike = PseudorangeSpike(magnitude_meters=config.spike_meters)
    seeds: List[int] = []
    epochs = []
    biases: List[float] = []
    injected: List[Optional[int]] = []
    for seed, scenario in config.draw(noise_sigma=config.sigma_meters):
        fault_rng = np.random.default_rng(seed + _FAULT_SEED_OFFSET)
        epoch = scenario.epoch
        prn: Optional[int] = None
        if config.fault_rate > 0 and float(fault_rng.random()) < config.fault_rate:
            apply_rng = np.random.default_rng(seed + _FAULT_SEED_OFFSET + 1)
            faulted = spike.apply(epoch, apply_rng)
            prn = _injected_prn(epoch, faulted)
            epoch = faulted
        seeds.append(seed)
        epochs.append(epoch)
        biases.append(scenario.clock_bias_meters)
        injected.append(prn)

    engine = PositioningEngine(
        algorithm="dlg",
        fde_config=FdeConfig(
            sigma_meters=config.sigma_meters,
            p_false_alarm=config.p_false_alarm,
        ),
    )
    fde = engine.solve_stream(epochs, biases=biases).diagnostics.fde

    faulted = identified = misidentified = detected_unrepaired = missed = 0
    clean = false_alarms = 0
    mistakes: List[FdeChaosCase] = []
    for index, prn in enumerate(injected):
        verdict = fde.verdict(index)
        if prn is None:
            clean += 1
            if verdict.status == "passed":
                continue
            false_alarms += 1
        else:
            faulted += 1
            if verdict.status == "repaired" and verdict.excluded_prn == prn:
                identified += 1
                continue
            if verdict.status == "repaired":
                misidentified += 1
            elif verdict.status == "unusable":
                detected_unrepaired += 1
            else:
                missed += 1
        mistakes.append(
            FdeChaosCase(seeds[index], prn, verdict.status, verdict.excluded_prn)
        )

    return FdeChaosReport(
        config=config,
        faulted=faulted,
        identified=identified,
        misidentified=misidentified,
        detected_unrepaired=detected_unrepaired,
        missed=missed,
        clean=clean,
        false_alarms=false_alarms,
        mistakes=tuple(mistakes),
    )


# -- spoofing and interference -------------------------------------------


@dataclass(frozen=True)
class MonitorChaosConfig(_Campaign):
    """Everything one spoof chaos run depends on.

    Attributes
    ----------
    scenarios:
        Stream count, at least one per arm; seeds cycle
        clean/meaconing/slow-drag/clock-pull/jamming-ramp.
    epochs_per_stream:
        Stream length at 1 Hz.  Must leave room for the monitors'
        learning window *and* a post-onset observation span.
    onset_seconds:
        When attacks switch on (stream time starts at zero), past the
        monitors' learning window.
    monitors:
        The suite under test: the shipped default tuning.
    batch_size:
        Serving-batch granularity streams are chunked into (monitor
        verdicts are batch-boundary invariant; this mirrors how the
        service feeds the suite).
    detection_floor:
        Minimum fraction of attacked streams detected in time.
    false_alarm_budget:
        Ceiling on the clean-epoch verdict rate.
    """

    max_satellites: int = 10
    epochs_per_stream: int = 40
    onset_seconds: float = 15.0
    monitors: MonitorConfig = MonitorConfig()
    batch_size: int = 16
    detection_floor: float = 0.90
    false_alarm_budget: float = 0.02

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.scenarios < len(ATTACK_FAMILIES) + 1:
            raise ConfigurationError(
                "need at least one scenario per campaign arm "
                f"({len(ATTACK_FAMILIES) + 1})"
            )
        if self.epochs_per_stream < 2:
            raise ConfigurationError("epochs_per_stream must be at least 2")
        if not 0.0 < self.onset_seconds < self.epochs_per_stream - 1:
            raise ConfigurationError("onset_seconds must fall inside the stream")
        if self.onset_seconds <= self.monitors.learn_epochs:
            raise ConfigurationError(
                "onset_seconds must clear the monitors' learning window "
                "(attacks during learning would poison the reference)"
            )
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be at least 1")
        if not 0.0 < self.detection_floor <= 1.0:
            raise ConfigurationError("detection_floor must be in (0, 1]")
        if not 0.0 <= self.false_alarm_budget < 1.0:
            raise ConfigurationError("false_alarm_budget must be in [0, 1)")


@dataclass(frozen=True)
class MonitorChaosCase:
    """One stream the suite got wrong."""

    seed: int
    family: str
    outcome: str  # "missed" | "late" | "false_alarm"
    detect_second: Optional[float]
    harm_second: Optional[float]


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
                "p90": float(np.percentile(times, 90)) if times.size else None,
                "max": float(times.max()) if times.size else None,
            },
        }


@dataclass(frozen=True)
class MonitorChaosReport(_Verdict):
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
        return sum(stats.detected_in_time for stats in self.families.values())

    @property
    def gates(self) -> Dict[str, ChaosGate]:
        config = self.config
        return {
            "detection": ChaosGate(
                "floor", config.detection_floor, self.detected_in_time, self.attacks
            ),
            "false_alarm": ChaosGate(
                "budget",
                config.false_alarm_budget,
                self.false_alarm_epochs,
                self.clean_epochs,
            ),
        }

    @property
    def detection_rate(self) -> float:
        """Attacked streams detected before their harm budget, overall."""
        return self.gates["detection"].rate

    def to_dict(self) -> Dict:
        document = super().to_dict()
        document["attacks"] = self.attacks
        document["detected_in_time"] = self.detected_in_time
        return document

    def headline(self) -> str:
        config = self.config
        lines = [
            f"spoof chaos: {self.attacks} attacked + {self.clean_streams} "
            f"clean streams from seed {config.start_seed} "
            f"({config.epochs_per_stream} epochs/stream, onset "
            f"{config.onset_seconds:g} s, sigma {config.sigma_meters:g} m)"
        ]
        for family, stats in self.families.items():
            mean = stats.to_dict()["time_to_detect_seconds"]["mean"]
            latency = f", mean ttd {mean:.1f} s" if mean is not None else ""
            lines.append(
                f"  {family}: {stats.detected_in_time}/{stats.attacks} in "
                f"time ({stats.detected} detected{latency})"
            )
        return "\n".join(lines)


def build_stream(
    scenario: Scenario, config: MonitorChaosConfig, seed: int
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
        return ClockPull(rate_mps=float(rng.uniform(6.0, 20.0)), onset_seconds=onset)
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
    """One spoof chaos run: draw streams, attack, serve, grade."""
    from repro.service.executor import BatchExecutor
    from repro.service.types import ServiceConfig

    config = config if config is not None else MonitorChaosConfig()
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

    for index, (seed, scenario) in enumerate(config.draw()):
        family = _arm_for(index)
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
                and float(np.linalg.norm(position - truth_position)) > tolerance
            ):
                harm_second = float(t)

        if family == ARM_CLEAN:
            clean_streams += 1
            clean_epochs += len(results)
            if flagged_epochs:
                false_alarm_streams += 1
                false_alarm_epochs += flagged_epochs
                mistakes.append(
                    MonitorChaosCase(seed, family, "false_alarm", detect_second, None)
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
            outcome = "missed" if not was_detected else "late"
            mistakes.append(
                MonitorChaosCase(seed, family, outcome, detect_second, harm_second)
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
