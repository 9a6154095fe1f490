"""The seeded fuzz harness: scenarios in bulk, failures as artifacts.

Drives the validation stack end to end: generate a scenario per seed,
optionally corrupt it with a fault profile, run the differential and
metamorphic oracles, and keep going until a time or scenario budget
runs out.  Everything is a pure function of ``(seed, FuzzConfig)``, so
a failing case persists as a small JSON artifact that
:func:`replay_artifact` reproduces exactly — no captured arrays, no
flaky reruns.

Case outcomes:

* ``pass`` — clean scenario, all oracles agreed;
* ``rejected`` — a structural fault was injected and the shared input
  guard (plus the guarded entry points) refused the epoch, as designed;
* ``explained`` — a semantic fault was injected and the solvers
  disagreed *because of it*; persisted as an artifact (the fault is the
  explanation) but not a failure;
* ``failed`` — an **unexplained** problem: a clean-scenario
  disagreement (``kind="disagreement"``), a broken transformation
  invariant (``"metamorphic"``), a corrupt epoch that sailed through
  the guards (``"unhandled_fault"``), or an exception that is not a
  :class:`~repro.errors.ReproError` (``"crash"``).

Every ``stream_check_every`` clean scenarios, the accumulated epochs
are additionally pushed through the bulk paths
(:func:`~repro.validation.oracles.run_stream_differential`) so the
engine's padded flushes and the parallel replay's chunk seams get fuzzed
too, not just the per-epoch solvers.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.receiver import GpsReceiver
from repro.errors import ConfigurationError, GeometryError
from repro.observations import epoch_integrity_error
from repro.telemetry import get_registry
from repro.validation.faults import (
    EXPECT_REJECTED,
    FAULT_REGISTRY,
    FaultProfile,
    fault_from_spec,
)
from repro.validation.metamorphic import run_metamorphic, run_relabeling
from repro.validation.oracles import (
    run_differential,
    run_multi_differential,
    run_stream_differential,
)
from repro.validation.scenarios import Scenario, ScenarioConfig, ScenarioGenerator

#: The unexplained-failure taxonomy (artifact ``kind`` values).
FUZZ_FAILURE_KINDS: Tuple[str, ...] = (
    "disagreement",
    "metamorphic",
    "unhandled_fault",
    "crash",
    "stream",
)

#: Offset mixed into the scenario seed for the fault stream, so fault
#: randomness never correlates with scenario randomness.
_FAULT_SEED_OFFSET = 0x5EED


@dataclass(frozen=True)
class FuzzConfig:
    """Everything one fuzz run depends on (and an artifact records).

    Attributes
    ----------
    budget_seconds:
        Wall-clock budget; the run stops at the first seed after it is
        exhausted.  ``None`` means no time limit.
    max_scenarios:
        Scenario-count budget; ``None`` means no count limit.  At
        least one of the two budgets must be set.
    start_seed:
        First scenario seed; seeds advance consecutively, so a run is
        fully described by ``(start_seed, scenarios_run)``.
    fault_rate:
        Probability (per scenario, from the scenario's own fault
        stream) of injecting a fault instead of running the clean
        oracles.
    fault:
        Optional fixed :class:`~repro.validation.faults.FaultProfile`
        to inject; by default each faulted scenario samples one from
        the registry with default parameters.
    scenario:
        The :class:`~repro.validation.scenarios.ScenarioConfig` of the
        generated population.
    artifacts_dir:
        Where failing/explained cases are persisted; ``None`` disables
        persistence.
    stream_check_every:
        Run the bulk-path stream check after this many accumulated
        clean scenarios.  ``0`` disables stream checks.
    """

    budget_seconds: Optional[float] = 60.0
    max_scenarios: Optional[int] = None
    start_seed: int = 0
    fault_rate: float = 0.0
    fault: Optional[FaultProfile] = None
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    artifacts_dir: Optional[Union[str, Path]] = None
    stream_check_every: int = 200

    def __post_init__(self) -> None:
        if self.budget_seconds is None and self.max_scenarios is None:
            raise ConfigurationError(
                "set budget_seconds and/or max_scenarios; an unbounded fuzz "
                "run never terminates"
            )
        if self.budget_seconds is not None and self.budget_seconds <= 0:
            raise ConfigurationError("budget_seconds must be positive")
        if self.max_scenarios is not None and self.max_scenarios < 1:
            raise ConfigurationError("max_scenarios must be at least 1")
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ConfigurationError("fault_rate must be in [0, 1]")
        if self.stream_check_every < 0:
            raise ConfigurationError("stream_check_every must be >= 0")


@dataclass(frozen=True)
class FuzzCaseResult:
    """Verdict for one seed (or one stream check)."""

    seed: int
    status: str  # "pass" | "rejected" | "explained" | "failed"
    kind: Optional[str] = None
    detail: Tuple[str, ...] = ()
    fault_spec: Optional[Dict] = None

    @property
    def failed(self) -> bool:
        """Whether this case is an *unexplained* failure."""
        return self.status == "failed"

    def to_dict(self) -> Dict:
        """JSON-ready form (artifact payload core)."""
        return {
            "seed": self.seed,
            "status": self.status,
            "kind": self.kind,
            "detail": list(self.detail),
            "fault": self.fault_spec,
        }


@dataclass(frozen=True)
class FuzzReport:
    """Aggregate outcome of one fuzz run."""

    scenarios: int
    passes: int
    rejected: int
    explained: int
    failures: Tuple[FuzzCaseResult, ...]
    artifact_paths: Tuple[str, ...]
    stream_checks: int
    elapsed_seconds: float

    @property
    def ok(self) -> bool:
        """Whether the run finished without unexplained failures."""
        return not self.failures

    def to_dict(self) -> Dict:
        """JSON-ready summary for logs and telemetry snapshots."""
        return {
            "scenarios": self.scenarios,
            "passes": self.passes,
            "rejected": self.rejected,
            "explained": self.explained,
            "failures": [f.to_dict() for f in self.failures],
            "artifacts": list(self.artifact_paths),
            "stream_checks": self.stream_checks,
            "elapsed_seconds": self.elapsed_seconds,
        }


class FuzzHarness:
    """Runs seeded scenarios through every oracle under a budget."""

    def __init__(self, config: Optional[FuzzConfig] = None) -> None:
        self._config = config if config is not None else FuzzConfig()
        self._generator = ScenarioGenerator(self._config.scenario)
        self._last_scenario: Optional[Scenario] = None
        # Multi-system populations fuzz the per-constellation solver
        # paths: the single-clock oracles would (correctly) disagree on
        # epochs whose pseudoranges carry several different biases.
        self._multi = len(self._config.scenario.systems) > 1

    @property
    def config(self) -> FuzzConfig:
        """The run configuration."""
        return self._config

    # ------------------------------------------------------------------
    def run_case(self, seed: int) -> FuzzCaseResult:
        """Fuzz one seed: the atom :meth:`run` iterates and replay reruns."""
        try:
            return self._run_case_inner(seed)
        except Exception:
            return FuzzCaseResult(
                seed=seed,
                status="failed",
                kind="crash",
                detail=tuple(traceback.format_exc().strip().splitlines()[-3:]),
            )

    def _run_case_inner(self, seed: int) -> FuzzCaseResult:
        scenario = self._generator.generate(seed)
        self._last_scenario = scenario
        fault_rng = np.random.default_rng(seed + _FAULT_SEED_OFFSET)

        inject = (
            self._config.fault_rate > 0
            and float(fault_rng.random()) < self._config.fault_rate
        )
        if inject:
            profile = self._config.fault
            if profile is None:
                name = sorted(FAULT_REGISTRY)[
                    int(fault_rng.integers(len(FAULT_REGISTRY)))
                ]
                profile = FAULT_REGISTRY[name]()
            # Application gets its own seed-derived stream so a replay
            # that supplies the recorded profile directly (skipping the
            # sampling draw above) still corrupts identically.
            apply_rng = np.random.default_rng(seed + _FAULT_SEED_OFFSET + 1)
            return self._run_faulted(scenario, profile, apply_rng)

        differential = run_multi_differential if self._multi else run_differential
        report = differential(scenario)
        if report.disagreements:
            return FuzzCaseResult(
                seed=seed,
                status="failed",
                kind="disagreement",
                detail=tuple(d.describe() for d in report.disagreements),
            )
        meta = (
            run_relabeling(scenario) if self._multi else run_metamorphic(scenario)
        )
        if meta.deviations:
            return FuzzCaseResult(
                seed=seed,
                status="failed",
                kind="metamorphic",
                detail=tuple(d.describe() for d in meta.deviations),
            )
        return FuzzCaseResult(seed=seed, status="pass")

    def _run_faulted(
        self,
        scenario: Scenario,
        profile: FaultProfile,
        apply_rng: np.random.Generator,
    ) -> FuzzCaseResult:
        faulted = profile.apply(scenario.epoch, apply_rng)
        spec = profile.spec()

        if profile.expectation == EXPECT_REJECTED:
            # The shared guard, and the guarded entry point, must both
            # refuse the epoch.  A corrupt epoch that gets answered is
            # exactly the bug class this harness exists to catch.
            problems = []
            if epoch_integrity_error(faulted) is None:
                problems.append("epoch_integrity_error saw nothing wrong")
            try:
                GpsReceiver(algorithm="nr").process(faulted)
            except GeometryError:
                pass
            else:
                problems.append("GpsReceiver.process answered a corrupt epoch")
            if problems:
                return FuzzCaseResult(
                    seed=scenario.seed,
                    status="failed",
                    kind="unhandled_fault",
                    detail=tuple(problems),
                    fault_spec=spec,
                )
            return FuzzCaseResult(
                seed=scenario.seed, status="rejected", fault_spec=spec
            )

        # Semantic fault: solvers answer; disagreement (or missing the
        # truth) is attributed to the fault and persisted as evidence.
        differential = run_multi_differential if self._multi else run_differential
        report = differential(scenario, epoch=faulted)
        if report.disagreements:
            return FuzzCaseResult(
                seed=scenario.seed,
                status="explained",
                kind="disagreement",
                detail=tuple(d.describe() for d in report.disagreements),
                fault_spec=spec,
            )
        return FuzzCaseResult(seed=scenario.seed, status="pass", fault_spec=spec)

    # ------------------------------------------------------------------
    def run(self) -> FuzzReport:
        """Fuzz seeds from ``start_seed`` until a budget runs out."""
        config = self._config
        registry = get_registry()
        started = time.monotonic()
        passes = rejected = explained = 0
        failures: List[FuzzCaseResult] = []
        artifact_paths: List[str] = []
        clean_buffer: List[Scenario] = []
        stream_checks = 0
        scenarios = 0

        seed = config.start_seed
        while True:
            if (
                config.budget_seconds is not None
                and time.monotonic() - started >= config.budget_seconds
            ):
                break
            if config.max_scenarios is not None and scenarios >= config.max_scenarios:
                break

            result = self.run_case(seed)
            scenarios += 1
            if registry.enabled:
                registry.counter(
                    "repro_fuzz_scenarios_total",
                    "Fuzzed scenarios by outcome.",
                    labels=("status",),
                ).labels(status=result.status).inc()
            if result.status == "pass":
                passes += 1
                # Stream checks drive the engine's predicted-bias
                # interface, which per-constellation scenarios do not
                # use; multi populations skip the bulk window.
                if (
                    result.fault_spec is None
                    and config.stream_check_every
                    and not self._multi
                    and self._last_scenario is not None
                ):
                    clean_buffer.append(self._last_scenario)
            elif result.status == "rejected":
                rejected += 1
            elif result.status == "explained":
                explained += 1
                artifact_paths.extend(self._persist(result))
            else:
                failures.append(result)
                if registry.enabled:
                    registry.counter(
                        "repro_fuzz_failures_total",
                        "Unexplained fuzz failures by kind.",
                        labels=("kind",),
                    ).labels(kind=result.kind or "unknown").inc()
                artifact_paths.extend(self._persist(result))

            if (
                config.stream_check_every
                and len(clean_buffer) >= config.stream_check_every
            ):
                stream_checks += 1
                stream_result = self._run_stream_check(clean_buffer)
                clean_buffer.clear()
                if stream_result is not None:
                    failures.append(stream_result)
                    artifact_paths.extend(self._persist(stream_result))

            seed += 1

        return FuzzReport(
            scenarios=scenarios,
            passes=passes,
            rejected=rejected,
            explained=explained,
            failures=tuple(failures),
            artifact_paths=tuple(artifact_paths),
            stream_checks=stream_checks,
            elapsed_seconds=time.monotonic() - started,
        )

    def _run_stream_check(
        self, scenarios: List[Scenario]
    ) -> Optional[FuzzCaseResult]:
        """Bulk-path consistency over recent clean scenarios (bounded)."""
        window = scenarios[-64:]
        try:
            report = run_stream_differential(window)
        except Exception:
            # A bulk path crashing on epochs every scalar path already
            # answered is itself a finding; record it against the
            # window like any other stream failure instead of killing
            # the whole run.
            return FuzzCaseResult(
                seed=window[0].seed,
                status="failed",
                kind="stream",
                detail=tuple(traceback.format_exc().strip().splitlines()[-3:]),
            )
        if report.agreed:
            return None
        return FuzzCaseResult(
            seed=window[0].seed,
            status="failed",
            kind="stream",
            detail=tuple(report.disagreements),
        )

    def _persist(self, result: FuzzCaseResult) -> List[str]:
        """Write one replayable artifact; the path list it returns."""
        if self._config.artifacts_dir is None:
            return []
        directory = Path(self._config.artifacts_dir)
        directory.mkdir(parents=True, exist_ok=True)
        payload = {
            **result.to_dict(),
            "scenario_config": self._config.scenario.to_dict(),
        }
        path = directory / f"{result.status}-seed-{result.seed}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        return [str(path)]


def replay_artifact(path: Union[str, Path]) -> FuzzCaseResult:
    """Re-run a persisted fuzz case from its artifact, deterministically.

    Rebuilds the scenario from ``(seed, scenario_config)`` and — for
    faulted cases — re-applies the recorded fault spec with the
    seed-derived fault stream, then runs the same checks
    :meth:`FuzzHarness.run` ran.  The returned verdict matches the
    recorded one field for field when the library is unchanged; a
    difference localizes exactly what a code change altered.
    """
    payload = json.loads(Path(path).read_text())
    if payload.get("format") == "repro-flight-record-v1":
        # A flight-recorder incident artifact: same replay protocol,
        # but the inputs are a captured production epoch rather than a
        # (seed, config) pair.  Imported lazily — the recorder imports
        # the engine, not the other way around.
        from repro.telemetry.recorder import replay_incident

        return replay_incident(payload)
    config = ScenarioConfig.from_dict(payload["scenario_config"])
    seed = int(payload["seed"])
    fault = (
        fault_from_spec(payload["fault"]) if payload.get("fault") is not None else None
    )
    harness = FuzzHarness(
        FuzzConfig(
            budget_seconds=None,
            max_scenarios=1,
            start_seed=seed,
            fault_rate=1.0 if fault is not None else 0.0,
            fault=fault,
            scenario=config,
        )
    )
    if payload.get("kind") == "stream":
        # Stream artifacts record the first seed of the checked window;
        # rebuild the window and re-run the bulk comparison.
        generator = ScenarioGenerator(config)
        window = [generator.generate(seed + i) for i in range(64)]
        report = run_stream_differential(window)
        status = "pass" if report.agreed else "failed"
        return FuzzCaseResult(
            seed=seed,
            status=status,
            kind=None if report.agreed else "stream",
            detail=tuple(report.disagreements),
        )
    return harness.run_case(seed)
