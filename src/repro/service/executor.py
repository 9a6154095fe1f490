"""The process-agnostic batch-execution core.

:class:`BatchExecutor` is the part of the positioning service that
actually *answers* a formed batch: circuit-breaker admission, the
batched solve through :class:`~repro.engine.PositioningEngine`, the
batched→scalar→NR degradation ladder, and integrity verdict
accounting.  It holds no event loop, no queue, and no process state —
exactly the core that must run identically

* **in-process**, driven by the asyncio
  :class:`~repro.service.service.PositioningService` dispatch loop, and
* **in a shard worker**, driven by the worker main loop of
  :class:`~repro.service.shard.ShardedPositioningService` on batches
  that arrived as shared-memory struct-of-arrays views
  (:mod:`repro.service.shm`) rather than epoch objects.

Two entry points cover the two transports:

* :meth:`execute` — epoch objects in (the asyncio dispatch path),
* :meth:`execute_packed` — an already-columnar
  :class:`~repro.blocks.PackedStream` in (the shard worker path);
  epoch objects are materialized lazily only on the rare degradation
  rungs that need per-epoch scalar solving.

Both return the same ``(outcomes, BatchMeta)`` shape, where each
outcome is the tuple
``(status, position, clock_bias, solver, error, verdict, monitor)``
the service tier turns into
:class:`~repro.service.types.ServiceResult`\\ s.  The cross-process
determinism suite holds the two entry points to bitwise agreement on
identical batches.

When the config arms the signal-plausibility plane
(``config.monitors``), every successfully batched solve is also
observed by a :class:`~repro.integrity.monitors.MonitorSuite`:
per-epoch verdicts ride the outcomes, confirmed-``spoofed`` epochs are
blocked (``status="failed"``) when ``block_spoofed`` is set, and
flagged satellites feed the health tracker as monitor strikes.  The
suite's ring-buffer state is keyed on epoch order alone, so the shard
worker and the in-process loop produce bitwise-identical verdicts for
the same stream however it is batched.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.blocks import PackedStream, pack_stream
from repro.engine import PositioningEngine
from repro.errors import EstimationError, ReproError
from repro.integrity.fde import EpochVerdict
from repro.integrity.health import SatelliteHealthTracker
from repro.integrity.monitors import (
    EpochMonitorVerdict,
    MonitorRecord,
    MonitorSuite,
    SEVERITY_NAMES,
    SEVERITY_SPOOFED,
)
from repro.observations import ObservationEpoch, epoch_integrity_error
from repro.telemetry import get_registry

#: One per-request outcome:
#: ``(status, position, clock_bias, solver, error, verdict, monitor)``.
Outcome = Tuple[
    str,
    Optional[np.ndarray],
    Optional[float],
    Optional[str],
    Optional[str],
    Optional[EpochVerdict],
    Optional[EpochMonitorVerdict],
]


@dataclass
class BatchMeta:
    """What one batch execution learned beyond the per-request outcomes.

    Carried back to the dispatching tier so traces and flight-recorder
    entries can name the stage split, the batch lineage, and the
    resolved biases without re-deriving anything.  ``epochs`` is the
    post-admission epoch list when the caller provided epoch objects;
    the columnar (shard-worker) path leaves it ``None`` — nothing on
    that side retains epoch objects.  ``counts`` holds each flush
    row's satellite count when the batched kernel answered, ``-1`` for
    rows the screen kept out of it (the lineage a trace reports next
    to the row's flush position).
    """

    rung: str  # "batch" (engine answered) or "scalar" (ladder ran)
    epochs: Optional[List[ObservationEpoch]] = None
    stage_seconds: Optional[Dict[str, float]] = None
    counts: Optional[np.ndarray] = None
    resolved_biases: Optional[np.ndarray] = None

    def bias(self, index: int) -> Optional[float]:
        """The clock bias the solve consumed for row ``index``."""
        if self.resolved_biases is None:
            return None
        value = float(self.resolved_biases[index])
        return value if np.isfinite(value) else None


class _ExecutorMetrics:
    """Pre-resolved integrity telemetry children for one registry."""

    __slots__ = (
        "registry",
        "preexclusions",
        "_integrity_family",
        "_children",
        "_monitor_family",
        "_monitor_children",
    )

    def __init__(self, registry) -> None:
        self.registry = registry
        self.preexclusions = registry.counter(
            "repro_service_integrity_preexclusions_total",
            "Quarantined satellites pre-excluded at admission.",
        ).labels()
        self._integrity_family = registry.counter(
            "repro_service_integrity_verdicts_total",
            "FDE verdicts on served epochs.",
            labels=("status",),
        )
        self._children: dict = {}
        self._monitor_family = registry.counter(
            "repro_service_monitor_verdicts_total",
            "Signal-plausibility verdicts on served epochs.",
            labels=("severity",),
        )
        self._monitor_children: dict = {}

    def integrity_child(self, status: str):
        child = self._children.get(status)
        if child is None:
            child = self._integrity_family.labels(status=status)
            self._children[status] = child
        return child

    def monitor_child(self, severity: str):
        child = self._monitor_children.get(severity)
        if child is None:
            child = self._monitor_family.labels(severity=severity)
            self._monitor_children[severity] = child
        return child


class BatchExecutor:
    """Answer formed batches; agnostic to queue, loop, and process.

    ``engine`` may be injected for tests; by default it is built from
    the config's solver via :meth:`PositioningEngine.from_config`
    (with the FDE gate armed when ``config.integrity`` is set).
    ``health_tracker`` may be injected to share satellite-health state
    with other consumers; by default one is built from
    ``config.health`` when the integrity rung is armed.
    """

    def __init__(
        self,
        config,
        engine: Optional[PositioningEngine] = None,
        health_tracker: Optional[SatelliteHealthTracker] = None,
    ) -> None:
        self._config = config
        self._engine = (
            engine
            if engine is not None
            else PositioningEngine.from_config(
                config.solver, fde_config=config.integrity
            )
        )
        if health_tracker is not None:
            self._tracker: Optional[SatelliteHealthTracker] = health_tracker
        elif config.integrity is not None or config.health is not None:
            # FDE always gets a breaker; a monitors-only config gets one
            # when health tracking is explicitly armed (monitor strikes
            # then drive quarantine exactly like exclusions).
            self._tracker = SatelliteHealthTracker(config.health)
        else:
            self._tracker = None
        self._monitors: Optional[MonitorSuite] = (
            config.monitors.build() if config.monitors is not None else None
        )
        solver_config = config.solver
        self._scalar = solver_config.build_solver()
        self._nr_scalar = (
            solver_config.nr_fallback().build_solver()
            if config.nr_fallback and solver_config.algorithm != "nr"
            else None
        )
        self._metrics: Optional[_ExecutorMetrics] = None

    # -- accessors -----------------------------------------------------

    @property
    def engine(self) -> PositioningEngine:
        """The batched engine this executor dispatches to."""
        return self._engine

    @property
    def algorithm(self) -> str:
        """The primary batch algorithm."""
        return self._engine.algorithm

    @property
    def health_tracker(self) -> Optional[SatelliteHealthTracker]:
        """The integrity circuit breaker, when armed."""
        return self._tracker

    @property
    def monitor_suite(self) -> Optional[MonitorSuite]:
        """The signal-plausibility monitor suite, when armed."""
        return self._monitors

    def _telemetry(self) -> Optional[_ExecutorMetrics]:
        registry = get_registry()
        if not registry.enabled:
            return None
        metrics = self._metrics
        if metrics is None or metrics.registry is not registry:
            metrics = _ExecutorMetrics(registry)
            self._metrics = metrics
        return metrics

    # -- admission -----------------------------------------------------

    def admit(self, epochs: List[ObservationEpoch]) -> List[ObservationEpoch]:
        """Circuit breaker: pre-exclude quarantined satellites.

        One :meth:`~repro.integrity.health.SatelliteHealthTracker.admit`
        tick per epoch; the tracker's admission floor guarantees the
        trimmed epoch stays solvable and RAIM-testable.
        """
        assert self._tracker is not None
        admitted: List[ObservationEpoch] = []
        removed = 0
        for epoch in epochs:
            banned = self._tracker.admit(epoch.prns)
            if banned:
                banned_set = set(banned)
                epoch = epoch.with_observations(
                    obs for obs in epoch.observations if obs.prn not in banned_set
                )
                removed += len(banned_set)
            admitted.append(epoch)
        if removed:
            metrics = self._telemetry()
            if metrics is not None:
                metrics.preexclusions.inc(removed)
        return admitted

    def _observe_verdict(
        self, prns: Sequence[int], verdict: EpochVerdict
    ) -> None:
        """Feed one verdict to the health tracker and telemetry."""
        if self._tracker is not None:
            if verdict.status == "repaired":
                self._tracker.record_exclusion(verdict.excluded_prn)
                self._tracker.record_clean(
                    prn for prn in prns if prn != verdict.excluded_prn
                )
            elif verdict.status == "passed":
                self._tracker.record_clean(prns)
        metrics = self._telemetry()
        if metrics is not None:
            metrics.integrity_child(verdict.status).inc()

    # -- execution: epoch objects in ----------------------------------

    def execute(
        self,
        epochs: List[ObservationEpoch],
        bias_overrides: Optional[Sequence[Optional[float]]] = None,
    ) -> Tuple[List[Outcome], BatchMeta]:
        """One formed batch of epoch objects through the full ladder.

        ``bias_overrides`` carries per-request clock-bias overrides
        (``None`` entries defer to the config's predictor).  Returns
        one :data:`Outcome` per epoch, in order.
        """
        if self._tracker is not None:
            epochs = self.admit(epochs)
        biases = self._resolve_biases(epochs, bias_overrides)
        # Pack the flushed batch into one padded block here, at the
        # request/array boundary — the engine and everything below it
        # (solvers, FDE, the monitor suite) then runs zero-copy on
        # these arrays.
        packed = pack_stream(epochs)
        try:
            stream = self._engine.solve_stream(packed, biases, on_undersized="drop")
        except ReproError:
            # Rung 2/3: the batched solve rejects the whole flush, so
            # one poisoned epoch fails its batchmates here.  Re-solve
            # per-epoch so every request gets its own verdict.
            return (
                [
                    self.solve_scalar(
                        epoch,
                        bias_overrides[index]
                        if bias_overrides is not None
                        else None,
                    )
                    for index, epoch in enumerate(epochs)
                ],
                BatchMeta(rung="scalar", epochs=epochs),
            )
        outcomes = self._stream_outcomes(
            stream,
            lambda index: epochs[index].prns,
            lambda index: epoch_integrity_error(epochs[index]),
            self._observe_monitors(packed, stream),
        )
        return outcomes, BatchMeta(
            rung="batch",
            epochs=epochs,
            stage_seconds=stream.stage_seconds,
            counts=_kernel_counts(packed, stream),
            resolved_biases=stream.clock_biases,
        )

    # -- execution: columnar in ----------------------------------------

    def execute_packed(
        self,
        packed: PackedStream,
        biases: Optional[np.ndarray] = None,
    ) -> Tuple[List[Outcome], BatchMeta]:
        """One formed batch of already-columnar epochs (the shard path).

        The hot path never materializes epoch objects: the packed
        stream's arrays flow straight through the engine.  Only the
        rare rungs that need per-epoch treatment — an active quarantine
        trimming satellites, or whole-batch rejection degrading to the
        scalar ladder — rebuild epochs from the block rows.

        ``biases`` uses NaN entries for "no override" (a shared-memory
        array cannot carry ``None``).
        """
        overrides: Optional[List[Optional[float]]] = None
        if biases is not None:
            biases = np.asarray(biases, dtype=float)
            overrides = [
                float(value) if np.isfinite(value) else None
                for value in biases
            ]
            if all(value is None for value in overrides):
                overrides = None
        if self._tracker is not None and self._packed_needs_admission(packed):
            # Quarantine active and this batch carries banned PRNs:
            # admission must trim observations, which changes satellite
            # counts — materialize and take the epoch-object path (rare
            # by construction: the breaker exists to make persistent
            # faults cheap, not frequent).
            epochs = self.materialize(packed)
            return self.execute(epochs, overrides)
        if self._tracker is not None:
            # No trims, but admission still ticks the tracker clock so
            # probation/backoff timing is identical to the epoch path.
            block = packed.block
            for row in range(len(block)):
                self._tracker.admit(
                    tuple(block.prns[row, : block.counts[row]].tolist())
                )
        stream_biases = None
        if overrides is not None:
            stream_biases = self._override_array(packed, biases)
        try:
            stream = self._engine.solve_stream(
                packed, stream_biases, on_undersized="drop"
            )
        except ReproError:
            epochs = self.materialize(packed)
            return (
                [
                    self.solve_scalar(
                        epoch,
                        overrides[index] if overrides is not None else None,
                    )
                    if epoch is not None
                    else (
                        "invalid",
                        None,
                        None,
                        None,
                        "epoch failed batch screening",
                        None,
                        None,
                    )
                    for index, epoch in enumerate(epochs)
                ],
                BatchMeta(rung="scalar"),
            )
        prns_for, detail_for = self._packed_accessors(packed)
        outcomes = self._stream_outcomes(
            stream, prns_for, detail_for, self._observe_monitors(packed, stream)
        )
        return outcomes, BatchMeta(
            rung="batch",
            stage_seconds=stream.stage_seconds,
            counts=_kernel_counts(packed, stream),
            resolved_biases=stream.clock_biases,
        )

    # -- shared internals ----------------------------------------------

    def _observe_monitors(self, packed, stream) -> Optional[MonitorRecord]:
        """Run the monitor suite over one solved batch, when armed.

        The suite sees the stream exactly as solved — NaN rows for
        screened/unrepaired epochs included — so its carried state
        depends only on epoch order, never on how the service batched
        the stream (the shard-parity contract).
        """
        if self._monitors is None:
            return None
        return self._monitors.observe_stream(packed, stream.positions)

    def _observe_monitor_record(self, record: MonitorRecord) -> None:
        """Batch monitor accounting for one segment: telemetry, strikes."""
        metrics = self._telemetry()
        if metrics is not None:
            counts = np.bincount(
                record.severities, minlength=len(SEVERITY_NAMES)
            )
            for level, name in enumerate(SEVERITY_NAMES):
                if counts[level]:
                    metrics.monitor_child(name).inc(int(counts[level]))
        if self._tracker is not None:
            # Monitors name satellites only when a per-satellite
            # statistic implicates them (C/N0 monitors); consistent
            # whole-constellation attacks flag nothing and strike
            # nothing — quarantining every satellite would just blind
            # the receiver the attacker is already blinding.
            for index in np.flatnonzero(record.severities == SEVERITY_SPOOFED):
                for key in record.flagged_keys(int(index), SEVERITY_SPOOFED):
                    self._tracker.record_monitor_strike(key >> 2)

    def _stream_outcomes(self, stream, prns_for, detail_for, monitors=None):
        """Scatter one engine result into per-request outcomes."""
        algorithm = self._engine.algorithm
        fde = stream.diagnostics.fde
        block_spoofed = (
            self._config.monitors is not None and self._config.monitors.block_spoofed
        )
        screened = set(stream.diagnostics.invalid_indices) | set(
            stream.diagnostics.dropped_indices
        )
        alerted = None
        if monitors is not None:
            self._observe_monitor_record(monitors)
            alerted = set(np.flatnonzero(monitors.severities).tolist())
        outcomes: List[Outcome] = []
        for index in range(len(stream.positions)):
            monitor = (
                monitors.verdict(index)
                if alerted is not None and index in alerted
                else None
            )
            if index in screened:
                detail = detail_for(index)
                outcomes.append(
                    (
                        "invalid",
                        None,
                        None,
                        None,
                        detail or "epoch failed batch screening",
                        None,
                        monitor,
                    )
                )
                continue
            verdict = None
            if fde is not None:
                verdict = fde.verdict(index)
                self._observe_verdict(prns_for(index), verdict)
                if verdict.status == "unusable":
                    outcomes.append(
                        (
                            "failed",
                            None,
                            None,
                            None,
                            "integrity: fault detected (statistic "
                            f"{verdict.test_statistic:.1f} > threshold "
                            f"{verdict.threshold:.1f}) and no single-satellite "
                            "exclusion repairs the epoch",
                            verdict,
                            monitor,
                        )
                    )
                    continue
            if (
                block_spoofed
                and monitor is not None
                and monitor.severity == SEVERITY_NAMES[SEVERITY_SPOOFED]
            ):
                tripped = ", ".join(m.monitor for m in monitor.monitors)
                outcomes.append(
                    (
                        "failed",
                        None,
                        None,
                        None,
                        "monitors: epoch confirmed spoofed "
                        f"({tripped}); fix withheld",
                        verdict,
                        monitor,
                    )
                )
                continue
            outcomes.append(
                (
                    "ok",
                    stream.positions[index],
                    float(stream.clock_biases[index]),
                    algorithm,
                    None,
                    verdict,
                    monitor,
                )
            )
        if fde is not None and self._tracker is not None:
            self._tracker.publish()
        return outcomes

    def _resolve_biases(
        self,
        epochs: List[ObservationEpoch],
        overrides: Optional[Sequence[Optional[float]]],
    ) -> Optional[np.ndarray]:
        """Per-request bias overrides, or ``None`` to let the engine's
        stream-level predictor (from the solver config) resolve them."""
        if overrides is None or all(value is None for value in overrides):
            return None
        predictor = self._config.solver.bias_predictor()
        biases = np.empty(len(epochs))
        for index, value in enumerate(overrides):
            if value is not None:
                biases[index] = float(value)
            elif predictor is not None:
                biases[index] = predictor.predict_bias_meters(
                    epochs[index].time
                )
            else:
                biases[index] = 0.0
        return biases

    def _override_array(
        self, packed: PackedStream, biases: np.ndarray
    ) -> np.ndarray:
        """NaN-padded overrides resolved against the config predictor."""
        resolved = np.array(biases, dtype=float)
        missing = ~np.isfinite(resolved)
        if missing.any():
            predictor = self._config.solver.bias_predictor()
            if predictor is None:
                resolved[missing] = 0.0
            else:
                for row in np.flatnonzero(missing):
                    resolved[row] = predictor.predict_bias_meters(
                        packed.block.time(int(row))
                    )
        return resolved

    @staticmethod
    def _packed_accessors(packed: PackedStream):
        """``(prns_for, detail_for)`` over a packed stream's block.

        ``detail_for`` mirrors :func:`~repro.observations.
        epoch_integrity_error` wording via
        :meth:`~repro.blocks.EpochBlock.row_integrity_error` so the
        columnar path reports screened rows identically to the
        epoch-object path.
        """
        block = packed.block
        unpackable = frozenset(packed.unpackable)

        def prns_for(index: int):
            return tuple(block.prns[index, : block.counts[index]].tolist())

        def detail_for(index: int):
            if index in unpackable:
                return None
            return block.row_integrity_error(index)

        return prns_for, detail_for

    def _packed_needs_admission(self, packed: PackedStream) -> bool:
        """Whether any row carries a currently-quarantined satellite."""
        banned = self._tracker.quarantined_prns()
        if not banned:
            return False
        block = packed.block
        banned_array = np.fromiter(banned, dtype=np.int64)
        return bool(
            (np.isin(block.prns, banned_array) & block.occupied).any()
        )

    @staticmethod
    def materialize(
        packed: PackedStream,
    ) -> List[Optional[ObservationEpoch]]:
        """Epoch objects for every packable row, in stream order.

        The inverse boundary crossing, used only off the hot path
        (degradation rungs, admission trims).  Structurally invalid
        rows (the validating constructors reject them) and unpackable
        rows come back ``None``.
        """
        block = packed.block
        unpackable = frozenset(packed.unpackable)
        epochs: List[Optional[ObservationEpoch]] = []
        for row in range(len(block)):
            try:
                epochs.append(None if row in unpackable else block.epoch(row))
            except ReproError:
                epochs.append(None)
        return epochs

    def solve_scalar(
        self,
        epoch: ObservationEpoch,
        bias_override: Optional[float] = None,
    ) -> Outcome:
        """Degradation rungs for one epoch: scalar primary, then NR."""
        detail = epoch_integrity_error(epoch)
        if detail is not None:
            return ("invalid", None, None, None, detail, None, None)
        algorithm = self._config.solver.algorithm
        solver = self._scalar
        if bias_override is not None:
            solver = replace(
                self._config.solver,
                clock_bias_meters=bias_override,
                clock_predictor=None,
            ).build_solver()
        try:
            fix = _finite(solver.solve(epoch))
            return (
                "ok",
                fix.position,
                fix.clock_bias_meters,
                f"{algorithm}/scalar",
                None,
                None,
                None,
            )
        except ReproError as primary_error:
            if self._nr_scalar is None:
                return ("failed", None, None, None, str(primary_error), None, None)
            try:
                fix = _finite(self._nr_scalar.solve(epoch))
            except ReproError as fallback_error:
                return (
                    "failed",
                    None,
                    None,
                    None,
                    f"{algorithm}: {primary_error}; nr fallback: {fallback_error}",
                    None,
                    None,
                )
            return (
                "ok",
                fix.position,
                fix.clock_bias_meters,
                f"{algorithm}/nr-fallback",
                None,
                None,
                None,
            )


def _finite(fix):
    """``fix``, or :class:`~repro.errors.EstimationError` if its
    position is not finite (never served as an answer)."""
    if not np.isfinite(fix.position).all():
        raise EstimationError("the solve produced a non-finite position")
    return fix


def _kernel_counts(packed: PackedStream, stream) -> np.ndarray:
    """Per-row satellite counts of a solved flush, ``-1`` where the
    screen dropped the row before the kernel call."""
    counts = np.array(packed.block.counts)
    diagnostics = stream.diagnostics
    counts[list(diagnostics.invalid_indices + diagnostics.dropped_indices)] = -1
    return counts
