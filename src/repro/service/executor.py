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

One flush body serves every transport.  :meth:`execute_packed` takes
the flush as one padded :class:`~repro.blocks.PackedStream` and runs
admission, the batched solve, the scalar ladder and outcome scattering
on it.  :meth:`execute` is the epoch-object entry (the asyncio
dispatch loop, the inline router, the chaos runners): it packs the
flush with :func:`~repro.blocks.pack_stream` and delegates, handing
its epochs along so the ladder solves them, screened rows report their
own integrity error and :attr:`BatchMeta.epochs` carries them for the
flight recorder.  The shard worker calls :meth:`execute_packed`
directly on a block viewed out of its slab; epoch objects are rebuilt
from block rows only when the whole flush degrades to the scalar
ladder.

Every flush returns ``(outcomes, BatchMeta)``, where each outcome is
the tuple
``(status, position, clock_bias, solver, error, verdict, monitor)``
the service tier turns into
:class:`~repro.service.types.ServiceResult`\\ s.  The cross-process
determinism suite holds in-process and shard-worker answers to bitwise
agreement on identical batches.

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

    def _admit(
        self,
        packed: PackedStream,
        epochs: Optional[List[ObservationEpoch]],
    ) -> Tuple[PackedStream, Optional[List[ObservationEpoch]]]:
        """Circuit breaker: pre-exclude quarantined satellites.

        One :meth:`~repro.integrity.health.SatelliteHealthTracker.admit`
        tick per block row, in stream order; the tracker's admission
        floor guarantees a trimmed row stays solvable and RAIM-testable.
        Only when the tracker trims does anything get rebuilt: the
        block drops the banned slots (:meth:`~repro.blocks.EpochBlock.
        compact`, so a row the validating constructors would reject
        keeps its place and its verdict), and the caller's epoch
        objects, when there are any, drop the same observations.
        """
        block = packed.block
        admit = self._tracker.admit
        banned_rows: Dict[int, Tuple[int, ...]] = {}
        for row, (prns, count) in enumerate(
            zip(block.prns.tolist(), block.counts.tolist())
        ):
            banned = admit(prns[:count])
            if banned:
                banned_rows[row] = banned
        if not banned_rows:
            return packed, epochs
        keep = block.occupied.copy()
        for row, banned in banned_rows.items():
            keep[row] &= ~np.isin(block.prns[row], banned)
        if epochs is not None:
            epochs = list(epochs)
            for row, banned in banned_rows.items():
                epochs[row] = _without(epochs[row], banned)
        metrics = self._telemetry()
        if metrics is not None:
            metrics.preexclusions.inc(
                sum(len(banned) for banned in banned_rows.values())
            )
        return replace(packed, block=block.compact(keep)), epochs

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

    # -- execution ----------------------------------------------------

    def execute(
        self,
        epochs: List[ObservationEpoch],
        bias_overrides: Optional[Sequence[Optional[float]]] = None,
    ) -> Tuple[List[Outcome], BatchMeta]:
        """One formed batch of epoch objects through the full ladder.

        ``bias_overrides`` carries per-request clock-bias overrides
        (``None`` entries defer to the config's predictor).  Packs the
        flush into one padded block here, at the request/array
        boundary, and hands it to :meth:`execute_packed` together with
        ``epochs``.  Returns one :data:`Outcome` per epoch, in order.
        """
        biases = None
        if bias_overrides is not None:
            biases = np.array(
                [np.nan if value is None else value for value in bias_overrides],
                dtype=float,
            )
        return self.execute_packed(pack_stream(epochs), biases, epochs)

    def execute_packed(
        self,
        packed: PackedStream,
        biases: Optional[np.ndarray] = None,
        epochs: Optional[List[ObservationEpoch]] = None,
    ) -> Tuple[List[Outcome], BatchMeta]:
        """One formed batch of columnar epochs through the full ladder.

        The flush body every transport runs: admission, the batched
        solve (the block's arrays flow straight through the engine,
        the solvers, FDE and the monitor suite), the per-epoch
        scalar→NR ladder when the engine rejects the whole flush, and
        outcome scattering.  ``biases`` uses NaN entries for "no
        override" (a shared-memory array cannot carry ``None``).

        ``epochs``, when the caller holds the flush as epoch objects,
        are the objects ``packed`` was packed from: the ladder solves
        them, screened rows report their
        :func:`~repro.observations.epoch_integrity_error`, and
        :attr:`BatchMeta.epochs` carries them post-admission.  Without
        them (the shard worker) the ladder rebuilds epochs from the
        block rows and screened rows report
        :meth:`~repro.blocks.EpochBlock.row_integrity_error`.
        """
        if self._tracker is not None:
            packed, epochs = self._admit(packed, epochs)
        stream_biases = None
        if biases is not None:
            biases = np.asarray(biases, dtype=float)
            if np.isfinite(biases).any():
                stream_biases = self._override_array(packed, biases)
        try:
            stream = self._engine.solve_stream(
                packed, stream_biases, on_undersized="drop"
            )
        except ReproError:
            # Rung 2/3: the batched solve rejects the whole flush, so
            # one poisoned epoch fails its batchmates here.  Re-solve
            # per-epoch so every request gets its own verdict.
            rows = epochs if epochs is not None else self.materialize(packed)
            return (
                [
                    self.solve_scalar(epoch, _override(biases, index))
                    if epoch is not None
                    else _screened(None, None)
                    for index, epoch in enumerate(rows)
                ],
                BatchMeta(rung="scalar", epochs=epochs),
            )
        outcomes = self._stream_outcomes(
            stream, packed, epochs, self._observe_monitors(packed, stream)
        )
        return outcomes, BatchMeta(
            rung="batch",
            epochs=epochs,
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

    def _stream_outcomes(self, stream, packed, epochs, monitors=None):
        """Scatter one engine result into per-request outcomes."""
        algorithm = self._engine.algorithm
        fde = stream.diagnostics.fde
        if fde is not None:
            row_prns = packed.block.prns.tolist()
            row_counts = packed.block.counts.tolist()
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
                outcomes.append(
                    _screened(_screen_detail(packed, epochs, index), monitor)
                )
                continue
            verdict = None
            if fde is not None:
                verdict = fde.verdict(index)
                self._observe_verdict(
                    row_prns[index][: row_counts[index]], verdict
                )
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
    def materialize(
        packed: PackedStream,
    ) -> List[Optional[ObservationEpoch]]:
        """Epoch objects for every packable row, in stream order.

        The inverse boundary crossing, used only off the hot path (the
        shard worker's degradation rungs).  Structurally invalid rows
        (the validating constructors reject them) and unpackable rows
        come back ``None``.
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
            return _screened(detail, None)
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


def _screened(detail: Optional[str], monitor) -> Outcome:
    """The ``invalid`` outcome of a row the screen keeps out of the solve."""
    return (
        "invalid",
        None,
        None,
        None,
        detail or "epoch failed batch screening",
        None,
        monitor,
    )


def _screen_detail(
    packed: PackedStream,
    epochs: Optional[List[ObservationEpoch]],
    index: int,
) -> Optional[str]:
    """Why row ``index`` failed the batch screen: the caller's epoch's
    integrity error when there are epochs, else the block row's."""
    if epochs is not None:
        return epoch_integrity_error(epochs[index])
    if index in packed.unpackable:
        return None
    return packed.block.row_integrity_error(index)


def _override(biases: Optional[np.ndarray], index: int) -> Optional[float]:
    """Row ``index``'s clock-bias override, ``None`` where NaN."""
    if biases is None or not np.isfinite(biases[index]):
        return None
    return float(biases[index])


def _without(
    epoch: ObservationEpoch, banned: Sequence[int]
) -> ObservationEpoch:
    """``epoch`` less the ``banned`` satellites.

    An epoch the validating constructor rejects (duplicate PRNs) is
    returned whole: the screen reports it invalid either way.
    """
    try:
        return epoch.with_observations(
            obs for obs in epoch.observations if obs.prn not in banned
        )
    except ReproError:
        return epoch


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
