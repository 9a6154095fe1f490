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
admission, the batched solve and the scalar ladder on it.
:meth:`execute` is the epoch-object entry (the asyncio dispatch loop,
the inline router, the chaos runners): it packs the flush with
:func:`~repro.blocks.pack_stream` and delegates, handing
its epochs along so the ladder solves them, screened rows report their
own integrity error and :attr:`BatchMeta.epochs` carries them for the
flight recorder.  The shard worker calls :meth:`execute_packed`
directly on a block viewed out of its slab; epoch objects are rebuilt
from block rows only when the whole flush degrades to the scalar
ladder.

Every flush returns ``(ResultBlock, BatchMeta)``: the
:class:`~repro.service.types.ResultBlock` holds the answers as
struct-of-arrays lanes (status, solver, fix, bias, FDE verdict, error
text, monitor record), filled by masks from the engine's arrays, and
:meth:`~repro.service.types.ResultBlock.results` is the one place they
become :class:`~repro.service.types.ServiceResult`\\ s.  The
cross-process determinism suite holds in-process and shard-worker
answers to bitwise agreement on identical batches.

When the config arms the signal-plausibility plane
(``config.monitors``), every successfully batched solve is also
observed by a :class:`~repro.integrity.monitors.MonitorSuite`:
its :class:`~repro.integrity.monitors.MonitorRecord` rides the block,
confirmed-``spoofed`` epochs are blocked (``status="failed"``) when
``block_spoofed`` is set, and flagged satellites feed the health
tracker as monitor strikes.  The
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
from repro.integrity.fde import STATUS_NAMES as FDE_STATUS_NAMES
from repro.integrity.fde import STATUS_PASSED as FDE_PASSED
from repro.integrity.fde import STATUS_REPAIRED as FDE_REPAIRED
from repro.integrity.fde import STATUS_UNUSABLE as FDE_UNUSABLE
from repro.integrity.health import SatelliteHealthTracker
from repro.integrity.monitors import (
    MonitorRecord,
    MonitorSuite,
    SEVERITY_NAMES,
    SEVERITY_NOMINAL,
    SEVERITY_SPOOFED,
)
from repro.observations import ObservationEpoch, epoch_integrity_error
from repro.service.types import (
    ABSENT,
    SOLVER_BATCH,
    SOLVER_NR_FALLBACK,
    SOLVER_SCALAR,
    STATUS_FAILED,
    STATUS_INVALID,
    STATUS_OK,
    ResultBlock,
)
from repro.telemetry import get_registry

#: The error text of a row the batch screen kept out of the solve
#: when nothing more specific is known.
SCREENED_ERROR = "epoch failed batch screening"


def bias_lane(
    overrides: Optional[Sequence[Optional[float]]],
) -> Optional[np.ndarray]:
    """Per-row clock-bias overrides as a float lane, NaN for "no
    override" (``None`` entries); ``None`` when there are none."""
    if overrides is None:
        return None
    return np.array(
        [np.nan if value is None else value for value in overrides], dtype=float
    )


@dataclass
class BatchMeta:
    """What one batch execution learned beyond the per-request answers.

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
    """Pre-resolved integrity telemetry for one registry."""

    __slots__ = ("registry", "preexclusions", "verdicts", "severities")

    def __init__(self, registry) -> None:
        self.registry = registry
        self.preexclusions = registry.counter(
            "repro_service_integrity_preexclusions_total",
            "Quarantined satellites pre-excluded at admission.",
        ).labels()
        self.verdicts = registry.counter(
            "repro_service_integrity_verdicts_total",
            "FDE verdicts on served epochs.",
            labels=("status",),
        )
        self.severities = registry.counter(
            "repro_service_monitor_verdicts_total",
            "Signal-plausibility verdicts on served epochs.",
            labels=("severity",),
        )


def _count(family, label: str, codes: np.ndarray, names: Sequence[str]) -> None:
    """Add each code's tally in ``codes`` to ``family``, labelled by name."""
    for name, tally in zip(names, np.bincount(codes, minlength=len(names)).tolist()):
        if tally:
            family.labels(**{label: name}).inc(tally)


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

    def _observe_verdicts(self, packed: PackedStream, block: ResultBlock) -> None:
        """Feed one flush's FDE verdicts to telemetry and, row by row
        in stream order, to the health tracker."""
        verdicts = block.verdict
        metrics = self._telemetry()
        if metrics is not None:
            checked = verdicts[verdicts >= 0]
            _count(metrics.verdicts, "status", checked, FDE_STATUS_NAMES)
        tracker = self._tracker
        if tracker is None:
            return
        for prns, count, code, excluded in zip(
            packed.block.prns.tolist(),
            packed.block.counts.tolist(),
            verdicts.tolist(),
            block.excluded_prns.tolist(),
        ):
            if code == FDE_REPAIRED:
                tracker.record_exclusion(excluded)
                tracker.record_clean(prn for prn in prns[:count] if prn != excluded)
            elif code == FDE_PASSED:
                tracker.record_clean(prns[:count])
        tracker.publish()

    # -- execution ----------------------------------------------------

    def execute(
        self,
        epochs: List[ObservationEpoch],
        bias_overrides: Optional[Sequence[Optional[float]]] = None,
    ) -> Tuple[ResultBlock, BatchMeta]:
        """One formed batch of epoch objects through the full ladder.

        ``bias_overrides`` carries per-request clock-bias overrides
        (``None`` entries defer to the config's predictor).  Packs the
        flush into one padded block here, at the request/array
        boundary, and hands it to :meth:`execute_packed` together with
        ``epochs``.  Returns one :class:`ResultBlock` row per epoch, in
        order.
        """
        return self.execute_packed(
            pack_stream(epochs), bias_lane(bias_overrides), epochs
        )

    def execute_packed(
        self,
        packed: PackedStream,
        biases: Optional[np.ndarray] = None,
        epochs: Optional[List[ObservationEpoch]] = None,
    ) -> Tuple[ResultBlock, BatchMeta]:
        """One formed batch of columnar epochs through the full ladder.

        The flush body every transport runs: admission, the batched
        solve (the block's arrays flow straight through the engine,
        the solvers, FDE and the monitor suite), the per-epoch
        scalar→NR ladder when the engine rejects the whole flush, and
        the :class:`ResultBlock` of answers.  ``biases`` uses NaN
        entries for "no override" (a shared-memory array cannot carry
        ``None``).

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
                self._solve_scalar(rows, biases),
                BatchMeta(rung="scalar", epochs=epochs),
            )
        block = self._stream_block(
            stream, packed, epochs, self._observe_monitors(packed, stream)
        )
        return block, BatchMeta(
            rung="batch",
            epochs=epochs,
            stage_seconds=stream.stage_seconds,
            counts=np.where(block.status == STATUS_INVALID, -1, packed.block.counts),
            resolved_biases=stream.clock_biases,
        )

    # -- shared internals ----------------------------------------------

    def _observe_monitors(self, packed, stream) -> Optional[MonitorRecord]:
        """Run the monitor suite over one solved batch, when armed, and
        account for it: telemetry and monitor strikes.

        The suite sees the stream exactly as solved — NaN rows for
        screened/unrepaired epochs included — so its carried state
        depends only on epoch order, never on how the service batched
        the stream (the shard-parity contract).
        """
        if self._monitors is None:
            return None
        record = self._monitors.observe_stream(packed, stream.positions)
        metrics = self._telemetry()
        if metrics is not None:
            _count(metrics.severities, "severity", record.severities, SEVERITY_NAMES)
        if self._tracker is not None:
            # Monitors name satellites only when a per-satellite
            # statistic implicates them (C/N0 monitors); consistent
            # whole-constellation attacks flag nothing and strike
            # nothing — quarantining every satellite would just blind
            # the receiver the attacker is already blinding.
            for index in np.flatnonzero(record.severities == SEVERITY_SPOOFED):
                for key in record.flagged_keys(int(index), SEVERITY_SPOOFED):
                    self._tracker.record_monitor_strike(key >> 2)
        return record

    def _stream_block(self, stream, packed, epochs, monitors=None) -> ResultBlock:
        """One engine result as a :class:`ResultBlock`, filled by masks.

        Screened rows are ``invalid``; an ``unusable`` FDE verdict, or
        a confirmed-``spoofed`` monitor verdict when ``block_spoofed``
        is set, fails its row; every other row is served.  Only the
        rows that carry an error text are visited one by one.
        """
        count = len(stream.positions)
        block = ResultBlock.empty(count)
        status = block.status
        diagnostics = stream.diagnostics
        screened = list(diagnostics.invalid_indices + diagnostics.dropped_indices)
        status[screened] = STATUS_INVALID
        errors = {
            row: _screen_detail(packed, epochs, row) or SCREENED_ERROR
            for row in sorted(screened)
        }
        fde = diagnostics.fde
        if fde is not None:
            verdict = block.verdict
            verdict[:] = fde.statuses
            verdict[screened] = ABSENT
            block.statistics[:] = fde.statistics
            block.thresholds[:] = fde.thresholds
            block.excluded_prns[:] = fde.excluded_prns
            self._observe_verdicts(packed, block)
            unusable = np.flatnonzero(verdict == FDE_UNUSABLE)
            status[unusable] = STATUS_FAILED
            for row in unusable.tolist():
                errors[row] = (
                    "integrity: fault detected (statistic "
                    f"{fde.statistics[row]:.1f} > threshold "
                    f"{fde.thresholds[row]:.1f}) and no single-satellite "
                    "exclusion repairs the epoch"
                )
        if monitors is not None and self._config.monitors.block_spoofed:
            spoofed = np.flatnonzero(
                (status == STATUS_OK) & (monitors.severities == SEVERITY_SPOOFED)
            )
            status[spoofed] = STATUS_FAILED
            for row in spoofed.tolist():
                tripped = ", ".join(
                    name
                    for name, level in zip(
                        monitors.names, monitors.monitor_severities[:, row]
                    )
                    if level != SEVERITY_NOMINAL
                )
                errors[row] = (
                    f"monitors: epoch confirmed spoofed ({tripped}); "
                    "fix withheld"
                )
        ok = status == STATUS_OK
        np.copyto(block.positions, stream.positions, where=ok[:, np.newaxis])
        np.copyto(block.biases, stream.clock_biases, where=ok)
        block.solver[ok] = SOLVER_BATCH
        block = block.with_errors(errors)
        return block if monitors is None else replace(block, monitors=monitors)

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

    def _solve_scalar(
        self,
        rows: Sequence[Optional[ObservationEpoch]],
        biases: Optional[np.ndarray],
    ) -> ResultBlock:
        """Degradation rungs row by row: scalar primary, then NR.

        ``None`` rows (not rebuildable from the block) and rows the
        integrity screen rejects come back ``invalid``.
        """
        algorithm = self._config.solver.algorithm
        block = ResultBlock.empty(len(rows), STATUS_FAILED)
        errors: Dict[int, str] = {}
        for row, epoch in enumerate(rows):
            detail = (
                SCREENED_ERROR if epoch is None else epoch_integrity_error(epoch)
            )
            if detail is not None:
                block.status[row] = STATUS_INVALID
                errors[row] = detail
                continue
            solver = self._scalar
            override = _override(biases, row)
            if override is not None:
                solver = replace(
                    self._config.solver,
                    clock_bias_meters=override,
                    clock_predictor=None,
                ).build_solver()
            try:
                fix, rung = _finite(solver.solve(epoch)), SOLVER_SCALAR
            except ReproError as primary_error:
                if self._nr_scalar is None:
                    errors[row] = str(primary_error)
                    continue
                try:
                    fix = _finite(self._nr_scalar.solve(epoch))
                    rung = SOLVER_NR_FALLBACK
                except ReproError as fallback_error:
                    errors[row] = (
                        f"{algorithm}: {primary_error}; "
                        f"nr fallback: {fallback_error}"
                    )
                    continue
            block.status[row] = STATUS_OK
            block.solver[row] = rung
            block.positions[row] = fix.position
            block.biases[row] = fix.clock_bias_meters
        return block.with_errors(errors)


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
