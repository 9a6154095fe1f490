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

One flush body serves every transport, and it takes one input: the
flush as a padded :class:`~repro.blocks.PackedStream`.
:meth:`execute_packed` runs admission, the batched solve and the
scalar ladder on the block alone; epoch objects stop at
:func:`~repro.blocks.pack_stream`.  :meth:`execute` is the
epoch-object convenience (the asyncio dispatch loop, the inline
router, the chaos runners): it packs the flush and delegates.  The
shard worker calls :meth:`execute_packed` directly on a block viewed
out of its slab.  So a row's answer, error text included, depends on
the request alone, never on which process served it: a screened row
reports :meth:`~repro.blocks.PackedStream.row_integrity_error` (an
unpackable one :data:`~repro.blocks.UNPACKABLE_ERROR`), and the
scalar ladder rebuilds its epochs from the block rows.

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

from repro.blocks import EpochBlock, PackedStream, pack_stream
from repro.engine import PositioningEngine
from repro.errors import EstimationError, ReproError
from repro.integrity.fde import STATUS_NAMES as FDE_STATUS_NAMES
from repro.integrity.fde import STATUS_PASSED as FDE_PASSED
from repro.integrity.fde import STATUS_REPAIRED as FDE_REPAIRED
from repro.integrity.fde import STATUS_UNUSABLE as FDE_UNUSABLE
from repro.integrity.fde import FdeRecord
from repro.integrity.health import CLEAN, UNJUDGED, SatelliteHealthTracker
from repro.integrity.monitors import (
    MonitorRecord,
    MonitorSuite,
    SEVERITY_NAMES,
    SEVERITY_NOMINAL,
    SEVERITY_SPOOFED,
)
from repro.observations import ObservationEpoch
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
    resolved biases without re-deriving anything.  ``block`` is the
    post-admission block the flush was answered from, on every rung:
    the flight recorder captures and digests rows off its lanes.
    ``counts`` holds each flush row's satellite count when the batched
    kernel answered, ``-1`` for rows the screen kept out of it (the
    lineage a trace reports next to the row's flush position).
    """

    rung: str  # "batch" (engine answered) or "scalar" (ladder ran)
    block: EpochBlock
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
    ``config.health`` when the integrity rung is armed.  The executor
    names satellites to it by their ``prn*4+system`` keys
    (:attr:`~repro.blocks.EpochBlock.satellite_keys`), so a fault on
    Galileo E1 never quarantines GPS G1.
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

    def _admit(self, packed: PackedStream) -> PackedStream:
        """Circuit breaker: pre-exclude quarantined satellites.

        One :meth:`~repro.integrity.health.SatelliteHealthTracker.
        admit_block` pass over the block: the tracker ticks once per
        row, in stream order, and its admission floor guarantees a
        trimmed row stays solvable and RAIM-testable.  Only when the
        tracker trims is the block rebuilt: it drops the banned slots
        (:meth:`~repro.blocks.EpochBlock.compact`, so a row the
        validating constructors would reject keeps its place and its
        verdict).
        """
        block = packed.block
        keys = block.satellite_keys
        banned_rows = self._tracker.admit_block(keys, block.counts)
        if not banned_rows:
            return packed
        keep = block.occupied.copy()
        for row, banned in banned_rows.items():
            keep[row] &= ~np.isin(keys[row], banned)
        metrics = self._telemetry()
        if metrics is not None:
            metrics.preexclusions.inc(
                sum(len(banned) for banned in banned_rows.values())
            )
        return replace(packed, block=block.compact(keep))

    def _observe_verdicts(
        self, packed: PackedStream, verdicts: np.ndarray, fde: FdeRecord
    ) -> None:
        """Feed one flush's FDE verdicts to telemetry and, in one
        :meth:`~repro.integrity.health.SatelliteHealthTracker.
        record_block` pass in stream order, to the health tracker (by
        satellite key)."""
        metrics = self._telemetry()
        if metrics is not None:
            checked = verdicts[verdicts >= 0]
            _count(metrics.verdicts, "status", checked, FDE_STATUS_NAMES)
        tracker = self._tracker
        if tracker is None:
            return
        block = packed.block
        excluded = np.where(
            verdicts == FDE_REPAIRED,
            fde.excluded_prns * 4 + fde.excluded_systems,
            np.where(verdicts == FDE_PASSED, CLEAN, UNJUDGED),
        )
        tracker.record_block(block.satellite_keys, block.counts, excluded)
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
        boundary, and hands it to :meth:`execute_packed`.  Returns one
        :class:`ResultBlock` row per epoch, in order.
        """
        return self.execute_packed(pack_stream(epochs), bias_lane(bias_overrides))

    def execute_packed(
        self,
        packed: PackedStream,
        biases: Optional[np.ndarray] = None,
    ) -> Tuple[ResultBlock, BatchMeta]:
        """One formed batch of columnar epochs through the full ladder.

        The flush body every transport runs: admission, the batched
        solve (the block's arrays flow straight through the engine,
        the solvers, FDE and the monitor suite), the per-epoch
        scalar→NR ladder over epochs rebuilt from the block rows when
        the engine rejects the whole flush, and the
        :class:`ResultBlock` of answers.  ``biases`` uses NaN entries
        for "no override" (a shared-memory array cannot carry
        ``None``).
        """
        if self._tracker is not None:
            packed = self._admit(packed)
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
            return (
                self._solve_scalar(packed, biases),
                BatchMeta(rung="scalar", block=packed.block),
            )
        block = self._stream_block(
            stream, packed, self._observe_monitors(packed, stream)
        )
        return block, BatchMeta(
            rung="batch",
            block=packed.block,
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
                    self._tracker.record_monitor_strike(key)
        return record

    def _stream_block(self, stream, packed, monitors=None) -> ResultBlock:
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
        # The engine screens with the block's own contract checks, so
        # every screened row has a text.
        errors = {row: packed.row_integrity_error(row) for row in sorted(screened)}
        fde = diagnostics.fde
        if fde is not None:
            verdict = block.verdict
            verdict[:] = fde.statuses
            verdict[screened] = ABSENT
            block.statistics[:] = fde.statistics
            block.thresholds[:] = fde.thresholds
            block.excluded_prns[:] = fde.excluded_prns
            self._observe_verdicts(packed, verdict, fde)
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
        """NaN-padded overrides resolved against the config predictor.

        An unpackable row has no time to predict at; it is screened out
        of the solve, so its entry stays NaN.
        """
        resolved = np.array(biases, dtype=float)
        missing = ~np.isfinite(resolved)
        if missing.any():
            predictor = self._config.solver.bias_predictor()
            if predictor is None:
                resolved[missing] = 0.0
            else:
                block = packed.block
                missing &= np.isfinite(block.seconds_of_week)
                resolved[missing] = predictor.predict_block(
                    block.weeks[missing], block.seconds_of_week[missing]
                )
        return resolved

    def _solve_scalar(
        self, packed: PackedStream, biases: Optional[np.ndarray]
    ) -> ResultBlock:
        """Degradation rungs row by row: scalar primary, then NR.

        Each row is screened with
        :meth:`~repro.blocks.PackedStream.row_integrity_error` and
        comes back ``invalid`` with its text if it fails; the rest are
        rebuilt from the block (:meth:`~repro.blocks.EpochBlock.epoch`)
        and solved.
        """
        algorithm = self._config.solver.algorithm
        block = ResultBlock.empty(len(packed), STATUS_FAILED)
        errors: Dict[int, str] = {}
        for row in range(len(packed)):
            detail = packed.row_integrity_error(row)
            if detail is None:
                try:
                    epoch = packed.block.epoch(row)
                except ReproError as exc:  # e.g. a slab time GpsTime refuses
                    detail = str(exc)
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


def _override(biases: Optional[np.ndarray], index: int) -> Optional[float]:
    """Row ``index``'s clock-bias override, ``None`` where NaN."""
    if biases is None or not np.isfinite(biases[index]):
        return None
    return float(biases[index])


def _finite(fix):
    """``fix``, or :class:`~repro.errors.EstimationError` if its
    position is not finite (never served as an answer)."""
    if not np.isfinite(fix.position).all():
        raise EstimationError("the solve produced a non-finite position")
    return fix
