"""The throughput pipeline: mixed stream in, vectorized fixes out.

:class:`PositioningEngine` is the bulk counterpart of
:class:`~repro.core.receiver.GpsReceiver`: where the receiver answers
one epoch at a time with full adaptive machinery (warm-up, residual
gates, fallbacks), the engine answers a whole stream at once with the
stacked-tensor solvers — the shape a post-processing service or a
high-rate tracking backend actually runs.  The stream may mix
satellite counts and constellation patterns freely; the engine packs
it **once** into one padded :class:`~repro.blocks.EpochBlock`
(:func:`~repro.blocks.pack_stream`), screens validity with vectorized
reductions, and answers it with **one** kernel call in which padded
slots carry zero weight.  Results come back in stream order by
construction: row ``i`` of the block is stream epoch ``i``.

Callers that already hold columnar data — the service's micro-batch
flush, a shard worker's slab view, a decoder that fills blocks
directly — can pass an :class:`~repro.blocks.EpochBlock` or
:class:`~repro.blocks.PackedStream` instead of epoch objects and skip
the packing stage entirely; the solve path is byte-for-byte the same
from there.

Every ``solve_stream`` call is instrumented (stream/kernel spans,
kernel-size and coverage metrics) through :mod:`repro.telemetry` —
free when telemetry is not installed — and returns an
:class:`EngineDiagnostics` record of what happened to every epoch,
plus a per-stage wall-time split (``result.stage_seconds``) so perf
work can see where a stream's time actually went.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.blocks import EpochBlock, PackedStream, pack_stream
from repro.clocks.prediction import ClockBiasPredictor
from repro.solvers.batch import (
    BatchDLGSolver,
    BatchDLOSolver,
    BatchNewtonRaphsonSolver,
)
from repro.errors import ConfigurationError, EstimationError, GeometryError
from repro.integrity.fde import BatchFde, FdeConfig, FdeRecord
from repro.observations import ObservationEpoch
from repro.telemetry import get_registry, get_tracer

_log = logging.getLogger(__name__)

#: Kernel-size histogram buckets (rows per kernel call).
_BUCKET_SIZE_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 5000)

#: What solve_stream accepts: epoch objects (packed internally, once),
#: or already-columnar input that skips the packing stage.
StreamLike = Union[Sequence[ObservationEpoch], EpochBlock, PackedStream]


@dataclass(frozen=True)
class EngineDiagnostics:
    """What happened to every epoch of one :meth:`solve_stream` call.

    Attributes
    ----------
    epochs_dropped:
        Epochs excluded from solving (undersized, with
        ``on_undersized="drop"``); their result rows are NaN.
    dropped_indices:
        Stream indices of the dropped epochs.
    epochs_invalid:
        Structurally invalid epochs (duplicate PRNs, non-finite
        measurements) excluded under ``on_undersized="drop"``; their
        result rows are NaN.
    invalid_indices:
        Stream indices of the invalid epochs.
    fde:
        Per-epoch integrity verdicts
        (:class:`~repro.integrity.fde.FdeRecord`, stream-ordered) when
        the engine runs with FDE enabled, else ``None``.  Epochs the
        stream dropped as invalid/undersized appear as ``unchecked``.
    """

    epochs_dropped: int = 0
    dropped_indices: Tuple[int, ...] = ()
    epochs_invalid: int = 0
    invalid_indices: Tuple[int, ...] = ()
    fde: Optional[FdeRecord] = None

    def to_dict(self) -> Dict:
        """JSON-ready form, used by the telemetry snapshot exporters."""
        return {
            "epochs_dropped": self.epochs_dropped,
            "dropped_indices": list(self.dropped_indices),
            "epochs_invalid": self.epochs_invalid,
            "invalid_indices": list(self.invalid_indices),
            "fde": self.fde.to_dict() if self.fde is not None else None,
        }


@dataclass(frozen=True)
class EngineResult:
    """Results of one :meth:`PositioningEngine.solve_stream` call.

    Attributes
    ----------
    positions:
        ``(N, 3)`` receiver positions, row ``i`` answering stream
        epoch ``i`` (NaN rows for dropped epochs).
    clock_biases:
        ``(N,)`` receiver clock biases in meters: the *predicted*
        biases for DLO/DLG (which consume them), the *solved* biases
        for NR (which estimates them).  In per-constellation mode this
        is each epoch's first constellation's solved bias (matching
        :attr:`~repro.core.types.PositionFix.clock_bias_meters`); the
        full picture is ``constellation_biases``.
    algorithm:
        Which batched solver produced the fixes.
    constellation_biases:
        Per-constellation solved clock biases, ``{system_code: (N,)
        array}``, NaN where an epoch did not observe that system (or
        was dropped).  ``None`` outside per-constellation mode.
    diagnostics:
        Failure/drop accounting for the call
        (:class:`EngineDiagnostics`).
    stage_seconds:
        Wall-time split of the call: ``pack`` (object→columnar
        conversion; ~0 when the caller passed columnar input),
        ``validate`` (vectorized integrity screening), ``solve`` (the
        kernel call), ``fde`` (integrity gate, 0 when disabled), and
        ``scatter`` (NaN-filling rows the screen dropped; ~0 when every
        row solved).
    """

    positions: np.ndarray
    clock_biases: np.ndarray
    algorithm: str
    diagnostics: EngineDiagnostics = field(default_factory=EngineDiagnostics)
    stage_seconds: Optional[Dict[str, float]] = None
    constellation_biases: Optional[Dict[str, np.ndarray]] = None

    def __len__(self) -> int:
        return self.positions.shape[0]


class _EngineMetrics:
    """Bound metric children for one (registry, algorithm) pair.

    ``solve_stream`` publishes stream- and kernel-level metrics on
    every flush of the serving path; resolving the name -> family ->
    child chain each time costs more than the updates themselves, so
    the children are bound once per installed registry.
    """

    __slots__ = (
        "bucket_size",
        "bucket_ok",
        "bucket_failed",
        "streams",
        "epochs",
        "dropped",
        "invalid",
        "coverage",
    )

    def __init__(self, registry, algorithm: str) -> None:
        self.bucket_size = registry.histogram(
            "repro_engine_bucket_size",
            "Rows per kernel call.",
            buckets=_BUCKET_SIZE_BUCKETS,
        ).labels()
        solves = registry.counter(
            "repro_engine_bucket_solves_total",
            "Kernel calls by outcome.",
            labels=("algorithm", "status"),
        )
        self.bucket_ok = solves.labels(algorithm=algorithm, status="ok")
        self.bucket_failed = solves.labels(algorithm=algorithm, status="failed")
        self.streams = registry.counter(
            "repro_engine_streams_total",
            "solve_stream calls.",
            labels=("algorithm",),
        ).labels(algorithm=algorithm)
        self.epochs = registry.counter(
            "repro_engine_epochs_total",
            "Epochs submitted to solve_stream.",
            labels=("algorithm",),
        ).labels(algorithm=algorithm)
        self.dropped = registry.counter(
            "repro_engine_epochs_dropped_total",
            "Undersized epochs dropped from streams.",
        ).labels()
        self.invalid = registry.counter(
            "repro_engine_epochs_invalid_total",
            "Structurally invalid epochs dropped from streams.",
        ).labels()
        self.coverage = registry.gauge(
            "repro_engine_scatter_coverage",
            "Fraction of the last stream answered with a solve.",
        ).labels()


class PositioningEngine:
    """One-kernel-call dispatcher around the stacked solvers.

    Parameters
    ----------
    algorithm:
        ``"dlo"``, ``"dlg"`` (closed-form, need clock biases) or
        ``"nr"`` (iterative baseline, solves its own bias).
    clock_predictor:
        Bias source for DLO/DLG when :meth:`solve_stream` is not given
        explicit biases — typically a warmed-up
        :class:`~repro.clocks.prediction.LinearClockBiasPredictor`.
        Unused by NR.
    nr_solver:
        Optional pre-configured batched NR (tolerances, warm start).
    fde_config:
        When set, every DLG solve is screened by
        :class:`~repro.integrity.fde.BatchFde` — flagged epochs are
        repaired in-batch by leave-one-out exclusion and the per-epoch
        verdicts land on ``result.diagnostics.fde``.  Requires
        ``algorithm="dlg"``: only the GLS whitened residual norm is
        chi-square scaled.
    constellations:
        ``"single"`` (one receiver clock bias) or
        ``"per_constellation"`` (one solved bias per system present).
    """

    def __init__(
        self,
        algorithm: str = "dlg",
        clock_predictor: Optional[ClockBiasPredictor] = None,
        nr_solver: Optional[BatchNewtonRaphsonSolver] = None,
        fde_config: Optional[FdeConfig] = None,
        constellations: str = "single",
    ) -> None:
        algorithm = algorithm.lower()
        if algorithm not in ("dlo", "dlg", "nr"):
            raise ConfigurationError(
                f"algorithm must be one of dlo/dlg/nr, got {algorithm!r}"
            )
        if constellations not in ("single", "per_constellation"):
            raise ConfigurationError(
                "constellations must be 'single' or 'per_constellation', "
                f"got {constellations!r}"
            )
        if fde_config is not None and algorithm != "dlg":
            raise ConfigurationError(
                "FDE needs chi-square-scaled residuals, which only the "
                f"DLG whitened norm provides; got algorithm={algorithm!r}"
            )
        if constellations == "per_constellation":
            if clock_predictor is not None:
                raise ConfigurationError(
                    "per-constellation mode estimates the clock biases; "
                    "a clock predictor cannot be combined with it"
                )
            if (
                nr_solver is not None
                and nr_solver.constellations != "per_constellation"
            ):
                raise ConfigurationError(
                    "nr_solver must be configured with "
                    "constellations='per_constellation' to match the engine"
                )
        self._algorithm = algorithm
        self._constellations = constellations
        self._predictor = clock_predictor
        self._nr = (
            nr_solver
            if nr_solver is not None
            else BatchNewtonRaphsonSolver(constellations=constellations)
        )
        self._dlo = BatchDLOSolver(constellations=constellations)
        self._dlg = BatchDLGSolver(constellations=constellations)
        self._fde = BatchFde(fde_config) if fde_config is not None else None
        # Per-registry cached metric children: solve_stream publishes a
        # handful of counters per flush, and the name->family->child
        # lookups are measurable at serving flush rates (invalidated
        # when the installed registry changes).
        self._metrics_registry = None
        self._metrics: Optional[_EngineMetrics] = None

    def _engine_metrics(self, registry) -> "_EngineMetrics":
        if registry is not self._metrics_registry:
            self._metrics = _EngineMetrics(registry, self._algorithm)
            self._metrics_registry = registry
        return self._metrics

    @classmethod
    def from_config(
        cls, config, fde_config: Optional[FdeConfig] = None
    ) -> "PositioningEngine":
        """An engine for a :class:`repro.api.SolverConfig`.

        The config's bias source (fixed bias or live predictor) becomes
        the stream-level predictor; its NR tuning parameterizes the
        batched NR used either as the primary algorithm or by callers
        building degradation ladders (the async service).  Bancroft has
        no batch path and is rejected by the config itself.
        ``fde_config`` optionally arms the integrity gate (DLG only).
        """
        return cls(
            algorithm=config.algorithm,
            clock_predictor=config.bias_predictor(),
            nr_solver=config.nr_fallback().build_batch_solver(),
            fde_config=fde_config,
            constellations=getattr(config, "constellations", "single"),
        )

    @property
    def algorithm(self) -> str:
        """The configured algorithm name."""
        return self._algorithm

    @property
    def constellations(self) -> str:
        """The configured constellation policy."""
        return self._constellations

    @property
    def fde_enabled(self) -> bool:
        """Whether solves run through the batch FDE gate."""
        return self._fde is not None

    # -- the kernel call -----------------------------------------------
    def _block_biases(
        self, block: EpochBlock, biases: Optional[np.ndarray]
    ) -> np.ndarray:
        if biases is not None:
            return biases
        if self._predictor is not None:
            return self._predictor.predict_block(block.weeks, block.seconds_of_week)
        return np.zeros(len(block))

    def _solve_block(
        self, block: EpochBlock, biases: Optional[np.ndarray], rows: np.ndarray
    ):
        """The whole (screened) flush through one batched solve.

        ``rows`` maps block rows to stream indices (for messages).
        Returns ``(positions, clock_biases, fde_record-or-None,
        solve_seconds, fde_seconds, multi-or-None)`` where ``multi`` is
        the per-constellation ``((N, K) biases, systems)`` pair in
        per-constellation mode.
        """
        started = perf_counter()
        multi_mode = self._constellations == "per_constellation"
        if self._algorithm == "nr":
            record = self._nr.solve_block_full(block)
            if not np.all(record.converged):
                stuck = [int(rows[i]) for i in np.flatnonzero(~record.converged)]
                raise GeometryError(
                    f"NR failed to converge for stream epochs {stuck}"
                )
            multi = (
                (record.constellation_biases, record.systems) if multi_mode else None
            )
            return (
                record.positions,
                record.clock_biases,
                None,
                perf_counter() - started,
                0.0,
                multi,
            )
        if multi_mode:
            solver = self._dlo if self._algorithm == "dlo" else self._dlg
            result = solver.solve_block_multi(block)
            solve_seconds = perf_counter() - started
            fde_record, fde_seconds = None, 0.0
            if self._fde is not None:
                started = perf_counter()
                # screen_multi repairs flagged rows of the result's
                # positions *and* biases in place.
                fde_record = self._fde.screen_multi(block, result)
                fde_seconds = perf_counter() - started
            return (
                result.positions,
                result.primary_biases,
                fde_record,
                solve_seconds,
                fde_seconds,
                (result.constellation_biases, result.systems),
            )
        biases = self._block_biases(block, biases)
        if self._fde is None:
            solver = self._dlo if self._algorithm == "dlo" else self._dlg
            solutions = solver.solve_block(block, biases)
            return solutions, biases, None, perf_counter() - started, 0.0, None
        solutions, norms, corrected = self._dlg.solve_block_full(block, biases)
        solve_seconds = perf_counter() - started
        started = perf_counter()
        # screen() reuses the solve's own whitened norms and corrected
        # pseudoranges — no repacking, no re-solve — and repairs
        # flagged rows of `solutions` in place.
        fde_record = self._fde.screen(block, corrected, solutions, norms)
        return (
            solutions,
            biases,
            fde_record,
            solve_seconds,
            perf_counter() - started,
            None,
        )

    # -- stream solving ------------------------------------------------
    def solve_stream(
        self,
        epochs: StreamLike,
        biases: Optional[Sequence[float]] = None,
        on_undersized: str = "raise",
    ) -> EngineResult:
        """Solve an arbitrary mixed-count epoch stream in one call.

        Parameters
        ----------
        epochs:
            The stream, in any satellite-count and constellation mix: a
            sequence of :class:`~repro.observations.ObservationEpoch`
            (packed into columnar form internally, once), or an
            already-columnar :class:`~repro.blocks.EpochBlock` /
            :class:`~repro.blocks.PackedStream` that enters the solve
            path zero-copy.  Every epoch needs at least 4 satellites.
        biases:
            Optional explicit per-epoch clock biases (meters) for
            DLO/DLG; defaults to the configured predictor, or zero for
            already clock-free pseudoranges.  Ignored by NR.
        on_undersized:
            ``"raise"`` (default) rejects a stream containing epochs
            with fewer than 4 satellites — or structurally invalid
            ones (duplicate PRNs, non-finite measurements, per
            :func:`~repro.observations.epoch_integrity_error`);
            ``"drop"`` solves everything else, answers the offending
            epochs with NaN rows, and accounts for them in
            ``result.diagnostics``.

        Results come back aligned with the input: row ``i`` of
        ``positions`` answers stream epoch ``i``.  A degenerate row
        fails the whole kernel call (``EstimationError`` /
        ``GeometryError``), so callers can fall back per epoch.
        """
        if on_undersized not in ("raise", "drop"):
            raise ConfigurationError(
                f"on_undersized must be 'raise' or 'drop', got {on_undersized!r}"
            )
        stage_started = perf_counter()
        if isinstance(epochs, PackedStream):
            packed = epochs
        elif isinstance(epochs, EpochBlock):
            packed = PackedStream(epochs)
        else:
            packed = pack_stream(epochs)
        block = packed.block
        total = len(block)
        if total == 0:
            raise GeometryError("solve_stream needs at least one epoch")
        pack_seconds = perf_counter() - stage_started

        # Structural integrity: one vectorized screen of the whole
        # block (min_satellites=1 — sized epochs are handled through
        # the undersized path below, with the same raise/drop policy;
        # unpackable rows are empty, hence invalid).
        stage_started = perf_counter()
        valid = block.validity_mask(min_satellites=1)
        invalid_indices = (
            () if valid.all() else tuple(np.flatnonzero(~valid).tolist())
        )
        if invalid_indices and on_undersized == "raise":
            first = invalid_indices[0]
            raise GeometryError(
                f"stream contains {len(invalid_indices)} structurally invalid "
                f"epoch(s) (first at index {first}: "
                f"{packed.row_integrity_error(first, min_satellites=1)}); "
                f"filter or repair them before solving"
            )
        if invalid_indices:
            _log.warning(
                "dropping %d structurally invalid epochs from a %d-epoch stream",
                len(invalid_indices),
                total,
            )
        stream_biases: Optional[np.ndarray] = None
        if biases is not None:
            if self._constellations == "per_constellation":
                raise ConfigurationError(
                    "per-constellation mode estimates the clock biases; "
                    "explicit per-epoch biases cannot be passed"
                )
            stream_biases = np.asarray(biases, dtype=float)
            if stream_biases.shape != (total,):
                raise ConfigurationError(
                    f"biases must be one per epoch: expected ({total},), "
                    f"got {stream_biases.shape}"
                )
        undersized = valid & (block.counts < 4)
        dropped_indices = (
            tuple(np.flatnonzero(undersized).tolist()) if undersized.any() else ()
        )
        if dropped_indices and on_undersized == "raise":
            raise GeometryError(
                f"stream contains epochs with fewer than 4 satellites "
                f"(counts {sorted(set(block.counts[undersized].tolist()))}); "
                f"filter or augment them before solving"
            )
        if dropped_indices:
            _log.warning(
                "dropping %d undersized epochs from a %d-epoch stream",
                len(dropped_indices),
                total,
            )
        complete = not (invalid_indices or dropped_indices)
        rows = np.arange(total)
        if not complete:
            rows = np.flatnonzero(valid & ~undersized)
            if not rows.size:
                raise GeometryError(
                    "every epoch in the stream has fewer than 4 satellites"
                )
            block = block.take(rows)
            if stream_biases is not None:
                stream_biases = stream_biases[rows]
        validate_seconds = perf_counter() - stage_started

        registry = get_registry()
        tracer = get_tracer()
        metrics = self._engine_metrics(registry) if registry.enabled else None
        with tracer.span(
            "engine.solve_stream", algorithm=self._algorithm, epochs=total
        ):
            with tracer.span(
                "engine.solve_block",
                rows=len(block),
                width=block.width,
                algorithm=self._algorithm,
            ):
                try:
                    (
                        positions,
                        clock_biases,
                        fde_record,
                        solve_seconds,
                        fde_seconds,
                        multi_info,
                    ) = self._solve_block(block, stream_biases, rows)
                    if not np.isfinite(positions).all():
                        # Finite inputs can still overflow the normal
                        # equations; a non-finite fix is never served.
                        raise EstimationError(
                            "a batch epoch produced a non-finite fix; solve "
                            "epochs individually to identify it"
                        )
                except (GeometryError, EstimationError):
                    if metrics is not None:
                        metrics.bucket_size.observe(len(block))
                        metrics.bucket_failed.inc()
                    raise
            if metrics is not None:
                metrics.bucket_size.observe(len(block))
                metrics.bucket_ok.inc()

            stage_started = perf_counter()
            constellation_biases: Optional[Dict[str, np.ndarray]] = None
            if multi_info is not None:
                bias_matrix, systems = multi_info
                constellation_biases = {
                    code: self._spread(bias_matrix[:, j], rows, total, complete)
                    for j, code in enumerate(systems)
                }
            positions = self._spread(positions, rows, total, complete)
            clock_biases = self._spread(clock_biases, rows, total, complete)
            if fde_record is not None and not complete:
                fde_record = FdeRecord.scatter([(rows, fde_record)], total)
            scatter_seconds = perf_counter() - stage_started

        diagnostics = EngineDiagnostics(
            epochs_dropped=len(dropped_indices),
            dropped_indices=dropped_indices,
            epochs_invalid=len(invalid_indices),
            invalid_indices=invalid_indices,
            fde=fde_record,
        )
        self._dlg.workspace.flush_telemetry()
        if metrics is not None:
            metrics.streams.inc()
            metrics.epochs.inc(total)
            if dropped_indices:
                metrics.dropped.inc(len(dropped_indices))
            if invalid_indices:
                metrics.invalid.inc(len(invalid_indices))
            metrics.coverage.set(
                1.0
                - (len(dropped_indices) + len(invalid_indices)) / total
            )
        return EngineResult(
            positions=positions,
            clock_biases=clock_biases,
            algorithm=self._algorithm,
            diagnostics=diagnostics,
            stage_seconds={
                "pack": pack_seconds,
                "validate": validate_seconds,
                "solve": solve_seconds,
                "fde": fde_seconds,
                "scatter": scatter_seconds,
            },
            constellation_biases=constellation_biases,
        )

    @staticmethod
    def _spread(
        values: np.ndarray, rows: np.ndarray, total: int, complete: bool
    ) -> np.ndarray:
        """Solved-row values as a stream-length array, NaN elsewhere."""
        if complete:
            return values
        spread = np.full((total,) + values.shape[1:], np.nan)
        spread[rows] = values
        return spread
