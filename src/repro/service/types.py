"""Value types for the async positioning service.

:class:`ServiceConfig` is the service's entire tuning surface — the
solver it serves (as a :class:`repro.api.SolverConfig`), the
micro-batching window, and the backpressure limits — frozen so a
running service can never be reconfigured under its worker's feet.
:class:`ServiceResult` is the structured per-request answer: every
request gets exactly one, whatever happened to it; failure is a
*status*, never an exception escaping the batch.
:class:`ResultBlock` is one flush's answers as struct-of-arrays lanes,
the only form they take between the executor and the
:class:`ServiceResult`\\ s built from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import BATCH_ALGORITHMS, SolverConfig
from repro.core.selection import HighestElevationSelector
from repro.errors import ConfigurationError
from repro.integrity.fde import STATUS_NAMES as VERDICT_NAMES
from repro.integrity.fde import STATUS_REPAIRED as VERDICT_REPAIRED
from repro.integrity.fde import STATUS_UNUSABLE as VERDICT_UNUSABLE
from repro.integrity.fde import EpochVerdict, FdeConfig
from repro.integrity.health import HealthConfig
from repro.integrity.monitors import (
    SEVERITY_NOMINAL,
    EpochMonitorVerdict,
    MonitorConfig,
    MonitorRecord,
)
from repro.telemetry.recorder import (
    TRIGGER_DEADLINE_MISS,
    TRIGGER_DEGRADED,
    TRIGGER_FDE_EXCLUSION,
    TRIGGER_FDE_UNREPAIRED,
    TRIGGER_MONITOR,
    TRIGGERS,
    RecorderConfig,
)
from repro.telemetry.slo import SloConfig
from repro.telemetry.trace import FlushTrace, RequestTrace

#: Every status a :class:`ServiceResult` can carry.
RESULT_STATUSES: Tuple[str, ...] = (
    "ok",  # solved; position/clock_bias/solver are set
    "invalid",  # the epoch failed integrity screening (never solved)
    "failed",  # solver(s) rejected the epoch (degradation exhausted)
    "timeout",  # the request's deadline expired (possibly mid-batch)
    "rejected",  # backpressure: queue full at admission, retry later
    "cancelled",  # the submitting task was cancelled while queued
    "retryable",  # a shard worker died mid-batch; safe to resubmit
)


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning for one :class:`~repro.service.PositioningService`.

    Attributes
    ----------
    solver:
        Which solver the service runs, as a facade
        :class:`~repro.api.SolverConfig`.  Must name a batchable
        algorithm (``nr``/``dlo``/``dlg``) — micro-batching *is* the
        service — and read no satellite elevations: flushes are
        answered from packed blocks, which carry none, so
        ``elevation_weighted`` and a
        :class:`~repro.core.selection.HighestElevationSelector` base
        are refused.
    max_batch_size:
        Flush the aggregator as soon as this many requests are pending.
    max_wait_seconds:
        Flush no later than this long after the *oldest* pending
        request arrived — the latency a lone request pays to give
        followers a chance to coalesce with it.
    max_queue_depth:
        Admission limit.  A request arriving with this many already
        pending is rejected with ``status="rejected"`` and
        :attr:`retry_after_seconds` instead of growing the queue
        without bound.
    default_timeout_seconds:
        Per-request deadline when ``submit()`` is not given one;
        ``None`` means requests wait as long as dispatch takes.
    nr_fallback:
        Degrade to Newton-Raphson (tuned by ``solver``'s NR knobs) when
        the primary closed-form path rejects an epoch, instead of
        failing the request outright.  Ignored when the primary *is*
        NR.
    retry_after_seconds:
        Backoff hint attached to rejected results.
    integrity:
        When set (an :class:`~repro.integrity.fde.FdeConfig`), every
        batched solve runs through the FDE rung: faults are detected,
        the faulty satellite is excluded and the epoch re-solved
        *within the batch*, and each result carries a structured
        verdict.  Epochs a detected fault leaves unrepaired come back
        ``status="failed"`` rather than serving a known-bad fix.
        Requires ``solver.algorithm="dlg"`` (the only batch path with
        chi-square-scaled residuals).
    health:
        Tuning for the integrity circuit breaker
        (:class:`~repro.integrity.health.SatelliteHealthTracker`):
        satellites excluded repeatedly get quarantined and are
        pre-excluded from incoming epochs before any solving.  Only
        meaningful with ``integrity`` set; ``None`` uses the tracker's
        defaults.
    trace:
        Arm the per-request trace plane: every flush reserves one
        request id per request and writes one
        :class:`~repro.telemetry.trace.FlushTrace`, and each result
        carries a :class:`~repro.telemetry.trace.RequestTrace` view of
        it (span tree with per-stage timings, batch lineage).  **Off by
        default** and zero-cost when off (no ids, no records —
        the traced-off overhead gate in ``bench_service.py`` holds
        the service to the same ≤5% budget as plain telemetry).
    recorder:
        Arm the anomaly flight recorder with this
        :class:`~repro.telemetry.recorder.RecorderConfig`: the service
        retains its last ``capacity`` fixes, one ring entry per flush,
        and dumps replayable incident artifacts on FDE
        exclusions/unrepaired faults, degradation-ladder fallbacks,
        deadline misses and monitor alerts.  ``None`` (default) records
        nothing.
    slo:
        Arm the SLO engine with this
        :class:`~repro.telemetry.slo.SloConfig`: windowed latency
        quantiles, availability, and error-budget tracking over every
        finished request, published at scrape time.  ``None``
        (default) tracks nothing.
    monitors:
        Arm the signal-plausibility plane with this
        :class:`~repro.integrity.monitors.MonitorConfig`: streaming
        C/N0, clock-drift, and stationarity monitors watch every
        solved batch and their per-epoch verdicts ride the results.
        Confirmed-``spoofed`` epochs come back ``status="failed"``
        when ``monitors.block_spoofed`` (the default) instead of
        serving a fix the monitors call hostile; ``suspect`` epochs
        are served but tagged.  Orthogonal to ``integrity`` — FDE
        checks residual consistency, monitors check signal
        plausibility — but when both are armed, monitor-flagged
        satellites feed the same health tracker.  ``None`` (default)
        runs no monitors.
    """

    solver: SolverConfig = field(default_factory=SolverConfig)
    max_batch_size: int = 64
    max_wait_seconds: float = 0.002
    max_queue_depth: int = 1024
    default_timeout_seconds: Optional[float] = None
    nr_fallback: bool = True
    retry_after_seconds: float = 0.05
    integrity: Optional[FdeConfig] = None
    health: Optional[HealthConfig] = None
    trace: bool = False
    recorder: Optional[RecorderConfig] = None
    slo: Optional[SloConfig] = None
    monitors: Optional[MonitorConfig] = None

    def __post_init__(self) -> None:
        if self.solver.algorithm not in BATCH_ALGORITHMS:
            raise ConfigurationError(
                f"service solver must be batchable ({'/'.join(BATCH_ALGORITHMS)}), "
                f"got {self.solver.algorithm!r}"
            )
        if self.integrity is not None and self.solver.algorithm != "dlg":
            raise ConfigurationError(
                "the integrity rung needs chi-square-scaled residuals, which "
                f"only DLG provides; got solver.algorithm={self.solver.algorithm!r}"
            )
        if self.solver.elevation_weighted or isinstance(
            self.solver.base_selector, HighestElevationSelector
        ):
            raise ConfigurationError(
                "the service answers from packed blocks, which carry no "
                "satellite elevations; drop elevation_weighted and the "
                "HighestElevationSelector base"
            )
        if self.health is not None and self.integrity is None and self.monitors is None:
            raise ConfigurationError(
                "health tracking is driven by integrity verdicts and monitor "
                "strikes; set integrity=FdeConfig(...) or monitors="
                "MonitorConfig(...) alongside health"
            )
        if self.max_batch_size < 1:
            raise ConfigurationError("max_batch_size must be >= 1")
        if self.max_wait_seconds < 0.0:
            raise ConfigurationError("max_wait_seconds must be >= 0")
        if self.max_queue_depth < 1:
            raise ConfigurationError("max_queue_depth must be >= 1")
        if (
            self.default_timeout_seconds is not None
            and self.default_timeout_seconds <= 0.0
        ):
            raise ConfigurationError("default_timeout_seconds must be positive")
        if self.retry_after_seconds < 0.0:
            raise ConfigurationError("retry_after_seconds must be >= 0")


@dataclass(frozen=True)
class ServiceResult:
    """The structured answer to one submitted request.

    Attributes
    ----------
    status:
        One of :data:`RESULT_STATUSES`.
    position:
        ``(3,)`` ECEF position in meters when ``status="ok"``, else
        ``None``.
    clock_bias_meters:
        The bias associated with the fix (predicted for DLO/DLG,
        solved for NR), when available.
    solver:
        Which path actually answered: the batch path (``"dlg"``), the
        scalar degradation (``"dlg/scalar"``), or the NR fallback
        (``"dlg/nr-fallback"``).
    error:
        Human-readable failure detail for non-``ok`` statuses.
    retry_after_seconds:
        Backoff hint, set only on ``rejected`` results.
    batch_size:
        How many requests shared this request's dispatch (0 when it
        never reached a batch).
    wait_seconds / solve_seconds:
        Time spent queued before dispatch, and inside the solve that
        answered (the whole batch's solve time — requests in one batch
        share it).
    integrity:
        The FDE verdict for this request's epoch
        (:class:`~repro.integrity.fde.EpochVerdict`) when the service
        runs with the integrity rung armed, else ``None``.  A
        ``repaired`` verdict names the excluded PRN; an ``unusable``
        one accompanies ``status="failed"``.
    enqueued_at / dispatched_at / completed_at:
        Monotonic loop-clock stamps of the request's life: admission
        into the batcher, the start of the dispatch that solved (or
        screened) it, and result resolution.  Always populated on the
        dispatch path — no trace plane required — so queue-wait vs.
        solve latency is attributable from any result.
        ``dispatched_at`` is ``None`` for requests that never reached
        a dispatch (rejected at admission) or were screened out of one
        (cancelled, deadline already expired).
    trace:
        The request's span tree and batch lineage
        (:class:`~repro.telemetry.trace.RequestTrace`) when the
        service runs with ``ServiceConfig(trace=True)``, else ``None``.
    monitor:
        The signal-plausibility verdict for this request's epoch
        (:class:`~repro.integrity.monitors.EpochMonitorVerdict`) when
        the service runs with monitors armed *and* at least one
        monitor raised — nominal epochs carry ``None`` so the common
        case stays allocation-free.  A ``spoofed`` verdict accompanies
        ``status="failed"`` when blocking is on.
    """

    status: str
    position: Optional[np.ndarray] = field(default=None, compare=False)
    clock_bias_meters: Optional[float] = None
    solver: Optional[str] = None
    error: Optional[str] = None
    retry_after_seconds: Optional[float] = None
    batch_size: int = 0
    wait_seconds: float = 0.0
    solve_seconds: float = 0.0
    integrity: Optional[EpochVerdict] = None
    enqueued_at: Optional[float] = None
    dispatched_at: Optional[float] = None
    completed_at: Optional[float] = None
    trace: Optional[RequestTrace] = field(default=None, compare=False)
    monitor: Optional[EpochMonitorVerdict] = None

    def __post_init__(self) -> None:
        if self.status not in RESULT_STATUSES:
            raise ConfigurationError(
                f"status must be one of {'/'.join(RESULT_STATUSES)}, "
                f"got {self.status!r}"
            )
        if self.position is not None:
            position = np.asarray(self.position, dtype=float)
            if position.shape != (3,):
                raise ConfigurationError("result position must be a 3-vector")
            object.__setattr__(self, "position", position)

    @property
    def ok(self) -> bool:
        """Whether the request was answered with a position."""
        return self.status == "ok"

    def to_dict(self) -> Dict:
        """JSON-ready form (latency report rows, CLI output)."""
        return {
            "status": self.status,
            "position": (
                None if self.position is None else [float(v) for v in self.position]
            ),
            "clock_bias_meters": self.clock_bias_meters,
            "solver": self.solver,
            "error": self.error,
            "retry_after_seconds": self.retry_after_seconds,
            "batch_size": self.batch_size,
            "wait_seconds": self.wait_seconds,
            "solve_seconds": self.solve_seconds,
            "integrity": (
                None if self.integrity is None else self.integrity.to_dict()
            ),
            "enqueued_at": self.enqueued_at,
            "dispatched_at": self.dispatched_at,
            "completed_at": self.completed_at,
            "trace": None if self.trace is None else self.trace.to_dict(),
            "monitor": None if self.monitor is None else self.monitor.to_dict(),
        }


#: :attr:`ResultBlock.status` codes index :data:`RESULT_STATUSES`.  A
#: flush's execution answers ``ok``/``invalid``/``failed``;
#: ``timeout`` is the service's deadline override.
STATUS_OK, STATUS_INVALID, STATUS_FAILED, STATUS_TIMEOUT = range(4)

#: :attr:`ResultBlock.solver` codes → suffix on the algorithm name.
SOLVER_SUFFIXES: Tuple[str, ...] = ("", "/scalar", "/nr-fallback")
SOLVER_BATCH, SOLVER_SCALAR, SOLVER_NR_FALLBACK = range(3)

#: "No code" in the solver, verdict, excluded-PRN and error lanes.
ABSENT = -1

#: The row lanes of a :class:`ResultBlock` — name → (dtype, value when
#: absent, per-row shape) — the one statement of the format the
#: executor, the response slab and the router all read.  ``verdict``
#: indexes :data:`repro.integrity.fde.STATUS_NAMES`, so "no verdict"
#: stays distinct from ``unchecked``; ``errors`` indexes
#: :attr:`ResultBlock.error_texts`.
RESULT_LANES: Dict[str, Tuple[str, float, Tuple[int, ...]]] = {
    "status": ("<i1", STATUS_OK, ()),
    "solver": ("<i1", ABSENT, ()),
    "positions": ("<f8", np.nan, (3,)),
    "biases": ("<f8", np.nan, ()),
    "verdict": ("<i1", ABSENT, ()),
    "statistics": ("<f8", np.nan, ()),
    "thresholds": ("<f8", np.nan, ()),
    "excluded_prns": ("<i8", ABSENT, ()),
    "errors": ("<i4", ABSENT, ()),
}


@lru_cache(maxsize=512)
def absent_lane(lane: str, count: int) -> np.ndarray:
    """A read-only ``count``-row ``lane`` of :data:`RESULT_LANES` holding
    its absent value: one array shared by every block that leaves the
    lane unanswered (never to be filled in place)."""
    dtype, absent, shape = RESULT_LANES[lane]
    values = np.full((count,) + shape, absent, dtype=dtype)
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class ResultBlock:
    """One flush's answers as struct-of-arrays lanes, one row per request.

    The lanes are :data:`RESULT_LANES`, plus the distinct
    ``error_texts`` and the monitor suite's
    :class:`~repro.integrity.monitors.MonitorRecord` (``None`` when the
    suite is disarmed or did not run).  The executor fills a block with
    masks, a shard worker copies each lane once into its response slab
    and the router copies them back out, and :meth:`results` is the one
    place rows become :class:`ServiceResult`\\ s.
    """

    status: np.ndarray
    solver: np.ndarray
    positions: np.ndarray
    biases: np.ndarray
    verdict: np.ndarray
    statistics: np.ndarray
    thresholds: np.ndarray
    excluded_prns: np.ndarray
    errors: np.ndarray
    error_texts: Tuple[str, ...] = ()
    monitors: Optional[MonitorRecord] = None

    def __len__(self) -> int:
        return int(self.status.shape[0])

    @classmethod
    def empty(
        cls,
        count: int,
        status: int = STATUS_OK,
        monitors: Optional[MonitorRecord] = None,
        **lanes: np.ndarray,
    ) -> "ResultBlock":
        """``count`` rows of ``status`` with every other lane absent,
        except the ``lanes`` passed by name, which are taken as they
        are; the absent lanes are fresh arrays the caller may fill in
        place."""
        block = cls(
            monitors=monitors,
            **{
                lane: lanes[lane]
                if lane in lanes
                else np.full((count,) + shape, absent, dtype=dtype)
                for lane, (dtype, absent, shape) in RESULT_LANES.items()
            },
        )
        block.status[:] = status
        return block

    def with_errors(self, errors: Dict[int, str]) -> "ResultBlock":
        """This block with the ``row → text`` error lane, for a block
        whose lane is still empty (``self`` when there are none)."""
        if not errors:
            return self
        codes = np.full(len(self), ABSENT, dtype=np.int32)
        texts: Dict[str, int] = {}
        for row, text in errors.items():
            codes[row] = texts.setdefault(text, len(texts))
        return replace(self, errors=codes, error_texts=tuple(texts))

    def expire(self, rows: Sequence[int], error: str) -> "ResultBlock":
        """This block with ``rows`` answered ``timeout``: no fix, no
        verdict, no monitor verdict, ``error`` as their text."""
        status, verdict = self.status.copy(), self.verdict.copy()
        errors = self.errors.copy()
        status[rows], verdict[rows] = STATUS_TIMEOUT, ABSENT
        errors[rows] = len(self.error_texts)
        monitors = self.monitors
        if monitors is not None:
            severities = monitors.severities.copy()
            severities[rows] = SEVERITY_NOMINAL
            monitors = replace(monitors, severities=severities)
        return replace(
            self,
            status=status,
            verdict=verdict,
            errors=errors,
            error_texts=self.error_texts + (error,),
            monitors=monitors,
        )

    def triggers(self) -> np.ndarray:
        """Each row's flight-recorder trigger as an index into
        :data:`~repro.telemetry.recorder.TRIGGERS`, :data:`ABSENT` for
        an uneventful row.

        In order of precedence: a ``timeout`` row is a deadline miss,
        an ``ok`` row the scalar or NR rung answered is degraded, a
        ``repaired`` / ``unusable`` verdict is an FDE exclusion /
        unrepaired fault, and a raised monitor severity is an alert.
        """
        # Lowest precedence first: each later assignment overrides.
        codes = np.full(len(self), ABSENT, dtype=np.int8)
        if self.monitors is not None:
            codes[self.monitors.severities != SEVERITY_NOMINAL] = TRIGGERS.index(
                TRIGGER_MONITOR
            )
        codes[self.verdict == VERDICT_UNUSABLE] = TRIGGERS.index(TRIGGER_FDE_UNREPAIRED)
        codes[self.verdict == VERDICT_REPAIRED] = TRIGGERS.index(TRIGGER_FDE_EXCLUSION)
        degraded = (self.solver == SOLVER_SCALAR) | (self.solver == SOLVER_NR_FALLBACK)
        codes[degraded & (self.status == STATUS_OK)] = TRIGGERS.index(TRIGGER_DEGRADED)
        codes[self.status == STATUS_TIMEOUT] = TRIGGERS.index(TRIGGER_DEADLINE_MISS)
        return codes

    def results(
        self,
        algorithm: str,
        batch_size: int,
        *,
        solve_seconds: float = 0.0,
        dispatched_at: Optional[float] = None,
        completed_at: Optional[float] = None,
        enqueued_at: Optional[Sequence[float]] = None,
        trace: Optional[FlushTrace] = None,
    ) -> List[ServiceResult]:
        """One :class:`ServiceResult` per row, in row order.

        ``algorithm`` names the solver lineage (``"dlg"`` →
        ``"dlg/scalar"``...); only ``ok`` rows carry a fix, bias and
        solver.  ``enqueued_at`` is per-row; a row's ``wait_seconds``
        runs from its ``enqueued_at`` to ``dispatched_at``.  Given the
        flush's ``trace`` record, each row carries its
        :class:`~repro.telemetry.trace.RequestTrace` view of it.  Each
        lane is converted to Python values once per call, never per
        row (the verdict's statistic, threshold and excluded-PRN lanes
        only when a row has a verdict).

        The block is validated once, as a whole, with the checks
        :class:`ServiceResult`'s constructor makes per row: the
        position lane must be ``(count, 3)`` (converted to float once),
        every status code must index :data:`RESULT_STATUSES` and every
        ``ok`` row's solver code :data:`SOLVER_SUFFIXES` (no negative
        code wraps around); any failure raises
        :class:`~repro.errors.ConfigurationError`.  The rows are then
        built without re-checking each one, each a copy of one template
        of the fields the call shares, and compare, print, pickle and
        ``to_dict()`` exactly like constructor-built results.
        """
        count = len(self)
        positions = np.asarray(self.positions, dtype=float)
        if positions.shape != (count, 3):
            raise ConfigurationError("result position must be a 3-vector")
        status, solver, errors, verdict, biases = (
            lane.tolist()
            for lane in (self.status, self.solver, self.errors, self.verdict, self.biases)
        )
        statuses, suffixes = len(RESULT_STATUSES), len(SOLVER_SUFFIXES)
        if min(status, default=0) < 0 or max(status, default=0) >= statuses:
            code = next(code for code in status if not 0 <= code < statuses)
            raise ConfigurationError(
                f"status must be one of {'/'.join(RESULT_STATUSES)}, got code {code}"
            )
        if min(solver, default=0) < 0 or max(solver, default=0) >= suffixes:
            # Only an ok row must name the solver that answered it.
            for code, row_status in zip(solver, status):
                if row_status == STATUS_OK and not 0 <= code < suffixes:
                    raise ConfigurationError(
                        "an ok row must name the solver that answered it, "
                        f"got code {code}"
                    )
        solvers = [algorithm + suffix for suffix in SOLVER_SUFFIXES]
        monitors: Dict[int, EpochMonitorVerdict] = {}
        if self.monitors is not None:
            for row in np.flatnonzero(self.monitors.severities).tolist():
                monitors[row] = self.monitors.verdict(row)
        if max(verdict, default=ABSENT) >= 0:
            statistics, thresholds, prns = (
                lane.tolist()
                for lane in (self.statistics, self.thresholds, self.excluded_prns)
            )
        error_texts = self.error_texts
        # What every row of the flush shares, in declaration order: each
        # row is a bare ServiceResult whose own __dict__ takes this
        # template, then only its own fields (as _trusted builds it).
        template = {
            "status": None,
            "position": None,
            "clock_bias_meters": None,
            "solver": None,
            "error": None,
            "retry_after_seconds": None,
            "batch_size": batch_size,
            "wait_seconds": 0.0,
            "solve_seconds": solve_seconds,
            "integrity": None,
            "enqueued_at": None,
            "dispatched_at": dispatched_at,
            "completed_at": completed_at,
            "trace": None,
            "monitor": None,
        }
        new, isfinite = object.__new__, math.isfinite
        results: List[ServiceResult] = []
        for row, (position, code, solver_code, bias, error, verdict_code) in enumerate(
            zip(positions, status, solver, biases, errors, verdict)
        ):
            result = new(ServiceResult)
            fields = result.__dict__
            fields.update(template)
            fields["status"] = RESULT_STATUSES[code]
            if code == STATUS_OK:
                fields["position"] = position
                if isfinite(bias):
                    fields["clock_bias_meters"] = bias
                fields["solver"] = solvers[solver_code]
            if error >= 0:
                fields["error"] = error_texts[error]
            if verdict_code >= 0:
                fields["integrity"] = _trusted(
                    EpochVerdict,
                    {
                        "status": VERDICT_NAMES[verdict_code],
                        "test_statistic": statistics[row],
                        "threshold": thresholds[row],
                        "excluded_prn": prns[row] if prns[row] >= 0 else None,
                    },
                )
            if enqueued_at is not None:
                enqueued = fields["enqueued_at"] = enqueued_at[row]
                if enqueued is not None:
                    # max(0.0, wait), a NaN wait included, without the call
                    wait = dispatched_at - enqueued
                    if wait > 0.0:
                        fields["wait_seconds"] = wait
            if trace is not None:
                fields["trace"] = RequestTrace(trace, row)
            if row in monitors:
                fields["monitor"] = monitors[row]
            results.append(result)
        return results


def _trusted(cls, fields: Dict):
    """An instance of the frozen dataclass ``cls`` holding ``fields``
    (every field, in declaration order), bypassing its constructor.

    Only for values already validated in bulk: the instance is the
    one ``cls(**fields)`` would build — its ``__dict__`` is the same
    mapping in the same order — so ``==``, ``repr``, pickling and
    :func:`dataclasses.replace` cannot tell them apart.
    """
    instance = object.__new__(cls)
    object.__setattr__(instance, "__dict__", fields)
    return instance
