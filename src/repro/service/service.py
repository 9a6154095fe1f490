"""The async positioning service.

:class:`PositioningService` turns the stacked-solver throughput of
:class:`~repro.engine.PositioningEngine` into a request/response
surface: callers submit *single epochs* from concurrent asyncio tasks,
the service coalesces them through a :class:`~repro.service.batcher.
MicroBatcher`, solves each formed batch in one vectorized call, and
scatters :class:`~repro.service.types.ServiceResult`\\ s back onto the
callers' futures.

Everything runs on one event loop; the solve itself executes inline in
the worker task.  On the single-core boxes this repo targets, a thread
pool would only add handoff latency — batching, not parallelism, is
where the throughput comes from (see ``BENCH_engine_throughput.json``:
the batched solvers are ~18× the scalar ones).

Failure is data, not control flow.  Every submitted request resolves
to exactly one structured result; the degradation ladder runs

1. the batched solve (invalid epochs screened out per-row, healthy
   rows unaffected — partial-batch completion),
2. on whole-batch rejection, per-epoch scalar re-solve with the
   configured algorithm,
3. per-epoch Newton-Raphson fallback for epochs the closed-form path
   rejects (ill-conditioned difference geometry), when enabled,

and only a request whose *own* epoch defeats every rung comes back
``status="failed"`` — its batchmates still succeed.

With ``config.integrity`` set the ladder gains a fault rung *inside*
step 1: the batched solve runs through
:class:`~repro.integrity.fde.BatchFde`, so a spiked pseudorange is
detected, its satellite excluded, and the epoch re-solved within the
same batch — the requester sees ``status="ok"`` with a ``repaired``
verdict naming the excluded PRN.  A
:class:`~repro.integrity.health.SatelliteHealthTracker` remembers
exclusions across requests and pre-excludes persistently faulty
satellites at admission (the circuit breaker), so a satellite with a
stuck fault stops costing an exclusion search per epoch.  Epochs a
detected fault leaves unrepairable come back ``status="failed"`` with
an ``unusable`` verdict — the service never serves a fix it knows is
bad.
"""

from __future__ import annotations

import asyncio
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.engine import PositioningEngine
from repro.errors import ServiceError
from repro.integrity.health import SatelliteHealthTracker
from repro.observations import ObservationEpoch
from repro.service.batcher import Flush, MicroBatcher
from repro.service.executor import BatchExecutor, BatchMeta
from repro.service.types import ServiceConfig, ServiceResult
from repro.telemetry import get_registry, get_tracer
from repro.telemetry.recorder import (
    TRIGGER_DEADLINE_MISS,
    TRIGGER_DEGRADED,
    TRIGGER_FDE_EXCLUSION,
    TRIGGER_FDE_UNREPAIRED,
    TRIGGER_MONITOR,
    FixRecord,
    FlightRecorder,
    config_hash,
    epoch_payload,
    now_seconds,
)
from repro.telemetry.slo import SloTracker
from repro.telemetry.trace import (
    RequestTrace,
    assemble_request_trace,
    mint_request_number,
)

#: Distinguishes "no timeout argument" from an explicit ``None``
#: (= wait indefinitely).
_UNSET = object()

#: Batch-size histogram bounds (requests per dispatch).
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)

#: Request-latency histogram bounds (seconds, submit → resolve).
_LATENCY_BUCKETS = (
    0.0005,
    0.001,
    0.002,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
)


def _anomaly_trigger(result: ServiceResult) -> Optional[str]:
    """The flight-recorder trigger ``result`` raises, or ``None``.

    In order of precedence: a deadline miss, a degraded solver rung
    ("dlg/scalar", "dlg/nr-fallback"), an FDE exclusion or unrepaired
    verdict, a raised signal-plausibility verdict.  A triggered fix
    builds its record (and dump) eagerly; everything else defers
    construction to the recorder's read paths.
    """
    if result.status == "timeout":
        return TRIGGER_DEADLINE_MISS
    if result.solver is not None and "/" in result.solver:
        return TRIGGER_DEGRADED
    integrity = result.integrity
    if integrity is not None:
        if integrity.status == "repaired":
            return TRIGGER_FDE_EXCLUSION
        if integrity.status == "unusable":
            return TRIGGER_FDE_UNREPAIRED
    if result.monitor is not None:
        return TRIGGER_MONITOR
    return None


@dataclass
class _PendingRequest:
    """One queued epoch and the future its submitter awaits."""

    epoch: ObservationEpoch
    bias_meters: Optional[float]
    future: "asyncio.Future[ServiceResult]"
    submitted_at: float
    deadline: Optional[float]
    # The request's trace identity: a bare counter number from
    # mint_request_number (the TraceContext materializes lazily from
    # whichever RequestTrace carries it), or None when tracing is off.
    trace: Optional[int] = None


class _MetricHandles:
    """Pre-resolved telemetry children for the per-request hot path.

    Looking metric families and label children up through the registry
    costs a handful of dict probes per call — noise anywhere else, but
    the service resolves *every request* through this path, and at
    micro-batch throughputs those probes were a measurable slice of
    the per-request budget.  One instance is built per installed
    registry (rebuilt if telemetry is reinstalled) and caches every
    child the dispatch loop touches.
    """

    __slots__ = (
        "registry",
        "latency",
        "batch_size",
        "queue_depth",
        "_requests_family",
        "_batches_family",
        "_request_children",
        "_batch_children",
    )

    def __init__(self, registry) -> None:
        self.registry = registry
        self._requests_family = registry.counter(
            "repro_service_requests_total",
            "Requests by final status.",
            labels=("status",),
        )
        self._batches_family = registry.counter(
            "repro_service_batches_total",
            "Batches by flush reason.",
            labels=("reason",),
        )
        self.latency = registry.histogram(
            "repro_service_request_latency_seconds",
            "Submit-to-resolve latency.",
            buckets=_LATENCY_BUCKETS,
        ).labels()
        self.batch_size = registry.histogram(
            "repro_service_batch_size",
            "Requests per dispatched batch.",
            buckets=_BATCH_SIZE_BUCKETS,
        ).labels()
        self.queue_depth = registry.gauge(
            "repro_service_queue_depth",
            "Requests waiting to be batched, sampled at each flush.",
        ).labels()
        self._request_children: dict = {}
        self._batch_children: dict = {}

    def request_child(self, status: str):
        child = self._request_children.get(status)
        if child is None:
            child = self._requests_family.labels(status=status)
            self._request_children[status] = child
        return child

    def batch_child(self, reason: str):
        child = self._batch_children.get(reason)
        if child is None:
            child = self._batches_family.labels(reason=reason)
            self._batch_children[reason] = child
        return child


class PositioningService:
    """Micro-batching request server over the positioning engine.

    Usage::

        config = ServiceConfig(solver=SolverConfig(algorithm="dlg"))
        async with PositioningService(config) as service:
            results = await asyncio.gather(
                *(service.submit(epoch) for epoch in epochs)
            )

    ``engine`` may be injected for tests; by default it is built from
    the config's solver via :meth:`PositioningEngine.from_config`
    (with the FDE gate armed when ``config.integrity`` is set).
    ``health_tracker`` may be injected to share satellite-health state
    with other consumers (a :class:`~repro.core.receiver.GpsReceiver`,
    another service); by default one is built from ``config.health``
    when the integrity rung is armed.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        engine: Optional[PositioningEngine] = None,
        health_tracker: Optional[SatelliteHealthTracker] = None,
    ) -> None:
        self._config = config if config is not None else ServiceConfig()
        # The batch-execution core is process-agnostic (shard workers
        # run the same object); this class owns only the asyncio
        # dispatch around it.
        self._executor = BatchExecutor(
            self._config, engine=engine, health_tracker=health_tracker
        )
        self._engine = self._executor.engine
        solver_config = self._config.solver
        self._batcher: Optional[MicroBatcher] = None
        self._worker: Optional["asyncio.Task[None]"] = None
        self._handles: Optional[_MetricHandles] = None
        # Observability plane (all opt-in, all None/off by default).
        self._recorder = (
            FlightRecorder(self._config.recorder)
            if self._config.recorder is not None
            else None
        )
        self._slo = (
            SloTracker(self._config.slo) if self._config.slo is not None else None
        )
        # Fallback record ids for trace-off recording ("fix-<n>").
        self._fix_sequence = 0
        # Shared solver spec for untriggered fix records: only
        # triggered records are replayable (they capture the epoch), so
        # only they pay for a per-request spec with the resolved bias.
        self._base_solver_spec = {
            "algorithm": solver_config.algorithm,
            "clock_bias_meters": solver_config.clock_bias_meters,
        }
        self._fde_spec = (
            self._config.integrity.to_dict()
            if self._config.integrity is not None
            else None
        )
        self._config_hash = config_hash(
            {"algorithm": self._config.solver.algorithm},
            self._fde_spec,
            nr_fallback=self._config.nr_fallback,
            max_batch_size=self._config.max_batch_size,
        )

    def _telemetry_handles(self) -> Optional[_MetricHandles]:
        """Cached hot-path metric children for the installed registry."""
        registry = get_registry()
        if not registry.enabled:
            return None
        handles = self._handles
        if handles is None or handles.registry is not registry:
            handles = _MetricHandles(registry)
            self._handles = handles
        return handles

    # -- lifecycle -----------------------------------------------------

    @property
    def config(self) -> ServiceConfig:
        """The frozen tuning this service runs with."""
        return self._config

    @property
    def executor(self) -> BatchExecutor:
        """The process-agnostic batch-execution core."""
        return self._executor

    @property
    def health_tracker(self) -> Optional[SatelliteHealthTracker]:
        """The satellite-health circuit breaker, when integrity is armed."""
        return self._executor.health_tracker

    @property
    def recorder(self) -> Optional[FlightRecorder]:
        """The anomaly flight recorder, when ``config.recorder`` is set."""
        return self._recorder

    @property
    def slo(self) -> Optional[SloTracker]:
        """The SLO tracker, when ``config.slo`` is set."""
        return self._slo

    @property
    def running(self) -> bool:
        """Whether the worker is accepting requests."""
        return (
            self._worker is not None
            and self._batcher is not None
            and not self._batcher.closed
        )

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a batch."""
        return 0 if self._batcher is None else len(self._batcher)

    async def start(self) -> None:
        """Spawn the worker; must run inside an event loop."""
        if self._worker is not None:
            raise ServiceError("service is already running")
        self._batcher = MicroBatcher(
            max_batch_size=self._config.max_batch_size,
            max_wait_seconds=self._config.max_wait_seconds,
        )
        self._worker = asyncio.get_running_loop().create_task(
            self._run_worker(), name="repro-positioning-service"
        )

    async def stop(self) -> None:
        """Stop admissions, drain every pending request, join the worker."""
        if self._worker is None:
            return
        assert self._batcher is not None
        self._batcher.close()
        try:
            await self._worker
        finally:
            self._worker = None
            self._batcher = None

    async def __aenter__(self) -> "PositioningService":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # -- request intake ------------------------------------------------

    async def submit(
        self,
        epoch: ObservationEpoch,
        timeout: object = _UNSET,
        bias_meters: Optional[float] = None,
    ) -> ServiceResult:
        """One epoch in, one structured result out.

        ``timeout`` defaults to the config's
        ``default_timeout_seconds``; pass ``None`` explicitly to wait
        indefinitely.  ``bias_meters`` overrides the solver config's
        clock-bias source for this request only (DLO/DLG).

        Never raises for per-request outcomes — backpressure, deadline
        expiry, and solver failure all come back as statuses.  Raises
        :class:`~repro.errors.ServiceError` only for *misuse*:
        submitting to a service that is not running.
        """
        if not self.running:
            raise ServiceError(
                "service is not running; enter it with 'async with' or start()"
            )
        assert self._batcher is not None
        if len(self._batcher) >= self._config.max_queue_depth:
            handles = self._telemetry_handles()
            if handles is not None:
                handles.request_child("rejected").inc()
            if self._slo is not None:
                self._slo.observe("rejected", 0.0)
            return ServiceResult(
                status="rejected",
                error=(
                    f"queue full ({self._config.max_queue_depth} pending); "
                    f"retry after {self._config.retry_after_seconds:g}s"
                ),
                retry_after_seconds=self._config.retry_after_seconds,
                completed_at=asyncio.get_running_loop().time(),
            )

        loop = asyncio.get_running_loop()
        now = loop.time()
        effective_timeout = (
            self._config.default_timeout_seconds if timeout is _UNSET else timeout
        )
        if effective_timeout is not None and effective_timeout <= 0.0:
            raise ServiceError("timeout must be positive (or None)")
        deadline = None if effective_timeout is None else now + effective_timeout
        request = _PendingRequest(
            epoch=epoch,
            bias_meters=bias_meters,
            future=loop.create_future(),
            submitted_at=now,
            deadline=deadline,
            trace=mint_request_number() if self._config.trace else None,
        )
        self._batcher.put(request)
        # No wait_for here: the worker always resolves the future — on
        # solve, on deadline expiry at dispatch, or on drain at stop().
        return await request.future

    # -- worker --------------------------------------------------------

    async def _run_worker(self) -> None:
        assert self._batcher is not None
        while True:
            flush = await self._batcher.next_batch()
            if flush is None:
                return
            try:
                self._dispatch(flush)
            except Exception as exc:  # never strand a caller's future
                handles = self._telemetry_handles()
                for request in flush.items:
                    self._finish(
                        request,
                        ServiceResult(
                            status="failed",
                            error=f"internal dispatch error: {exc}",
                            batch_size=len(flush),
                        ),
                        handles,
                        None,
                    )

    def _finish(
        self,
        request: _PendingRequest,
        result: ServiceResult,
        handles: Optional[_MetricHandles],
        now: Optional[float],
    ) -> None:
        """Hand a result to the submitter, if it is still listening."""
        future = request.future
        if not future.done():
            future.set_result(result)
            status = result.status
        elif future.cancelled():
            status = "cancelled"
        else:
            status = future.result().status
        if handles is not None or self._slo is not None:
            if now is None:
                now = asyncio.get_running_loop().time()
            latency = max(0.0, now - request.submitted_at)
            if handles is not None:
                handles.request_child(status).inc()
                handles.latency.observe(latency)
            if self._slo is not None:
                self._slo.observe(status, latency)

    def _dispatch(self, flush: Flush) -> None:
        """Solve one formed batch and resolve every request in it."""
        handles = self._telemetry_handles()
        tracer = get_tracer()
        loop = asyncio.get_running_loop()
        now = loop.time()

        if handles is not None:
            handles.batch_child(flush.reason).inc()
            handles.batch_size.observe(len(flush))
            handles.queue_depth.set(self.queue_depth)

        # Screen out requests nobody is waiting for anymore.
        live: List[_PendingRequest] = []
        for request in flush.items:
            if request.future.cancelled():
                self._finish(
                    request,
                    self._screened_result("cancelled", None, request, now, flush),
                    handles,
                    now,
                )
            elif request.deadline is not None and now >= request.deadline:
                result = self._screened_result(
                    "timeout", "deadline expired while queued", request, now, flush
                )
                self._finish(request, result, handles, now)
                if self._recorder is not None:
                    self._record_fix(request, result, request.epoch, None, flush)
            else:
                live.append(request)
        if not live:
            return

        batch_size = len(live)
        solve_started = loop.time()
        with tracer.span(
            "service.dispatch",
            batch=batch_size,
            reason=flush.reason,
            algorithm=self._engine.algorithm,
        ):
            # The process-agnostic core shard workers run too.
            block, meta = self._executor.execute(
                [request.epoch for request in live],
                [request.bias_meters for request in live],
            )
        solve_seconds = loop.time() - solve_started

        resolved_at = loop.time()
        # Solved, but past the caller's deadline: the contract is the
        # deadline, so report the timeout (noting the answer existed —
        # it helps operators size timeouts).
        expired = [
            index
            for index, request in enumerate(live)
            if request.deadline is not None and resolved_at >= request.deadline
        ]
        if expired:
            block = block.expire(expired, "deadline expired during batch solve")
        # Per-flush trace constants: the peer list and the solve-span
        # annotations are shared (never copied, never mutated) by every
        # trace of the flush, and the per-row satellite counts are
        # converted to a plain list once instead of through a numpy
        # scalar cast per request.
        traces = None
        if self._config.trace:
            # Peer request *numbers*, shared by every trace of the
            # flush; the id strings materialize lazily in
            # RequestTrace.batch_peers so the dispatch loop never
            # formats (or even allocates contexts for) them.
            peers = tuple(
                [
                    request.trace
                    for request in live
                    if request.trace is not None
                ]
            )
            solve_attributes = {
                "algorithm": self._engine.algorithm,
                "rung": meta.rung,
                "batch": batch_size,
                "reason": flush.reason,
            }
            if meta.counts is not None:
                satellites = meta.counts.tolist()
                flush_rows = [
                    row if count >= 0 else -1
                    for row, count in enumerate(satellites)
                ]
            else:
                # Pre-built "-1 everywhere" lineage so the per-request
                # loop indexes unconditionally instead of branching.
                satellites = flush_rows = (-1,) * batch_size
            # Constructed directly (not via assemble_request_trace) on
            # the dispatch path: resolved_at >= submitted_at by
            # construction, and the helper's validation plus kwargs
            # forwarding are measurable per request.
            traces = [
                RequestTrace(
                    request.trace,
                    request.submitted_at,
                    resolved_at,
                    solve_started,
                    solve_seconds,
                    meta.stage_seconds,
                    solve_attributes,
                    flush.sequence,
                    peers,
                    satellites[index],
                    flush_rows[index],
                    request.deadline,
                )
                if request.trace is not None
                else None
                for index, request in enumerate(live)
            ]
        # Per-flush flight-recorder constants (stamp, shared attributes
        # and stage split), hoisted off the per-request path.
        recording = self._recorder is not None
        if recording:
            record_stamp = now_seconds()
            record_stages = meta.stage_seconds if meta.stage_seconds else {}
            record_attributes = {
                "batch_sequence": flush.sequence,
                "batch_size": batch_size,
                "flush_reason": flush.reason,
                "rung": meta.rung,
            }
            # The shared half of every lazy flush entry (see
            # FlightRecorder.record_flush): uneventful fixes ride the
            # ring as tuples over these constants plus the live
            # result/epoch, and only anomalies build a FixRecord here.
            record_shared = (
                record_stamp,
                self._config_hash,
                record_attributes,
                record_stages,
                self._base_solver_spec,
                self._fde_spec,
            )
            record_entries: List = []
            record_triggered: List[FixRecord] = []
        slo = self._slo
        observing = handles is not None or slo is not None
        statuses: List[str] = []
        latencies: List[float] = []
        results = block.results(
            self._engine.algorithm,
            batch_size,
            solve_seconds=solve_seconds,
            dispatched_at=solve_started,
            completed_at=resolved_at,
            enqueued_at=[request.submitted_at for request in live],
            traces=traces,
        )
        for index, (request, result) in enumerate(zip(live, results)):
            # Resolve the caller's future inline; the metric, SLO, and
            # flight-recorder accounting for the whole flush is batched
            # after the loop (one counter increment per status, one
            # histogram lock, one recorder pass — not one each per
            # request).
            future = request.future
            if not future.done():
                future.set_result(result)
                effective = result.status
            elif future.cancelled():
                effective = "cancelled"
            else:
                effective = future.result().status
            if observing:
                statuses.append(effective)
                latencies.append(resolved_at - request.submitted_at)
            if recording:
                trigger = _anomaly_trigger(result)
                if trigger is not None:
                    record = self._build_fix_record(
                        request,
                        result,
                        trigger,
                        meta.epochs[index],
                        meta,
                        flush,
                        index,
                        record_stamp,
                        record_attributes,
                        record_stages,
                    )
                    record_entries.append(record)
                    record_triggered.append(record)
                else:
                    # The entry carries the record-relevant *fields*,
                    # not the result: retaining whole results in the
                    # ring makes their (cold) deallocation a recorder
                    # cost a few flushes later.
                    record_entries.append(
                        (
                            record_shared,
                            request.trace,
                            result.status,
                            result.solver,
                            result.error,
                            result.integrity,
                            result.trace,
                            meta.epochs[index],
                            index,
                        )
                    )
        if observing:
            if handles is not None:
                for effective, count in Counter(statuses).items():
                    handles.request_child(effective).inc(count)
                handles.latency.observe_many(latencies)
            if slo is not None:
                slo.observe_batch(statuses, latencies)
        if recording:
            self._recorder.record_flush(record_entries, record_triggered)

    def _screened_result(
        self,
        status: str,
        error: Optional[str],
        request: _PendingRequest,
        now: float,
        flush: Flush,
    ) -> ServiceResult:
        """A stamped (and traced, if armed) result for a request that
        was screened out of its dispatch before solving."""
        trace = None
        if request.trace is not None:
            trace = assemble_request_trace(
                request.trace,
                submitted_at=request.submitted_at,
                completed_at=now,
                batch_sequence=flush.sequence,
                deadline=request.deadline,
            )
        return ServiceResult(
            status=status,
            error=error,
            wait_seconds=(
                max(0.0, now - request.submitted_at) if status == "timeout" else 0.0
            ),
            enqueued_at=request.submitted_at,
            completed_at=now,
            trace=trace,
        )

    def _record_fix(
        self,
        request: _PendingRequest,
        result: ServiceResult,
        epoch: ObservationEpoch,
        meta: Optional[BatchMeta],
        flush: Flush,
    ) -> None:
        """Retain one screened-out fix in the flight recorder."""
        self._recorder.record(
            self._build_fix_record(
                request, result, _anomaly_trigger(result), epoch, meta, flush
            )
        )

    def _build_fix_record(
        self,
        request: _PendingRequest,
        result: ServiceResult,
        trigger: Optional[str],
        epoch: ObservationEpoch,
        meta: Optional[BatchMeta],
        flush: Flush,
        index: Optional[int] = None,
        recorded_at: Optional[float] = None,
        attributes: Optional[Dict] = None,
        stages: Optional[Dict[str, float]] = None,
    ) -> FixRecord:
        """The flight-recorder record for one served fix.

        ``trigger`` is the result's :func:`_anomaly_trigger`.
        ``recorded_at``/``attributes``/``stages`` are supplied per
        flush by ``_dispatch`` so the per-request work here stays at
        one :class:`FixRecord` construction; only triggered records —
        the replayable ones — pay for the epoch capture and the
        resolved per-request solver spec.
        """
        verdict_dict = (
            result.integrity.to_dict() if result.integrity is not None else None
        )
        monitor_dict = (
            result.monitor.to_dict() if result.monitor is not None else None
        )
        if trigger is None:
            epoch_dict = None
            solver_spec = self._base_solver_spec
        else:
            resolved_bias = (
                meta.bias(index)
                if meta is not None and index is not None
                else None
            )
            if resolved_bias is None:
                resolved_bias = (
                    result.clock_bias_meters
                    if result.clock_bias_meters is not None
                    else request.bias_meters
                )
            # The captured epoch is the expensive part; only triggered
            # records (the ones that can dump) carry it.
            epoch_dict = (
                meta.capture(index)
                if meta is not None and index is not None
                else epoch_payload(epoch)
            )
            solver_spec = {
                "algorithm": self._engine.algorithm,
                "clock_bias_meters": resolved_bias,
            }
        if attributes is None:
            attributes = {
                "batch_sequence": flush.sequence,
                "batch_size": result.batch_size,
                "flush_reason": flush.reason,
                "rung": meta.rung if meta is not None else "screened",
            }
        # The materialized context (ids resolve lazily from it inside
        # FixRecord).  request.trace is just a number; the trace on the
        # result — built whenever tracing is armed — owns the lazy
        # materialization, and this path only runs for triggered or
        # screened fixes, never per uneventful request.
        context = result.trace.context if result.trace is not None else None
        self._fix_sequence += 1
        # Positional FixRecord construction (parameter order matches
        # recorder.FixRecord.__init__): keyword passing of 17 fields is
        # measurable at once-per-served-fix rates.  stage_seconds is
        # shared with every record of the flush and never mutated; the
        # digest hashes lazily off epoch_ref, and when a trace context
        # exists the id *strings* resolve lazily from it at read time.
        return FixRecord(
            (
                None
                if context is not None
                else f"fix-{self._fix_sequence}"
            ),  # request_id: lazy via context when traced
            result.status,
            result.solver or "",
            recorded_at if recorded_at is not None else now_seconds(),
            self._config_hash,
            "",  # inputs_digest: lazy, via epoch_ref
            None if context is not None else "",  # trace_id: lazy
            trigger,
            (
                stages
                if stages is not None
                else (
                    meta.stage_seconds
                    if meta is not None and meta.stage_seconds
                    else {}
                )
            ),
            verdict_dict,
            result.error,
            epoch_dict,
            solver_spec,
            self._fde_spec,
            result.trace,
            attributes,
            epoch,  # epoch_ref
            context,
            monitor_dict,
        )

