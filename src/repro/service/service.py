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
from typing import List, Optional

from repro.blocks import pack_stream
from repro.engine import PositioningEngine
from repro.errors import ServiceError
from repro.integrity.health import SatelliteHealthTracker
from repro.observations import ObservationEpoch
from repro.service.batcher import Flush, MicroBatcher
from repro.service.executor import BatchExecutor, BatchMeta
from repro.service.types import (
    RESULT_STATUSES,
    ResultBlock,
    ServiceConfig,
    ServiceResult,
)
from repro.telemetry import get_registry, get_tracer
from repro.telemetry.recorder import (
    FlightRecorder,
    FlushEntry,
    RecordSpec,
    config_hash,
)
from repro.telemetry.slo import SloTracker
from repro.telemetry.trace import (
    FlushTrace,
    RequestTrace,
    reserve_request_numbers,
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


#: The error of a request whose deadline expired before its dispatch.
_QUEUED_TIMEOUT = "deadline expired while queued"


class _MetricHandles:
    """Pre-resolved telemetry families and children for the dispatch loop.

    Looking metric families up through the registry costs a handful of
    dict probes per call; the dispatch loop touches them every flush.
    One instance is built per installed registry (rebuilt if telemetry
    is reinstalled).  Status and reason children are bound per flush
    (one count per status, not per request).
    """

    __slots__ = (
        "registry", "requests", "batches", "latency", "batch_size", "queue_depth"
    )

    def __init__(self, registry) -> None:
        self.registry = registry
        self.requests = registry.counter(
            "repro_service_requests_total",
            "Requests by final status.",
            labels=("status",),
        )
        self.batches = registry.counter(
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
        fde_spec = (
            self._config.integrity.to_dict()
            if self._config.integrity is not None
            else None
        )
        self._record_spec = RecordSpec(
            algorithm=self._engine.algorithm,
            config_hash=config_hash(
                {"algorithm": solver_config.algorithm},
                fde_spec,
                nr_fallback=self._config.nr_fallback,
                max_batch_size=self._config.max_batch_size,
            ),
            solver_spec={
                "algorithm": solver_config.algorithm,
                "clock_bias_meters": solver_config.clock_bias_meters,
            },
            fde_spec=fde_spec,
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
        batcher = self._batcher
        if batcher is None or batcher.closed:
            raise ServiceError(
                "service is not running; enter it with 'async with' or start()"
            )
        config = self._config
        if len(batcher) >= config.max_queue_depth:
            handles = self._telemetry_handles()
            if handles is not None:
                handles.requests.labels(status="rejected").inc()
            if self._slo is not None:
                self._slo.observe("rejected", 0.0)
            return ServiceResult(
                status="rejected",
                error=(
                    f"queue full ({config.max_queue_depth} pending); "
                    f"retry after {config.retry_after_seconds:g}s"
                ),
                retry_after_seconds=config.retry_after_seconds,
                completed_at=asyncio.get_running_loop().time(),
            )

        loop = asyncio.get_running_loop()
        # The one enqueue stamp: the batcher's deadline and the result's
        # enqueued_at both run from it.
        now = loop.time()
        if timeout is _UNSET:
            timeout = config.default_timeout_seconds
        deadline = None
        if timeout is not None:
            if timeout <= 0.0:
                raise ServiceError("timeout must be positive (or None)")
            deadline = now + timeout
        future = loop.create_future()
        # A queued request: one plain tuple (epoch, bias_meters, future,
        # enqueued_at, deadline).
        batcher.put((epoch, bias_meters, future, now, deadline), now)
        # No wait_for here: the worker always resolves the future — on
        # solve, on deadline expiry at dispatch, or on drain at stop().
        return await future

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
                # Only the futures the dispatch left open: the ones it
                # resolved (or screened) were counted there.
                stranded = [item for item in flush.items if not item[2].done()]
                now = asyncio.get_running_loop().time()
                for item in stranded:
                    item[2].set_result(
                        ServiceResult(
                            status="failed",
                            error=f"internal dispatch error: {exc}",
                            batch_size=len(flush),
                        )
                    )
                self._account(
                    self._telemetry_handles(),
                    ["failed"] * len(stranded),
                    [max(0.0, now - item[3]) for item in stranded],
                )

    def _account(
        self,
        handles: Optional[_MetricHandles],
        statuses: List[str],
        latencies: List[float],
    ) -> None:
        """Count one lane of finished requests (their statuses and
        submit-to-resolve latencies) in the registry and the SLO engine:
        one counter increment per status, one histogram and one SLO
        call per lane."""
        if handles is not None:
            for status, count in Counter(statuses).items():
                handles.requests.labels(status=status).inc(count)
            handles.latency.observe_many(latencies)
        if self._slo is not None:
            self._slo.observe_batch(statuses, latencies)

    def _dispatch(self, flush: Flush) -> None:
        """Solve one formed batch and resolve every request in it."""
        handles = self._telemetry_handles()
        tracer = get_tracer()
        loop = asyncio.get_running_loop()
        now = loop.time()
        config = self._config

        if handles is not None:
            handles.batches.labels(reason=flush.reason).inc()
            handles.batch_size.observe(len(flush))
            handles.queue_depth.set(self.queue_depth)

        # Request ids are reserved per flush, one per request in flush
        # order (screened requests included), so they run in
        # submission order.
        items = flush.items
        first_number = reserve_request_numbers(len(items)) if config.trace else None
        # One pass over the flush screens out the requests nobody is
        # waiting for anymore and those whose deadline passed in queue.
        rows: List[int] = []
        stale: List[int] = []
        cancelled: List[int] = []
        for row, (_epoch, _bias, future, _enqueued_at, deadline) in enumerate(items):
            if future.cancelled():
                cancelled.append(row)
            elif deadline is not None and now >= deadline:
                stale.append(row)
            else:
                rows.append(row)
        if stale or cancelled:
            self._screen(flush, first_number, stale, cancelled, now, handles)
        if not rows:
            return

        # The live requests' lanes, one tuple each.
        live = items if len(rows) == len(items) else [items[row] for row in rows]
        epochs, biases, futures, enqueued, deadlines = zip(*live)
        batch_size = len(rows)
        algorithm = self._engine.algorithm
        solve_started = loop.time()
        with tracer.span(
            "service.dispatch",
            batch=batch_size,
            reason=flush.reason,
            algorithm=algorithm,
        ):
            # The process-agnostic core shard workers run too; no bias
            # lane when no request overrides its bias.
            block, meta = self._executor.execute(
                epochs, None if biases.count(None) == batch_size else biases
            )
        resolved_at = loop.time()
        solve_seconds = resolved_at - solve_started
        # Solved, but past the caller's deadline: the contract is the
        # deadline, so report the timeout (noting the answer existed —
        # it helps operators size timeouts).
        if deadlines.count(None) != batch_size:
            expired = [
                index
                for index, deadline in enumerate(deadlines)
                if deadline is not None and resolved_at >= deadline
            ]
            if expired:
                block = block.expire(expired, "deadline expired during batch solve")
        # The flush's one trace record, shared by every row's trace
        # view and the recorder's entry.
        trace = None
        if config.trace or self._recorder is not None:
            trace = FlushTrace(
                first_number,
                rows,
                enqueued,
                deadlines,
                solve_started,
                resolved_at,
                meta.stage_seconds,
                flush.sequence,
                flush.reason,
                meta.rung,
                algorithm,
                meta.counts,
            )
        results = block.results(
            algorithm,
            batch_size,
            solve_seconds=solve_seconds,
            dispatched_at=solve_started,
            completed_at=resolved_at,
            enqueued_at=enqueued,
            trace=trace if config.trace else None,
        )
        # Resolve the callers' futures; a future already done was
        # cancelled, which its status lane entry reports.
        done: List[int] = []
        for row, (future, result) in enumerate(zip(futures, results)):
            if future.done():
                done.append(row)
            else:
                future.set_result(result)
        if handles is not None or self._slo is not None:
            statuses = [RESULT_STATUSES[code] for code in block.status.tolist()]
            for row in done:
                statuses[row] = "cancelled"
            latencies = [resolved_at - enqueued_at for enqueued_at in enqueued]
            self._account(handles, statuses, latencies)
        if self._recorder is not None:
            self._recorder.record_flush(
                FlushEntry(block, meta, trace, biases, self._record_spec)
            )

    def _screen(
        self,
        flush: Flush,
        first_number: Optional[int],
        stale: List[int],
        cancelled: List[int],
        now: float,
        handles: Optional[_MetricHandles],
    ) -> None:
        """Answer the requests screened out of ``flush`` before its
        solve: rows ``stale`` timed out while queued (one trace record
        and one recorder entry for them), rows ``cancelled`` have no
        listener left."""
        items = flush.items
        expired = [items[row] for row in stale]
        trace = None
        if expired and (self._config.trace or self._recorder is not None):
            _epochs, biases, _futures, enqueued, deadlines = zip(*expired)
            trace = FlushTrace(
                first_number,
                stale,
                enqueued,
                deadlines,
                None,
                now,
                None,
                flush.sequence,
                flush.reason,
                "screened",
                self._engine.algorithm,
            )
        for index, (_epoch, _bias, future, enqueued_at, _dl) in enumerate(expired):
            future.set_result(
                ServiceResult(
                    status="timeout",
                    error=_QUEUED_TIMEOUT,
                    wait_seconds=max(0.0, now - enqueued_at),
                    enqueued_at=enqueued_at,
                    completed_at=now,
                    trace=RequestTrace(trace, index) if self._config.trace else None,
                )
            )
        self._account(
            handles,
            ["cancelled"] * len(cancelled) + ["timeout"] * len(stale),
            [max(0.0, now - items[row][3]) for row in cancelled + stale],
        )
        if expired and self._recorder is not None:
            # Their own entry, retained before the solve: these rows
            # have no part in the flush's result block.
            self._recorder.record_flush(
                FlushEntry(
                    ResultBlock.empty(len(stale)).expire(
                        range(len(stale)), _QUEUED_TIMEOUT
                    ),
                    BatchMeta(
                        rung="screened",
                        block=pack_stream([request[0] for request in expired]).block,
                    ),
                    trace,
                    biases,
                    self._record_spec,
                )
            )
