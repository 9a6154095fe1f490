"""The sharded multi-process serving tier.

:class:`ShardedPositioningService` is a front end over N worker
processes, each running the same
:class:`~repro.service.executor.BatchExecutor` the in-process
:class:`~repro.service.service.PositioningService` dispatches to.  The
router cuts an epoch stream into fixed-size batches, routes each batch
to a worker (**hash-by-client** or **least-loaded**), and moves the
bulk arrays through a shared-memory slab
(:mod:`repro.service.shm`) — epoch payloads are **never pickled** on
the hot path; only slot/sequence control messages and row-error
strings ride the per-worker pipe.

Determinism is a design contract, not an accident: batch boundaries
are fixed by ``batch_size`` (independent of worker count), each batch
executes whole on exactly one worker, and the worker views the same
padded :class:`~repro.blocks.PackedStream` the in-process service
builds straight out of the slab — so the solver math sees identical
arrays and the fixes are **bitwise identical** across 1 worker, N
workers, and the in-process service (the cross-process determinism
suite pins this).

Supervision: every worker heartbeats into its slab and is watched by
the router during dispatch.  A worker that dies mid-batch never hangs
or drops its requests — the seqlock on the response lane proves the
batch incomplete and every in-flight request resurfaces as
``status="retryable"``.  Crashed workers restart against the same slab
within a bounded budget (``max_restarts``); past it the shard degrades
to the remaining workers.  :meth:`ShardedPositioningService.stop`
drains queued work before shutdown, and slabs are always unlinked —
restart and shutdown leak nothing into ``/dev/shm`` (the lifecycle
tests enumerate it).

Telemetry: each worker owns a private
:class:`~repro.telemetry.MetricsRegistry` (no cross-process locks) and
ships snapshots over the pipe on demand; :meth:`ShardedPositioningService.
scrape` restores them (:func:`~repro.telemetry.registry_from_snapshot`)
and merges router + workers through
:func:`~repro.telemetry.aggregate_registries` /
:func:`~repro.telemetry.exporters.to_prometheus_fleet_text` into one
fleet scrape.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.blocks import EpochBlock, PackedStream
from repro.errors import ConfigurationError, ServiceError
from repro.observations import ObservationEpoch
from repro.service.executor import BatchExecutor
from repro.service.types import ServiceConfig, ServiceResult
from repro.service.shm import (
    SharedSlab,
    SlabLayout,
    TornBatchError,
    check_sealed,
    stamp_begin,
    stamp_end,
)
from repro.telemetry import get_registry

#: Routing policies.
POLICIES: Tuple[str, ...] = ("hash", "least_loaded")

#: ``resp_solver`` codes → solver-name suffix (index = code).  The
#: algorithm name itself stays router-side config; shipping a code
#: keeps the response lane fixed-width.
_SOLVER_CODES: Tuple[str, ...] = ("", "/scalar", "/nr-fallback")

#: ``resp_verdict_status`` codes (−1 = no verdict attached).
_VERDICT_CODES: Tuple[str, ...] = ("passed", "repaired", "unusable", "unchecked")

#: ``resp_status`` codes (index into this tuple; matches the executor's
#: possible per-row outcomes — routing statuses never cross the slab).
_STATUS_CODES: Tuple[str, ...] = ("ok", "invalid", "failed")


@dataclass(frozen=True)
class ShardConfig:
    """Frozen tuning for the sharded tier.

    Attributes
    ----------
    service:
        The per-worker :class:`~repro.service.types.ServiceConfig`
        (solver, integrity, batching bounds).  Workers build their
        :class:`~repro.service.executor.BatchExecutor` from it.
    workers:
        Worker process count.  ``0`` runs the executor **inline** in
        the router process — same batching, same results, no IPC — the
        parity baseline the tests compare against.
    policy:
        ``"hash"`` pins a client id to a worker (cache/affinity
        friendly); ``"least_loaded"`` picks the worker with the fewest
        in-flight slots (ties to the lowest id, deterministically).
    batch_size:
        Fixed batch cut applied to the input stream *before* routing.
        Determinism across worker counts holds because this, not the
        worker count, decides batch composition.
    slots_per_worker:
        In-flight batches a single worker can hold (slab slots).
    slot_epochs / slot_satellites:
        Per-slot capacity: max epochs per batch slot and max satellites
        per epoch the slab can carry.  ``batch_size`` must fit
        ``slot_epochs``.
    heartbeat_interval_seconds / heartbeat_timeout_seconds:
        Worker liveness: how often an idle worker stamps its heartbeat,
        and how stale the stamp may grow before the supervisor declares
        the worker dead even without a pipe EOF.
    max_restarts:
        Per-worker crash-restart budget; exhausted → the worker slot is
        abandoned and the shard degrades to the remaining workers.
    drain_timeout_seconds:
        How long :meth:`ShardedPositioningService.stop` waits for
        in-flight batches before giving up on a worker.
    start_method:
        ``multiprocessing`` start method.  ``"fork"`` (default) is
        fast and inherits warm imports; ``"spawn"`` works because the
        worker entry point is a module-level function fed only
        picklable config.
    """

    service: ServiceConfig = field(default_factory=ServiceConfig)
    workers: int = 2
    policy: str = "hash"
    batch_size: int = 64
    slots_per_worker: int = 4
    slot_epochs: int = 256
    slot_satellites: int = 16
    heartbeat_interval_seconds: float = 0.05
    heartbeat_timeout_seconds: float = 5.0
    max_restarts: int = 2
    drain_timeout_seconds: float = 10.0
    start_method: str = "fork"

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ConfigurationError("workers must be >= 0")
        if self.policy not in POLICIES:
            raise ConfigurationError(
                f"policy must be one of {'/'.join(POLICIES)}, got {self.policy!r}"
            )
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if self.slots_per_worker <= 0:
            raise ConfigurationError("slots_per_worker must be positive")
        if self.batch_size > self.slot_epochs:
            raise ConfigurationError(
                f"batch_size {self.batch_size} exceeds slot_epochs "
                f"{self.slot_epochs}"
            )
        if self.slot_satellites < 4:
            raise ConfigurationError("slot_satellites must be >= 4")
        if self.heartbeat_interval_seconds <= 0:
            raise ConfigurationError("heartbeat_interval_seconds must be positive")
        if self.heartbeat_timeout_seconds <= self.heartbeat_interval_seconds:
            raise ConfigurationError(
                "heartbeat_timeout_seconds must exceed the interval"
            )
        if self.max_restarts < 0:
            raise ConfigurationError("max_restarts must be >= 0")
        if self.start_method not in ("fork", "spawn", "forkserver"):
            raise ConfigurationError(
                f"unknown start_method {self.start_method!r}"
            )


def slab_layout(config: ShardConfig) -> SlabLayout:
    """The per-worker slab layout both sides compute identically.

    Request lane (router writes, worker reads) and response lane
    (worker writes, router reads), each seqlock-bracketed per slot.
    Arrays are fixed-capacity and NaN/zero-padded: per-row satellite
    counts live in ``req_sats`` so the worker can rebuild exact-width
    blocks without shipping shapes.
    """
    slots = config.slots_per_worker
    n = config.slot_epochs
    m = config.slot_satellites
    return (
        SlabLayout()
        # liveness: monotonic counter + wall stamp, worker-written
        .add("heartbeat", (2,), "<i8")
        # request lane
        .add("req_begin", (slots,), "<i8")
        .add("req_end", (slots,), "<i8")
        .add("req_count", (slots,), "<i8")
        .add("req_sats", (slots, n), "<i8")
        .add("req_positions", (slots, n, m, 3), "<f8")
        .add("req_pseudoranges", (slots, n, m), "<f8")
        .add("req_cn0", (slots, n, m), "<f8")
        .add("req_prns", (slots, n, m), "<i8")
        .add("req_systems", (slots, n, m), "<i1")
        .add("req_weeks", (slots, n), "<i8")
        .add("req_sow", (slots, n), "<f8")
        .add("req_biases", (slots, n), "<f8")
        # response lane
        .add("resp_begin", (slots,), "<i8")
        .add("resp_end", (slots,), "<i8")
        .add("resp_status", (slots, n), "<i1")
        .add("resp_positions", (slots, n, 3), "<f8")
        .add("resp_biases", (slots, n), "<f8")
        .add("resp_solver", (slots, n), "<i1")
        .add("resp_verdict_status", (slots, n), "<i1")
        .add("resp_verdict_prn", (slots, n), "<i8")
        .add("resp_verdict_stat", (slots, n), "<f8")
        .add("resp_verdict_threshold", (slots, n), "<f8")
    )


def write_request(
    arrays: Dict[str, np.ndarray],
    slot: int,
    sequence: int,
    packed: PackedStream,
    biases: Optional[np.ndarray],
) -> None:
    """Fill one request slot from a packed batch (router side).

    One slab copy per lane: the flush's padded block lands in the
    slot's ``[:n, :m]`` corner as-is, padding included, and
    ``req_sats`` carries the per-row counts (0 for unpackable rows,
    which the worker reports invalid without touching their lanes).
    Raises :class:`~repro.errors.ServiceError` if the batch does not
    fit the slot.
    """
    block = packed.block
    n, m = len(block), block.width
    capacity, width = arrays["req_sats"].shape[1], arrays["req_cn0"].shape[2]
    if n > capacity or m > width:
        raise ServiceError(
            f"a {n}-epoch batch of up to {m} satellites does not fit a "
            f"slab slot of {capacity} epochs x {width} satellites"
        )
    stamp_begin(arrays["req_begin"], slot, sequence)
    arrays["req_count"][slot] = n
    arrays["req_sats"][slot, :n] = block.counts
    arrays["req_positions"][slot, :n, :m] = block.positions
    arrays["req_pseudoranges"][slot, :n, :m] = block.pseudoranges
    # Slots are reused: a block without C/N0 must still overwrite the
    # previous occupant's lane, because all-NaN is how "no signal
    # features" reads back.
    arrays["req_cn0"][slot, :n, :m] = np.nan if block.cn0 is None else block.cn0
    arrays["req_prns"][slot, :n, :m] = block.prns
    arrays["req_systems"][slot, :n, :m] = block.systems
    arrays["req_weeks"][slot, :n] = block.weeks
    arrays["req_sow"][slot, :n] = block.seconds_of_week
    arrays["req_biases"][slot, :n] = np.nan if biases is None else biases
    stamp_end(arrays["req_end"], slot, sequence)


def read_request(
    arrays: Dict[str, np.ndarray], slot: int, sequence: int
) -> Tuple[PackedStream, Optional[np.ndarray]]:
    """The packed batch of one request slot, as a zero-copy view
    (worker side).

    The block's lanes are read-only views of the slot's ``[:n, :m]``
    corner, ``m`` the widest row — the same padded block the router
    packed, so the solver math downstream is identical to the
    in-process path.  Raises :class:`~repro.service.shm.TornBatchError`
    if the slot's seqlock does not seal ``sequence``, and
    :class:`~repro.errors.ServiceError` if its counts or system tags
    are out of range.
    """
    check_sealed(arrays["req_begin"], arrays["req_end"], slot, sequence)
    capacity, width = arrays["req_sats"].shape[1], arrays["req_cn0"].shape[2]
    n = int(arrays["req_count"][slot])
    if not 0 <= n <= capacity:
        raise ServiceError(
            f"slot {slot} claims {n} epochs; its capacity is {capacity}"
        )
    counts = arrays["req_sats"][slot, :n]
    if n and (counts.min() < 0 or counts.max() > width):
        raise ServiceError(
            f"slot {slot} claims satellite counts outside [0, {width}]"
        )
    m = int(counts.max()) if n else 0
    cn0 = arrays["req_cn0"][slot, :n, :m]
    try:
        block = EpochBlock(
            positions=arrays["req_positions"][slot, :n, :m],
            pseudoranges=arrays["req_pseudoranges"][slot, :n, :m],
            # The lane is present when any row reports C/N0, exactly
            # like pack_stream's: write_request NaN-fills it otherwise.
            cn0=cn0 if np.isfinite(cn0).any() else None,
            prns=arrays["req_prns"][slot, :n, :m],
            systems=arrays["req_systems"][slot, :n, :m],
            weeks=arrays["req_weeks"][slot, :n],
            seconds_of_week=arrays["req_sow"][slot, :n],
            truth_positions=np.full((n, 3), np.nan),
            truth_biases=np.full(n, np.nan),
            counts=counts,
        )
    except ConfigurationError as exc:
        raise ServiceError(f"slot {slot} holds a malformed batch: {exc}") from exc
    overrides = arrays["req_biases"][slot, :n]
    biases = overrides.copy() if np.isfinite(overrides).any() else None
    unpackable = tuple(int(row) for row in np.flatnonzero(counts == 0))
    return PackedStream(block=block, unpackable=unpackable), biases


def write_response(
    arrays: Dict[str, np.ndarray],
    slot: int,
    sequence: int,
    outcomes: Sequence,
) -> Tuple[Dict[int, str], Dict[int, Dict]]:
    """Encode executor outcomes into one response slot (worker side).

    Returns ``(errors, monitors)`` for the control pipe: the row →
    error-string map and the row → monitor-verdict-dict map (the two
    outcome fields that do not fit a fixed-width lane; both are rare —
    only failed/invalid rows carry an error, only non-nominal epochs a
    monitor verdict).
    """
    n = len(outcomes)
    stamp_begin(arrays["resp_begin"], slot, sequence)
    status = arrays["resp_status"][slot]
    solver_codes = arrays["resp_solver"][slot]
    verdict_status = arrays["resp_verdict_status"][slot]
    positions = arrays["resp_positions"][slot]
    biases = arrays["resp_biases"][slot]
    errors: Dict[int, str] = {}
    monitors: Dict[int, Dict] = {}
    for row, outcome in enumerate(outcomes):
        row_status, position, bias, solver, error, verdict, monitor = outcome
        if monitor is not None:
            monitors[row] = monitor.to_dict()
        status[row] = _STATUS_CODES.index(row_status)
        if position is not None:
            positions[row] = position
        else:
            positions[row] = np.nan
        biases[row] = bias if bias is not None else np.nan
        if solver is None:
            solver_codes[row] = -1
        elif solver.endswith("/nr-fallback"):
            solver_codes[row] = 2
        elif solver.endswith("/scalar"):
            solver_codes[row] = 1
        else:
            solver_codes[row] = 0
        if verdict is not None:
            verdict_status[row] = _VERDICT_CODES.index(verdict.status)
            arrays["resp_verdict_prn"][slot, row] = (
                verdict.excluded_prn if verdict.excluded_prn is not None else -1
            )
            # Floats pass through verbatim (NaN marks unchecked).
            arrays["resp_verdict_stat"][slot, row] = verdict.test_statistic
            arrays["resp_verdict_threshold"][slot, row] = verdict.threshold
        else:
            verdict_status[row] = -1
        if error is not None:
            errors[row] = error
    stamp_end(arrays["resp_end"], slot, sequence)
    return errors, monitors


def read_response(
    arrays: Dict[str, np.ndarray],
    slot: int,
    sequence: int,
    count: int,
    errors: Dict[int, str],
    algorithm: str,
    batch_size: int,
    monitors: Optional[Dict[int, Dict]] = None,
) -> List[ServiceResult]:
    """Decode one sealed response slot into results (router side).

    ``monitors`` is the row → monitor-verdict-dict map shipped in the
    worker's ``done`` message; a crash-recovered sealed slot decodes
    without one (the verdicts died with the worker's pipe).  Raises
    :class:`~repro.service.shm.TornBatchError` if the seqlock does not
    seal ``sequence``, and :class:`~repro.errors.ServiceError` for a
    row count beyond the slot, an out-of-range status/solver/verdict
    code, or an ``ok`` row without a finite fix — a corrupt slot is
    never decoded into a served result.
    """
    from repro.integrity.fde import EpochVerdict
    from repro.integrity.monitors import EpochMonitorVerdict

    check_sealed(arrays["resp_begin"], arrays["resp_end"], slot, sequence)
    capacity = arrays["resp_status"].shape[1]
    if not 0 <= count <= capacity:
        raise ServiceError(
            f"response for slot {slot} claims {count} rows; its capacity is "
            f"{capacity}"
        )
    status = arrays["resp_status"][slot, :count]
    solver_codes = arrays["resp_solver"][slot, :count]
    verdict_status = arrays["resp_verdict_status"][slot, :count]
    positions = arrays["resp_positions"][slot, :count]
    ok = status == 0
    if (
        status.min(initial=0) < 0
        or status.max(initial=0) >= len(_STATUS_CODES)
        or solver_codes.min(initial=0) < -1
        or solver_codes.max(initial=0) >= len(_SOLVER_CODES)
        or verdict_status.min(initial=0) < -1
        or verdict_status.max(initial=0) >= len(_VERDICT_CODES)
        or not np.isfinite(positions[ok]).all()
        or (solver_codes[ok] < 0).any()
    ):
        raise ServiceError(
            f"response for slot {slot} holds out-of-range codes or a "
            "non-finite served fix"
        )
    results: List[ServiceResult] = []
    for row in range(count):
        row_status = _STATUS_CODES[status[row]]
        verdict = None
        code = int(verdict_status[row])
        if code >= 0:
            prn = int(arrays["resp_verdict_prn"][slot, row])
            verdict = EpochVerdict(
                status=_VERDICT_CODES[code],
                test_statistic=float(arrays["resp_verdict_stat"][slot, row]),
                threshold=float(arrays["resp_verdict_threshold"][slot, row]),
                excluded_prn=prn if prn >= 0 else None,
            )
        solver = None
        code = int(solver_codes[row])
        if code >= 0:
            solver = algorithm + _SOLVER_CODES[code]
        bias = float(arrays["resp_biases"][slot, row])
        monitor = None
        if monitors is not None:
            payload = monitors.get(row)
            if payload is not None:
                monitor = EpochMonitorVerdict.from_dict(payload)
        results.append(
            ServiceResult(
                status=row_status,
                position=positions[row].copy() if row_status == "ok" else None,
                clock_bias_meters=bias if np.isfinite(bias) else None,
                solver=solver if row_status == "ok" else None,
                error=errors.get(row),
                batch_size=batch_size,
                integrity=verdict,
                monitor=monitor,
            )
        )
    return results


# -- the worker process ------------------------------------------------


def worker_main(
    worker_id: int,
    slab_path: str,
    layout_spec: list,
    slab_size: int,
    service_config: ServiceConfig,
    conn,
    heartbeat_interval: float,
) -> None:
    """One shard worker: attach the slab, answer batches until told to stop.

    Module-level on purpose — picklable by reference, so the same entry
    point works under fork and spawn.  The worker installs a **fresh**
    private registry (the fork hook in :mod:`repro.telemetry` already
    cleared any inherited one) and ships snapshots on ``scrape``.  An
    exception out of the executor answers every row of its batch
    ``failed`` ("internal dispatch error: ..."), as the in-process
    dispatch loop does, and the worker keeps serving.
    """
    from repro import telemetry

    registry, _tracer = telemetry.install()
    layout = SlabLayout.from_spec(layout_spec)
    slab = SharedSlab.attach(slab_path, slab_size)
    arrays = layout.arrays(slab.buffer)
    executor = BatchExecutor(service_config)
    heartbeat = arrays["heartbeat"]
    batches = registry.counter(
        "repro_shard_worker_batches_total",
        "Batches answered by this worker.",
    ).labels()
    crash_after: Optional[int] = None
    stall = False
    try:
        while True:
            heartbeat[0] += 1
            heartbeat[1] = time.monotonic_ns()
            if not conn.poll(heartbeat_interval):
                continue
            try:
                message = conn.recv()
            except EOFError:  # router died; nothing left to serve
                return
            kind = message[0]
            if kind == "stop":
                return
            if kind == "scrape":
                conn.send(("metrics", registry.snapshot()))
                continue
            if kind == "chaos":
                # Fault-injection hook for the supervisor tests: die
                # after N row-fills of the next batch (torn response),
                # or stall (heartbeat-timeout path).  Never reachable
                # in production — the router only sends it from tests.
                crash_after = message[1]
                stall = bool(message[2]) if len(message) > 2 else False
                continue
            _kind, slot, sequence = message
            if stall:
                while True:  # simulate a wedged worker (no heartbeats)
                    time.sleep(3600)
            packed, biases = read_request(arrays, slot, sequence)
            try:
                outcomes, _meta = executor.execute_packed(packed, biases)
            except Exception as exc:  # one poison batch must not kill the worker
                error = f"internal dispatch error: {exc}"
                failed = ("failed", None, None, None, error, None, None)
                outcomes = [failed] * len(packed)
            finally:
                # The packed block views the slab: drop it now, or the
                # mapping cannot close when the worker is told to stop.
                del packed
            if crash_after is not None:
                # Torn-write chaos: open the response window, fill only
                # a prefix, then die without sealing.
                stamp_begin(arrays["resp_begin"], slot, sequence)
                for row in range(min(crash_after, len(outcomes))):
                    arrays["resp_positions"][slot, row] = 1.0
                os._exit(17)
            errors, monitors = write_response(arrays, slot, sequence, outcomes)
            batches.inc()
            heartbeat[0] += 1
            heartbeat[1] = time.monotonic_ns()
            conn.send(("done", slot, sequence, len(outcomes), errors, monitors))
    finally:
        del arrays, heartbeat
        slab.close()


# -- the router --------------------------------------------------------


@dataclass
class _Worker:
    """Router-side bookkeeping for one worker process."""

    index: int
    slab: SharedSlab
    arrays: Dict[str, np.ndarray]
    process: Optional[multiprocessing.process.BaseProcess] = None
    conn: object = None
    restarts: int = 0
    alive: bool = False
    sequence: int = 0
    # slot -> (sequence, batch row count, stream offset) while in flight
    inflight: Dict[int, Tuple[int, int, int]] = field(default_factory=dict)
    free_slots: List[int] = field(default_factory=list)

    @property
    def load(self) -> int:
        return len(self.inflight)


class _RouterMetrics:
    """Pre-resolved router-side telemetry children."""

    __slots__ = ("registry", "requests", "batches", "retryable", "restarts", "workers_up")

    def __init__(self, registry) -> None:
        self.registry = registry
        self.requests = registry.counter(
            "repro_shard_requests_total", "Requests routed through the shard."
        ).labels()
        self.batches = registry.counter(
            "repro_shard_batches_total", "Batches dispatched to workers."
        ).labels()
        self.retryable = registry.counter(
            "repro_shard_retryable_total",
            "Requests resurfaced as retryable after a worker death.",
        ).labels()
        self.restarts = registry.counter(
            "repro_shard_worker_restarts_total", "Worker crash-restarts."
        ).labels()
        self.workers_up = registry.gauge(
            "repro_shard_workers_up", "Live worker processes."
        ).labels()


class ShardedPositioningService:
    """Multi-process sharded front end over the batch-execution core.

    Usage::

        config = ShardConfig(service=ServiceConfig(...), workers=4)
        with ShardedPositioningService(config) as shard:
            results = shard.solve_many(epochs)

    The router is synchronous: callers hand it an epoch stream (or use
    the CLI's ``serve --workers N`` front end) and get stream-ordered
    results.  All IPC, supervision, and retry surfacing happens inside
    :meth:`solve_many`.
    """

    def __init__(self, config: Optional[ShardConfig] = None) -> None:
        self._config = config if config is not None else ShardConfig()
        self._layout = slab_layout(self._config)
        self._workers: List[_Worker] = []
        self._inline: Optional[BatchExecutor] = None
        self._context = multiprocessing.get_context(self._config.start_method)
        self._running = False
        self._metrics: Optional[_RouterMetrics] = None
        self._algorithm = self._config.service.solver.algorithm

    # -- lifecycle -----------------------------------------------------

    @property
    def config(self) -> ShardConfig:
        return self._config

    @property
    def running(self) -> bool:
        return self._running

    @property
    def live_workers(self) -> int:
        """Currently-live worker processes (0 in inline mode)."""
        return sum(1 for worker in self._workers if worker.alive)

    def start(self) -> None:
        """Create slabs and spawn every worker."""
        if self._running:
            raise ServiceError("shard is already running")
        if self._config.workers == 0:
            self._inline = BatchExecutor(self._config.service)
            self._running = True
            return
        try:
            for index in range(self._config.workers):
                slab = SharedSlab.create(self._layout.nbytes)
                worker = _Worker(
                    index=index,
                    slab=slab,
                    arrays=self._layout.arrays(slab.buffer),
                    free_slots=list(range(self._config.slots_per_worker)),
                )
                self._workers.append(worker)
                self._spawn(worker)
        except BaseException:
            self._teardown()
            raise
        self._running = True

    def _spawn(self, worker: _Worker) -> None:
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=worker_main,
            name=f"repro-shard-worker-{worker.index}",
            args=(
                worker.index,
                worker.slab.path,
                self._layout.spec(),
                self._layout.nbytes,
                self._config.service,
                child_conn,
                self._config.heartbeat_interval_seconds,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker.process = process
        worker.conn = parent_conn
        worker.alive = True
        metrics = self._telemetry()
        if metrics is not None:
            metrics.workers_up.set(self.live_workers)

    def stop(self, drain: bool = True) -> None:
        """Drain in-flight work (optionally), stop workers, free slabs."""
        if not self._running:
            return
        if drain and self._workers:
            deadline = time.monotonic() + self._config.drain_timeout_seconds
            for worker in self._workers:
                while worker.alive and worker.inflight:
                    if time.monotonic() >= deadline:
                        break
                    self._poll_worker(worker, timeout=0.05, collector=None)
        self._teardown()
        self._running = False

    def _teardown(self) -> None:
        for worker in self._workers:
            if worker.alive and worker.conn is not None:
                try:
                    worker.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
            if worker.process is not None:
                worker.process.join(timeout=2.0)
                if worker.process.is_alive():
                    worker.process.kill()
                    worker.process.join(timeout=2.0)
            if worker.conn is not None:
                worker.conn.close()
            worker.arrays = {}
            worker.slab.close()
            worker.slab.unlink()
        self._workers = []
        self._inline = None

    def __enter__(self) -> "ShardedPositioningService":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def _telemetry(self) -> Optional[_RouterMetrics]:
        registry = get_registry()
        if not registry.enabled:
            return None
        metrics = self._metrics
        if metrics is None or metrics.registry is not registry:
            metrics = _RouterMetrics(registry)
            self._metrics = metrics
        return metrics

    # -- routing -------------------------------------------------------

    def _route(self, batch_index: int, client_id: Optional[str]) -> Optional[_Worker]:
        """Pick the live worker for one batch, or ``None`` if none live."""
        live = [worker for worker in self._workers if worker.alive]
        if not live:
            return None
        if self._config.policy == "hash":
            # Deterministic content hash (not Python's seeded hash()):
            # a client sticks to its worker across runs and processes.
            key = client_id if client_id is not None else str(batch_index)
            digest = 0
            for byte in key.encode():
                digest = (digest * 131 + byte) % 1000000007
            return live[digest % len(live)]
        return min(live, key=lambda worker: (worker.load, worker.index))

    # -- solving -------------------------------------------------------

    def solve_many(
        self,
        epochs: Sequence[ObservationEpoch],
        bias_meters: Optional[Sequence[Optional[float]]] = None,
        client_ids: Optional[Sequence[str]] = None,
    ) -> List[ServiceResult]:
        """Solve a stream through the shard; results in stream order.

        ``bias_meters`` optionally carries per-epoch clock-bias
        overrides; ``client_ids`` optionally names a routing client per
        epoch (hash policy routes each batch by its first client id).
        """
        if not self._running:
            raise ServiceError(
                "shard is not running; enter it with 'with' or start()"
            )
        epochs = list(epochs)
        metrics = self._telemetry()
        if metrics is not None:
            metrics.requests.inc(len(epochs))
        size = self._config.batch_size
        batches: List[Tuple[int, int]] = [  # (offset, count)
            (start, min(size, len(epochs) - start))
            for start in range(0, len(epochs), size)
        ]
        results: List[Optional[ServiceResult]] = [None] * len(epochs)

        if self._inline is not None:
            for offset, count in batches:
                chunk = epochs[offset : offset + count]
                overrides = (
                    list(bias_meters[offset : offset + count])
                    if bias_meters is not None
                    else None
                )
                outcomes, _meta = self._inline.execute(chunk, overrides)
                for row, outcome in enumerate(outcomes):
                    status, position, bias, solver, error, verdict, monitor = (
                        outcome
                    )
                    results[offset + row] = ServiceResult(
                        status=status,
                        position=position,
                        clock_bias_meters=bias,
                        solver=solver,
                        error=error,
                        batch_size=count,
                        integrity=verdict,
                        monitor=monitor,
                    )
                if metrics is not None:
                    metrics.batches.inc()
            return [result for result in results if result is not None]

        from repro.blocks import pack_stream

        pending = list(enumerate(batches))
        pending.reverse()  # pop() takes them in stream order
        while pending or any(worker.inflight for worker in self._workers):
            self._reap_dead(results, epochs)
            dispatched = False
            while pending:
                batch_index, (offset, count) = pending[-1]
                client_id = (
                    client_ids[offset]
                    if client_ids is not None and offset < len(client_ids)
                    else None
                )
                worker = self._route(batch_index, client_id)
                if worker is None:
                    # Every worker is gone: resurface everything left.
                    pending.pop()
                    self._fail_batch(
                        results,
                        offset,
                        count,
                        "no live workers remain (restart budget exhausted)",
                    )
                    continue
                if not worker.free_slots:
                    if self._config.policy == "least_loaded":
                        candidates = [
                            w
                            for w in self._workers
                            if w.alive and w.free_slots
                        ]
                        if candidates:
                            worker = min(
                                candidates,
                                key=lambda w: (w.load, w.index),
                            )
                        else:
                            break  # all slots busy; go collect
                    else:
                        break  # hash affinity: wait for this worker
                pending.pop()
                self._dispatch(
                    worker,
                    offset,
                    count,
                    epochs,
                    bias_meters,
                    pack_stream,
                )
                if metrics is not None:
                    metrics.batches.inc()
                dispatched = True
            progressed = self._collect(results, epochs, timeout=0.05)
            if not progressed and not dispatched:
                # Nothing landed this round: liveness is re-checked at
                # the top of the loop (pipe EOF, heartbeat staleness).
                continue
        return [
            result
            if result is not None
            else ServiceResult(status="retryable", error="lost in dispatch")
            for result in results
        ]

    def _dispatch(
        self,
        worker: _Worker,
        offset: int,
        count: int,
        epochs: List[ObservationEpoch],
        bias_meters,
        pack_stream,
    ) -> None:
        chunk = epochs[offset : offset + count]
        packed = pack_stream(chunk)
        biases = None
        if bias_meters is not None:
            biases = np.array(
                [
                    float(value) if value is not None else np.nan
                    for value in bias_meters[offset : offset + count]
                ]
            )
        slot = worker.free_slots.pop()
        worker.sequence += 1
        sequence = worker.sequence * self._config.slots_per_worker + slot
        write_request(worker.arrays, slot, sequence, packed, biases)
        worker.inflight[slot] = (sequence, count, offset)
        try:
            worker.conn.send(("batch", slot, sequence))
        except (BrokenPipeError, OSError):
            pass  # death is observed (and the batch resurfaced) in _reap_dead

    def _poll_worker(self, worker: _Worker, timeout: float, collector) -> bool:
        """Drain one worker's pipe; returns whether anything landed."""
        landed = False
        try:
            while worker.conn.poll(timeout if not landed else 0):
                message = worker.conn.recv()
                if message[0] != "done":
                    continue  # stray scrape replies handled elsewhere
                _kind, slot, sequence, count, errors, monitors = message
                entry = worker.inflight.get(slot)
                if entry is None or entry[0] != sequence:
                    continue  # stale slot from before a restart
                _sequence, batch_count, offset = entry
                rows = read_response(
                    worker.arrays,
                    slot,
                    sequence,
                    count,
                    errors,
                    self._algorithm,
                    batch_count,
                    monitors,
                )
                del worker.inflight[slot]
                worker.free_slots.append(slot)
                if collector is not None:
                    collector(offset, rows)
                landed = True
        except (EOFError, OSError):
            worker.alive = False
        return landed

    def _collect(self, results, epochs, timeout: float) -> bool:
        def place(offset: int, rows: List[ServiceResult]) -> None:
            for row, result in enumerate(rows):
                results[offset + row] = result

        landed = False
        for worker in self._workers:
            if worker.alive and worker.inflight:
                landed |= self._poll_worker(worker, timeout, place)
            elif worker.alive:
                self._poll_worker(worker, 0, place)
        return landed

    def _reap_dead(self, results, epochs) -> None:
        """Detect dead/wedged workers; resurface their in-flight work."""
        now = time.monotonic_ns()
        timeout_ns = int(self._config.heartbeat_timeout_seconds * 1e9)
        for worker in self._workers:
            if not worker.alive and not worker.inflight:
                continue
            # A worker is dead if its pipe EOF'd (alive already cleared
            # with work still in flight), its process exited, or its
            # heartbeat went stale while holding a batch.
            dead = not worker.alive or (
                worker.process is not None and not worker.process.is_alive()
            )
            if not dead and worker.inflight:
                stamp = int(worker.arrays["heartbeat"][1])
                if stamp and now - stamp > timeout_ns:
                    dead = True
            if not dead:
                continue
            if worker.process is not None and worker.process.is_alive():
                # Wedged (stale heartbeat) or half-dead (EOF): kill so
                # restart or degradation proceeds deterministically.
                worker.process.kill()
                worker.process.join(timeout=2.0)
            metrics = self._telemetry()
            for slot, (sequence, count, offset) in sorted(
                worker.inflight.items()
            ):
                # The seqlock decides: a sealed response is usable even
                # though the worker died after writing it; an unsealed
                # one resurfaces as retryable.
                try:
                    check_sealed(
                        worker.arrays["resp_begin"],
                        worker.arrays["resp_end"],
                        slot,
                        sequence,
                    )
                except TornBatchError:
                    self._fail_batch(
                        results,
                        offset,
                        count,
                        f"worker {worker.index} died mid-batch",
                    )
                    if metrics is not None:
                        metrics.retryable.inc(count)
                else:
                    rows = read_response(
                        worker.arrays,
                        slot,
                        sequence,
                        count,
                        {},
                        self._algorithm,
                        count,
                    )
                    for row, result in enumerate(rows):
                        results[offset + row] = result
            worker.inflight = {}
            worker.free_slots = list(range(self._config.slots_per_worker))
            worker.alive = False
            if worker.conn is not None:
                worker.conn.close()
                worker.conn = None
            if worker.process is not None:
                worker.process.join(timeout=2.0)
            if worker.restarts < self._config.max_restarts:
                worker.restarts += 1
                if metrics is not None:
                    metrics.restarts.inc()
                self._spawn(worker)
            elif metrics is not None:
                metrics.workers_up.set(self.live_workers)

    def _fail_batch(
        self, results, offset: int, count: int, reason: str
    ) -> None:
        for row in range(count):
            if results[offset + row] is None:
                results[offset + row] = ServiceResult(
                    status="retryable",
                    error=f"{reason}; resubmit the request",
                    retry_after_seconds=self._config.service.retry_after_seconds,
                    batch_size=count,
                )

    # -- chaos hooks (tests only) --------------------------------------

    def inject_crash(self, worker_index: int, after_rows: int = 0) -> None:
        """Tell one worker to die mid-fill on its next batch (tests)."""
        self._workers[worker_index].conn.send(("chaos", after_rows))

    def inject_stall(self, worker_index: int) -> None:
        """Tell one worker to wedge (stop heartbeating) on its next batch."""
        self._workers[worker_index].conn.send(("chaos", 0, True))

    # -- fleet telemetry -----------------------------------------------

    def worker_registries(self, timeout: float = 5.0) -> List:
        """Live workers' registries, restored from pipe snapshots."""
        from repro.telemetry import registry_from_snapshot

        registries = []
        for worker in self._workers:
            if not worker.alive:
                continue
            try:
                worker.conn.send(("scrape",))
                deadline = time.monotonic() + timeout
                while time.monotonic() < deadline:
                    if not worker.conn.poll(deadline - time.monotonic()):
                        break
                    message = worker.conn.recv()
                    if message[0] == "metrics":
                        registries.append(registry_from_snapshot(message[1]))
                        break
            except (BrokenPipeError, EOFError, OSError):
                worker.alive = False
        return registries

    def scrape(self) -> str:
        """One Prometheus fleet scrape: router + every live worker."""
        from repro.telemetry import get_registry as _get_registry
        from repro.telemetry.exporters import to_prometheus_fleet_text

        registries = list(self.worker_registries())
        local = _get_registry()
        if local.enabled:
            registries.insert(0, local)
        return to_prometheus_fleet_text(registries)
