"""The sharded multi-process serving tier.

:class:`ShardedPositioningService` is a front end over N worker
processes, each running the same
:class:`~repro.service.executor.BatchExecutor` the in-process
:class:`~repro.service.service.PositioningService` dispatches to.  The
router cuts an epoch stream into fixed-size batches, routes each batch
to the least-loaded worker, and moves the
bulk arrays through a shared-memory slab
(:mod:`repro.service.shm`) — epoch payloads and answers are **never
pickled** on the hot path; only slot/sequence control messages ride
the per-worker pipe.  A worker's answers travel as one
:class:`~repro.service.types.ResultBlock` whose lanes (error texts
included) are copied once into the response slab and once back out.

Determinism is a design contract, not an accident: batch boundaries
are fixed by ``batch_size`` (independent of worker count), each batch
executes whole in exactly one process, and that process solves the
same padded :class:`~repro.blocks.PackedStream` the in-process service
builds (a worker views it straight out of the slab) — so the solver
math sees identical arrays and the fixes are **bitwise identical**
across inline mode, 1 worker, N workers, and the in-process service
(the cross-process determinism suite pins this).

Which process solves a batch: stream state (the health tracker and
the monitor suite) lives in one process, the router.  A *stateful*
config (integrity, health or monitors armed; see :func:`stateless`)
spawns no worker, whatever ``workers`` says, and the router answers
every batch in stream order, as it does in inline mode
(``workers=0``).  With workers, a stateless config's batches go to
them, except that a call's last batch is solved by the router itself
when every live worker already holds a batch in flight: the router
would otherwise sit idle waiting for them, and any batch wider than a
slab slot (``SLOT_SATELLITES``) is solved by the router too.  Both run
one flush body, :func:`answer_batch`.  So a worker only ever sees
stateless configs, and the slab carries neither C/N0 nor monitor
records.

Supervision: every worker heartbeats into its slab and is watched by
the router during dispatch.  A worker that dies mid-batch never hangs
or drops its requests — the seqlock on the response lane proves the
batch incomplete and every in-flight request resurfaces as
``status="retryable"``.  Crashed workers restart against the same slab
within a bounded budget (``MAX_RESTARTS``); past it the shard degrades
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
from repro.integrity.fde import STATUS_NAMES as VERDICT_NAMES
from repro.observations import ObservationEpoch
from repro.service.executor import BatchExecutor, bias_lane
from repro.service.types import (
    ABSENT,
    RESULT_LANES,
    SOLVER_SUFFIXES,
    STATUS_FAILED,
    STATUS_OK,
    ResultBlock,
    ServiceConfig,
    ServiceResult,
)
from repro.service.shm import (
    SharedSlab,
    SlabLayout,
    TornBatchError,
    check_sealed,
    stamp_begin,
    stamp_end,
)
from repro.telemetry import get_registry

#: In-flight batches one worker can hold (slab slots).
SLOTS_PER_WORKER = 4

#: Satellites per epoch a slab slot carries; a wider batch is answered
#: by the router.  Sixteen covers one constellation's visible sky.
SLOT_SATELLITES = 16

#: Worker liveness: how often an idle worker stamps its heartbeat, and
#: how stale the stamp may grow before the supervisor declares the
#: worker dead even without a pipe EOF.
HEARTBEAT_INTERVAL_SECONDS = 0.05
HEARTBEAT_TIMEOUT_SECONDS = 5.0

#: Per-worker crash-restart budget; exhausted, the worker slot is
#: abandoned and the shard degrades to the remaining workers.
MAX_RESTARTS = 2

#: How long :meth:`ShardedPositioningService.stop` waits for in-flight
#: batches before giving up on a worker.
DRAIN_TIMEOUT_SECONDS = 10.0

#: Response-slab bytes per row for error texts.  Each distinct text of
#: a batch is stored NUL-terminated (NULs inside it dropped), cut to
#: ``TEXT_BYTES - 1`` UTF-8 bytes at a character boundary.
TEXT_BYTES = 512


@dataclass(frozen=True)
class ShardConfig:
    """Frozen tuning for the sharded tier.

    Attributes
    ----------
    service:
        The :class:`~repro.service.types.ServiceConfig` (solver,
        integrity, batching bounds) every
        :class:`~repro.service.executor.BatchExecutor` of the shard is
        built from.  Its ``trace``, ``recorder`` and ``slo`` must be
        unset: they ride the asyncio service only.
    workers:
        Worker process count for a stateless ``service`` config
        (:func:`stateless`).  ``0`` runs the executor **inline** in
        the router process — same batching, same results, no IPC — the
        parity baseline the tests compare against.  Each batch goes to
        the live worker with a free slot and the fewest batches in
        flight (ties to the lowest index).  The router also solves a
        call's last batch itself when every live worker is busy, and
        any batch wider than a slab slot.  A stateful config
        (integrity, health or monitors armed) always runs inline,
        whatever this says: its stream state lives in the router,
        which answers every batch in stream order.  Workers are
        forked.
    batch_size:
        Fixed batch cut applied to the input stream *before* routing.
        Determinism across worker counts holds because this, not the
        worker count, decides batch composition.  A slab slot holds
        exactly one batch: ``batch_size`` epochs of up to
        ``SLOT_SATELLITES`` satellites.

    Supervision timing and the restart budget are module constants
    (``HEARTBEAT_INTERVAL_SECONDS``, ``HEARTBEAT_TIMEOUT_SECONDS``,
    ``MAX_RESTARTS``, ``DRAIN_TIMEOUT_SECONDS``).
    """

    service: ServiceConfig = field(default_factory=ServiceConfig)
    workers: int = 2
    batch_size: int = 64

    def __post_init__(self) -> None:
        # The shard answers through the router's own dispatch loop,
        # which serves no traces, keeps no flight recorder and grades
        # no SLO: refuse them rather than drop them silently.
        for name in ("trace", "recorder", "slo"):
            if getattr(self.service, name):
                raise ConfigurationError(
                    f"service.{name} rides the asyncio service; the shard "
                    "does not serve it (its telemetry is the fleet scrape)"
                )
        if self.workers < 0:
            raise ConfigurationError("workers must be >= 0")
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")


def slab_layout(config: ShardConfig) -> SlabLayout:
    """The per-worker slab layout both sides compute identically.

    Request lane (router writes, worker reads) and response lane
    (worker writes, router reads), each seqlock-bracketed per slot.
    Arrays are fixed-capacity and NaN/zero-padded: per-row satellite
    counts live in ``req_sats`` so the worker can rebuild exact-width
    blocks without shipping shapes.  The response lane holds every
    :class:`~repro.service.types.ResultBlock` lane, the error texts
    back to back in ``resp_text``.  Workers answer stateless configs
    only, so neither lane carries C/N0 or a monitor record.
    """
    slots = SLOTS_PER_WORKER
    n = config.batch_size
    m = SLOT_SATELLITES
    layout = (
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
        .add("req_prns", (slots, n, m), "<i8")
        .add("req_systems", (slots, n, m), "<i1")
        .add("req_weeks", (slots, n), "<i8")
        .add("req_sow", (slots, n), "<f8")
        .add("req_biases", (slots, n), "<f8")
        # response lane
        .add("resp_begin", (slots,), "<i8")
        .add("resp_end", (slots,), "<i8")
        .add("resp_text_length", (slots,), "<i8")
        .add("resp_text", (slots, n * TEXT_BYTES), "u1")
    )
    for lane, (dtype, _absent, shape) in RESULT_LANES.items():
        layout.add(f"resp_{lane}", (slots, n) + shape, dtype)
    return layout


def stateless(service: ServiceConfig) -> bool:
    """Whether a batch's answers depend on the batch alone.

    A :class:`~repro.service.executor.BatchExecutor` carries stream
    state only in its health tracker (built when integrity or health
    is armed) and its monitor suite; without them any process may
    answer any batch.  With them the shard's router answers every
    batch itself, so the state stays in one process.
    """
    return (
        service.integrity is None
        and service.health is None
        and service.monitors is None
    )


def check_fits(packed: PackedStream, capacity: int, width: int) -> None:
    """Raise :class:`~repro.errors.ServiceError` unless the packed batch
    fits a slab slot of ``capacity`` epochs x ``width`` satellites."""
    block = packed.block
    n, m = len(block), block.width
    if n > capacity or m > width:
        raise ServiceError(
            f"a {n}-epoch batch of up to {m} satellites does not fit a "
            f"slab slot of {capacity} epochs x {width} satellites"
        )


def answer_batch(
    executor: BatchExecutor,
    packed: PackedStream,
    biases: Optional[np.ndarray],
) -> ResultBlock:
    """One batch through the flush body every shard executor runs.

    An exception out of the executor answers every row of the batch
    ``failed`` ("internal dispatch error: ..."), as the in-process
    dispatch loop does, so no transport lets it escape.  The
    :class:`~repro.service.executor.BatchMeta` is dropped at once: on a
    worker its block views the slab.
    """
    try:
        return executor.execute_packed(packed, biases)[0]
    except Exception as exc:  # one poison batch must not kill the caller
        error = f"internal dispatch error: {exc}"
        return ResultBlock.empty(len(packed), STATUS_FAILED).with_errors(
            dict.fromkeys(range(len(packed)), error)
        )


def _executor_batches(registry):
    """The counter of batches one process's executor answered."""
    return registry.counter(
        "repro_shard_worker_batches_total",
        "Batches answered by this process's shard executor.",
    ).labels()


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
    ``req_sats`` carries the per-row counts (-1 for unpackable rows,
    which the worker reports invalid without touching their lanes; an
    empty but packable epoch keeps its 0).
    Raises :class:`~repro.errors.ServiceError` if the batch does not
    fit the slot.
    """
    check_fits(packed, arrays["req_sats"].shape[1], arrays["req_prns"].shape[2])
    block = packed.block
    n, m = len(block), block.width
    stamp_begin(arrays["req_begin"], slot, sequence)
    arrays["req_count"][slot] = n
    arrays["req_sats"][slot, :n] = block.counts
    arrays["req_sats"][slot, list(packed.unpackable)] = -1
    arrays["req_positions"][slot, :n, :m] = block.positions
    arrays["req_pseudoranges"][slot, :n, :m] = block.pseudoranges
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
    capacity, width = arrays["req_sats"].shape[1], arrays["req_prns"].shape[2]
    n = int(arrays["req_count"][slot])
    if not 0 <= n <= capacity:
        raise ServiceError(
            f"slot {slot} claims {n} epochs; its capacity is {capacity}"
        )
    sats = arrays["req_sats"][slot, :n]
    if n and (sats.min() < -1 or sats.max() > width):
        raise ServiceError(
            f"slot {slot} claims satellite counts outside [-1, {width}]"
        )
    counts = np.maximum(sats, 0)
    m = int(counts.max()) if n else 0
    try:
        block = EpochBlock(
            positions=arrays["req_positions"][slot, :n, :m],
            pseudoranges=arrays["req_pseudoranges"][slot, :n, :m],
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
    unpackable = tuple(int(row) for row in np.flatnonzero(sats == -1))
    return PackedStream(block=block, unpackable=unpackable), biases


def write_response(
    arrays: Dict[str, np.ndarray],
    slot: int,
    sequence: int,
    block: ResultBlock,
) -> None:
    """Copy a flush's :class:`~repro.service.types.ResultBlock` into one
    response slot (worker side), one slab copy per lane."""
    n = len(block)
    stamp_begin(arrays["resp_begin"], slot, sequence)
    for lane in RESULT_LANES:
        arrays[f"resp_{lane}"][slot, :n] = getattr(block, lane)
    cut = TEXT_BYTES - 1
    pool = b"".join(
        text.replace("\0", "").encode()[:cut].decode(errors="ignore").encode() + b"\0"
        for text in block.error_texts
    )
    arrays["resp_text_length"][slot] = len(pool)
    arrays["resp_text"][slot, : len(pool)] = np.frombuffer(pool, dtype=np.uint8)
    stamp_end(arrays["resp_end"], slot, sequence)


def read_response(
    arrays: Dict[str, np.ndarray],
    slot: int,
    sequence: int,
    count: int,
) -> ResultBlock:
    """Copy one sealed response slot out as a
    :class:`~repro.service.types.ResultBlock` (router side).

    A slot salvaged from a dead worker decodes through this same call.
    Raises :class:`~repro.service.shm.TornBatchError` if the seqlock
    does not seal ``sequence``, and :class:`~repro.errors.ServiceError`
    for a row count beyond the slot, an out-of-range status, solver,
    verdict or error code, a text length beyond the text lane
    or malformed text, or an ``ok`` row without a finite fix — a
    corrupt slot is never decoded into a served result.
    """
    check_sealed(arrays["resp_begin"], arrays["resp_end"], slot, sequence)
    capacity = arrays["resp_status"].shape[1]
    if not 0 <= count <= capacity:
        raise ServiceError(
            f"response for slot {slot} claims {count} rows; its capacity is "
            f"{capacity}"
        )
    lanes = {lane: arrays[f"resp_{lane}"][slot, :count].copy() for lane in RESULT_LANES}
    texts = _read_texts(arrays, slot)
    ok = lanes["status"] == STATUS_OK
    if not (
        _in_range(lanes["status"], 0, STATUS_FAILED)
        and _in_range(lanes["solver"], ABSENT, len(SOLVER_SUFFIXES) - 1)
        and _in_range(lanes["verdict"], ABSENT, len(VERDICT_NAMES) - 1)
        and _in_range(lanes["errors"], ABSENT, len(texts) - 1)
        and np.isfinite(lanes["positions"][ok]).all()
        and (lanes["solver"][ok] >= 0).all()
    ):
        raise ServiceError(
            f"response for slot {slot} holds out-of-range codes or a "
            "non-finite served fix"
        )
    return ResultBlock(**lanes, error_texts=texts)


def _in_range(codes: np.ndarray, low: int, high: int) -> bool:
    return low <= codes.min(initial=low) and codes.max(initial=low) <= high


def _read_texts(arrays: Dict[str, np.ndarray], slot: int) -> Tuple[str, ...]:
    """The slot's distinct error texts."""
    length = int(arrays["resp_text_length"][slot])
    pool = arrays["resp_text"][slot]
    if not 0 <= length <= pool.shape[0]:
        raise ServiceError(
            f"response for slot {slot} claims {length} bytes of error text"
        )
    try:
        return tuple(pool[:length].tobytes().decode().split("\0")[:-1])
    except UnicodeDecodeError as exc:
        raise ServiceError(
            f"response for slot {slot} holds a malformed error text"
        ) from exc


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

    Forked by the router, so its imports are warm.  The worker installs
    a **fresh** private registry (the fork hook in :mod:`repro.telemetry`
    already cleared any inherited one) and ships snapshots on
    ``scrape``.  An
    exception out of the executor answers every row of its batch
    ``failed`` (:func:`answer_batch`) and the worker keeps serving.
    """
    from repro import telemetry

    registry, _tracer = telemetry.install()
    layout = SlabLayout.from_spec(layout_spec)
    slab = SharedSlab.attach(slab_path, slab_size)
    arrays = layout.arrays(slab.buffer)
    executor = BatchExecutor(service_config)
    heartbeat = arrays["heartbeat"]
    batches = _executor_batches(registry)
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
                block = answer_batch(executor, packed, biases)
            finally:
                # The packed block views the slab: drop it now, or the
                # mapping cannot close when the worker is told to stop.
                del packed
            if crash_after is not None:
                # Torn-write chaos: open the response window, fill only
                # a prefix, then die without sealing.
                stamp_begin(arrays["resp_begin"], slot, sequence)
                for row in range(min(crash_after, len(block))):
                    arrays["resp_positions"][slot, row] = 1.0
                os._exit(17)
            write_response(arrays, slot, sequence, block)
            batches.inc()
            heartbeat[0] += 1
            heartbeat[1] = time.monotonic_ns()
            conn.send(("done", slot, sequence))
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

    __slots__ = (
        "registry",
        "requests",
        "batches",
        "answered",
        "retryable",
        "restarts",
        "workers_up",
    )

    def __init__(self, registry) -> None:
        self.registry = registry
        self.requests = registry.counter(
            "repro_shard_requests_total", "Requests routed through the shard."
        ).labels()
        self.batches = registry.counter(
            "repro_shard_batches_total", "Batches cut from routed streams."
        ).labels()
        self.answered = _executor_batches(registry)
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
        # The router's own executor: every batch when no worker was
        # spawned, a call's last batch while the workers are busy.
        self._executor: Optional[BatchExecutor] = None
        # Fork: slabs are /dev/shm files (Linux only), and the
        # telemetry fork hooks reset what a worker inherits.
        self._context = multiprocessing.get_context("fork")
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
        """Currently-live worker processes (0 when none was spawned)."""
        return sum(1 for worker in self._workers if worker.alive)

    def start(self) -> None:
        """Build the router's executor; for a stateless config, also
        create slabs and spawn every worker."""
        if self._running:
            raise ServiceError("shard is already running")
        self._executor = BatchExecutor(self._config.service)
        if stateless(self._config.service):
            try:
                for index in range(self._config.workers):
                    slab = SharedSlab.create(self._layout.nbytes)
                    worker = _Worker(
                        index=index,
                        slab=slab,
                        arrays=self._layout.arrays(slab.buffer),
                        free_slots=list(range(SLOTS_PER_WORKER)),
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
                HEARTBEAT_INTERVAL_SECONDS,
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
            deadline = time.monotonic() + DRAIN_TIMEOUT_SECONDS
            for worker in self._workers:
                while worker.alive and worker.inflight:
                    if time.monotonic() >= deadline:
                        break
                    self._poll_worker(worker, 0.05, None)
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
            try:
                worker.slab.close()
            except BufferError:
                # An error in flight holds slab views in its traceback:
                # the mapping goes with them, the error stays the caller's.
                pass
            finally:
                worker.slab.unlink()
        self._workers = []
        self._executor = None

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

    def _route(self) -> Optional[_Worker]:
        """The live worker with a free slot and the fewest batches in
        flight (ties to the lowest index), or ``None`` if there is none."""
        free = [w for w in self._workers if w.alive and w.free_slots]
        return min(free, key=lambda w: (w.load, w.index), default=None)

    # -- solving -------------------------------------------------------

    def solve_many(
        self,
        epochs: Sequence[ObservationEpoch],
        bias_meters: Optional[Sequence[Optional[float]]] = None,
    ) -> List[ServiceResult]:
        """Solve a stream through the shard; results in stream order.

        ``bias_meters`` optionally carries per-epoch clock-bias
        overrides, one per epoch; a list of another length raises
        :class:`~repro.errors.ConfigurationError` before any batch is
        cut.
        """
        if not self._running:
            raise ServiceError(
                "shard is not running; enter it with 'with' or start()"
            )
        epochs = list(epochs)
        if bias_meters is not None and len(bias_meters) != len(epochs):
            raise ConfigurationError(
                f"bias_meters has {len(bias_meters)} entries for {len(epochs)} epochs"
            )
        metrics = self._telemetry()
        if metrics is not None:
            metrics.requests.inc(len(epochs))
        size = self._config.batch_size
        pending: List[Tuple[int, int]] = [  # (offset, count)
            (start, min(size, len(epochs) - start))
            for start in range(0, len(epochs), size)
        ]
        pending.reverse()  # pop() takes them in stream order
        results: List[Optional[ServiceResult]] = [None] * len(epochs)

        from repro.blocks import pack_stream

        # The next pending batch, packed once even if it waits for a slot.
        head: Optional[Tuple[PackedStream, Optional[np.ndarray]]] = None
        while pending or any(worker.inflight for worker in self._workers):
            self._reap_dead(results, epochs)
            while pending:
                offset, count = pending[-1]
                try:
                    if head is None:
                        head = (
                            pack_stream(epochs[offset : offset + count]),
                            bias_lane(
                                None
                                if bias_meters is None
                                else bias_meters[offset : offset + count]
                            ),
                        )
                    packed, biases = head
                    if self._solves_here(packed, last=len(pending) == 1):
                        self._solve_here(results, offset, count, packed, biases)
                    elif self.live_workers:
                        worker = self._route()
                        if worker is None:
                            break  # all slots busy; go collect
                        self._dispatch(worker, offset, count, packed, biases)
                    else:
                        # Every worker is gone: resurface everything left.
                        self._fail_batch(
                            results,
                            offset,
                            count,
                            "no live workers remain (restart budget exhausted)",
                        )
                except Exception:
                    # This call's earlier batches are already in
                    # flight: retire them before the error surfaces so
                    # their answers never land in a later call.
                    self._drain(results, epochs)
                    raise
                pending.pop()
                head = None
                if metrics is not None:
                    metrics.batches.inc()
            # Liveness (pipe EOF, heartbeat staleness) is re-checked at
            # the top of the loop whether or not anything landed.
            self._collect(results, epochs, timeout=0.05)
        return [
            result
            if result is not None
            else ServiceResult(status="retryable", error="lost in dispatch")
            for result in results
        ]

    def _drain(self, results, epochs) -> None:
        """Collect every in-flight batch into ``results``."""
        while any(worker.inflight for worker in self._workers):
            self._reap_dead(results, epochs)
            self._collect(results, epochs, timeout=0.05)

    def _solves_here(self, packed: PackedStream, last: bool) -> bool:
        """Whether the router answers the next batch itself.

        Every batch when no worker was spawned (inline mode or a
        stateful config), and any batch wider than a slab slot.  With
        workers, otherwise only a call's last batch, and only when
        every live worker already holds one in flight (the router
        would otherwise block on them).  Earlier batches always go
        out: on a long call the router's packing, not the workers, is
        the bottleneck.
        """
        if not self._workers or packed.block.width > SLOT_SATELLITES:
            return True
        if not last:
            return False
        live = [worker for worker in self._workers if worker.alive]
        return bool(live) and all(worker.inflight for worker in live)

    def _solve_here(
        self,
        results,
        offset: int,
        count: int,
        packed: PackedStream,
        biases: Optional[np.ndarray],
    ) -> None:
        """Answer one batch on the router's own executor."""
        block = answer_batch(self._executor, packed, biases)
        results[offset : offset + count] = block.results(self._algorithm, count)
        metrics = self._telemetry()
        if metrics is not None:
            metrics.answered.inc()

    def _dispatch(
        self,
        worker: _Worker,
        offset: int,
        count: int,
        packed: PackedStream,
        biases: Optional[np.ndarray],
    ) -> None:
        slot = worker.free_slots.pop()
        worker.sequence += 1
        sequence = worker.sequence * SLOTS_PER_WORKER + slot
        try:
            write_request(worker.arrays, slot, sequence, packed, biases)
        except BaseException:
            worker.free_slots.append(slot)
            raise
        worker.inflight[slot] = (sequence, count, offset)
        try:
            worker.conn.send(("batch", slot, sequence))
        except (BrokenPipeError, OSError):
            pass  # death is observed (and the batch resurfaced) in _reap_dead

    def _poll_worker(
        self, worker: _Worker, timeout: float, results: Optional[List]
    ) -> bool:
        """Drain one worker's pipe into ``results`` (discarded when
        ``None``); returns whether anything landed."""
        landed = False
        try:
            while worker.conn.poll(timeout if not landed else 0):
                message = worker.conn.recv()
                if message[0] != "done":
                    continue  # stray scrape replies handled elsewhere
                _kind, slot, sequence = message
                entry = worker.inflight.get(slot)
                if entry is None or entry[0] != sequence:
                    continue  # stale slot from before a restart
                _sequence, count, offset = entry
                # The router decodes as many rows as it sent.
                rows = read_response(worker.arrays, slot, sequence, count).results(
                    self._algorithm, count
                )
                del worker.inflight[slot]
                worker.free_slots.append(slot)
                if results is not None:
                    results[offset : offset + count] = rows
                landed = True
        except (EOFError, OSError):
            worker.alive = False
        return landed

    def _collect(self, results, epochs, timeout: float) -> bool:
        landed = False
        for worker in self._workers:
            if worker.alive and worker.inflight:
                landed |= self._poll_worker(worker, timeout, results)
            elif worker.alive:
                self._poll_worker(worker, 0, results)
        return landed

    def _reap_dead(self, results, epochs) -> None:
        """Detect dead/wedged workers; resurface their in-flight work."""
        now = time.monotonic_ns()
        timeout_ns = int(HEARTBEAT_TIMEOUT_SECONDS * 1e9)
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
                    results[offset : offset + count] = read_response(
                        worker.arrays, slot, sequence, count
                    ).results(self._algorithm, count)
            worker.inflight = {}
            worker.free_slots = list(range(SLOTS_PER_WORKER))
            worker.alive = False
            if worker.conn is not None:
                worker.conn.close()
                worker.conn = None
            if worker.process is not None:
                worker.process.join(timeout=2.0)
            if worker.restarts < MAX_RESTARTS:
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
