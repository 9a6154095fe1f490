"""The sharded multi-process serving tier.

:class:`ShardedPositioningService` is a front end over N worker
processes, each running the same
:class:`~repro.service.executor.BatchExecutor` the in-process
:class:`~repro.service.service.PositioningService` dispatches to.  The
router cuts an epoch stream into fixed-size batches, routes each batch
to a worker (**hash-by-client** or **least-loaded**), and moves the
bulk arrays through a shared-memory slab
(:mod:`repro.service.shm`) — epoch payloads and answers are **never
pickled** on the hot path; only slot/sequence control messages ride
the per-worker pipe.  A worker's answers travel as one
:class:`~repro.service.types.ResultBlock` whose lanes (error texts and
monitor records included) are copied once into the response slab and
once back out.

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
from repro.integrity.fde import STATUS_NAMES as VERDICT_NAMES
from repro.integrity.monitors import SEVERITY_SPOOFED, MonitorRecord
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

#: Routing policies.
POLICIES: Tuple[str, ...] = ("hash", "least_loaded")

#: The :class:`~repro.integrity.monitors.MonitorRecord` lanes a
#: response slot carries, per row and per row and satellite
#: (``severities``, their maximum over monitors, is recomputed on read).
_MONITOR_ROW_LANES = ("monitor_severities", "statistics", "thresholds")
_MONITOR_SATELLITE_LANES = ("flagged", "keys")

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


def monitor_names(config: ShardConfig) -> Tuple[str, ...]:
    """The names of the monitors a worker's executor runs, in order."""
    monitors = config.service.monitors
    return () if monitors is None else monitors.build().names


def slab_layout(config: ShardConfig) -> SlabLayout:
    """The per-worker slab layout both sides compute identically.

    Request lane (router writes, worker reads) and response lane
    (worker writes, router reads), each seqlock-bracketed per slot.
    Arrays are fixed-capacity and NaN/zero-padded: per-row satellite
    counts live in ``req_sats`` so the worker can rebuild exact-width
    blocks without shipping shapes.  The response lane holds every
    :class:`~repro.service.types.ResultBlock` lane: the error texts
    back to back in ``resp_text``, and the monitor record sized by the
    configured monitor count (``resp_monitor_width`` is ``-1`` when a
    batch has none).
    """
    slots = config.slots_per_worker
    n = config.slot_epochs
    m = config.slot_satellites
    k = len(monitor_names(config))
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
        .add("req_cn0", (slots, n, m), "<f8")
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
        .add("resp_monitor_width", (slots,), "<i8")
        .add("resp_monitor_monitor_severities", (slots, k, n), "<i1")
        .add("resp_monitor_statistics", (slots, k, n), "<f8")
        .add("resp_monitor_thresholds", (slots, k, n), "<f8")
        .add("resp_monitor_flagged", (slots, k, n, m), "u1")
        .add("resp_monitor_keys", (slots, n, m), "<i8")
    )
    for lane, (dtype, _absent, shape) in RESULT_LANES.items():
        layout.add(f"resp_{lane}", (slots, n) + shape, dtype)
    return layout


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
    record = block.monitors
    if record is None:
        arrays["resp_monitor_width"][slot] = -1
    else:
        m = record.keys.shape[1]
        arrays["resp_monitor_width"][slot] = m
        for lane in _MONITOR_ROW_LANES:
            arrays[f"resp_monitor_{lane}"][slot][..., :n] = getattr(record, lane)
        for lane in _MONITOR_SATELLITE_LANES:
            arrays[f"resp_monitor_{lane}"][slot][..., :n, :m] = getattr(record, lane)
    stamp_end(arrays["resp_end"], slot, sequence)


def read_response(
    arrays: Dict[str, np.ndarray],
    slot: int,
    sequence: int,
    count: int,
    monitors: Tuple[str, ...] = (),
) -> ResultBlock:
    """Copy one sealed response slot out as a
    :class:`~repro.service.types.ResultBlock` (router side).

    ``monitors`` names the worker's monitors (:func:`monitor_names`).
    A slot salvaged from a dead worker decodes through this same call.
    Raises :class:`~repro.service.shm.TornBatchError` if the seqlock
    does not seal ``sequence``, and :class:`~repro.errors.ServiceError`
    for a row count beyond the slot, an out-of-range status, solver,
    verdict, error or monitor code, a text length beyond the text lane
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
    return ResultBlock(
        **lanes,
        error_texts=texts,
        monitors=_read_monitors(arrays, slot, count, monitors),
    )


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


def _read_monitors(
    arrays: Dict[str, np.ndarray],
    slot: int,
    count: int,
    names: Tuple[str, ...],
) -> Optional[MonitorRecord]:
    """The slot's monitor record, ``None`` when the batch had none."""
    width = int(arrays["resp_monitor_width"][slot])
    if width == -1:
        return None
    if not 0 <= width <= arrays["resp_monitor_keys"].shape[2]:
        raise ServiceError(f"response for slot {slot} claims monitor width {width}")
    lanes = {
        lane: arrays[f"resp_monitor_{lane}"][slot][..., :count].copy()
        for lane in _MONITOR_ROW_LANES
    }
    for lane in _MONITOR_SATELLITE_LANES:
        lanes[lane] = arrays[f"resp_monitor_{lane}"][slot][..., :count, :width].copy()
    levels = lanes["monitor_severities"]
    if not _in_range(levels, 0, SEVERITY_SPOOFED):
        raise ServiceError(
            f"response for slot {slot} holds out-of-range monitor severities"
        )
    lanes["flagged"] = lanes["flagged"] != 0
    return MonitorRecord(
        names=names, severities=levels.max(axis=0, initial=0), **lanes
    )


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
                block, _meta = executor.execute_packed(packed, biases)
            except Exception as exc:  # one poison batch must not kill the worker
                error = f"internal dispatch error: {exc}"
                block = ResultBlock.empty(len(packed), STATUS_FAILED).with_errors(
                    dict.fromkeys(range(len(packed)), error)
                )
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
        self._monitor_names = monitor_names(self._config)

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
        overrides, one per epoch (a list of another length raises
        :class:`~repro.errors.ConfigurationError` before any batch is
        cut); ``client_ids`` optionally names a routing client per
        epoch (hash policy routes each batch by its first client id).
        """
        if not self._running:
            raise ServiceError(
                "shard is not running; enter it with 'with' or start()"
            )
        epochs = list(epochs)
        if bias_meters is not None and len(bias_meters) != len(epochs):
            raise ConfigurationError(
                f"bias_meters has {len(bias_meters)} entries for "
                f"{len(epochs)} epochs"
            )
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
                block, _meta = self._inline.execute(
                    epochs[offset : offset + count],
                    None
                    if bias_meters is None
                    else bias_meters[offset : offset + count],
                )
                results[offset : offset + count] = block.results(
                    self._algorithm, count
                )
                if metrics is not None:
                    metrics.batches.inc()
            return results

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
        packed = pack_stream(epochs[offset : offset + count])
        biases = bias_lane(
            None if bias_meters is None else bias_meters[offset : offset + count]
        )
        slot = worker.free_slots.pop()
        worker.sequence += 1
        sequence = worker.sequence * self._config.slots_per_worker + slot
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
                rows = read_response(
                    worker.arrays, slot, sequence, count, self._monitor_names
                ).results(self._algorithm, count)
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
                    results[offset : offset + count] = read_response(
                        worker.arrays, slot, sequence, count, self._monitor_names
                    ).results(self._algorithm, count)
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
