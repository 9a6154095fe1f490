"""Per-request trace contexts and span trees, read off one record per flush.

Where :mod:`repro.telemetry.tracer` records *process-wide* flat spans
(a flame graph of whatever ran), this module gives each **request** its
own identity and its own tree.  A served request's
:class:`~repro.service.types.ServiceResult` carries a
:class:`RequestTrace`: a span tree whose leaves are the engine's
per-stage timings (``queue``/``pack``/``validate``/``solve``/``fde``/
``scatter``) plus the **batch lineage** of the request: which dispatch
it shared, which peers rode along, which row of the flush's padded
block it landed on and how many satellites it carried there.

A flush's trace facts live in one place, a :class:`FlushTrace` the
service writes once per solved flush (and once per batch of requests
screened out before the solve): the flush's request numbers, its
enqueue and deadline lanes, the dispatch and resolve stamps, a
reference to the engine's stage split, its lineage and the satellite
counts lane.  A :class:`RequestTrace` is a ``(record, row)`` view; its
context, peers and span tree are built from the record when something
reads them (an exporter, the flight recorder, a test).

The trace plane is **off by default** and costs nothing when off: the
service reserves request numbers and writes trace records only when
``ServiceConfig(trace=True)``, and nothing here is imported on the
solver hot path.  Traced-on, each flush reserves one request number
per request, in flush order (:func:`reserve_request_numbers`).

Timing semantics: all span times are *loop/monotonic clock* seconds
(the asyncio loop clock at the service tier), comparable only within
one process.  Stage child spans are reconstructed from measured stage
*durations*, so their start offsets are cumulative estimates — the
durations are exact, the sub-stage ordering is by construction.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

#: Engine stage names in execution order (mirrors
#: ``EngineResult.stage_seconds``); the service prefixes a ``queue``
#: stage of its own.
ENGINE_STAGES: Tuple[str, ...] = ("pack", "validate", "solve", "fde", "scatter")

#: Per-process id prefix: distinguishes ids minted by different worker
#: processes once the sharded tier aggregates their traces.
_ID_PREFIX = os.urandom(3).hex()
_TRACE_TAG = "t-" + _ID_PREFIX + "-"
_REQUEST_TAG = "r-" + _ID_PREFIX + "-"
# The next unreserved request number; services on several threads
# reserve from it under the lock.
_NEXT_NUMBER = 1
_NUMBER_LOCK = threading.Lock()


def reserve_request_numbers(count: int) -> int:
    """Reserve ``count`` consecutive request numbers; the first of them.

    The service reserves one block per flush, one number per request
    in flush order, so one service's ids run in submission order and
    no two services of the process (on any threads) share one.
    """
    global _NEXT_NUMBER
    with _NUMBER_LOCK:
        first = _NEXT_NUMBER
        _NEXT_NUMBER = first + count
    return first


def reset_trace_identity() -> None:
    """Re-seed the per-process id prefix and restart the numbering.

    A forked child inherits the parent's prefix and next number, so
    without a reset two processes mint *colliding* request ids.  The
    lock is replaced too: a fork may copy it held.  Called
    automatically in fork children (see :mod:`repro.telemetry`'s
    ``os.register_at_fork`` hook); spawn starts from a fresh import and
    needs nothing.
    """
    global _ID_PREFIX, _NEXT_NUMBER, _NUMBER_LOCK, _TRACE_TAG, _REQUEST_TAG
    _ID_PREFIX = os.urandom(3).hex()
    _NEXT_NUMBER = 1
    _NUMBER_LOCK = threading.Lock()
    _TRACE_TAG = "t-" + _ID_PREFIX + "-"
    _REQUEST_TAG = "r-" + _ID_PREFIX + "-"


def format_request_id(number: int) -> str:
    """The request-id string a reserved request number resolves to."""
    return _REQUEST_TAG + format(number, "08x")


def _format_trace_id(number: int) -> str:
    """The trace id of the request ``number``: one request is one trace,
    so the two share their counter value (``t-…-5`` owns ``r-…-5``)."""
    return _TRACE_TAG + format(number, "08x")


class TraceContext:
    """The identity one request carries through the serving stack.

    A plain ``__slots__`` value class.  Treat instances as immutable.

    Attributes
    ----------
    trace_id:
        End-to-end correlation id.  Today one request is one trace; the
        sharded tier will reuse a caller-supplied trace id across
        retries and shards.
    request_id:
        This submission's unique id — what ``repro-gps inspect
        --request`` looks up.
    origin:
        Where the context was minted (``"service.submit"``, a station
        id, a load generator name ...).
    deadline:
        The request's loop-clock deadline, or ``None``; carried so any
        layer can annotate "how close to the deadline was I" without
        threading the service's bookkeeping through.
    """

    __slots__ = ("trace_id", "request_id", "origin", "deadline")

    def __init__(
        self,
        trace_id: str,
        request_id: str,
        origin: str = "service",
        deadline: Optional[float] = None,
    ) -> None:
        self.trace_id = trace_id
        self.request_id = request_id
        self.origin = origin
        self.deadline = deadline

    def __repr__(self) -> str:
        return (
            f"TraceContext(trace_id={self.trace_id!r}, "
            f"request_id={self.request_id!r}, origin={self.origin!r}, "
            f"deadline={self.deadline!r})"
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TraceContext)
            and self.trace_id == other.trace_id
            and self.request_id == other.request_id
            and self.origin == other.origin
            and self.deadline == other.deadline
        )

    def __hash__(self) -> int:
        return hash((self.trace_id, self.request_id))

    @classmethod
    def new(
        cls,
        origin: str = "service",
        deadline: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> "TraceContext":
        """Mint a fresh context on a newly reserved request number
        (joining ``trace_id`` if supplied)."""
        number = reserve_request_numbers(1)
        return cls(
            trace_id if trace_id is not None else _format_trace_id(number),
            format_request_id(number),
            origin,
            deadline,
        )

    def to_dict(self) -> Dict:
        return {
            "trace_id": self.trace_id,
            "request_id": self.request_id,
            "origin": self.origin,
            "deadline": self.deadline,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "TraceContext":
        return cls(
            trace_id=str(payload["trace_id"]),
            request_id=str(payload["request_id"]),
            origin=str(payload.get("origin", "service")),
            deadline=payload.get("deadline"),
        )


@dataclass(frozen=True)
class TraceSpan:
    """One timed region of a request's journey, with children.

    ``start_seconds`` is on the same monotonic clock as every other
    span of the trace; ``duration_seconds`` is exact for measured spans
    and exact-but-repositioned for stage spans reconstructed from
    duration splits (see module docstring).
    """

    name: str
    start_seconds: float
    duration_seconds: float
    attributes: Dict[str, object] = field(default_factory=dict)
    children: Tuple["TraceSpan", ...] = ()

    def walk(self) -> Iterator["TraceSpan"]:
        """Depth-first iteration over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["TraceSpan"]:
        """The first span named ``name`` in depth-first order."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "start_seconds": self.start_seconds,
            "duration_seconds": self.duration_seconds,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "TraceSpan":
        return cls(
            name=str(payload["name"]),
            start_seconds=float(payload["start_seconds"]),
            duration_seconds=float(payload["duration_seconds"]),
            attributes=dict(payload.get("attributes", {})),
            children=tuple(
                cls.from_dict(child) for child in payload.get("children", ())
            ),
        )

    def format_tree(self, indent: int = 0) -> str:
        """A human-readable flame-graph-in-text rendering."""
        lines: List[str] = []
        self._format_into(lines, indent)
        return "\n".join(lines)

    def _format_into(self, lines: List[str], indent: int) -> None:
        attrs = " ".join(f"{k}={v}" for k, v in sorted(self.attributes.items()))
        lines.append(
            "  " * indent
            + f"{self.name:<10s} {1e3 * self.duration_seconds:9.3f} ms"
            + (f"  [{attrs}]" if attrs else "")
        )
        for child in self.children:
            child._format_into(lines, indent + 1)


class FlushTrace:
    """One flush's trace facts: the one record every trace of it reads.

    The service writes one per solved flush, and one per batch of
    requests screened out of a flush before its solve (deadline expired
    while queued).  Nothing is copied per row: the lanes are the ones
    the dispatch already holds, and :class:`RequestTrace` views build
    each row's context, peers and span tree from them when read.  The
    flight recorder keeps the record as its entry's lineage.  Treat
    instances as immutable.

    Attributes
    ----------
    first_number:
        The request number of the flush's first request, or ``None``
        when the trace plane is off (the record then names no ids).
        Numbers run one per request in flush order, so the request on
        flush row ``r`` is ``first_number + r``.
    rows:
        The flush rows this record covers, in order: record row ``i``
        is flush row ``rows[i]`` (a solved flush's block row ``i``).
    enqueued / deadlines:
        Each row's loop-clock enqueue stamp and deadline (``None``:
        none).
    dispatched_at / resolved_at:
        Loop-clock stamps of the solve's start (``None`` for screened
        requests, which never reached one) and of resolution.
    stage_seconds:
        The engine's ``{stage: seconds}`` split for the solve
        (``EngineResult.stage_seconds`` itself, never copied), ``None``
        when no engine stage ran.
    sequence / reason / rung / algorithm:
        The flush's lineage: its batcher sequence number, why it was
        flushed, which rung answered it (``"screened"`` for requests
        screened out before the solve) and the engine's algorithm.
    counts:
        Each row's satellite count when the batched kernel answered,
        ``-1`` for rows it did not (``BatchMeta.counts``), else
        ``None``.
    """

    __slots__ = (
        "first_number",
        "rows",
        "enqueued",
        "deadlines",
        "dispatched_at",
        "resolved_at",
        "stage_seconds",
        "sequence",
        "reason",
        "rung",
        "algorithm",
        "counts",
        "_peers",
    )

    def __init__(
        self,
        first_number: Optional[int],
        rows: Sequence[int],
        enqueued: Sequence[float],
        deadlines: Sequence[Optional[float]],
        dispatched_at: Optional[float],
        resolved_at: float,
        stage_seconds: Optional[Mapping[str, float]],
        sequence: int,
        reason: str,
        rung: str,
        algorithm: str,
        counts=None,
    ) -> None:
        self.first_number = first_number
        self.rows = rows
        self.enqueued = enqueued
        self.deadlines = deadlines
        self.dispatched_at = dispatched_at
        self.resolved_at = resolved_at
        self.stage_seconds = stage_seconds
        self.sequence = sequence
        self.reason = reason
        self.rung = rung
        self.algorithm = algorithm
        self.counts = counts
        self._peers: Optional[Tuple[str, ...]] = None

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def batch_size(self) -> int:
        """Requests that shared the solve (0 for screened requests)."""
        return 0 if self.dispatched_at is None else len(self.rows)

    def request_id(self, row: int) -> str:
        """Row ``row``'s request id (the trace plane must be on)."""
        return format_request_id(self.first_number + self.rows[row])

    def peers(self) -> Tuple[str, ...]:
        """Request ids that shared the solve, in flush order (none for
        screened requests); formatted once per record, on first read."""
        peers = self._peers
        if peers is None:
            peers = self._peers = (
                tuple(self.request_id(row) for row in range(len(self.rows)))
                if self.dispatched_at is not None
                else ()
            )
        return peers


class _TraceFields(NamedTuple):
    """What one :class:`RequestTrace` reports besides its span tree."""

    context: TraceContext
    submitted_at: float
    completed_at: float
    dispatched_at: Optional[float]
    solve_seconds: float
    batch_sequence: int
    batch_peers: Tuple[str, ...]
    satellites: int
    flush_row: int


class RequestTrace:
    """The span tree and batch lineage attached to one ServiceResult.

    A ``(record, row)`` view of a :class:`FlushTrace`: building one
    stores two references, and every field below is read off the
    record on first access (then cached), so serving a traced request
    costs one small object.  :meth:`from_dict` loads a view with no
    record, its fields and tree taken from the payload.  Treat
    instances as immutable.

    Attributes
    ----------
    context:
        The request's :class:`TraceContext` (origin
        ``"service.submit"``, the request's deadline).
    submitted_at / dispatched_at / completed_at:
        Loop-clock stamps: admission, start of the dispatch that
        answered (``None`` when the request never reached one), and
        resolution.
    solve_seconds:
        Duration of the solve that answered (shared by the batch).
    batch_sequence:
        Which :class:`~repro.service.batcher.MicroBatcher` flush the
        request rode (monotonically increasing per service).
    batch_peers:
        Request ids that shared the dispatch (including this one), in
        flush order — "who shared my kernel call" for incident
        correlation.
    satellites / flush_row:
        The epoch's satellite count and its row in the flush's padded
        block (the row the batched kernel solved it on); ``-1`` when
        it never reached the kernel (timed out while queued) or when
        the scalar ladder answered.
    """

    __slots__ = ("_record", "_row", "_fields", "_root")

    def __init__(self, record: FlushTrace, row: int) -> None:
        self._record = record
        self._row = row
        self._fields: Optional[_TraceFields] = None
        # The lazily built span tree; from_dict primes it with the
        # serialized tree so round-trips preserve the rendered form.
        self._root: Optional[TraceSpan] = None

    def _read(self) -> _TraceFields:
        fields = self._fields
        if fields is None:
            record, row = self._record, self._row
            number = record.first_number + record.rows[row]
            dispatched_at = record.dispatched_at
            satellites = -1 if record.counts is None else int(record.counts[row])
            fields = self._fields = _TraceFields(
                context=TraceContext(
                    _format_trace_id(number),
                    format_request_id(number),
                    "service.submit",
                    record.deadlines[row],
                ),
                submitted_at=record.enqueued[row],
                completed_at=record.resolved_at,
                dispatched_at=dispatched_at,
                solve_seconds=(
                    0.0 if dispatched_at is None else record.resolved_at - dispatched_at
                ),
                batch_sequence=record.sequence,
                batch_peers=record.peers(),
                satellites=satellites,
                flush_row=row if satellites >= 0 else -1,
            )
        return fields

    context = property(lambda self: self._read().context)
    submitted_at = property(lambda self: self._read().submitted_at)
    completed_at = property(lambda self: self._read().completed_at)
    dispatched_at = property(lambda self: self._read().dispatched_at)
    solve_seconds = property(lambda self: self._read().solve_seconds)
    batch_sequence = property(lambda self: self._read().batch_sequence)
    batch_peers = property(lambda self: self._read().batch_peers)
    satellites = property(lambda self: self._read().satellites)
    flush_row = property(lambda self: self._read().flush_row)

    @property
    def request_id(self) -> str:
        """Shorthand for ``context.request_id``."""
        return self.context.request_id

    def __repr__(self) -> str:
        return (
            f"RequestTrace(request_id={self.request_id!r}, "
            f"batch_sequence={self.batch_sequence}, "
            f"satellites={self.satellites}, "
            f"flush_row={self.flush_row})"
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RequestTrace)
            and self.to_dict() == other.to_dict()
        )

    __hash__ = None  # mutable cache inside; not hashable

    @property
    def root(self) -> TraceSpan:
        """The ``request`` span; children are ``queue`` and (when the
        request reached a solve) ``solve`` with the engine's stage
        spans beneath.  Built on first access, then cached."""
        if self._root is None:
            self._root = self._build_root()
        return self._root

    def _build_root(self) -> TraceSpan:
        fields, record = self._read(), self._record
        dispatched_at = fields.dispatched_at
        children: List[TraceSpan] = [
            TraceSpan(
                name="queue",
                start_seconds=fields.submitted_at,
                duration_seconds=(
                    dispatched_at if dispatched_at is not None else fields.completed_at
                )
                - fields.submitted_at,
            )
        ]
        if dispatched_at is not None:
            attributes: Dict[str, object] = {}
            stages: List[TraceSpan] = []
            if record is not None:
                attributes = {
                    "algorithm": record.algorithm,
                    "rung": record.rung,
                    "batch": record.batch_size,
                    "reason": record.reason,
                }
                # Stages laid out back to back in engine order; unknown
                # extra stages follow, sorted by name, so a future
                # engine stage shows up rather than vanishing.
                split = record.stage_seconds or {}
                names = [name for name in ENGINE_STAGES if name in split]
                names += sorted(set(split) - set(ENGINE_STAGES))
                cursor = dispatched_at
                for name in names:
                    duration = float(split[name])
                    stages.append(TraceSpan(name, cursor, duration))
                    cursor += duration
            children.append(
                TraceSpan(
                    name="solve",
                    start_seconds=dispatched_at,
                    duration_seconds=fields.solve_seconds,
                    attributes=attributes,
                    children=tuple(stages),
                )
            )
        return TraceSpan(
            name="request",
            start_seconds=fields.submitted_at,
            duration_seconds=fields.completed_at - fields.submitted_at,
            attributes={"origin": fields.context.origin},
            children=tuple(children),
        )

    def stage_seconds(self) -> Dict[str, float]:
        """Flat ``{stage: seconds}`` over every non-root span."""
        stages: Dict[str, float] = {}
        for span in self.root.walk():
            if span is self.root:
                continue
            stages[span.name] = stages.get(span.name, 0.0) + span.duration_seconds
        return stages

    @property
    def slowest_stage(self) -> Optional[str]:
        """The *leaf* stage where most of the request's time went."""
        leaves = {
            span.name: span.duration_seconds
            for span in self.root.walk()
            if span is not self.root and not span.children
        }
        if not leaves:
            return None
        return max(leaves, key=lambda name: leaves[name])

    def to_dict(self) -> Dict:
        fields = self._read()
        return {
            "context": fields.context.to_dict(),
            "root": self.root.to_dict(),
            "submitted_at": fields.submitted_at,
            "completed_at": fields.completed_at,
            "dispatched_at": fields.dispatched_at,
            "solve_seconds": fields.solve_seconds,
            "batch_sequence": fields.batch_sequence,
            "batch_peers": list(fields.batch_peers),
            "satellites": fields.satellites,
            "flush_row": fields.flush_row,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RequestTrace":
        trace = cls.__new__(cls)
        trace._record, trace._row = None, -1
        submitted_at = float(payload.get("submitted_at", 0.0))
        trace._fields = _TraceFields(
            context=TraceContext.from_dict(payload["context"]),
            submitted_at=submitted_at,
            completed_at=float(payload.get("completed_at", submitted_at)),
            dispatched_at=payload.get("dispatched_at"),
            solve_seconds=float(payload.get("solve_seconds", 0.0)),
            batch_sequence=int(payload.get("batch_sequence", -1)),
            batch_peers=tuple(payload.get("batch_peers", ())),
            satellites=int(payload.get("satellites", -1)),
            flush_row=int(payload.get("flush_row", -1)),
        )
        trace._root = (
            TraceSpan.from_dict(payload["root"])
            if payload.get("root") is not None
            else None
        )
        return trace

    def format(self) -> str:
        """Multi-line human rendering (the ``inspect`` CLI's output)."""
        fields = self._read()
        lineage = (
            f"batch #{fields.batch_sequence} "
            f"({len(fields.batch_peers)} peers), "
            f"row {fields.flush_row}, m={fields.satellites}"
            if fields.batch_sequence >= 0
            else "never dispatched"
        )
        header = (
            f"request {fields.context.request_id} "
            f"(trace {fields.context.trace_id}, origin {fields.context.origin})\n"
            f"  lineage: {lineage}"
        )
        return header + "\n" + self.root.format_tree(indent=1)
