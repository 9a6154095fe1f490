"""Per-request trace contexts and span trees.

Where :mod:`repro.telemetry.tracer` records *process-wide* flat spans
(a flame graph of whatever ran), this module gives each **request** its
own identity and its own tree: a :class:`TraceContext` minted at
service ingress rides the request through micro-batching, the engine,
the batch solvers, and FDE, and comes back on the
:class:`~repro.service.types.ServiceResult` as a :class:`RequestTrace`
— a span tree whose leaves are the engine's per-stage timings
(``queue``/``pack``/``validate``/``solve``/``fde``/``scatter``) plus
the **batch lineage** of the request: which dispatch it shared, which
peers rode along, which row of the flush's padded block it landed on
and how many satellites it carried there.

The trace plane is **off by default** and costs nothing when off: the
service only mints request identities and assembles trees when
``ServiceConfig(trace=True)``, and nothing here is imported on the
solver hot path.  Even traced-on, ingress stores one counter *number*
per request (:func:`mint_request_number`); the :class:`TraceContext`
object materializes from it lazily the first time anything reads it.

Timing semantics: all span times are *loop/monotonic clock* seconds
(the asyncio loop clock at the service tier), comparable only within
one process.  Stage child spans are reconstructed from measured stage
*durations*, so their start offsets are cumulative estimates — the
durations are exact, the sub-stage ordering is by construction.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError

#: Engine stage names in execution order (mirrors
#: ``EngineResult.stage_seconds``); the service prefixes a ``queue``
#: stage of its own.
ENGINE_STAGES: Tuple[str, ...] = ("pack", "validate", "solve", "fde", "scatter")

#: Per-process id prefix: distinguishes ids minted by different worker
#: processes once the sharded tier aggregates their traces.
_ID_PREFIX = os.urandom(3).hex()
_REQUEST_COUNTER = itertools.count(1)
# Pre-joined tag prefixes: ids are minted per request on the serving
# path, so ``new`` concatenates instead of re-formatting the prefix.
_TRACE_TAG = "t-" + _ID_PREFIX + "-"
_REQUEST_TAG = "r-" + _ID_PREFIX + "-"


def mint_request_number() -> int:
    """Mint the integer identity for one request — the cheapest
    possible trace-armed ingress: one counter bump, no object
    allocation.  The service stores this number on the pending request;
    a :class:`RequestTrace` built over it materializes the full
    :class:`TraceContext` lazily on first read.

    A real ``def`` (not a bound ``count.__next__``) on purpose: callers
    import it by name, and :func:`reset_trace_identity` must be able to
    swap the underlying counter after a fork without stale references
    in importing modules.
    """
    return next(_REQUEST_COUNTER)


def reset_trace_identity() -> None:
    """Re-seed the per-process id prefix and restart the counter.

    A forked child inherits the parent's prefix and counter position,
    so without a reset two processes mint *colliding* request ids.
    Called automatically in fork children (see
    :mod:`repro.telemetry`'s ``os.register_at_fork`` hook); spawn
    starts from a fresh import and needs nothing.
    """
    global _ID_PREFIX, _REQUEST_COUNTER, _TRACE_TAG, _REQUEST_TAG
    _ID_PREFIX = os.urandom(3).hex()
    _REQUEST_COUNTER = itertools.count(1)
    _TRACE_TAG = "t-" + _ID_PREFIX + "-"
    _REQUEST_TAG = "r-" + _ID_PREFIX + "-"


def format_request_id(number: int) -> str:
    """The request-id string a minted request number resolves to."""
    return _REQUEST_TAG + format(number, "08x")


class TraceContext:
    """The identity one request carries through the serving stack.

    A plain ``__slots__`` value class, not a dataclass: one is minted
    per submission when the trace plane is armed, and dataclass
    construction overhead is measurable against the batched service's
    per-request budget.  Treat instances as immutable.

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

    __slots__ = ("_trace_id", "_request_id", "_number", "origin", "deadline")

    def __init__(
        self,
        trace_id: str,
        request_id: str,
        origin: str = "service",
        deadline: Optional[float] = None,
    ) -> None:
        self._trace_id = trace_id
        self._request_id = request_id
        self._number = None
        self.origin = origin
        self.deadline = deadline

    @property
    def trace_id(self) -> str:
        """The end-to-end correlation id (formatted on first read)."""
        trace_id = self._trace_id
        if trace_id is None:
            trace_id = self._trace_id = _TRACE_TAG + format(self._number, "08x")
        return trace_id

    @property
    def request_id(self) -> str:
        """This submission's unique id (formatted on first read)."""
        request_id = self._request_id
        if request_id is None:
            request_id = self._request_id = format_request_id(self._number)
        return request_id

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
        """Mint a fresh context (joining ``trace_id`` if supplied).

        A freshly minted trace shares its counter value with the
        request id (``t-…-5`` owns ``r-…-5``): one request is one
        trace today and the pairing reads well in dumps.  Minting only
        stores the counter value — the id *strings* format lazily on
        first read, so a request that is never dumped or inspected
        never pays for formatting at all.
        """
        context = cls.__new__(cls)
        context._trace_id = trace_id
        context._request_id = None
        context._number = next(_REQUEST_COUNTER)
        context.origin = origin
        context.deadline = deadline
        return context

    @classmethod
    def from_number(
        cls,
        number: int,
        origin: str = "service.submit",
        deadline: Optional[float] = None,
    ) -> "TraceContext":
        """The context a :func:`mint_request_number` number stands for.

        This is the materialization half of the number-only ingress
        path: the serving tier stores just the counter value per
        request, and whichever read path first needs the full context
        (id strings, origin, deadline) rebuilds it here.  Ids still
        format lazily on first read.
        """
        context = cls.__new__(cls)
        context._trace_id = None
        context._request_id = None
        context._number = number
        context.origin = origin
        context.deadline = deadline
        return context

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


def build_stage_spans(
    start_seconds: float,
    stage_seconds: Mapping[str, float],
    order: Tuple[str, ...] = ENGINE_STAGES,
) -> Tuple[TraceSpan, ...]:
    """Stage spans from a duration split, laid out back to back.

    Stages absent from ``stage_seconds`` are skipped; unknown extra
    stages are appended after the known order, sorted by name, so a
    future engine stage shows up rather than vanishing.
    """
    names = [name for name in order if name in stage_seconds]
    names += sorted(set(stage_seconds) - set(order))
    spans: List[TraceSpan] = []
    cursor = start_seconds
    for name in names:
        duration = float(stage_seconds[name])
        spans.append(
            TraceSpan(name=name, start_seconds=cursor, duration_seconds=duration)
        )
        cursor += duration
    return tuple(spans)


class RequestTrace:
    """The span tree and batch lineage attached to one ServiceResult.

    Construction is deliberately cheap: a trace stores the raw
    timestamps and a *reference* to the batch's shared stage-duration
    split, and only materializes :class:`TraceSpan` objects when
    :attr:`root` is first read.  The service builds one of these per
    request on the dispatch path, so the traced-on overhead gate in
    ``bench_service.py`` depends on this laziness (and on this being a
    ``__slots__`` class, not a dataclass) — keep the constructor to
    plain attribute stores.  Treat instances as immutable.

    Attributes
    ----------
    context:
        The request's :class:`TraceContext`.  The service hands the
        constructor a bare request *number* (from
        :func:`mint_request_number`) instead of a context object; the
        context materializes here on first read, so a request that is
        never inspected or dumped never allocates one at all.
    submitted_at / dispatched_at / completed_at:
        Loop-clock stamps: admission, start of the dispatch that
        answered (``None`` when the request never reached one), and
        resolution.
    solve_seconds:
        Duration of the solve that answered (shared by the batch).
    stage_durations:
        The engine's ``{stage: seconds}`` split for the dispatch —
        shared with every peer of the batch, never copied or mutated.
    solve_attributes:
        Annotations for the ``solve`` span (algorithm, rung, flush
        reason ...), also shared per batch.
    batch_sequence:
        Which :class:`~repro.service.batcher.MicroBatcher` flush the
        request rode (monotonically increasing per service); ``-1``
        when it never reached a dispatch.
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

    __slots__ = (
        "_context",
        "submitted_at",
        "completed_at",
        "dispatched_at",
        "solve_seconds",
        "stage_durations",
        "solve_attributes",
        "batch_sequence",
        "_peers",
        "satellites",
        "flush_row",
        "_deadline",
        "_root",
    )

    def __init__(
        self,
        context,  # TraceContext, or an int from mint_request_number
        submitted_at: float,
        completed_at: float,
        dispatched_at: Optional[float] = None,
        solve_seconds: float = 0.0,
        stage_durations: Optional[Mapping[str, float]] = None,
        solve_attributes: Optional[Mapping[str, object]] = None,
        batch_sequence: int = -1,
        batch_peers: Tuple[str, ...] = (),
        satellites: int = -1,
        flush_row: int = -1,
        deadline: Optional[float] = None,
        _root: Optional[TraceSpan] = None,
    ) -> None:
        self._context = context
        self.submitted_at = submitted_at
        self.completed_at = completed_at
        self.dispatched_at = dispatched_at
        self.solve_seconds = solve_seconds
        self.stage_durations = stage_durations
        self.solve_attributes = solve_attributes
        self.batch_sequence = batch_sequence
        self._peers = batch_peers
        self.satellites = satellites
        self.flush_row = flush_row
        # Carried only so a number-context materializes with the
        # request's deadline; ignored when context is already built.
        self._deadline = deadline
        # The lazily built span tree; from_dict primes it with the
        # serialized tree so round-trips preserve the rendered form.
        self._root = _root

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
    def context(self) -> TraceContext:
        """The request's :class:`TraceContext`, materialized on first
        read when the service handed the constructor a bare request
        number (see :func:`mint_request_number`)."""
        context = self._context
        if type(context) is int:
            context = self._context = TraceContext.from_number(
                context, deadline=self._deadline
            )
        return context

    @property
    def request_id(self) -> str:
        """Shorthand for ``context.request_id``."""
        return self.context.request_id

    @property
    def batch_peers(self) -> Tuple[str, ...]:
        """Request ids that shared the dispatch, in flush order.

        The service hands every trace of a flush one *shared* tuple of
        peer request numbers (or :class:`TraceContext` objects); the id
        strings materialize here on first read (and are cached back,
        shared by the whole flush), so incident correlation pays for
        formatting and the serving path does not.
        """
        peers = self._peers
        if peers and not isinstance(peers[0], str):
            if type(peers[0]) is int:
                peers = tuple(format_request_id(number) for number in peers)
            else:
                peers = tuple(context.request_id for context in peers)
            self._peers = peers
        return peers

    @property
    def root(self) -> TraceSpan:
        """The ``request`` span; children are ``queue`` and (when the
        request reached a solve) ``solve`` with the engine's stage
        spans beneath.  Built on first access, then cached."""
        if self._root is None:
            self._root = self._build_root()
        return self._root

    def _build_root(self) -> TraceSpan:
        children: List[TraceSpan] = [
            TraceSpan(
                name="queue",
                start_seconds=self.submitted_at,
                duration_seconds=(
                    self.dispatched_at
                    if self.dispatched_at is not None
                    else self.completed_at
                )
                - self.submitted_at,
            )
        ]
        if self.dispatched_at is not None:
            children.append(
                TraceSpan(
                    name="solve",
                    start_seconds=self.dispatched_at,
                    duration_seconds=self.solve_seconds,
                    attributes=dict(self.solve_attributes or {}),
                    children=(
                        build_stage_spans(self.dispatched_at, self.stage_durations)
                        if self.stage_durations
                        else ()
                    ),
                )
            )
        return TraceSpan(
            name="request",
            start_seconds=self.submitted_at,
            duration_seconds=self.completed_at - self.submitted_at,
            attributes={"origin": self.context.origin},
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
        return {
            "context": self.context.to_dict(),
            "root": self.root.to_dict(),
            "submitted_at": self.submitted_at,
            "completed_at": self.completed_at,
            "dispatched_at": self.dispatched_at,
            "solve_seconds": self.solve_seconds,
            "batch_sequence": self.batch_sequence,
            "batch_peers": list(self.batch_peers),
            "satellites": self.satellites,
            "flush_row": self.flush_row,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RequestTrace":
        root = (
            TraceSpan.from_dict(payload["root"])
            if payload.get("root") is not None
            else None
        )
        submitted_at = float(payload.get("submitted_at", 0.0))
        return cls(
            context=TraceContext.from_dict(payload["context"]),
            submitted_at=submitted_at,
            completed_at=float(payload.get("completed_at", submitted_at)),
            dispatched_at=payload.get("dispatched_at"),
            solve_seconds=float(payload.get("solve_seconds", 0.0)),
            batch_sequence=int(payload.get("batch_sequence", -1)),
            batch_peers=tuple(payload.get("batch_peers", ())),
            satellites=int(payload.get("satellites", -1)),
            flush_row=int(payload.get("flush_row", -1)),
            _root=root,
        )

    def format(self) -> str:
        """Multi-line human rendering (the ``inspect`` CLI's output)."""
        lineage = (
            f"batch #{self.batch_sequence} "
            f"({len(self.batch_peers)} peers), "
            f"row {self.flush_row}, m={self.satellites}"
            if self.batch_sequence >= 0
            else "never dispatched"
        )
        header = (
            f"request {self.context.request_id} "
            f"(trace {self.context.trace_id}, origin {self.context.origin})\n"
            f"  lineage: {lineage}"
        )
        return header + "\n" + self.root.format_tree(indent=1)


def assemble_request_trace(
    context,  # TraceContext, or an int from mint_request_number
    submitted_at: float,
    completed_at: float,
    dispatched_at: Optional[float] = None,
    solve_seconds: float = 0.0,
    stage_seconds: Optional[Mapping[str, float]] = None,
    solve_attributes: Optional[Mapping[str, object]] = None,
    batch_sequence: int = -1,
    batch_peers: Tuple[str, ...] = (),
    satellites: int = -1,
    flush_row: int = -1,
    deadline: Optional[float] = None,
) -> RequestTrace:
    """The standard service trace for one finished request.

    ``dispatched_at=None`` means the request never reached a solve
    (timed out while queued, cancelled, internal error): the tree is
    just ``request → queue``.  Dispatch-path hot: stores the raw
    numbers, the span tree builds lazily on first read.
    """
    if completed_at < submitted_at:
        raise ConfigurationError("completed_at must be >= submitted_at")
    return RequestTrace(
        context=context,
        submitted_at=submitted_at,
        completed_at=completed_at,
        dispatched_at=dispatched_at,
        solve_seconds=solve_seconds,
        stage_durations=stage_seconds,
        solve_attributes=solve_attributes,
        batch_sequence=batch_sequence,
        batch_peers=batch_peers,
        satellites=satellites,
        flush_row=flush_row,
        deadline=deadline,
    )
