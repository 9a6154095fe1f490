"""Span-based tracing with monotonic-clock timing and nesting.

Where the registry answers "how often / how large", spans answer
"where did the time go": each span is one timed region of the
pipeline (a whole ``solve_stream`` call, its one batched kernel call,
one replay chunk), timed with :func:`time.perf_counter_ns` — the
monotonic clock, immune to wall-clock steps — and recorded with its
nesting depth and enclosing span, so a snapshot reads as a flame
graph in list form.

Like the registry, the tracer comes in a real and a null flavour; the
null tracer's :meth:`NullTracer.span` hands back one shared context
manager whose enter/exit do nothing, so ``with tracer.span(...)``
costs two method calls when telemetry is off.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SpanRecord:
    """One finished span.

    Attributes
    ----------
    name:
        The region's name (dotted convention: ``engine.solve_block``).
    start_ns:
        :func:`time.perf_counter_ns` at entry — monotonic, comparable
        only to other spans of the same process.
    duration_ns:
        Elapsed nanoseconds (for externally timed spans recorded via
        :meth:`SpanTracer.record`, the measured duration).
    depth:
        Nesting depth at entry; 0 for root spans.
    parent:
        Name of the enclosing span, or ``None`` for roots.
    attributes:
        Free-form key/value annotations (block rows, chunk index...).
    """

    name: str
    start_ns: int
    duration_ns: int
    depth: int
    parent: Optional[str]
    attributes: Dict[str, object] = field(default_factory=dict)


class _ActiveSpan:
    """Context manager produced by :meth:`SpanTracer.span`."""

    __slots__ = ("_tracer", "_name", "_attributes", "_start_ns", "_depth", "_parent")

    def __init__(self, tracer: "SpanTracer", name: str, attributes: Dict[str, object]):
        self._tracer = tracer
        self._name = name
        self._attributes = attributes

    def __enter__(self) -> "_ActiveSpan":
        stack = self._tracer._stack()
        self._depth = len(stack)
        self._parent = stack[-1] if stack else None
        stack.append(self._name)
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration_ns = time.perf_counter_ns() - self._start_ns
        stack = self._tracer._stack()
        if stack and stack[-1] == self._name:
            stack.pop()
        self._tracer._finish(
            SpanRecord(
                name=self._name,
                start_ns=self._start_ns,
                duration_ns=duration_ns,
                depth=self._depth,
                parent=self._parent,
                attributes=self._attributes,
            )
        )
        return False


class SpanTracer:
    """Collects finished spans, bounded to the most recent ``max_spans``.

    Nesting is tracked per thread (a thread-local span stack), so
    concurrent replay workers on the thread backend do not corrupt
    each other's parent/depth bookkeeping.
    """

    enabled = True

    def __init__(self, max_spans: int = 10_000) -> None:
        if max_spans < 1:
            raise ConfigurationError("max_spans must be at least 1")
        self._records: Deque[SpanRecord] = deque(maxlen=int(max_spans))
        self._local = threading.local()

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _finish(self, record: SpanRecord) -> None:
        self._records.append(record)

    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: object) -> _ActiveSpan:
        """A context manager timing one region::

            with tracer.span("engine.solve_block", rows=64):
                ...
        """
        return _ActiveSpan(self, name, attributes)

    def record(self, name: str, duration_ns: int, **attributes: object) -> None:
        """Record an externally timed span (e.g. measured in a worker
        process whose tracer is not this one); it is attached at the
        calling thread's current nesting position."""
        stack = self._stack()
        self._finish(
            SpanRecord(
                name=name,
                start_ns=time.perf_counter_ns() - int(duration_ns),
                duration_ns=int(duration_ns),
                depth=len(stack),
                parent=stack[-1] if stack else None,
                attributes=attributes,
            )
        )

    # ------------------------------------------------------------------
    @property
    def spans(self) -> Tuple[SpanRecord, ...]:
        """Finished spans, oldest first."""
        return tuple(self._records)

    def snapshot(self) -> List[Dict]:
        """JSON-ready list of finished spans."""
        return [
            {
                "name": record.name,
                "start_ns": record.start_ns,
                "duration_ns": record.duration_ns,
                "depth": record.depth,
                "parent": record.parent,
                "attributes": dict(record.attributes),
            }
            for record in self._records
        ]

    def reset(self) -> None:
        """Drop every finished span."""
        self._records.clear()


class _NullSpan:
    """Shared no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The default tracer: spans are free and nothing is recorded."""

    enabled = False

    def span(self, name: str, **attributes: object) -> _NullSpan:
        """The shared no-op context manager."""
        return _NULL_SPAN

    def record(self, name: str, duration_ns: int, **attributes: object) -> None:
        """No-op."""

    @property
    def spans(self) -> Tuple[SpanRecord, ...]:
        """Always empty."""
        return ()

    def snapshot(self) -> List[Dict]:
        """Always empty."""
        return []

    def reset(self) -> None:
        """No-op."""


#: Process-wide shared null tracer (stateless, so one suffices).
NULL_TRACER = NullTracer()
