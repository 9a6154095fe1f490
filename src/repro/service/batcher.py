"""The dynamic micro-batching aggregator.

:class:`MicroBatcher` is the service's admission queue *and* batch
former in one object, a three-state machine::

    EMPTY ──put()──► COLLECTING ──full / deadline / close──► FLUSH ──► EMPTY

* **EMPTY** — ``next_batch()`` parks on an event until a request
  arrives (or the batcher closes).
* **COLLECTING** — the flush deadline is pinned to the *oldest*
  pending item (``enqueued_at + max_wait_seconds``): a request never
  waits longer than ``max_wait_seconds`` for followers, no matter how
  steadily they trickle in behind it.
* **FLUSH** — triggered by whichever comes first: the queue reaching
  ``max_batch_size`` (*full*), the oldest item's deadline (*deadline*),
  or :meth:`close` (*close*, which then drains the remainder in
  max-batch-size chunks so shutdown never drops work).

The batcher is deliberately solver-agnostic — it hands back opaque
items plus the flush reason and lets the service do the dispatching —
so its timing logic is testable with plain integers as items.

Single-loop discipline: all methods must be called from the event loop
that runs ``next_batch()``.  ``put``/``close`` are plain synchronous
calls (no await), so there are no cross-coroutine races beyond the
event signalling handled here.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError, ServiceError

#: Why a batch was flushed.
FLUSH_FULL = "full"
FLUSH_DEADLINE = "deadline"
FLUSH_CLOSE = "close"


@dataclass(frozen=True)
class Flush:
    """One formed batch: the items and why they were flushed now.

    ``oldest_enqueued_at`` is the loop-clock enqueue time of the batch's
    oldest item — what queue-delay metrics are computed from.
    ``sequence`` numbers flushes monotonically per batcher (starting at
    0), giving every dispatched batch a stable identity that traces and
    flight-recorder records use as batch lineage.
    """

    items: Tuple
    reason: str
    oldest_enqueued_at: float
    sequence: int = 0

    def __len__(self) -> int:
        return len(self.items)


class MicroBatcher:
    """Coalesce individually submitted items into bounded batches."""

    def __init__(self, max_batch_size: int, max_wait_seconds: float) -> None:
        if max_batch_size < 1:
            raise ConfigurationError("max_batch_size must be >= 1")
        if max_wait_seconds < 0.0:
            raise ConfigurationError("max_wait_seconds must be >= 0")
        self._max_batch = int(max_batch_size)
        self._max_wait = float(max_wait_seconds)
        # Pending items and their enqueue stamps, oldest first.
        self._items: List[object] = []
        self._stamps: List[float] = []
        self._wakeup = asyncio.Event()
        self._closed = False
        self._sequence = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def put(self, item: object, enqueued_at: Optional[float] = None) -> None:
        """Enqueue one item stamped ``enqueued_at`` on the loop clock
        (read now when not given: a caller that already read the clock
        passes its stamp, so item and batch share one reading)."""
        if self._closed:
            raise ServiceError("cannot enqueue into a closed batcher")
        self._items.append(item)
        self._stamps.append(
            asyncio.get_running_loop().time() if enqueued_at is None else enqueued_at
        )
        self._wakeup.set()

    def close(self) -> None:
        """Stop admitting; pending items drain through ``next_batch``."""
        self._closed = True
        self._wakeup.set()

    def _drain(self, reason: str) -> Flush:
        take = self._max_batch
        items = tuple(self._items[:take])
        oldest = self._stamps[0]
        del self._items[:take], self._stamps[:take]
        sequence = self._sequence
        self._sequence += 1
        return Flush(
            items=items,
            reason=reason,
            oldest_enqueued_at=oldest,
            sequence=sequence,
        )

    async def next_batch(self) -> Optional[Flush]:
        """The next formed batch, or ``None`` once closed and drained."""
        # EMPTY: park until something arrives or the batcher closes.
        while not self._items:
            if self._closed:
                return None
            self._wakeup.clear()
            await self._wakeup.wait()

        # COLLECTING: the oldest item's age bounds everyone's wait.
        loop = asyncio.get_running_loop()
        deadline = self._stamps[0] + self._max_wait
        while len(self._items) < self._max_batch and not self._closed:
            remaining = deadline - loop.time()
            if remaining <= 0.0:
                return self._drain(FLUSH_DEADLINE)
            self._wakeup.clear()
            try:
                await asyncio.wait_for(self._wakeup.wait(), timeout=remaining)
            except asyncio.TimeoutError:
                return self._drain(FLUSH_DEADLINE)

        # FLUSH: full batch, or close() interrupted the collection.
        if len(self._items) >= self._max_batch:
            return self._drain(FLUSH_FULL)
        return self._drain(FLUSH_CLOSE)

    def drain_now(self) -> List[Flush]:
        """Synchronously flush everything pending (shutdown path)."""
        flushes: List[Flush] = []
        while self._items:
            flushes.append(self._drain(FLUSH_CLOSE))
        return flushes
