"""Preallocated kernel workspaces for the batched solve hot path.

The batched Sherman-Morrison kernel allocates a handful of large
scratch tensors per call (whitened stacks, Gram matrices).  On a
steady-state stream the block shapes repeat every call, so those
allocations are pure churn: same sizes, freed and re-requested tens of
times per second.  :class:`KernelWorkspace` keeps one buffer per
``(name, shape, dtype)`` and hands it back on every later request,
turning the steady state into zero allocations.

The workspace also makes the zero-copy claim *observable*: it counts
buffer reuses versus fresh allocations, and
:meth:`~KernelWorkspace.flush_telemetry` publishes the deltas as
``repro_kernel_workspace_requests_total{outcome=...}`` counters, so a
``repro-gps telemetry`` scrape shows directly whether the hot path is
recycling its scratch memory or thrashing the allocator.

Thread safety: a workspace is single-owner by design — each solver
instance owns one, and solver instances are not shared across threads
(the process-backend parallel replay gives every worker its own
solvers).  Buffers returned from :meth:`buffer` are only valid until
the next solve call requests the same key.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.telemetry import get_registry

#: Block-size histogram bounds (bytes per allocated scratch buffer):
#: geometric 4KiB → 256MiB, wide enough for a 4-sat micro-batch row up
#: to the large-n constellation sweeps.
_BLOCK_BYTES_BUCKETS = tuple(4096.0 * 4**e for e in range(9))


class KernelWorkspace:
    """Shape-keyed scratch buffers reused across batched solve calls."""

    __slots__ = ("_buffers", "_reused", "_allocated", "_flushed",
                 "_unflushed_block_bytes", "_metrics_registry",
                 "_reused_child", "_allocated_child", "_resident_gauge",
                 "_block_histogram")

    def __init__(self) -> None:
        self._buffers: Dict[Tuple[str, Tuple[int, ...], np.dtype], np.ndarray] = {}
        self._reused = 0
        self._allocated = 0
        # Counts already published to telemetry (flush publishes deltas).
        self._flushed = (0, 0)
        # Sizes of buffers allocated since the last flush, for the
        # scrape-visible block-size histogram.
        self._unflushed_block_bytes: List[int] = []
        # Per-registry cached metric children; flush_telemetry runs on
        # every engine stream, so the family lookups are bound once per
        # installed registry.
        self._metrics_registry = None
        self._reused_child = None
        self._allocated_child = None
        self._resident_gauge = None
        self._block_histogram = None

    def _bind_metrics(self, registry) -> None:
        counter = registry.counter(
            "repro_kernel_workspace_requests_total",
            "Kernel scratch-buffer requests by outcome.",
            labels=("outcome",),
        )
        self._reused_child = counter.labels(outcome="reused")
        self._allocated_child = counter.labels(outcome="allocated")
        self._resident_gauge = registry.gauge(
            "repro_kernel_workspace_resident_bytes",
            "Bytes held by cached kernel scratch buffers.",
        ).labels()
        self._block_histogram = registry.histogram(
            "repro_kernel_workspace_block_bytes",
            "Size of freshly allocated kernel scratch buffers.",
            buckets=_BLOCK_BYTES_BUCKETS,
        ).labels()
        self._metrics_registry = registry

    def buffer(
        self,
        name: str,
        shape: Tuple[int, ...],
        dtype: "np.typing.DTypeLike" = np.float64,
    ) -> np.ndarray:
        """An uninitialized ``shape``/``dtype`` scratch array.

        The same ``(name, shape, dtype)`` request returns the *same*
        array on every later call — contents are whatever the previous
        use left there, so callers must fully overwrite it.
        """
        key = (name, tuple(shape), np.dtype(dtype))
        existing = self._buffers.get(key)
        if existing is not None:
            self._reused += 1
            return existing
        self._allocated += 1
        fresh = np.empty(key[1], dtype=key[2])
        self._buffers[key] = fresh
        self._unflushed_block_bytes.append(fresh.nbytes)
        return fresh

    # ------------------------------------------------------------------
    @property
    def reused(self) -> int:
        """Buffer requests served from the cache since construction."""
        return self._reused

    @property
    def allocated(self) -> int:
        """Buffer requests that had to allocate since construction."""
        return self._allocated

    @property
    def resident_bytes(self) -> int:
        """Total bytes currently held by cached buffers."""
        return sum(buf.nbytes for buf in self._buffers.values())

    def clear(self) -> None:
        """Drop every cached buffer (counters are kept)."""
        self._buffers.clear()

    def flush_telemetry(self) -> None:
        """Publish reuse/allocation deltas since the last flush.

        Called once per engine stream (not per buffer request) so the
        telemetry cost stays off the kernel's inner loop; free when no
        registry is installed.
        """
        registry = get_registry()
        if not registry.enabled:
            # Nobody will scrape these; don't let the pending-size list
            # grow for the life of an uninstrumented process.
            self._unflushed_block_bytes.clear()
            return
        flushed_reused, flushed_allocated = self._flushed
        delta_reused = self._reused - flushed_reused
        delta_allocated = self._allocated - flushed_allocated
        if not (delta_reused or delta_allocated):
            return
        if registry is not self._metrics_registry:
            self._bind_metrics(registry)
        if delta_reused:
            self._reused_child.inc(delta_reused)
        if delta_allocated:
            self._allocated_child.inc(delta_allocated)
        self._resident_gauge.set(float(self.resident_bytes))
        if self._unflushed_block_bytes:
            self._block_histogram.observe_many(
                [float(nbytes) for nbytes in self._unflushed_block_bytes]
            )
            self._unflushed_block_bytes.clear()
        self._flushed = (self._reused, self._allocated)
