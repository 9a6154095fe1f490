"""Chunked multi-core replay of epoch streams through full receivers.

The batch engine vectorizes the *solve*; this module parallelizes the
*pipeline*.  Replaying a day-long dataset through
:class:`~repro.core.receiver.GpsReceiver` is embarrassingly parallel
at chunk granularity: the receiver's only cross-epoch state is the
clock-bias predictor, which warms up from the data itself in a few
tens of epochs — so splitting the stream into contiguous chunks and
giving each worker a fresh receiver reproduces the serial replay
except for the per-chunk warm-up seam (those epochs are answered by
NR, exactly as the serial receiver answers its own warm-up).

Backends: ``"process"`` sidesteps the GIL for true multi-core scaling
(epochs and fixes pickle cleanly — frozen dataclasses of numpy
arrays); ``"thread"`` avoids process spawn overhead and suffices when
the workload is dominated by numpy calls that release the GIL.

Telemetry: each chunk's wall time and receiver counters are measured
*inside the worker* and shipped back with the fixes, so the parent's
installed registry/tracer see per-chunk spans, seam-epoch counts
(warm-up fixes paid by chunks after the first), and aggregate worker
utilization even on the process backend, where workers cannot share
the parent's registry.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.receiver import GpsReceiver
from repro.core.types import PositionFix
from repro.errors import ConfigurationError
from repro.observations import ObservationEpoch
from repro.telemetry import get_registry, get_tracer

_log = logging.getLogger(__name__)

#: Per-chunk wall-time histogram bounds (seconds).
_CHUNK_SECONDS_BUCKETS = (0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 600.0)


def _replay_chunk_timed(
    receiver_kwargs: Dict,
    epochs: Sequence[ObservationEpoch],
) -> Tuple[List[PositionFix], int, Dict[str, int]]:
    """Worker entry point: fresh receiver, one contiguous chunk.

    Returns ``(fixes, duration_ns, receiver_stats)``; module-level so
    the process backend can pickle it.  The duration is measured on
    the worker's own monotonic clock, so it is meaningful as an
    interval even across process boundaries.
    """
    receiver = GpsReceiver(**receiver_kwargs)
    start = time.perf_counter_ns()
    fixes = receiver.process_many(epochs)
    return fixes, time.perf_counter_ns() - start, receiver.stats


class ParallelReplay:
    """Replay an epoch stream through receivers on a worker pool.

    Parameters
    ----------
    receiver_kwargs:
        Keyword arguments for each worker's
        :class:`~repro.core.receiver.GpsReceiver` (e.g.
        ``{"algorithm": "dlg", "clock_mode": "steering"}``).  Must be
        picklable for the process backend.
    workers:
        Pool size; defaults to the machine's CPU count.
    backend:
        ``"process"`` (default; true multi-core) or ``"thread"``.
    chunk_size:
        Epochs per chunk.  Defaults to an even split into ``workers``
        chunks.  Each chunk pays its own clock warm-up, so chunks
        should stay much longer than ``warmup_epochs`` — hundreds to
        thousands of epochs, the natural shape for day-long replays.
    """

    def __init__(
        self,
        receiver_kwargs: Optional[Dict] = None,
        workers: Optional[int] = None,
        backend: str = "process",
        chunk_size: Optional[int] = None,
    ) -> None:
        if backend not in ("process", "thread"):
            raise ConfigurationError(
                f"backend must be 'process' or 'thread', got {backend!r}"
            )
        resolved_workers = workers if workers is not None else os.cpu_count() or 1
        if resolved_workers < 1:
            raise ConfigurationError("workers must be at least 1")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError("chunk_size must be at least 1")
        self._receiver_kwargs = dict(receiver_kwargs or {})
        # Validate eagerly so a bad configuration fails here, not
        # inside a worker where the traceback is harder to read.
        GpsReceiver(**self._receiver_kwargs)
        self._workers = int(resolved_workers)
        self._backend = backend
        self._chunk_size = chunk_size

    @property
    def workers(self) -> int:
        """The configured pool size."""
        return self._workers

    @property
    def backend(self) -> str:
        """The configured executor backend."""
        return self._backend

    def _chunks(self, epochs: List[ObservationEpoch]) -> List[List[ObservationEpoch]]:
        if self._chunk_size is not None:
            size = self._chunk_size
        else:
            size = max(1, -(-len(epochs) // self._workers))  # ceil division
        return [epochs[i : i + size] for i in range(0, len(epochs), size)]

    def replay(self, epochs: Sequence[ObservationEpoch]) -> List[PositionFix]:
        """Replay the stream, returning fixes in stream order.

        A single chunk (or a single worker) short-circuits the pool
        entirely, so the degenerate configuration costs nothing beyond
        the serial replay it is equivalent to.
        """
        epochs = list(epochs)
        if not epochs:
            raise ConfigurationError("cannot replay an empty epoch stream")
        chunks = self._chunks(epochs)

        wall_start = time.perf_counter_ns()
        if len(chunks) == 1 or self._workers == 1:
            outcomes = [
                _replay_chunk_timed(self._receiver_kwargs, chunk) for chunk in chunks
            ]
        else:
            executor_cls = (
                ProcessPoolExecutor if self._backend == "process" else ThreadPoolExecutor
            )
            with executor_cls(max_workers=self._workers) as pool:
                futures = [
                    pool.submit(_replay_chunk_timed, self._receiver_kwargs, chunk)
                    for chunk in chunks
                ]
                outcomes = [future.result() for future in futures]
        wall_ns = time.perf_counter_ns() - wall_start

        registry = get_registry()
        if registry.enabled:
            self._record_replay(registry, get_tracer(), outcomes, wall_ns)

        fixes: List[PositionFix] = []
        for chunk_fixes, _duration_ns, _stats in outcomes:
            fixes.extend(chunk_fixes)
        return fixes

    def _record_replay(self, registry, tracer, outcomes, wall_ns: int) -> None:
        """Replay-level telemetry from per-chunk worker measurements.

        Chunks after the first pay a warm-up *seam*: their leading
        epochs are answered by NR while a fresh clock predictor trains,
        where the serial replay would already be in steady state.  The
        first chunk's warm-up matches the serial receiver's own, so it
        is not a seam cost.
        """
        busy_ns = 0
        seam_epochs = 0
        for index, (chunk_fixes, duration_ns, stats) in enumerate(outcomes):
            busy_ns += duration_ns
            if index > 0:
                seam_epochs += stats.get("warmup_fixes", 0)
            tracer.record(
                "replay.chunk",
                duration_ns,
                index=index,
                epochs=len(chunk_fixes),
                warmup_fixes=stats.get("warmup_fixes", 0),
                fallbacks=stats.get("fallbacks", 0),
            )
            registry.histogram(
                "repro_replay_chunk_seconds",
                "Per-chunk wall time inside the worker.",
                buckets=_CHUNK_SECONDS_BUCKETS,
            ).observe(duration_ns / 1e9)
        registry.counter(
            "repro_replay_chunks_total", "Chunks replayed.",
        ).inc(len(outcomes))
        registry.counter(
            "repro_replay_epochs_total", "Epochs replayed.",
        ).inc(sum(len(chunk_fixes) for chunk_fixes, _, _ in outcomes))
        registry.counter(
            "repro_replay_seam_epochs_total",
            "Warm-up epochs paid at chunk seams (chunks after the first).",
        ).inc(seam_epochs)
        # Utilization: worker busy time over the capacity the pool had
        # during the replay.  1.0 means every worker computed the whole
        # wall time; low values mean stragglers or spawn overhead.
        capacity = min(self._workers, len(outcomes)) * max(wall_ns, 1)
        registry.gauge(
            "repro_replay_worker_utilization",
            "Busy-time fraction of the pool during the last replay.",
        ).set(min(1.0, busy_ns / capacity))
        if seam_epochs:
            _log.debug(
                "replay paid %d seam warm-up epochs across %d chunks",
                seam_epochs,
                len(outcomes),
            )
