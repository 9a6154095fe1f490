"""Small, separately tested helpers: percentiles, fix checks, host probe."""

from __future__ import annotations

import os
import struct
import time
from typing import List, Optional, Sequence

import numpy as np

#: A served fix further than this from its reference solve is wrong.
FIX_TOLERANCE_METERS = 1e-3
#: p99 needs this many samples beyond it to be a measured percentile.
MIN_TAIL_SAMPLES = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a run too short to support it."""


def tail_percentile(samples: Sequence[float], percentile: float = 99.0) -> float:
    """``percentile`` of ``samples``, refusing runs with a thin tail.

    At least :data:`MIN_TAIL_SAMPLES` samples must lie beyond the
    percentile, so p99 needs 1000 samples.
    """
    values = np.asarray(samples, dtype=float)
    beyond = len(values) * (100.0 - percentile) / 100.0
    if beyond < MIN_TAIL_SAMPLES:
        raise TooFewSamples(
            f"p{percentile:g} of {len(values)} samples has {beyond:.1f} beyond it; "
            f"need {MIN_TAIL_SAMPLES}"
        )
    return float(np.percentile(values, percentile))


def sliced_tail_percentile(samples: Sequence[float], percentile: float = 99.0, size: int = 1000) -> float:
    """Median of ``percentile`` over consecutive slices of ``size`` samples.

    Each slice satisfies :func:`tail_percentile`'s rule on its own (the
    last slice absorbs the remainder).  The median over slices keeps a
    single host stall, which delays every request in flight at once,
    from setting the whole run's tail.
    """
    values = np.asarray(samples, dtype=float)
    count = len(values) // size
    if count == 0:
        return tail_percentile(values, percentile)
    bounds = [i * size for i in range(count)] + [len(values)]
    return float(np.median([tail_percentile(values[a:b], percentile) for a, b in zip(bounds, bounds[1:])]))


def wrong_offsets(offsets: np.ndarray) -> np.ndarray:
    """Boolean mask of fixes whose offset from the reference exceeds the
    tolerance in any axis (a NaN offset, i.e. no fix, is wrong too)."""
    error = np.max(np.abs(np.asarray(offsets, dtype=float)), axis=-1)
    return ~(error <= FIX_TOLERANCE_METERS)


_PROBE_RNG = np.random.default_rng(0)
_PROBE_MATRIX = _PROBE_RNG.normal(size=(32, 32))
_PROBE_ROWS = _PROBE_RNG.normal(size=(12, 3))
_PROBE_LANE = _PROBE_RNG.normal(size=1 << 17)

#: Median wall time (ms) of one probe unit on the 2-vCPU machine the
#: benchmark was tuned on.  The end-to-end timings are scaled by
#: ``probe_ms / PROBE_REFERENCE_MS`` (see :func:`host_factor`).
PROBE_REFERENCE_MS = 1.45
#: Probe units timed between two ~1 s segments of a window.
PROBE_UNITS = 24


def _probe_unit() -> None:
    """A fixed unit of work shaped like serving a fix: interpreter
    dispatch, small-array NumPy calls, single-threaded BLAS-sized
    matmuls and one pass over a 1 MiB lane."""
    table = {}
    total = 0.0
    for index in range(3000):
        table[index & 63] = total
        total += index * 0.5
    for _ in range(120):
        np.linalg.norm(_PROBE_ROWS - _PROBE_ROWS[0], axis=1)
    for _ in range(20):
        _PROBE_MATRIX @ _PROBE_MATRIX
    _PROBE_LANE.sum()


def probe_ms(units: int = PROBE_UNITS) -> float:
    """Median wall time (ms) of ``units`` probe units: how fast this CPU
    runs fixed work right now."""
    timings = []
    for _ in range(units):
        started = time.perf_counter()
        _probe_unit()
        timings.append((time.perf_counter() - started) * 1e3)
    return float(np.median(timings))


def host_factor(probe: float) -> float:
    """How much slower than the reference machine the host ran when the
    probe took ``probe`` ms.  The machine's speed drifts by up to 2x
    over seconds to minutes; timings divided by this factor (rates
    multiplied by it) compare across runs made at different speeds."""
    return probe / PROBE_REFERENCE_MS


class ProbeHelper:
    """A forked process that runs :func:`probe_ms` on request, so a
    second CPU can be timed at the same moment as the first.

    Fork it before the workload's inputs exist, so it stays small.
    """

    def __init__(self, units: int = PROBE_UNITS) -> None:
        request_read, request_write = os.pipe()
        reply_read, reply_write = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(request_write)
                os.close(reply_read)
                while os.read(request_read, 1):
                    os.write(reply_write, struct.pack("d", probe_ms(units)))
            finally:
                os._exit(0)
        os.close(request_read)
        os.close(reply_write)
        self.pid: Optional[int] = pid
        self._request = request_write
        self._reply = reply_read

    def start(self) -> None:
        os.write(self._request, b"p")

    def result(self) -> float:
        return struct.unpack("d", os.read(self._reply, 8))[0]

    def close(self) -> None:
        """Stop the helper (it exits on end of input) and reap it."""
        if self.pid is None:
            return
        os.close(self._request)
        os.close(self._reply)
        os.waitpid(self.pid, 0)
        self.pid = None


def host_steal_seconds() -> Optional[List[float]]:
    """Per-CPU time the hypervisor ran something else, from ``/proc/stat``.

    A probe runs on one CPU at a time; a workload spread over two can be
    slowed by the other one's steal, which only this shows.  ``None``
    where the kernel does not report it.  Diagnostic only.
    """
    try:
        with open("/proc/stat") as stat:
            rows = [line.split() for line in stat if line.startswith("cpu") and line[3].isdigit()]
    except OSError:
        return None
    tick = os.sysconf("SC_CLK_TCK")
    return [int(row[8]) / tick if len(row) > 8 else 0.0 for row in rows]
