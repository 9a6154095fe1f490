"""High-throughput positioning engine (the bulk/service-scale path).

Two layers, composable but independently useful:

* :mod:`repro.engine.pipeline` — :class:`PositioningEngine`: a whole
  mixed stream packed into one padded block and solved in one
  vectorized kernel call (batched NR / DLO / DLG, the last as one
  centered weighted least squares; padded slots carry zero weight, so
  mixed satellite counts and constellation patterns need no
  bucketing).
* :mod:`repro.engine.parallel` — :class:`ParallelReplay`, chunked
  multi-core replay of long datasets through full
  :class:`~repro.core.receiver.GpsReceiver` pipelines.

Where :class:`~repro.core.receiver.GpsReceiver` is the *latency* path
(one epoch at a time, adaptive), this package is the *throughput* path
(epochs by the thousand, vectorized and parallel) — the workload shape
of the ROADMAP's production-scale service.
"""

from repro.engine.pipeline import EngineDiagnostics, EngineResult, PositioningEngine
from repro.engine.parallel import ParallelReplay

__all__ = [
    "EngineDiagnostics",
    "EngineResult",
    "PositioningEngine",
    "ParallelReplay",
]
