"""repro.service — the async positioning request server.

The serving layer of the reproduction: where
:class:`~repro.engine.PositioningEngine` answers a *pre-assembled
stream* in bulk, the service answers *individually submitted epochs*
from concurrent callers at near-batch throughput, by micro-batching:
requests coalesce in a :class:`MicroBatcher` until the batch is full
or the oldest request has waited ``max_wait_seconds``, then the whole
batch solves in one vectorized call.

The pieces:

* :class:`ServiceConfig` / :class:`ServiceResult` — frozen tuning and
  the structured per-request answer (failure is a status, never an
  exception escaping a batch); :class:`ResultBlock` — one flush's
  answers as struct-of-arrays lanes, from which the results are built.
* :class:`MicroBatcher` — the dynamic aggregator (flush on *full*,
  *deadline*, or *close*).
* :class:`PositioningService` — admission control with backpressure,
  the worker loop, and the batched→scalar→NR degradation ladder.
* :class:`AsyncPositioningClient` — in-process client offering both
  the structured contract (:meth:`~AsyncPositioningClient.submit`)
  and the exception-style one (:meth:`~AsyncPositioningClient.solve`).

Quickstart::

    import asyncio
    from repro.api import SolverConfig
    from repro.service import AsyncPositioningClient, PositioningService, ServiceConfig

    async def main(epochs):
        config = ServiceConfig(solver=SolverConfig(algorithm="dlg"))
        async with PositioningService(config) as service:
            client = AsyncPositioningClient(service)
            return await client.solve_many(epochs)

    results = asyncio.run(main(epochs))

``repro-gps serve`` runs exactly this loop against a simulated station
and reports the throughput/latency distribution.
"""

from repro.service.batcher import Flush, MicroBatcher
from repro.service.client import AsyncPositioningClient
from repro.service.executor import BatchExecutor, BatchMeta
from repro.service.service import PositioningService
from repro.service.shard import ShardConfig, ShardedPositioningService
from repro.service.types import (
    RESULT_STATUSES,
    ResultBlock,
    ServiceConfig,
    ServiceResult,
)

__all__ = [
    "AsyncPositioningClient",
    "BatchExecutor",
    "BatchMeta",
    "Flush",
    "MicroBatcher",
    "PositioningService",
    "RESULT_STATUSES",
    "ResultBlock",
    "ServiceConfig",
    "ServiceResult",
    "ShardConfig",
    "ShardedPositioningService",
]
