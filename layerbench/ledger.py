"""Layer spans recorded from outside the program.

The benchmark never edits the program to trace it.  It wraps the
public entry points each layer is reached through and records every
call's wall time into the *installed* metrics registry as the counter
``bench_span_seconds_total{span=...}`` (plus the epochs it handled).
The same mechanism works in a shard worker: the worker installs its
own registry, the wrapped functions are inherited through ``fork``,
and :meth:`ShardedPositioningService.worker_registries` ships the
counters back.

Asyncio front end: a task factory times every step of every task
created while it is installed (the service's worker task and the
benchmark's clients), and
``submit`` is wrapped so the steps it runs inside a client task are
timed on their own.  Together with the loop's wall time this gives the
ledger's coverage check: the share of wall time the spans explain.
"""

from __future__ import annotations

import asyncio
import collections.abc
import contextlib
from time import perf_counter
from typing import Callable, Dict, List, Optional
from unittest import mock

from repro import telemetry
import repro.blocks
import repro.service.executor
import repro.service.shard
from repro.engine import PositioningEngine
from repro.service.executor import BatchExecutor

SPAN_FAMILY = "bench_span_seconds_total"
FIX_FAMILY = "bench_span_fixes_total"
#: Engine stages copied from ``EngineResult.stage_seconds``.
ENGINE_STAGES = ("pack", "validate", "solve", "fde", "scatter")


def record(span: str, seconds: float, fixes: int = 0) -> None:
    """Add one call of ``span`` to the installed registry."""
    registry = telemetry.get_registry()
    if not registry.enabled:
        return
    registry.counter(SPAN_FAMILY, "Wall time inside a wrapped entry point.", labels=("span",)).labels(span=span).inc(seconds)
    if fixes:
        registry.counter(FIX_FAMILY, "Epochs handed to a wrapped entry point.", labels=("span",)).labels(span=span).inc(fixes)


def timed(span: str, function: Callable, fixes: Optional[Callable] = None) -> Callable:
    """``function`` wrapped so each call records a ``span``."""

    def wrapper(*args, **kwargs):
        started = perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            record(span, perf_counter() - started, fixes(args) if fixes else 0)

    wrapper.__wrapped__ = function
    return wrapper


def _engine_wrapper(function: Callable) -> Callable:
    """``solve_stream`` wrapped: its span plus the engine's stage split."""

    def wrapper(*args, **kwargs):
        started = perf_counter()
        result = function(*args, **kwargs)
        record("engine.solve_stream", perf_counter() - started, len(result.positions))
        for stage in ENGINE_STAGES:
            record(f"engine.stage.{stage}", result.stage_seconds.get(stage, 0.0))
        return result

    wrapper.__wrapped__ = function
    return wrapper


def applied(patches: List) -> contextlib.ExitStack:
    """Start every patcher; closing the returned stack stops them all."""
    stack = contextlib.ExitStack()
    for patcher in patches:
        stack.enter_context(patcher)
    return stack


def _epochs_arg(args) -> int:
    return len(args[0])


def serve_patches(service) -> List:
    """Spans around every layer an in-process service flush crosses."""
    patches = []
    executor = service.executor
    patches.append(mock.patch.object(repro.service.executor, "pack_stream", timed("blocks.pack", repro.blocks.pack_stream, _epochs_arg)))
    patches.append(mock.patch.object(executor, "execute", timed("executor.execute", executor.execute, _epochs_arg)))
    patches.append(mock.patch.object(executor.engine, "solve_stream", _engine_wrapper(executor.engine.solve_stream)))
    if executor.monitor_suite is not None:
        suite = executor.monitor_suite
        patches.append(mock.patch.object(suite, "observe_stream", timed("integrity.monitors", suite.observe_stream)))
    if service.recorder is not None:
        recorder = service.recorder
        patches.append(mock.patch.object(recorder, "record_flush", timed("telemetry.recorder", recorder.record_flush)))
        patches.append(mock.patch.object(recorder, "record", timed("telemetry.recorder", recorder.record)))
    if service.slo is not None:
        slo = service.slo
        patches.append(mock.patch.object(slo, "observe", timed("telemetry.slo", slo.observe)))
        patches.append(mock.patch.object(slo, "observe_batch", timed("telemetry.slo", slo.observe_batch)))
    submit = service.submit

    def timed_submit(*args, **kwargs):
        return TimedCoroutine(submit(*args, **kwargs), "service.submit")

    patches.append(mock.patch.object(service, "submit", timed_submit))
    return patches


def router_patches() -> List:
    """Spans the shard router records around packing and the slab."""
    patches = []
    patches.append(mock.patch.object(repro.blocks, "pack_stream", timed("blocks.pack", repro.blocks.pack_stream, _epochs_arg)))
    shard = repro.service.shard
    patches.append(mock.patch.object(shard, "write_request", timed("shard.write_request", shard.write_request)))
    patches.append(mock.patch.object(shard, "read_response", timed("shard.read_response", shard.read_response, lambda args: args[3])))
    return patches


def worker_patches() -> List:
    """Spans a shard worker records; start them before the worker forks."""
    patches = []
    shard = repro.service.shard
    patches.append(mock.patch.object(shard, "read_request", timed("shard.read_request", shard.read_request)))
    patches.append(mock.patch.object(shard, "write_response", timed("shard.write_response", shard.write_response)))
    patches.append(mock.patch.object(BatchExecutor, "execute_packed", timed("executor.execute", BatchExecutor.execute_packed, lambda args: len(args[1]))))
    patches.append(mock.patch.object(PositioningEngine, "solve_stream", _engine_wrapper(PositioningEngine.solve_stream)))
    return patches


class TimedCoroutine(collections.abc.Coroutine):
    """A coroutine whose every step's wall time is recorded as ``span``.

    Suspended time is not counted: only the time the wrapped frame (and
    anything it calls synchronously) runs.
    """

    __slots__ = ("_coroutine", "_span")

    def __init__(self, coroutine, span: str) -> None:
        self._coroutine = coroutine
        self._span = span

    def send(self, value):
        started = perf_counter()
        try:
            return self._coroutine.send(value)
        finally:
            StepClock.add(self._span, perf_counter() - started)

    def throw(self, *args):
        started = perf_counter()
        try:
            return self._coroutine.throw(*args)
        finally:
            StepClock.add(self._span, perf_counter() - started)

    def close(self):
        return self._coroutine.close()

    def __await__(self):
        return self

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)


class StepClock:
    """Accumulated task-step time per span, switched on and off by slice.

    Step times are summed in plain floats (no registry on the per-step
    path) and flushed into the registry at the end of each traced slice.
    """

    enabled = False
    totals: Dict[str, float] = collections.defaultdict(float)

    @classmethod
    def add(cls, span: str, seconds: float) -> None:
        if cls.enabled:
            cls.totals[span] += seconds

    @classmethod
    def flush(cls) -> None:
        for span, seconds in cls.totals.items():
            record(span, seconds)
        cls.totals.clear()


#: The service's worker coroutine.  Should it be renamed, its steps
#: would be booked as ``bench.client_task``.
WORKER_TASK = "PositioningService._run_worker"


def task_factory(loop, coroutine, **kwargs):
    """Loop task factory timing every step of every task it creates."""
    span = "service.worker_task" if getattr(coroutine, "__qualname__", "") == WORKER_TASK else "bench.client_task"
    return asyncio.Task(TimedCoroutine(coroutine, span), loop=loop, **kwargs)


def spans(flat: Dict) -> Dict[str, Dict[str, float]]:
    """``{span: {"seconds", "fixes"}}`` from a flattened snapshot."""
    fields = {SPAN_FAMILY: "seconds", FIX_FAMILY: "fixes"}
    table: Dict[str, Dict[str, float]] = collections.defaultdict(lambda: {"seconds": 0.0, "fixes": 0.0})
    for (name, labels, _field), value in flat.items():
        if name in fields:
            table[dict(labels)["span"]][fields[name]] += value
    return table
