"""repro.telemetry — runtime observability for the positioning stack.

A dependency-free metrics registry (counters, gauges, fixed-bucket
histograms, all with label support), a span tracer on the monotonic
clock, and exporters (Prometheus text, JSON snapshot).  The package
also owns the **installed** telemetry state: call sites throughout the
library fetch the active registry/tracer through :func:`get_registry`
and :func:`get_tracer`, which default to shared no-op implementations —
so an uninstrumented run pays only an attribute check per event, and
expensive derived observations (condition numbers) are gated on
``get_registry().enabled``.

Typical use::

    from repro import telemetry

    registry, tracer = telemetry.install()       # turn telemetry on
    ... run receivers / engines / replays ...
    print(telemetry.to_prometheus_text(registry))
    telemetry.uninstall()                        # back to no-op

or scoped::

    with telemetry.capture() as (registry, tracer):
        engine.solve_stream(epochs)
    snapshot = telemetry.to_json_snapshot(registry, tracer)

Logging rides along: the package installs a ``NullHandler`` on the
``"repro"`` logger (library best practice — silent by default), and
instrumented modules log noteworthy events (NR fallbacks, residual
gate trips, chunk seams) through ordinary ``logging.getLogger(__name__)``
loggers, so ``logging.basicConfig(level=logging.DEBUG)`` lights the
whole stack up.
"""

from __future__ import annotations

import logging
import os
import sys
from contextlib import contextmanager
from typing import Optional, Tuple

from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    CounterChild,
    GaugeChild,
    HistogramChild,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
    aggregate_registries,
    registry_from_snapshot,
)
from repro.telemetry.tracer import (
    NullTracer,
    NULL_TRACER,
    SpanRecord,
    SpanTracer,
)
from repro.telemetry.exporters import (
    to_json_snapshot,
    to_prometheus_fleet_text,
    to_prometheus_text,
    write_snapshot,
)
from repro.telemetry.trace import (
    ENGINE_STAGES,
    FlushTrace,
    RequestTrace,
    TraceContext,
    TraceSpan,
    format_request_id,
    reserve_request_numbers,
    reset_trace_identity,
)
from repro.telemetry.recorder import (
    INCIDENT_FORMAT,
    TRIGGERS,
    FixRecord,
    FlightRecorder,
    RecorderConfig,
    replay_incident,
    solve_captured,
)
from repro.telemetry.slo import (
    QuantileSketch,
    SloConfig,
    SloTracker,
    WindowedQuantiles,
)
from repro.telemetry.statusd import StatusServer

# Library-standard logging hygiene: the package never configures the
# root logger, and stays silent unless the application opts in.
logging.getLogger("repro").addHandler(logging.NullHandler())

_active_registry = NULL_REGISTRY
_active_tracer = NULL_TRACER


def get_registry():
    """The active metrics registry (a no-op registry by default)."""
    return _active_registry


def get_tracer():
    """The active span tracer (a no-op tracer by default)."""
    return _active_tracer


def is_enabled() -> bool:
    """Whether real telemetry is currently installed."""
    return _active_registry.enabled


def install(
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[SpanTracer] = None,
) -> Tuple[MetricsRegistry, SpanTracer]:
    """Install a real registry/tracer process-wide and return them.

    Passing existing instances lets an application aggregate several
    runs into one scrape target; omitting them creates fresh ones.
    """
    global _active_registry, _active_tracer
    _active_registry = registry if registry is not None else MetricsRegistry()
    _active_tracer = tracer if tracer is not None else SpanTracer()
    return _active_registry, _active_tracer


def uninstall() -> None:
    """Return to the default no-op registry and tracer."""
    global _active_registry, _active_tracer
    _active_registry = NULL_REGISTRY
    _active_tracer = NULL_TRACER


def _reinit_after_fork() -> None:
    """Reset process-scoped mutable state in a freshly forked child.

    A forked worker inherits the parent's installed registry/tracer
    (its metrics would silently diverge from the parent's scrape), the
    trace id prefix and request counter
    (its ids would *collide* with the parent's), and the facade's
    one-slot solver cache (whose predictor state is mid-stream).  None
    of these are meaningful across the fork boundary, so the child
    starts clean: shard workers install their own registry explicitly,
    and everything else returns to the no-op defaults.

    Registered once via :func:`os.register_at_fork` at first import of
    this package; spawn-started processes re-import from scratch and
    need nothing.
    """
    global _active_registry, _active_tracer
    _active_registry = NULL_REGISTRY
    _active_tracer = NULL_TRACER
    from repro.telemetry import trace as _trace_module

    _trace_module.reset_trace_identity()
    # The api facade may not be imported (telemetry has no dependency
    # on it); reset its solver cache only if it already exists.
    api_module = sys.modules.get("repro.api")
    if api_module is not None:
        api_module._LAST_BUILT = (None, None)


if hasattr(os, "register_at_fork"):  # not on every platform
    os.register_at_fork(after_in_child=_reinit_after_fork)


@contextmanager
def capture(
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[SpanTracer] = None,
):
    """Scoped telemetry: install on entry, restore the previous
    registry/tracer on exit, yield ``(registry, tracer)``."""
    previous = (_active_registry, _active_tracer)
    try:
        yield install(registry, tracer)
    finally:
        globals()["_active_registry"], globals()["_active_tracer"] = previous


__all__ = [
    "DEFAULT_BUCKETS",
    "CounterChild",
    "GaugeChild",
    "HistogramChild",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "SpanRecord",
    "SpanTracer",
    "NullTracer",
    "NULL_TRACER",
    "get_registry",
    "get_tracer",
    "is_enabled",
    "install",
    "uninstall",
    "capture",
    "aggregate_registries",
    "registry_from_snapshot",
    "to_prometheus_text",
    "to_prometheus_fleet_text",
    "to_json_snapshot",
    "write_snapshot",
    # per-request trace plane
    "ENGINE_STAGES",
    "TraceContext",
    "TraceSpan",
    "FlushTrace",
    "RequestTrace",
    "reserve_request_numbers",
    "reset_trace_identity",
    "format_request_id",
    # anomaly flight recorder
    "INCIDENT_FORMAT",
    "TRIGGERS",
    "RecorderConfig",
    "FixRecord",
    "FlightRecorder",
    "replay_incident",
    "solve_captured",
    # SLO engine
    "QuantileSketch",
    "WindowedQuantiles",
    "SloConfig",
    "SloTracker",
    # status endpoints
    "StatusServer",
]
