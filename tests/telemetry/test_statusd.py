"""Tests for fleet-scrape aggregation and the status endpoint server."""

import asyncio
import json

import pytest

from repro.errors import ConfigurationError
from repro.telemetry import (
    FlightRecorder,
    MetricsRegistry,
    SloTracker,
    StatusServer,
    aggregate_registries,
    format_request_id,
    reserve_request_numbers,
    to_json_snapshot,
    to_prometheus_fleet_text,
)
from tests.telemetry.test_recorder import make_entry


def worker_registry(requests: int, latency: float) -> MetricsRegistry:
    """One fleet member's registry, as a worker process would fill it."""
    registry = MetricsRegistry()
    registry.counter(
        "repro_requests_total", "Requests served.", labels=("status",)
    ).labels(status="ok").inc(requests)
    registry.gauge("repro_queue_depth", "Queued requests.").set(3.0)
    histogram = registry.histogram(
        "repro_latency_seconds", "Request latency.", buckets=(0.01, 0.1, 1.0)
    )
    for _ in range(requests):
        histogram.labels().observe(latency)
    return registry


class TestAggregateRegistries:
    def test_aggregate_equals_sum_of_parts(self):
        fleet = [worker_registry(5, 0.005), worker_registry(7, 0.5)]
        merged = aggregate_registries(fleet)
        counter = merged.counter(
            "repro_requests_total", "Requests served.", labels=("status",)
        )
        assert counter.labels(status="ok").value == 12.0
        snapshot = to_json_snapshot(merged)["metrics"]
        histogram = snapshot["repro_latency_seconds"]["samples"][0]
        assert histogram["count"] == 12
        # Bucket counts merge element-wise: 5 fast fixes under 10ms,
        # the 7 slow ones first counted at the 1s bound.
        assert histogram["buckets"]["0.01"] == 5
        assert histogram["buckets"]["1.0"] == 12
        assert histogram["sum"] == pytest.approx(5 * 0.005 + 7 * 0.5)

    def test_single_registry_aggregates_to_itself(self):
        merged = aggregate_registries([worker_registry(4, 0.01)])
        counter = merged.counter(
            "repro_requests_total", "Requests served.", labels=("status",)
        )
        assert counter.labels(status="ok").value == 4.0

    def test_conflicting_definitions_raise(self):
        left = MetricsRegistry()
        left.counter("repro_thing_total", "A counter.").inc()
        right = MetricsRegistry()
        right.gauge("repro_thing_total", "Now a gauge.").set(1.0)
        with pytest.raises(ConfigurationError):
            aggregate_registries([left, right])

    def test_fleet_text_matches_aggregate(self):
        fleet = [worker_registry(5, 0.005), worker_registry(7, 0.5)]
        text = to_prometheus_fleet_text(fleet)
        assert 'repro_requests_total{status="ok"} 12' in text
        assert "repro_queue_depth 6" in text


class TestStatusServer:
    def _serve_and_get(self, server: StatusServer, *paths, method="GET"):
        async def scenario():
            await server.start()
            try:
                responses = []
                for path in paths:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    writer.write(
                        f"{method} {path} HTTP/1.1\r\n"
                        f"Host: localhost\r\n\r\n".encode()
                    )
                    await writer.drain()
                    raw = await reader.read()
                    writer.close()
                    head, _, body = raw.decode().partition("\r\n\r\n")
                    responses.append((head.split("\r\n")[0], body))
                return responses
            finally:
                await server.stop()

        return asyncio.run(scenario())

    def test_metrics_endpoint_serves_fleet_aggregate(self):
        fleet = [worker_registry(2, 0.01), worker_registry(3, 0.01)]
        server = StatusServer(lambda: fleet)
        ((status, body),) = self._serve_and_get(server, "/metrics")
        assert status.endswith("200 OK")
        assert 'repro_requests_total{status="ok"} 5' in body

    def test_metrics_json_and_slo_and_records(self, make_epoch):
        registry = worker_registry(2, 0.01)
        slo = SloTracker()
        slo.observe("ok", 0.01)
        recorder = FlightRecorder()
        first = reserve_request_numbers(1)
        recorder.record_flush(make_entry([make_epoch()], first=first))
        server = StatusServer(lambda: [registry], slo=slo, recorder=recorder)
        responses = self._serve_and_get(
            server, "/metrics.json", "/slo", "/records", "/healthz"
        )
        assert all(status.endswith("200 OK") for status, _ in responses)
        metrics = json.loads(responses[0][1])
        names = set(metrics["metrics"])
        assert "repro_requests_total" in names
        # /metrics.json publishes the SLO rollup into the scrape.
        assert "repro_slo_availability" in names
        assert json.loads(responses[1][1])["availability"] == 1.0
        records = json.loads(responses[2][1])
        assert records["records"][0]["request_id"] == format_request_id(first)
        assert responses[3][1] == "ok\n"

    def test_unattached_endpoints_404(self):
        server = StatusServer(lambda: [MetricsRegistry()])
        responses = self._serve_and_get(server, "/slo", "/records", "/nope")
        assert [s.split()[1] for s, _ in responses] == ["404", "404", "404"]

    def test_non_get_is_405(self):
        server = StatusServer(lambda: [MetricsRegistry()])
        ((status, body),) = self._serve_and_get(server, "/metrics", method="POST")
        assert "405" in status
        assert body == "GET only\n"

    def test_broken_endpoint_is_500_not_crash(self):
        class Broken:
            def snapshot(self):
                raise RuntimeError("boom")

        server = StatusServer(lambda: [MetricsRegistry()], slo=Broken())
        (status, body), (ok_status, _) = self._serve_and_get(
            server, "/slo", "/healthz"
        )
        assert "500" in status
        assert "RuntimeError" in body
        assert ok_status.endswith("200 OK")  # the server survived
