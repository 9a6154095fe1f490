"""End-to-end tests: the pipeline actually reports into telemetry."""

import pytest

from repro import telemetry
from repro.core import DLGSolver, GpsReceiver, NewtonRaphsonSolver
from repro.engine import ParallelReplay, PositioningEngine
from repro.telemetry import MetricsRegistry, SpanTracer

RECEIVER_KWARGS = {
    "algorithm": "dlg",
    "clock_mode": "steering",
    "warmup_epochs": 4,
    "recalibration_interval": 0,
}


@pytest.fixture
def stream(make_epoch, gps_t0):
    return [
        make_epoch(
            bias_meters=30.0,
            count=8,
            noise_sigma=0.5,
            seed=i,
            time=gps_t0 + float(i),
        )
        for i in range(16)
    ]


@pytest.fixture
def captured():
    with telemetry.capture() as (registry, tracer):
        yield registry, tracer


class TestInstallState:
    def test_defaults_to_null_implementations(self):
        assert telemetry.is_enabled() is False
        assert telemetry.get_registry().enabled is False
        assert telemetry.get_tracer().enabled is False

    def test_install_and_uninstall(self):
        registry, tracer = telemetry.install()
        try:
            assert telemetry.get_registry() is registry
            assert telemetry.get_tracer() is tracer
            assert telemetry.is_enabled() is True
        finally:
            telemetry.uninstall()
        assert telemetry.is_enabled() is False

    def test_capture_restores_previous_state(self):
        outer_registry, _ = telemetry.install()
        try:
            with telemetry.capture() as (inner_registry, _tracer):
                assert telemetry.get_registry() is inner_registry
                assert inner_registry is not outer_registry
            assert telemetry.get_registry() is outer_registry
        finally:
            telemetry.uninstall()

    def test_capture_accepts_existing_instances(self):
        registry, tracer = MetricsRegistry(), SpanTracer()
        with telemetry.capture(registry, tracer) as (got_registry, got_tracer):
            assert got_registry is registry
            assert got_tracer is tracer


class TestReceiverInstrumentation:
    def test_counts_epochs_and_events(self, captured, stream):
        registry, _ = captured
        GpsReceiver(**RECEIVER_KWARGS).process_many(stream)
        metrics = registry.snapshot()
        epochs = metrics["repro_receiver_epochs_total"]["samples"][0]
        assert epochs["labels"] == {"algorithm": "dlg"}
        assert epochs["value"] == len(stream)
        events = {
            s["labels"]["event"]: s["value"]
            for s in metrics["repro_receiver_events_total"]["samples"]
        }
        assert events["warmup_fixes"] == 4.0
        assert events["closed_form_fixes"] == len(stream) - 4.0

    def test_nr_iteration_histogram_fills(self, captured, stream):
        registry, _ = captured
        GpsReceiver(**RECEIVER_KWARGS).process_many(stream)
        sample = registry.snapshot()["repro_receiver_nr_iterations"]["samples"][0]
        assert sample["count"] >= 4  # at least one per warm-up epoch


class TestSolverInstrumentation:
    def test_dlg_records_condition_and_path(self, captured, stream):
        registry, _ = captured

        class _Bias:
            is_ready = True

            def observe(self, time, bias_meters): ...

            def predict_bias_meters(self, time):
                return 30.0

        DLGSolver(_Bias()).solve(stream[0])
        metrics = registry.snapshot()
        solves = {
            (s["labels"]["solver"], s["labels"]["status"]): s["value"]
            for s in metrics["repro_solver_solves_total"]["samples"]
        }
        assert solves[("dlg", "converged")] == 1.0
        assert metrics["repro_solver_condition_number"]["samples"][0]["count"] == 1
        paths = {
            s["labels"]["path"]: s["value"]
            for s in metrics["repro_estimation_gls_solves_total"]["samples"]
        }
        assert paths["sherman_morrison"] == 1.0

    def test_nr_records_iterations(self, captured, stream):
        registry, _ = captured
        NewtonRaphsonSolver().solve(stream[0])
        metrics = registry.snapshot()
        sample = metrics["repro_solver_iterations"]["samples"][0]
        assert sample["labels"] == {"solver": "nr"}
        assert sample["count"] == 1


class TestEngineInstrumentation:
    def test_stream_metrics_and_spans(self, captured, stream):
        registry, tracer = captured
        engine = PositioningEngine(algorithm="dlg")
        engine.solve_stream(stream, biases=[30.0] * len(stream))
        metrics = registry.snapshot()
        assert (
            metrics["repro_engine_epochs_total"]["samples"][0]["value"]
            == len(stream)
        )
        assert metrics["repro_engine_scatter_coverage"]["samples"][0]["value"] == 1.0
        names = [s.name for s in tracer.spans]
        assert "engine.solve_stream" in names
        assert "engine.solve_block" in names
        block_span = next(
            s for s in tracer.spans if s.name == "engine.solve_block"
        )
        assert block_span.parent == "engine.solve_stream"
        assert block_span.attributes["rows"] == len(stream)
        assert block_span.attributes["width"] == 8


class TestReplayInstrumentation:
    def test_chunks_seams_and_utilization(self, captured, stream):
        registry, tracer = captured
        half = len(stream) // 2
        ParallelReplay(
            RECEIVER_KWARGS, workers=2, backend="thread", chunk_size=half
        ).replay(stream)
        metrics = registry.snapshot()
        assert metrics["repro_replay_chunks_total"]["samples"][0]["value"] == 2.0
        assert (
            metrics["repro_replay_epochs_total"]["samples"][0]["value"]
            == len(stream)
        )
        # One seam: the second chunk's fresh receiver re-pays warm-up.
        assert (
            metrics["repro_replay_seam_epochs_total"]["samples"][0]["value"]
            == RECEIVER_KWARGS["warmup_epochs"]
        )
        utilization = metrics["repro_replay_worker_utilization"]["samples"][0]
        assert 0.0 < utilization["value"] <= 1.0
        chunk_spans = [s for s in tracer.spans if s.name == "replay.chunk"]
        assert len(chunk_spans) == 2
        assert sum(s.attributes["epochs"] for s in chunk_spans) == len(stream)


class TestZeroCostDefault:
    def test_pipeline_runs_clean_without_telemetry(self, stream):
        assert telemetry.is_enabled() is False
        fixes = GpsReceiver(**RECEIVER_KWARGS).process_many(stream)
        assert len(fixes) == len(stream)
        result = PositioningEngine(algorithm="dlg").solve_stream(
            stream, biases=[30.0] * len(stream)
        )
        assert len(result) == len(stream)
        # Nothing leaked into the null implementations.
        assert telemetry.get_registry().snapshot() == {}
        assert telemetry.get_tracer().snapshot() == []
