"""Tests for the repro-gps command-line interface."""

import pytest

from repro.cli import main


class TestStationsCommand:
    def test_prints_table(self, capsys):
        assert main(["stations"]) == 0
        out = capsys.readouterr().out
        assert "Table 5.1" in out
        for site in ("SRZN", "YYR1", "FAI1", "KYCP"):
            assert site in out


class TestSolveCommand:
    def test_solves_short_run(self, capsys):
        assert main(["solve", "SRZN", "--duration", "40", "--warmup", "10"]) == 0
        out = capsys.readouterr().out
        assert "DLG" in out
        assert "pipeline stats" in out

    def test_algorithm_choice(self, capsys):
        assert main(["solve", "KYCP", "--duration", "10", "--algorithm", "nr"]) == 0
        out = capsys.readouterr().out
        assert "NR" in out

    def test_unknown_station_exits_nonzero(self, capsys):
        code = main(["solve", "NOPE", "--duration", "5"])
        assert code == 1
        assert "unknown station" in capsys.readouterr().err


class TestExportCommand:
    def test_writes_files(self, tmp_path, capsys):
        obs = tmp_path / "x.obs"
        nav = tmp_path / "x.nav"
        code = main(
            ["export", "YYR1", "--duration", "5", "--obs", str(obs), "--nav", str(nav)]
        )
        assert code == 0
        assert obs.exists() and nav.exists()
        out = capsys.readouterr().out
        assert "wrote 5 epochs" in out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            main(["solve", "SRZN", "--algorithm", "wizardry"])


class TestSmoothingFlag:
    def test_solve_with_smoothing(self, capsys):
        assert main(["solve", "SRZN", "--duration", "20", "--warmup", "5",
                     "--smooth"]) == 0
        out = capsys.readouterr().out
        assert "Hatch-smoothed" in out

    def test_export_with_carrier(self, tmp_path, capsys):
        obs = tmp_path / "c.obs"
        nav = tmp_path / "c.nav"
        assert main(["export", "FAI1", "--duration", "3", "--carrier",
                     "--obs", str(obs), "--nav", str(nav)]) == 0
        from repro.rinex import read_observation_file

        data = read_observation_file(obs)
        assert data.header.observation_types == ("C1", "L1")


class TestExperimentCommand:
    def test_single_station_quick(self, capsys):
        # A very short span: just exercise the plumbing end to end.
        assert main(["experiment", "SRZN", "--duration", "400"]) == 0
        out = capsys.readouterr().out
        assert "Fig 5.1" in out and "Fig 5.2" in out


class TestSkyplotCommand:
    def test_renders_sky(self, capsys):
        assert main(["skyplot", "SRZN"]) == 0
        out = capsys.readouterr().out
        assert "sky above SRZN" in out
        assert "GDOP" in out
        assert "legend:" in out

    def test_at_offset(self, capsys):
        assert main(["skyplot", "KYCP", "--at", "5"]) == 0
        out = capsys.readouterr().out
        assert "t+5s" in out


class TestExperimentOutput:
    def test_writes_markdown_report(self, tmp_path, capsys):
        out = tmp_path / "r.md"
        assert main(["experiment", "SRZN", "--duration", "400",
                     "--output", str(out)]) == 0
        assert out.exists()
        text = out.read_text()
        assert "## Accuracy rate" in text
        assert "SRZN" in text


class TestTelemetryCommand:
    def test_prometheus_text_to_stdout(self, capsys):
        assert main(["telemetry", "SRZN", "--duration", "20"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_receiver_epochs_total counter" in out
        assert "# TYPE repro_engine_streams_total counter" in out
        assert "# TYPE repro_replay_chunks_total counter" in out
        assert "# TYPE repro_solver_solves_total counter" in out

    def test_json_document_to_stdout(self, capsys):
        import json

        assert main(["telemetry", "SRZN", "--duration", "20",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["telemetry"]["enabled"] is True
        assert "repro_replay_epochs_total" in doc["metrics"]
        assert doc["extra"]["engine_diagnostics"]["epochs_dropped"] == 0
        assert any(s["name"] == "engine.solve_stream" for s in doc["spans"])

    def test_output_file_by_extension(self, tmp_path):
        path = tmp_path / "metrics.prom"
        assert main(["telemetry", "SRZN", "--duration", "20",
                     "--output", str(path)]) == 0
        assert "# TYPE repro_engine_epochs_total counter" in path.read_text()

    def test_leaves_telemetry_uninstalled(self):
        from repro import telemetry

        assert main(["telemetry", "SRZN", "--duration", "20"]) == 0
        assert telemetry.is_enabled() is False


class TestMetricsSink:
    def test_ensure_installs_registry_without_sink_path(self):
        # serve --status-port scrapes the live registry: arming the
        # port must arm collection even without --metrics-out.
        from repro import telemetry
        from repro.cli import _metrics_sink

        with _metrics_sink(None, ensure=True):
            assert telemetry.is_enabled() is True
        assert telemetry.is_enabled() is False

    def test_no_path_no_ensure_stays_uninstalled(self):
        from repro import telemetry
        from repro.cli import _metrics_sink

        with _metrics_sink(None):
            assert telemetry.is_enabled() is False


class TestMetricsOutFlag:
    def test_solve_writes_snapshot(self, tmp_path, capsys):
        path = tmp_path / "solve.json"
        assert main(["solve", "SRZN", "--duration", "20", "--warmup", "5",
                     "--metrics-out", str(path)]) == 0
        import json

        doc = json.loads(path.read_text())
        assert doc["metrics"]["repro_receiver_epochs_total"]["samples"][0][
            "value"
        ] == 20
        assert "wrote telemetry snapshot" in capsys.readouterr().out

    def test_experiment_writes_prometheus_text(self, tmp_path, capsys):
        path = tmp_path / "exp.prom"
        assert main(["experiment", "SRZN", "--duration", "400",
                     "--metrics-out", str(path)]) == 0
        assert "# TYPE repro_solver_solves_total counter" in path.read_text()


class TestServeWorkersFlag:
    def test_sharded_serve_writes_fleet_snapshot(self, tmp_path, capsys):
        path = tmp_path / "fleet.json"
        assert main(["serve", "SRZN", "--workers", "2", "--requests", "96",
                     "--batch-size", "16", "--metrics-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "across 2 workers" in out
        assert "statuses: {'ok': 96}" in out
        import json

        doc = json.loads(path.read_text())
        metrics = doc["metrics"]
        # Fleet aggregation: worker-side executor counters made it back.
        assert metrics["repro_engine_epochs_total"]["samples"][0]["value"] == 96
        assert metrics["repro_shard_requests_total"]["samples"][0]["value"] == 96
        total_worker_batches = sum(
            sample["value"]
            for sample in metrics["repro_shard_worker_batches_total"]["samples"]
        )
        assert total_worker_batches == 6  # 96 epochs / batches of 16
        assert "repro_fleet_registries" in metrics

    def test_sharded_serve_prometheus_text(self, tmp_path, capsys):
        path = tmp_path / "fleet.prom"
        assert main(["serve", "SRZN", "--workers", "1", "--requests", "32",
                     "--metrics-out", str(path)]) == 0
        text = path.read_text()
        assert "# TYPE repro_shard_requests_total counter" in text
        assert "repro_fleet_registries 2" in text  # router + 1 worker

    def test_asyncio_only_flags_rejected_with_workers(self, capsys, tmp_path):
        # ShardConfig refuses what --trace and --record-dir arm ...
        assert main(["serve", "SRZN", "--workers", "2", "--requests", "8",
                     "--trace"]) == 1
        assert "service.trace" in capsys.readouterr().err
        assert main(["serve", "SRZN", "--workers", "2", "--requests", "8",
                     "--record-dir", str(tmp_path)]) == 1
        assert "service.recorder" in capsys.readouterr().err
        # ... and the CLI refuses its status port.
        assert main(["serve", "SRZN", "--workers", "2", "--requests", "8",
                     "--status-port", "9"]) == 1
        assert "--status-port" in capsys.readouterr().err


class TestInspectMetricsSnapshot:
    def test_renders_fleet_snapshot(self, tmp_path, capsys):
        path = tmp_path / "fleet.json"
        assert main(["serve", "SRZN", "--workers", "2", "--requests", "32",
                     "--batch-size", "16", "--metrics-out", str(path)]) == 0
        capsys.readouterr()
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro_shard_requests_total 32" in out
        assert "metric families" in out

    def test_request_flag_rejected_for_metrics(self, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        path.write_text(json.dumps({"metrics": {"x_total": {
            "kind": "counter", "help": "", "label_names": [],
            "samples": [{"labels": {}, "value": 1.0}]}}}))
        assert main(["inspect", str(path), "--request", "r-1"]) == 1
        assert "telemetry snapshot" in capsys.readouterr().err
