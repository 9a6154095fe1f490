"""Tests for the seeded fuzz harness: budgets, artifacts, replay."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.validation import FuzzConfig, FuzzHarness, ScenarioConfig
from repro.validation.faults import (
    NonFiniteMeasurement,
    PseudorangeSpike,
    SatelliteDropout,
)
from repro.validation.fuzzer import replay_artifact


def _config(**overrides):
    kwargs = {"budget_seconds": None, "max_scenarios": 5, "stream_check_every": 0}
    kwargs.update(overrides)
    return FuzzConfig(**kwargs)


class TestConfigValidation:
    def test_requires_at_least_one_budget(self):
        with pytest.raises(ConfigurationError, match="never terminates"):
            FuzzConfig(budget_seconds=None, max_scenarios=None)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"budget_seconds": 0.0},
            {"budget_seconds": None, "max_scenarios": 0},
            {"fault_rate": 1.5},
            {"fault_rate": -0.1},
            {"budget_seconds": 10.0, "stream_check_every": -1},
        ],
    )
    def test_rejects_bad_budgets_and_rates(self, kwargs):
        with pytest.raises(ConfigurationError):
            FuzzConfig(**kwargs)


class TestCleanRuns:
    def test_scenario_budget_is_exact(self):
        report = FuzzHarness(_config(max_scenarios=7)).run()
        assert report.scenarios == 7
        assert report.passes + report.rejected + report.explained + len(
            report.failures
        ) >= report.scenarios
        assert report.ok
        assert report.failures == ()

    def test_clean_population_all_passes(self):
        report = FuzzHarness(_config(max_scenarios=10)).run()
        assert report.passes == 10
        assert report.rejected == report.explained == 0

    def test_runs_are_deterministic(self):
        a = FuzzHarness(_config(max_scenarios=6)).run().to_dict()
        b = FuzzHarness(_config(max_scenarios=6)).run().to_dict()
        a.pop("elapsed_seconds")
        b.pop("elapsed_seconds")
        assert a == b

    def test_start_seed_shifts_the_population(self):
        harness = FuzzHarness(_config(start_seed=100, max_scenarios=1))
        case = harness.run_case(100)
        assert case.seed == 100
        assert case.status == "pass"

    def test_stream_checks_fire_on_schedule(self):
        report = FuzzHarness(
            _config(max_scenarios=10, stream_check_every=5)
        ).run()
        assert report.stream_checks == 2

    def test_wall_clock_budget_stops_the_run(self):
        # A generous scenario cap with a tiny time budget: the clock,
        # not the cap, must end the run.
        report = FuzzHarness(
            FuzzConfig(
                budget_seconds=0.5, max_scenarios=1_000_000, stream_check_every=0
            )
        ).run()
        assert 0 < report.scenarios < 1_000_000
        assert report.elapsed_seconds >= 0.5


class TestFaultedRuns:
    def test_structural_faults_are_rejected_everywhere(self):
        for fault in (NonFiniteMeasurement(), SatelliteDropout()):
            report = FuzzHarness(
                _config(max_scenarios=4, fault_rate=1.0, fault=fault)
            ).run()
            assert report.rejected == 4, fault.name
            assert report.ok

    def test_semantic_fault_disagreements_are_explained(self, tmp_path):
        report = FuzzHarness(
            _config(
                max_scenarios=3,
                fault_rate=1.0,
                fault=PseudorangeSpike(),
                artifacts_dir=tmp_path,
            )
        ).run()
        assert report.explained == 3
        assert report.ok
        assert len(report.artifact_paths) == 3

    def test_sampled_faults_with_partial_rate(self):
        # fault=None samples from the registry; with rate 0.5 some
        # scenarios stay clean — statuses must partition the run.
        report = FuzzHarness(_config(max_scenarios=20, fault_rate=0.5)).run()
        assert report.scenarios == 20
        assert report.passes > 0
        assert report.rejected + report.explained > 0
        assert report.ok


class TestArtifacts:
    def test_artifact_payload_is_replayable_json(self, tmp_path):
        report = FuzzHarness(
            _config(
                max_scenarios=1,
                fault_rate=1.0,
                fault=PseudorangeSpike(),
                artifacts_dir=tmp_path,
            )
        ).run()
        (path,) = report.artifact_paths
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["status"] == "explained"
        assert payload["fault"]["name"] == "spike"
        assert payload["scenario_config"] == ScenarioConfig().to_dict()

    def test_replay_reproduces_the_verdict(self, tmp_path):
        report = FuzzHarness(
            _config(
                max_scenarios=2,
                fault_rate=1.0,
                fault=PseudorangeSpike(),
                artifacts_dir=tmp_path,
            )
        ).run()
        for path in report.artifact_paths:
            with open(path) as handle:
                recorded = json.load(handle)
            result = replay_artifact(path)
            assert result.seed == recorded["seed"]
            assert result.status == recorded["status"]
            assert result.kind == recorded["kind"]
            assert list(result.detail) == recorded["detail"]

    def test_replay_is_deterministic(self, tmp_path):
        report = FuzzHarness(
            _config(
                max_scenarios=1,
                fault_rate=1.0,
                fault=PseudorangeSpike(),
                artifacts_dir=tmp_path,
            )
        ).run()
        (path,) = report.artifact_paths
        assert replay_artifact(path).to_dict() == replay_artifact(path).to_dict()

    def test_no_artifacts_without_a_directory(self):
        report = FuzzHarness(
            _config(max_scenarios=2, fault_rate=1.0, fault=PseudorangeSpike())
        ).run()
        assert report.explained == 2
        assert report.artifact_paths == ()


class TestCrashCapture:
    def test_generator_crash_becomes_a_crash_case(self, monkeypatch):
        harness = FuzzHarness(_config(max_scenarios=1))

        def boom(seed):
            raise RuntimeError("synthetic generator crash")

        monkeypatch.setattr(harness._generator, "generate", boom)
        case = harness.run_case(0)
        assert case.status == "failed"
        assert case.kind == "crash"
        assert any("synthetic generator crash" in line for line in case.detail)

    def test_crashes_fail_the_run(self, monkeypatch, tmp_path):
        harness = FuzzHarness(_config(max_scenarios=2, artifacts_dir=tmp_path))

        def boom(seed):
            raise RuntimeError("synthetic generator crash")

        monkeypatch.setattr(harness._generator, "generate", boom)
        report = harness.run()
        assert not report.ok
        assert all(f.kind == "crash" for f in report.failures)
        # Crashes are persisted like any other failure.
        assert len(report.artifact_paths) == len(report.failures)
