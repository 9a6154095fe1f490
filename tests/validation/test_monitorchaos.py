"""Tests for the spoof chaos campaign (``repro-gps fuzz --spoof``)."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.integrity.monitors import MonitorConfig
from repro.validation.monitorchaos import (
    ARM_CLEAN,
    ATTACK_FAMILIES,
    FamilyStats,
    MonitorChaosCase,
    MonitorChaosConfig,
    MonitorChaosReport,
    _arm_for,
    build_stream,
    run_monitor_chaos,
)
from repro.validation.scenarios import ScenarioConfig, ScenarioGenerator


#: ``repro-gps fuzz --spoof --seed 0 --scenarios 400 --spoof-out``;
#: the monitor-chaos-smoke CI job compares its own output against it
#: with ``cmp``.
GOLDEN = (
    Path(__file__).parents[1] / "integrity" / "data" / "spoof-chaos-verdict.json"
)


def small_config(**overrides):
    defaults = dict(scenarios=15, epochs_per_stream=32, max_flatness=0.3)
    defaults.update(overrides)
    return MonitorChaosConfig(**defaults)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        MonitorChaosConfig()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"scenarios": 3},
            {"epochs_per_stream": 1},
            {"onset_seconds": 0.0},
            {"onset_seconds": 100.0, "epochs_per_stream": 40},
            {"onset_seconds": 5.0},  # inside the learning window
            {"sigma_meters": 0.0},
            {"sigma_meters": float("nan")},
            {"batch_size": 0},
            {"detection_floor": 0.0},
            {"detection_floor": 1.5},
            {"false_alarm_budget": -0.1},
            {"false_alarm_budget": 1.0},
        ],
    )
    def test_rejected_configs(self, overrides):
        with pytest.raises(ConfigurationError):
            MonitorChaosConfig(**overrides)

    def test_to_dict_round_trips_the_knobs(self):
        config = small_config()
        data = config.to_dict()
        assert data["scenarios"] == 15
        assert data["monitors"] == MonitorConfig().to_dict()


class TestArmAssignment:
    def test_every_fifth_seed_is_clean(self):
        arms = [_arm_for(i) for i in range(10)]
        assert arms[0] == ARM_CLEAN
        assert arms[5] == ARM_CLEAN
        assert arms[1:5] == list(ATTACK_FAMILIES)

    def test_all_arms_covered_in_one_cycle(self):
        arms = {_arm_for(i) for i in range(len(ATTACK_FAMILIES) + 1)}
        assert arms == {ARM_CLEAN, *ATTACK_FAMILIES}


class TestBuildStream:
    def test_stream_is_stationary_with_fresh_noise_and_cn0(self):
        config = small_config()
        scenario = ScenarioGenerator(ScenarioConfig()).generate(7)
        stream = build_stream(scenario, config, seed=7)
        assert len(stream) == config.epochs_per_stream
        # Times are stream-relative 1 Hz ticks.
        assert [e.time.seconds_of_week for e in stream[:3]] == [0.0, 1.0, 2.0]
        # Same sky every epoch, distinct noise draws.
        first, second = stream[0], stream[1]
        assert [o.prn for o in first.observations] == [
            o.prn for o in second.observations
        ]
        assert [o.pseudorange for o in first.observations] != [
            o.pseudorange for o in second.observations
        ]
        # C/N0 attached everywhere, and truth rides along for grading.
        for epoch in stream:
            assert epoch.truth is not None
            assert all(o.cn0_dbhz is not None for o in epoch.observations)

    def test_stream_is_a_pure_function_of_the_seed(self):
        config = small_config()
        scenario = ScenarioGenerator(ScenarioConfig()).generate(11)
        one = build_stream(scenario, config, seed=11)
        two = build_stream(scenario, config, seed=11)
        for a, b in zip(one, two):
            assert [o.pseudorange for o in a.observations] == [
                o.pseudorange for o in b.observations
            ]
            assert [o.cn0_dbhz for o in a.observations] == [
                o.cn0_dbhz for o in b.observations
            ]


class TestCampaign:
    def test_small_campaign_detects_every_family(self):
        report = run_monitor_chaos(small_config(scenarios=25))
        assert report.attacks == 20
        assert report.clean_streams == 5
        for family in ATTACK_FAMILIES:
            stats = report.families[family]
            assert stats.attacks == 5
            assert stats.detected >= 4, family
        assert report.ok

    def test_campaign_is_deterministic(self):
        config = small_config()
        assert (
            run_monitor_chaos(config).to_dict()
            == run_monitor_chaos(config).to_dict()
        )

    def test_clean_arm_grades_against_epoch_count(self):
        report = run_monitor_chaos(small_config())
        assert (
            report.clean_epochs
            == report.clean_streams * report.config.epochs_per_stream
        )
        assert report.false_alarm_rate <= report.config.false_alarm_budget

    def test_report_dict_carries_gates_and_mistakes(self):
        report = run_monitor_chaos(small_config())
        data = report.to_dict()
        assert set(data["gates"]) == {"detection", "false_alarm"}
        assert data["gates"]["detection"]["passed"] == report.detection_ok
        assert data["ok"] == report.ok
        for mistake in data["mistakes"]:
            assert set(mistake) == {
                "seed",
                "family",
                "outcome",
                "detect_second",
                "harm_second",
            }


class TestGateArithmetic:
    def _report(self, in_time, attacks, clean_epochs, false_epochs):
        stats = FamilyStats(
            attacks=attacks,
            detected=in_time,
            detected_in_time=in_time,
            time_to_detect=tuple(float(i) for i in range(in_time)),
        )
        return MonitorChaosReport(
            config=small_config(),
            families={"meaconing": stats},
            clean_streams=1,
            clean_epochs=clean_epochs,
            false_alarm_streams=1 if false_epochs else 0,
            false_alarm_epochs=false_epochs,
            blocked_attack_epochs=0,
            mistakes=(
                MonitorChaosCase(
                    seed=0,
                    family="meaconing",
                    outcome="missed",
                    detect_second=None,
                    harm_second=None,
                ),
            ),
        )

    def test_detection_floor_is_inclusive(self):
        report = self._report(
            in_time=18, attacks=20, clean_epochs=100, false_epochs=0
        )
        assert report.detection_rate == pytest.approx(0.90)
        assert report.detection_ok and report.ok

    def test_detection_below_floor_fails(self):
        report = self._report(
            in_time=17, attacks=20, clean_epochs=100, false_epochs=0
        )
        assert not report.detection_ok and not report.ok

    def test_false_alarm_budget_is_inclusive(self):
        report = self._report(
            in_time=20, attacks=20, clean_epochs=100, false_epochs=2
        )
        assert report.false_alarm_rate == pytest.approx(0.02)
        assert report.false_alarm_ok and report.ok

    def test_false_alarm_above_budget_fails(self):
        report = self._report(
            in_time=20, attacks=20, clean_epochs=100, false_epochs=3
        )
        assert not report.false_alarm_ok and not report.ok

    def test_family_latency_percentiles(self):
        stats = FamilyStats(
            attacks=4,
            detected=3,
            detected_in_time=3,
            time_to_detect=(1.0, 2.0, 6.0),
        )
        data = stats.to_dict()
        assert data["time_to_detect_seconds"]["mean"] == pytest.approx(3.0)
        assert data["time_to_detect_seconds"]["max"] == 6.0

    def test_empty_family_reports_null_latency(self):
        stats = FamilyStats(
            attacks=0, detected=0, detected_in_time=0, time_to_detect=()
        )
        data = stats.to_dict()
        assert data["detection_rate"] == 1.0
        assert data["time_to_detect_seconds"]["mean"] is None


class TestSpoofCli:
    def test_spoof_mode_prints_gates_and_writes_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "spoof.json"
        code = main(
            [
                "fuzz",
                "--spoof",
                "--scenarios",
                "10",
                "--spoof-out",
                str(out),
            ]
        )
        printed = capsys.readouterr().out
        assert code == 0
        assert "spoof chaos:" in printed
        assert "detection:" in printed and "false alarms:" in printed
        verdict = json.loads(out.read_text())
        assert verdict["ok"] is True
        assert set(verdict["families"]) == set(ATTACK_FAMILIES)

    def test_spoof_rejects_inject(self, capsys):
        from repro.cli import main

        code = main(["fuzz", "--spoof", "--inject", "spike"])
        assert code == 1
        assert "drop" in capsys.readouterr().err

    def test_spoof_and_fde_are_mutually_exclusive(self, capsys):
        from repro.cli import main

        code = main(["fuzz", "--spoof", "--fde"])
        assert code == 1
        assert "mutually exclusive" in capsys.readouterr().err


class TestGoldenVerdict:
    def test_seed_0_population_reproduces_the_golden_byte_for_byte(self):
        report = run_monitor_chaos(MonitorChaosConfig(scenarios=400, start_seed=0))
        written = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        assert written == GOLDEN.read_text()
