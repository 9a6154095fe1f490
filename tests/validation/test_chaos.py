"""The seeded chaos campaigns (``repro-gps fuzz --fde`` / ``--spoof``).

The CI jobs run the full 400-scenario populations through the CLI and
``cmp`` the verdicts against the committed goldens; the golden tests
here do the same in process.  The rest keep each campaign honest on a
small population — same config twice grades identically, the category
counts partition the population — and pin the shared config checks and
the gate arithmetic.
"""

import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.integrity.monitors import MonitorConfig
from repro.validation.chaos import (
    ARM_CLEAN,
    ATTACK_FAMILIES,
    ChaosGate,
    FamilyStats,
    FdeChaosConfig,
    FdeChaosReport,
    MonitorChaosCase,
    MonitorChaosConfig,
    MonitorChaosReport,
    _arm_for,
    build_stream,
    run_fde_chaos,
    run_monitor_chaos,
)
from repro.validation.scenarios import ScenarioConfig, ScenarioGenerator

DATA = Path(__file__).parents[1] / "integrity" / "data"

#: ``repro-gps fuzz --inject spike --fde --seed 0 --scenarios 400
#: --fde-out`` as written before exclusion became closed form.
FDE_GOLDEN = DATA / "fde-chaos-verdict.json"

#: ``repro-gps fuzz --spoof --seed 0 --scenarios 400 --spoof-out``.
SPOOF_GOLDEN = DATA / "spoof-chaos-verdict.json"

SMALL_FDE = FdeChaosConfig(scenarios=40, start_seed=0)


def small_spoof(**overrides):
    defaults = dict(scenarios=15, epochs_per_stream=32, max_flatness=0.3)
    defaults.update(overrides)
    return MonitorChaosConfig(**defaults)


def written(report) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


@pytest.fixture(scope="module")
def small_fde_report():
    return run_fde_chaos(SMALL_FDE)


class TestGoldenVerdicts:
    def test_fde_seed_0_population_reproduces_the_golden_byte_for_byte(self):
        report = run_fde_chaos(FdeChaosConfig(scenarios=400, start_seed=0))
        assert written(report) == FDE_GOLDEN.read_text()

    def test_spoof_seed_0_population_reproduces_the_golden_byte_for_byte(self):
        report = run_monitor_chaos(MonitorChaosConfig(scenarios=400, start_seed=0))
        assert written(report) == SPOOF_GOLDEN.read_text()


class TestSharedConfig:
    @pytest.mark.parametrize("campaign", [FdeChaosConfig, MonitorChaosConfig])
    @pytest.mark.parametrize(
        "overrides",
        [
            {"scenarios": 0},
            {"start_seed": -1},
            {"sigma_meters": 0.0},
            {"sigma_meters": float("nan")},
            {"min_satellites": 8, "max_satellites": 7},
            {"max_flatness": 1.0},
        ],
    )
    def test_rejects_bad_shared_settings(self, campaign, overrides):
        with pytest.raises(ConfigurationError):
            campaign(**overrides)

    @pytest.mark.parametrize("campaign", [FdeChaosConfig, MonitorChaosConfig])
    def test_defaults_are_valid_and_draw_consecutive_seeds(self, campaign):
        config = campaign(scenarios=6, start_seed=10)
        assert [seed for seed, _scenario in config.draw()] == list(range(10, 16))

    def test_to_dict_covers_every_field(self):
        assert FdeChaosConfig().to_dict()["scenarios"] == 400
        data = small_spoof().to_dict()
        assert data["scenarios"] == 15
        assert data["monitors"] == MonitorConfig().to_dict()


class TestGate:
    def test_empty_population_passes_vacuously(self):
        assert ChaosGate("floor", 0.95, 0, 0).rate == 1.0
        assert ChaosGate("budget", 0.02, 0, 0).rate == 0.0

    @pytest.mark.parametrize(
        "kind, count, passed",
        [
            ("floor", 90, True),  # exactly at the floor
            ("floor", 89, False),
            ("budget", 90, True),  # exactly at the budget
            ("budget", 91, False),
        ],
    )
    def test_limit_is_inclusive(self, kind, count, passed):
        assert ChaosGate(kind, 0.9, count, 100).passed is passed

    def test_str_shows_counts_limit_and_outcome(self):
        assert str(ChaosGate("floor", 0.95, 93, 100)) == (
            "93/100 (93.00%, floor 95.00%) [FAIL]"
        )

    def test_to_dict_names_its_kind(self):
        assert ChaosGate("budget", 0.02, 1, 100).to_dict() == {
            "budget": 0.02,
            "rate": 0.01,
            "passed": True,
        }


class TestFdeCampaign:
    def test_same_config_same_report(self, small_fde_report):
        again = run_fde_chaos(FdeChaosConfig(scenarios=40, start_seed=0))
        assert again.to_dict() == small_fde_report.to_dict()

    def test_population_partitions(self, small_fde_report):
        report = small_fde_report
        assert report.clean + report.faulted == SMALL_FDE.scenarios
        assert (
            report.identified
            + report.misidentified
            + report.detected_unrepaired
            + report.missed
            == report.faulted
        )
        assert report.false_alarms <= report.clean
        # fault_rate 0.5 over 40 seeds: both halves must be populated.
        assert report.faulted > 0 and report.clean > 0

    def test_mistakes_reference_real_seeds(self, small_fde_report):
        seeds = range(SMALL_FDE.start_seed, SMALL_FDE.start_seed + SMALL_FDE.scenarios)
        for case in small_fde_report.mistakes:
            assert case.seed in seeds

    def test_mistakes_serialize_every_case_field(self, small_fde_report):
        document = small_fde_report.to_dict()
        assert len(document["mistakes"]) == len(small_fde_report.mistakes)
        for case, written_case in zip(
            small_fde_report.mistakes, document["mistakes"]
        ):
            assert written_case == {
                "seed": case.seed,
                "injected_prn": case.injected_prn,
                "status": case.status,
                "excluded_prn": case.excluded_prn,
            }

    def test_zero_fault_rate_is_all_clean(self):
        report = run_fde_chaos(
            FdeChaosConfig(scenarios=10, start_seed=0, fault_rate=0.0)
        )
        assert report.faulted == 0
        assert report.clean == 10
        assert report.gates["identification"].rate == 1.0  # vacuous gate holds

    @pytest.mark.parametrize(
        "overrides",
        [
            {"spike_meters": 0.0},
            {"fault_rate": 1.5},
            {"p_false_alarm": 0.0},
            {"min_satellites": 5},
            {"identification_floor": 0.0},
            {"false_alarm_slack": 0.5},
        ],
    )
    def test_rejects_bad_settings(self, overrides):
        with pytest.raises(ConfigurationError):
            FdeChaosConfig(**overrides)


class TestFdeGateArithmetic:
    def build(self, **overrides):
        fields = dict(
            config=FdeChaosConfig(),
            faulted=100,
            identified=96,
            misidentified=2,
            detected_unrepaired=1,
            missed=1,
            clean=100,
            false_alarms=1,
            mistakes=(),
        )
        fields.update(overrides)
        return FdeChaosReport(**fields)

    def test_passing_report(self):
        report = self.build()
        assert report.gates["identification"].rate == pytest.approx(0.96)
        assert report.false_alarm_rate == pytest.approx(0.01)
        assert report.ok

    def test_identification_floor_fails_the_run(self):
        report = self.build(identified=90, misidentified=8)
        assert not report.gates["identification"].passed
        assert not report.ok

    def test_false_alarm_budget_fails_the_run(self):
        # Default budget: 2.0 x 0.01 = 2% of clean epochs.
        report = self.build(false_alarms=3)
        assert not report.gates["false_alarm"].passed
        assert not report.ok

    def test_to_dict_carries_both_gates_and_rates(self):
        document = self.build().to_dict()
        assert document["ok"] is True
        assert document["gates"]["identification"]["passed"] is True
        assert document["gates"]["false_alarm"]["budget"] == pytest.approx(0.02)
        assert document["identification_rate"] == pytest.approx(0.96)
        assert document["config"]["scenarios"] == 400


class TestSpoofConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"scenarios": 3},
            {"epochs_per_stream": 1},
            {"onset_seconds": 0.0},
            {"onset_seconds": 100.0, "epochs_per_stream": 40},
            {"onset_seconds": 5.0},  # inside the learning window
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
        config = small_spoof()
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
        config = small_spoof()
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


class TestSpoofCampaign:
    def test_small_campaign_detects_every_family(self):
        report = run_monitor_chaos(small_spoof(scenarios=25))
        assert report.attacks == 20
        assert report.clean_streams == 5
        for family in ATTACK_FAMILIES:
            stats = report.families[family]
            assert stats.attacks == 5
            assert stats.detected >= 4, family
        assert report.ok

    def test_campaign_is_deterministic(self):
        config = small_spoof()
        assert (
            run_monitor_chaos(config).to_dict()
            == run_monitor_chaos(config).to_dict()
        )

    def test_clean_arm_grades_against_epoch_count(self):
        report = run_monitor_chaos(small_spoof())
        assert (
            report.clean_epochs
            == report.clean_streams * report.config.epochs_per_stream
        )
        assert report.false_alarm_rate <= report.config.false_alarm_budget

    def test_report_dict_carries_gates_and_mistakes(self):
        report = run_monitor_chaos(small_spoof())
        data = report.to_dict()
        assert set(data["gates"]) == {"detection", "false_alarm"}
        assert data["gates"]["detection"]["passed"] == report.gates["detection"].passed
        assert data["ok"] == report.ok
        for mistake in data["mistakes"]:
            assert set(mistake) == {
                "seed",
                "family",
                "outcome",
                "detect_second",
                "harm_second",
            }


class TestSpoofGateArithmetic:
    def _report(self, in_time, attacks, clean_epochs, false_epochs):
        stats = FamilyStats(
            attacks=attacks,
            detected=in_time,
            detected_in_time=in_time,
            time_to_detect=tuple(float(i) for i in range(in_time)),
        )
        return MonitorChaosReport(
            config=small_spoof(),
            families={"meaconing": stats},
            clean_streams=1,
            clean_epochs=clean_epochs,
            false_alarm_streams=1 if false_epochs else 0,
            false_alarm_epochs=false_epochs,
            blocked_attack_epochs=0,
            mistakes=(MonitorChaosCase(0, "meaconing", "missed", None, None),),
        )

    def test_detection_floor_is_inclusive(self):
        report = self._report(in_time=18, attacks=20, clean_epochs=100, false_epochs=0)
        assert report.detection_rate == pytest.approx(0.90)
        assert report.ok

    def test_detection_below_floor_fails(self):
        report = self._report(in_time=17, attacks=20, clean_epochs=100, false_epochs=0)
        assert not report.gates["detection"].passed and not report.ok

    def test_false_alarm_budget_is_inclusive(self):
        report = self._report(in_time=20, attacks=20, clean_epochs=100, false_epochs=2)
        assert report.false_alarm_rate == pytest.approx(0.02)
        assert report.ok

    def test_false_alarm_above_budget_fails(self):
        report = self._report(in_time=20, attacks=20, clean_epochs=100, false_epochs=3)
        assert not report.gates["false_alarm"].passed and not report.ok

    def test_to_dict_carries_totals(self):
        data = self._report(
            in_time=18, attacks=20, clean_epochs=100, false_epochs=0
        ).to_dict()
        assert data["attacks"] == 20 and data["detected_in_time"] == 18
        assert data["detection_rate"] == pytest.approx(0.90)
        assert data["mistakes"][0]["outcome"] == "missed"

    def test_family_latency_percentiles(self):
        stats = FamilyStats(
            attacks=4, detected=3, detected_in_time=3, time_to_detect=(1.0, 2.0, 6.0)
        )
        data = stats.to_dict()
        assert data["time_to_detect_seconds"]["mean"] == pytest.approx(3.0)
        assert data["time_to_detect_seconds"]["max"] == 6.0

    def test_empty_family_reports_null_latency(self):
        stats = FamilyStats(attacks=0, detected=0, detected_in_time=0, time_to_detect=())
        data = stats.to_dict()
        assert data["detection_rate"] == 1.0
        assert data["time_to_detect_seconds"]["mean"] is None


class TestChaosCli:
    def test_spoof_mode_prints_gates_and_writes_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "spoof.json"
        code = main(["fuzz", "--spoof", "--scenarios", "10", "--spoof-out", str(out)])
        printed = capsys.readouterr().out
        assert code == 0
        assert "spoof chaos:" in printed
        assert "detection:" in printed and "false_alarm:" in printed
        verdict = json.loads(out.read_text())
        assert verdict["ok"] is True
        assert set(verdict["families"]) == set(ATTACK_FAMILIES)

    def test_fde_mode_prints_gates_and_first_mistakes(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "fde.json"
        code = main(
            ["fuzz", "--fde", "--scenarios", "400", "--fde-out", str(out)]
        )
        printed = capsys.readouterr().out
        assert code == 0
        assert "FDE chaos:" in printed
        assert "identification: 186/193" in printed
        # The first mistake of the seed-0 population (see the golden).
        assert "seed 34, injected_prn 5, status repaired, excluded_prn 4" in printed
        assert out.read_text() == FDE_GOLDEN.read_text()

    def test_spoof_rejects_inject(self, capsys):
        from repro.cli import main

        code = main(["fuzz", "--spoof", "--inject", "spike"])
        assert code == 1
        assert "drop" in capsys.readouterr().err

    def test_fde_rejects_other_faults(self, capsys):
        from repro.cli import main

        code = main(["fuzz", "--fde", "--inject", "dropout"])
        assert code == 1
        assert "drop --inject" in capsys.readouterr().err

    def test_spoof_and_fde_are_mutually_exclusive(self, capsys):
        from repro.cli import main

        code = main(["fuzz", "--spoof", "--fde"])
        assert code == 1
        assert "mutually exclusive" in capsys.readouterr().err
