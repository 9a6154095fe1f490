"""The FDE chaos harness: determinism, grading, and gate arithmetic.

The CI job runs the full 400-scenario population through the CLI;
these tests keep the harness itself honest on a small population —
same config twice must grade identically, the category counts must
partition the population, and the gates must be pure functions of the
counts.
"""

import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.validation import FdeChaosConfig, FdeChaosReport, run_fde_chaos

SMALL = FdeChaosConfig(scenarios=40, start_seed=0)

#: ``repro-gps fuzz --inject spike --fde --seed 0 --scenarios 400
#: --fde-out`` as written before exclusion became closed form; the
#: chaos-smoke CI job compares its own output against it with ``cmp``.
GOLDEN = Path(__file__).parent / "data" / "fde-chaos-verdict.json"


@pytest.fixture(scope="module")
def small_report():
    return run_fde_chaos(SMALL)


class TestDeterminism:
    def test_same_config_same_report(self, small_report):
        again = run_fde_chaos(FdeChaosConfig(scenarios=40, start_seed=0))
        assert again.to_dict() == small_report.to_dict()

    def test_population_partitions(self, small_report):
        report = small_report
        assert report.clean + report.faulted == SMALL.scenarios
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

    def test_mistakes_reference_real_seeds(self, small_report):
        seed_band = range(SMALL.start_seed, SMALL.start_seed + SMALL.scenarios)
        for case in small_report.mistakes:
            assert case.seed in seed_band

    def test_zero_fault_rate_is_all_clean(self):
        report = run_fde_chaos(
            FdeChaosConfig(scenarios=10, start_seed=0, fault_rate=0.0)
        )
        assert report.faulted == 0
        assert report.clean == 10
        assert report.identification_rate == 1.0  # vacuous gate holds


class TestGoldenVerdict:
    def test_seed_0_population_reproduces_the_golden_byte_for_byte(self):
        report = run_fde_chaos(FdeChaosConfig(scenarios=400, start_seed=0))
        written = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        assert written == GOLDEN.read_text()


class TestGateArithmetic:
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
        assert report.identification_rate == pytest.approx(0.96)
        assert report.false_alarm_rate == pytest.approx(0.01)
        assert report.identification_ok and report.false_alarm_ok and report.ok

    def test_identification_floor_fails_the_run(self):
        report = self.build(identified=90, misidentified=8)
        assert not report.identification_ok
        assert not report.ok

    def test_false_alarm_budget_fails_the_run(self):
        # Default budget: 2.0 x 0.01 = 2% of clean epochs.
        report = self.build(false_alarms=3)
        assert not report.false_alarm_ok
        assert not report.ok

    def test_to_dict_carries_both_gates(self):
        document = self.build().to_dict()
        assert document["ok"] is True
        assert document["gates"]["identification"]["passed"] is True
        assert document["gates"]["false_alarm"]["budget"] == pytest.approx(0.02)
        assert document["config"]["scenarios"] == 400


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"scenarios": 0},
            {"spike_meters": 0.0},
            {"fault_rate": 1.5},
            {"sigma_meters": 0.0},
            {"p_false_alarm": 0.0},
            {"min_satellites": 5},
            {"max_satellites": 4},
            {"identification_floor": 0.0},
            {"false_alarm_slack": 0.5},
        ],
    )
    def test_rejects_bad_settings(self, overrides):
        with pytest.raises(ConfigurationError):
            FdeChaosConfig(**overrides)
