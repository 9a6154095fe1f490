"""State-machine tests for the cross-epoch satellite health tracker.

Time here is the admission counter, so every transition is stepped
explicitly: healthy -> suspect -> quarantined -> probation -> healthy,
plus the one-strike probation rule and the reinstatement backoff that
turns a flapping satellite's quarantines exponentially longer.
"""

import pytest

from repro.errors import ConfigurationError
from repro.integrity import HEALTH_STATES, HealthConfig, SatelliteHealthTracker

ALL_PRNS = tuple(range(1, 9))


def small_config(**overrides):
    settings = dict(
        window_epochs=10,
        exclusion_threshold=2,
        quarantine_epochs=4,
        probation_epochs=2,
        backoff_factor=2.0,
        max_quarantine_epochs=100,
        min_satellites=5,
    )
    settings.update(overrides)
    return HealthConfig(**settings)


def quarantine(tracker, prn):
    """Drive ``prn`` to quarantined via threshold exclusions."""
    for _ in range(tracker.config.exclusion_threshold):
        tracker.record_exclusion(prn)
    assert tracker.state(prn) == "quarantined"


class TestTransitions:
    def test_unknown_prn_is_healthy(self):
        tracker = SatelliteHealthTracker(small_config())
        assert tracker.state(99) == "healthy"
        assert tracker.admit(ALL_PRNS) == ()

    def test_single_exclusion_is_suspect_not_quarantined(self):
        tracker = SatelliteHealthTracker(small_config())
        tracker.admit(ALL_PRNS)
        tracker.record_exclusion(1)
        assert tracker.state(1) == "suspect"
        assert tracker.admit(ALL_PRNS) == ()

    def test_threshold_in_window_quarantines(self):
        tracker = SatelliteHealthTracker(small_config())
        tracker.admit(ALL_PRNS)
        quarantine(tracker, 1)
        assert tracker.quarantined_prns() == (1,)
        assert tracker.admit(ALL_PRNS) == (1,)

    def test_exclusions_outside_window_are_forgotten(self):
        tracker = SatelliteHealthTracker(small_config(window_epochs=3))
        tracker.admit(ALL_PRNS)
        tracker.record_exclusion(1)
        for _ in range(4):  # let the first exclusion age out
            tracker.admit(ALL_PRNS)
        assert tracker.state(1) == "healthy"
        tracker.record_exclusion(1)
        assert tracker.state(1) == "suspect"  # still one short of threshold

    def test_quarantine_expires_into_probation(self):
        tracker = SatelliteHealthTracker(small_config())
        tracker.admit(ALL_PRNS)  # epoch 1
        quarantine(tracker, 1)  # until epoch 1 + 4 = 5
        for _ in range(3):  # epochs 2..4: still serving
            assert tracker.admit(ALL_PRNS) == (1,)
        assert tracker.admit(ALL_PRNS) == ()  # epoch 5: released
        assert tracker.state(1) == "probation"

    def test_probation_served_clean_returns_to_healthy(self):
        tracker = SatelliteHealthTracker(small_config())
        tracker.admit(ALL_PRNS)
        quarantine(tracker, 1)
        for _ in range(4):
            tracker.admit(ALL_PRNS)
        assert tracker.state(1) == "probation"
        for _ in range(tracker.config.probation_epochs):
            tracker.admit(ALL_PRNS)
            tracker.record_clean(ALL_PRNS)
        assert tracker.state(1) == "healthy"

    def test_probation_is_one_strike(self):
        tracker = SatelliteHealthTracker(small_config())
        tracker.admit(ALL_PRNS)
        quarantine(tracker, 1)
        for _ in range(4):
            tracker.admit(ALL_PRNS)
        assert tracker.state(1) == "probation"
        tracker.record_exclusion(1)  # one exclusion, straight back in
        assert tracker.state(1) == "quarantined"

    def test_exclusions_while_quarantined_are_ignored(self):
        tracker = SatelliteHealthTracker(small_config())
        tracker.admit(ALL_PRNS)
        quarantine(tracker, 1)
        tracker.record_exclusion(1)  # no double-counting
        # Still released on the original schedule.
        for _ in range(3):
            assert tracker.admit(ALL_PRNS) == (1,)
        assert tracker.admit(ALL_PRNS) == ()
        assert tracker.state(1) == "probation"


class TestBackoff:
    def test_requarantine_doubles_the_sentence(self):
        tracker = SatelliteHealthTracker(small_config())
        tracker.admit(ALL_PRNS)
        quarantine(tracker, 1)  # first sentence: 4 epochs
        for _ in range(4):
            tracker.admit(ALL_PRNS)
        tracker.record_exclusion(1)  # probation strike -> second sentence: 8
        served = 0
        while tracker.state(1) == "quarantined":
            tracker.admit(ALL_PRNS)
            served += 1
            assert served < 50, "quarantine never expired"
        assert served == 8

    def test_sentence_is_capped(self):
        tracker = SatelliteHealthTracker(
            small_config(quarantine_epochs=4, max_quarantine_epochs=6)
        )
        tracker.admit(ALL_PRNS)
        quarantine(tracker, 1)
        for _ in range(4):
            tracker.admit(ALL_PRNS)
        tracker.record_exclusion(1)  # backoff says 8, cap says 6
        served = 0
        while tracker.state(1) == "quarantined":
            tracker.admit(ALL_PRNS)
            served += 1
            assert served < 50
        assert served == 6


class TestAdmissionFloor:
    def test_pre_exclusion_keeps_min_satellites(self):
        tracker = SatelliteHealthTracker(
            small_config(quarantine_epochs=50, min_satellites=5)
        )
        tracker.admit(ALL_PRNS)
        for prn in (1, 2, 3, 4):
            quarantine(tracker, prn)
        # 8 satellites, floor 5: only 3 of the 4 quarantined PRNs may
        # be excluded.  Equal strikes tie-break on PRN, so 4 is the one
        # readmitted.
        assert tracker.admit(ALL_PRNS) == (1, 2, 3)

    def test_small_epoch_readmits_everything(self):
        tracker = SatelliteHealthTracker(
            small_config(quarantine_epochs=50, min_satellites=5)
        )
        tracker.admit(ALL_PRNS)
        quarantine(tracker, 1)
        assert tracker.admit((1, 2, 3, 4, 5)) == ()

    def test_worst_strikes_stay_excluded_first(self):
        tracker = SatelliteHealthTracker(
            small_config(quarantine_epochs=2, min_satellites=5)
        )
        tracker.admit(ALL_PRNS)  # epoch 1
        # PRN 7 earns two strikes: quarantine, release, re-offend.
        quarantine(tracker, 7)  # strikes 1, until epoch 3
        tracker.admit(ALL_PRNS)  # epoch 2
        tracker.admit(ALL_PRNS)  # epoch 3: released
        assert tracker.state(7) == "probation"
        tracker.record_exclusion(7)  # strikes 2, until epoch 7
        # Three more quarantined PRNs with one strike each.
        for prn in (1, 2, 3):
            quarantine(tracker, prn)  # until epoch 5
        # 7 satellites, floor 5: budget for 2 exclusions.  PRN 7 has
        # the most strikes so it stays out; the PRN tie-break among
        # the one-strike candidates keeps 1.
        assert tracker.admit((1, 2, 3, 7, 8, 9, 10)) == (1, 7)


class TestReporting:
    def test_state_counts_covers_all_states(self):
        tracker = SatelliteHealthTracker(small_config())
        tracker.admit(ALL_PRNS)
        tracker.record_exclusion(1)  # suspect
        quarantine(tracker, 2)  # quarantined
        counts = tracker.state_counts()
        assert set(counts) == set(HEALTH_STATES)
        assert counts["suspect"] == 1
        assert counts["quarantined"] == 1
        assert counts["healthy"] == 0  # only tracked PRNs are counted

    def test_to_dict_is_json_ready(self):
        tracker = SatelliteHealthTracker(small_config())
        tracker.admit(ALL_PRNS)
        quarantine(tracker, 11 * 4 + 2)  # E11's prn*4+system key
        document = tracker.to_dict()
        assert document["epoch"] == 1
        assert document["quarantined"] == ["E11"]
        assert document["config"]["exclusion_threshold"] == 2

    def test_publish_is_safe_with_telemetry_disabled(self):
        tracker = SatelliteHealthTracker(small_config())
        tracker.publish()  # must not raise


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"window_epochs": 0},
            {"exclusion_threshold": 0},
            {"quarantine_epochs": 0},
            {"probation_epochs": 0},
            {"backoff_factor": 0.5},
            {"max_quarantine_epochs": 1, "quarantine_epochs": 4},
            {"min_satellites": 3},
        ],
    )
    def test_rejects_bad_settings(self, overrides):
        with pytest.raises(ConfigurationError):
            small_config(**overrides)
