"""Tests for the signal-plausibility monitor plane.

Structured around the suite's three contracts:

* **Detection** — each spoof/interference signature trips the monitor
  built for it (uniform meaconed C/N0 → consistency, common-mode
  suppression → AGC proxy, pseudorange ramp → clock drift, fix walk →
  stationarity, per-satellite power step → drop), while a clean seeded
  stream stays nominal end to end.
* **Graceful escalation** — raw breaches are ``suspect``; only M-of-N
  persistence confirms ``spoofed``.
* **Batch-boundary independence** — chopping one stream into any batch
  sizes yields bitwise-identical severities and statistics, the
  invariant shard parity rests on.
"""

import numpy as np
import pytest

from repro.blocks import pack_stream
from repro.errors import ConfigurationError
from repro.integrity import (
    AndFiltered,
    EpochMonitorVerdict,
    MOfNFiltered,
    MonitorConfig,
    MonitorSuite,
    MonitorVerdict,
    SEVERITY_NOMINAL,
)
from repro.integrity.monitors import MonitorOutput, StreamingMonitor
from repro.observations import EpochTruth, ObservationEpoch, SatelliteObservation
from repro.signals import SignalFeatureModel
from repro.timebase import GpsTime

TRUTH = np.array([3623420.0, -5214015.0, 602359.0])
N_EPOCHS = 40


def build_epoch(t, count=8, seed=7, cn0_override=None, range_extra=0.0):
    """One synthetic epoch; same satellite geometry for every ``t``."""
    rng = np.random.default_rng(seed)
    up = TRUTH / np.linalg.norm(TRUTH)
    observations = []
    for prn in range(1, count + 1):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        direction += up
        direction /= np.linalg.norm(direction)
        position = TRUTH + direction * rng.uniform(2.0e7, 2.6e7)
        pseudorange = float(np.linalg.norm(position - TRUTH)) + range_extra
        observations.append(
            SatelliteObservation(
                prn=prn,
                position=position,
                pseudorange=pseudorange,
                cn0_dbhz=cn0_override,
            )
        )
    return ObservationEpoch(
        time=GpsTime(week=1540, seconds_of_week=float(t)),
        observations=tuple(observations),
        truth=EpochTruth(receiver_position=TRUTH, clock_bias_meters=0.0),
    )


@pytest.fixture
def clean_stream():
    """40 epochs with realistic seeded C/N0 plus noisy solved fixes."""
    model = SignalFeatureModel(seed=42)
    epochs = [model.attach(build_epoch(t)) for t in range(N_EPOCHS)]
    positions = np.tile(TRUTH, (N_EPOCHS, 1)) + np.random.default_rng(1).normal(
        0.0, 2.0, (N_EPOCHS, 3)
    )
    return epochs, positions


def shift_cn0(epoch, delta, prns=None):
    """A copy of ``epoch`` with C/N0 shifted by ``delta`` (dB)."""
    observations = [
        SatelliteObservation(
            prn=obs.prn,
            position=obs.position,
            pseudorange=obs.pseudorange,
            system=obs.system,
            cn0_dbhz=(
                obs.cn0_dbhz + delta
                if obs.cn0_dbhz is not None and (prns is None or obs.prn in prns)
                else obs.cn0_dbhz
            ),
        )
        for obs in epoch.observations
    ]
    return epoch.with_observations(observations)


class TestVerdictObjects:
    def test_monitor_verdict_to_dict(self):
        verdict = MonitorVerdict(
            monitor="cn0_drop",
            severity="suspect",
            statistic=9.5,
            threshold=8.0,
            flagged=("G03", "G07"),
        )
        assert verdict.to_dict() == {
            "monitor": "cn0_drop",
            "severity": "suspect",
            "statistic": 9.5,
            "threshold": 8.0,
            "flagged": ["G03", "G07"],
        }

    def test_epoch_verdict_to_dict_and_flag_union(self):
        monitors = (
            MonitorVerdict("a", "spoofed", 1.0, 0.5, ("G07", "G03")),
            MonitorVerdict("b", "suspect", 2.0, 1.5, ("G03", "E01")),
        )
        epoch_verdict = EpochMonitorVerdict(severity="spoofed", monitors=monitors)
        assert epoch_verdict.flagged == ("E01", "G03", "G07")
        assert epoch_verdict.to_dict() == {
            "severity": "spoofed",
            "monitors": [verdict.to_dict() for verdict in monitors],
        }


class TestCleanStream:
    def test_everything_nominal(self, clean_stream):
        epochs, positions = clean_stream
        record = MonitorConfig().build().observe_stream(
            pack_stream(epochs), positions
        )
        assert record.counts() == {
            "nominal": N_EPOCHS,
            "suspect": 0,
            "spoofed": 0,
        }
        assert record.verdict(0) is None
        assert record.flagged_keys(0) == ()

    def test_stream_without_cn0_lane_keeps_cn0_monitors_silent(self):
        epochs = [build_epoch(t) for t in range(N_EPOCHS)]  # no C/N0
        positions = np.tile(TRUTH, (N_EPOCHS, 1))
        record = MonitorConfig().build().observe_stream(
            pack_stream(epochs), positions
        )
        assert int(record.severities.max()) == SEVERITY_NOMINAL

    def test_failed_solves_are_skipped(self, clean_stream):
        epochs, positions = clean_stream
        holed = positions.copy()
        holed[5] = np.nan
        holed[21] = np.nan
        record = MonitorConfig().build().observe_stream(
            pack_stream(epochs), holed
        )
        assert int(record.severities.max()) == SEVERITY_NOMINAL


class TestDetection:
    def test_uniform_cn0_trips_consistency(self, clean_stream):
        epochs, positions = clean_stream
        # Meaconing signature: one transmitter hands every channel the
        # same power, erasing the elevation dependence.
        attacked = epochs[:20] + [
            build_epoch(t, cn0_override=45.0) for t in range(20, N_EPOCHS)
        ]
        record = MonitorConfig().build().observe_stream(
            pack_stream(attacked), positions
        )
        assert int(record.severities[:20].max()) == SEVERITY_NOMINAL
        assert (record.severities[20:] == 2).any()
        verdict = record.verdict(int(np.flatnonzero(record.severities == 2)[0]))
        assert "cn0_consistency" in {v.monitor for v in verdict.monitors}

    def test_common_mode_suppression_trips_agc_proxy(self, clean_stream):
        epochs, positions = clean_stream
        attacked = [
            shift_cn0(epoch, -min(14.0, max(0.0, (t - 14) * 0.8)))
            for t, epoch in enumerate(epochs)
        ]
        record = MonitorConfig().build().observe_stream(
            pack_stream(attacked), positions
        )
        first_spoofed = np.flatnonzero(record.severities == 2)
        assert len(first_spoofed)
        verdict = record.verdict(int(first_spoofed[0]))
        assert "cn0_agc" in {v.monitor for v in verdict.monitors}

    def test_deep_suppression_trips_absolute_threshold(self, clean_stream):
        epochs, positions = clean_stream
        attacked = epochs[:20] + [
            shift_cn0(epoch, -25.0) for epoch in epochs[20:]
        ]
        record = MonitorConfig().build().observe_stream(
            pack_stream(attacked), positions
        )
        verdict = record.verdict(int(np.flatnonzero(record.severities == 2)[0]))
        assert "cn0_threshold" in {v.monitor for v in verdict.monitors}

    def test_per_satellite_power_step_flags_the_satellite(self, clean_stream):
        epochs, positions = clean_stream
        attacked = epochs[:20] + [
            shift_cn0(epoch, -12.0, prns={3}) for epoch in epochs[20:]
        ]
        record = MonitorConfig().build().observe_stream(
            pack_stream(attacked), positions
        )
        assert int(record.severities[20]) >= 1
        verdict = record.verdict(20)
        drop = {v.monitor: v for v in verdict.monitors}["cn0_drop"]
        assert drop.flagged == ("G03",)
        # prn*4 + system id (GPS=0)
        assert record.flagged_keys(20) == (12,)

    def test_pseudorange_ramp_trips_clock_drift(self, clean_stream):
        epochs, positions = clean_stream
        model = SignalFeatureModel(seed=42)
        attacked = [
            model.attach(
                build_epoch(t, range_extra=max(0.0, (t - 19) * 10.0))
            )
            for t in range(N_EPOCHS)
        ]
        record = MonitorConfig().build().observe_stream(
            pack_stream(attacked), positions
        )
        assert int(record.severities[:20].max()) == SEVERITY_NOMINAL
        verdict = record.verdict(int(np.flatnonzero(record.severities == 2)[0]))
        assert "clock_drift" in {v.monitor for v in verdict.monitors}

    def test_position_walk_trips_stationary_monitor(self, clean_stream):
        epochs, positions = clean_stream
        dragged = positions.copy()
        for t in range(20, N_EPOCHS):
            dragged[t, 0] += (t - 19) * 3.0
        record = MonitorConfig().build().observe_stream(
            pack_stream(epochs), dragged
        )
        verdict = record.verdict(int(np.flatnonzero(record.severities == 2)[0]))
        assert "stationary_position" in {v.monitor for v in verdict.monitors}

    def test_position_jump_trips_velocity_monitor(self, clean_stream):
        epochs, positions = clean_stream
        jumped = positions.copy()
        jumped[25:] += 400.0  # 400 m step between two 1 s epochs
        record = MonitorConfig().build().observe_stream(
            pack_stream(epochs), jumped
        )
        flagged = [
            record.verdict(i)
            for i in np.flatnonzero(record.severities >= 1)
        ]
        monitors = {v.monitor for verdict in flagged for v in verdict.monitors}
        assert "stationary_velocity" in monitors


class TestEscalation:
    def test_single_breach_is_suspect_not_spoofed(self, clean_stream):
        epochs, positions = clean_stream
        # One isolated bad epoch: a deep common-mode dip.
        attacked = list(epochs)
        attacked[25] = shift_cn0(epochs[25], -10.0)
        record = MonitorConfig().build().observe_stream(
            pack_stream(attacked), positions
        )
        assert int(record.severities[25]) == 1
        assert int(record.severities.max()) == 1

    def test_persistent_breach_confirms_spoofed(self, clean_stream):
        epochs, positions = clean_stream
        attacked = epochs[:20] + [
            shift_cn0(epoch, -10.0) for epoch in epochs[20:]
        ]
        config = MonitorConfig(confirm_epochs=3, confirm_window=5)
        record = config.build().observe_stream(pack_stream(attacked), positions)
        assert int(record.severities[20]) == 1
        assert int(record.severities[21]) == 1
        assert int(record.severities[22]) == 2  # third breach in window


class TestBatchParity:
    @pytest.mark.parametrize("chunk", [1, 7, 10])
    def test_chunked_observation_is_bitwise_identical(self, clean_stream, chunk):
        epochs, positions = clean_stream
        model = SignalFeatureModel(seed=42)
        attacked = [
            model.attach(
                build_epoch(t, range_extra=max(0.0, (t - 19) * 10.0))
            )
            for t in range(N_EPOCHS)
        ]
        whole = MonitorConfig().build().observe_stream(
            pack_stream(attacked), positions
        )
        suite = MonitorConfig().build()
        severities, statistics = [], []
        for lo in range(0, N_EPOCHS, chunk):
            part = suite.observe_stream(
                pack_stream(attacked[lo : lo + chunk]),
                positions[lo : lo + chunk],
            )
            severities.append(part.severities)
            statistics.append(part.statistics)
        np.testing.assert_array_equal(
            whole.severities, np.concatenate(severities)
        )
        np.testing.assert_array_equal(
            whole.statistics, np.concatenate(statistics, axis=1)
        )

    def test_reset_forgets_carried_state(self, clean_stream):
        epochs, positions = clean_stream
        suite = MonitorConfig().build()
        first = suite.observe_stream(pack_stream(epochs), positions)
        suite.reset()
        second = suite.observe_stream(pack_stream(epochs), positions)
        np.testing.assert_array_equal(first.severities, second.severities)
        np.testing.assert_array_equal(first.statistics, second.statistics)


class _ScriptedMonitor(StreamingMonitor):
    """Breaches exactly on the scripted epoch offsets (test double)."""

    def __init__(self, name, breach_epochs):
        self.name = name
        self._breach_epochs = set(breach_epochs)
        self._cursor = 0

    def reset(self):
        self._cursor = 0

    def observe(self, ctx):
        n = len(ctx)
        offsets = np.arange(self._cursor, self._cursor + n)
        self._cursor += n
        breach = np.array([o in self._breach_epochs for o in offsets])
        return MonitorOutput(
            breach=breach,
            statistic=breach.astype(float),
            threshold=np.full(n, 0.5),
        )


class TestCombinators:
    def _context_stream(self, n):
        epochs = [build_epoch(t) for t in range(n)]
        return pack_stream(epochs), np.tile(TRUTH, (n, 1))

    def test_and_filtered_requires_every_child(self):
        packed, positions = self._context_stream(6)
        combined = AndFiltered(
            "both",
            [
                _ScriptedMonitor("a", {1, 2, 3}),
                _ScriptedMonitor("b", {2, 3, 4}),
            ],
        )
        suite = MonitorSuite([combined], confirm_epochs=2, confirm_window=2)
        record = suite.observe_stream(packed, positions)
        assert record.monitor_severities[0].astype(bool).tolist() == [
            False, False, True, True, False, False,
        ]

    def test_m_of_n_filtered_needs_persistence(self):
        packed, positions = self._context_stream(8)
        filtered = MOfNFiltered(
            _ScriptedMonitor("flappy", {0, 2, 3, 4}), required=2, window=3
        )
        suite = MonitorSuite([filtered], confirm_epochs=1, confirm_window=1)
        record = suite.observe_stream(packed, positions)
        # Epoch 2 sees breaches {0, 2} in its window {0,1,2}: confirmed.
        assert record.monitor_severities[0].astype(bool).tolist() == [
            False, False, True, True, True, False, False, False,
        ]

    def test_combinator_validation(self):
        with pytest.raises(ConfigurationError):
            AndFiltered("empty", [])
        with pytest.raises(ConfigurationError):
            MOfNFiltered(_ScriptedMonitor("x", set()), required=4, window=3)


class TestConfig:
    def test_round_trips_through_dict(self):
        config = MonitorConfig(cn0_drop_db=6.5, stationary=False)
        assert MonitorConfig.from_dict(config.to_dict()) == config

    def test_build_honors_stationary_flag(self):
        armed = MonitorConfig(stationary=True).build()
        rover = MonitorConfig(stationary=False).build()
        assert "stationary_position" in armed.names
        assert "stationary_position" not in rover.names
        assert "stationary_velocity" not in rover.names

    @pytest.mark.parametrize(
        "overrides",
        [
            {"confirm_epochs": 0},
            {"confirm_epochs": 6, "confirm_window": 5},
            {"cn0_drop_db": -1.0},
            {"cn0_min_flagged": 0},
            {"clock_drift_window": 0},
            {"learn_epochs": 1},
            {"zenith_dbhz": 30.0},  # below horizon default
            {"max_gap_seconds": 0.0},
        ],
    )
    def test_rejects_bad_settings(self, overrides):
        with pytest.raises(ConfigurationError):
            MonitorConfig(**overrides)

    def test_suite_rejects_duplicate_names(self):
        with pytest.raises(ConfigurationError):
            MonitorSuite(
                [_ScriptedMonitor("dup", set()), _ScriptedMonitor("dup", set())]
            )

    def test_suite_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            MonitorSuite([])
