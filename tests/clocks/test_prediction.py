"""Unit tests for clock bias predictors."""

import numpy as np
import pytest

from repro.clocks import (
    ConstantClockBiasPredictor,
    KalmanClockBiasPredictor,
    LinearClockBiasPredictor,
    OracleClockBiasPredictor,
    SteeringClock,
    ThresholdClock,
    ZeroClockBiasPredictor,
)
from repro.constants import SPEED_OF_LIGHT
from repro.errors import ConfigurationError, EstimationError
from repro.timebase import GpsTime

EPOCH = GpsTime(week=1540, seconds_of_week=0.0)


class TestZeroPredictor:
    def test_always_zero_and_ready(self):
        predictor = ZeroClockBiasPredictor()
        assert predictor.is_ready
        predictor.observe(EPOCH, 123.0)
        assert predictor.predict_bias_meters(EPOCH + 1000.0) == 0.0


class TestOraclePredictor:
    def test_returns_truth(self):
        clock = SteeringClock(epoch=EPOCH, offset_seconds=1e-7, drift=1e-10)
        predictor = OracleClockBiasPredictor(clock)
        t = EPOCH + 500.0
        expected = SPEED_OF_LIGHT * clock.bias_seconds(t)
        assert predictor.predict_bias_meters(t) == pytest.approx(expected)
        assert predictor.is_ready


class TestLinearPredictorValidation:
    def test_rejects_bad_mode(self):
        with pytest.raises(ConfigurationError):
            LinearClockBiasPredictor(mode="fancy")

    def test_rejects_tiny_warmup(self):
        with pytest.raises(ConfigurationError):
            LinearClockBiasPredictor(warmup_samples=1)

    def test_not_ready_initially(self):
        predictor = LinearClockBiasPredictor(warmup_samples=3)
        assert not predictor.is_ready
        with pytest.raises(EstimationError, match="warming up"):
            predictor.predict_bias_meters(EPOCH)


class TestLinearPredictorFit:
    def _train(self, predictor, clock, count, start=0.0, step=1.0):
        for i in range(count):
            t = EPOCH + (start + i * step)
            predictor.observe(t, SPEED_OF_LIGHT * clock.bias_seconds(t))

    def test_recovers_exact_line(self):
        clock = SteeringClock(epoch=EPOCH, offset_seconds=5e-8, drift=3e-10)
        predictor = LinearClockBiasPredictor(mode="steering", warmup_samples=10)
        self._train(predictor, clock, 10)
        assert predictor.is_ready
        assert predictor.offset_seconds == pytest.approx(5e-8, rel=1e-6)
        assert predictor.drift == pytest.approx(3e-10, rel=1e-6)
        t = EPOCH + 5000.0
        expected = SPEED_OF_LIGHT * clock.bias_seconds(t)
        assert predictor.predict_bias_meters(t) == pytest.approx(expected, abs=1e-6)

    def test_steering_mode_refines_with_later_observations(self):
        """Steering mode keeps folding NR-derived biases into the fit:
        a noisy warm-up drift estimate tightens as the observation
        baseline grows (this is what keeps long open-loop spans flat
        in Fig 5.2)."""
        clock = SteeringClock(epoch=EPOCH, offset_seconds=5e-8, drift=3e-10)
        predictor = LinearClockBiasPredictor(mode="steering", warmup_samples=5)
        rng = __import__("numpy").random.default_rng(0)
        # Noisy warm-up over a tiny 5 s baseline: drift is poorly known.
        for i in range(5):
            t = EPOCH + float(i)
            noisy = SPEED_OF_LIGHT * clock.bias_seconds(t) + rng.normal(0.0, 1.0)
            predictor.observe(t, noisy)
        horizon = EPOCH + 5000.0
        truth = SPEED_OF_LIGHT * clock.bias_seconds(horizon)
        error_before = abs(predictor.predict_bias_meters(horizon) - truth)
        # Feed periodic recalibration observations over a long baseline.
        for i in range(10, 2000, 60):
            t = EPOCH + float(i)
            noisy = SPEED_OF_LIGHT * clock.bias_seconds(t) + rng.normal(0.0, 1.0)
            predictor.observe(t, noisy)
        error_after = abs(predictor.predict_bias_meters(horizon) - truth)
        assert error_after < error_before

    def test_threshold_mode_freezes_line_between_resets(self):
        clock = SteeringClock(epoch=EPOCH, offset_seconds=5e-8, drift=3e-10)
        predictor = LinearClockBiasPredictor(mode="threshold", warmup_samples=5)
        self._train(predictor, clock, 5)
        before = predictor.predict_bias_meters(EPOCH + 100.0)
        # A small (sub-reset-threshold) deviation must not move the line.
        predictor.observe(
            EPOCH + 50.0, SPEED_OF_LIGHT * (clock.bias_seconds(EPOCH + 50.0) + 1e-8)
        )
        assert predictor.predict_bias_meters(EPOCH + 100.0) == before

    def test_degenerate_window_falls_back_to_constant(self):
        predictor = LinearClockBiasPredictor(warmup_samples=3)
        for _ in range(3):
            predictor.observe(EPOCH, 30.0)  # same instant thrice
        assert predictor.is_ready
        assert predictor.drift == 0.0
        assert predictor.predict_bias_meters(EPOCH + 10.0) == pytest.approx(30.0)


class TestThresholdResetHandling:
    def test_detects_reset_and_reanchors(self):
        clock = ThresholdClock(
            epoch=EPOCH, initial_offset_seconds=9.0e-4, drift=1e-7,
            threshold_seconds=1e-3,
        )
        predictor = LinearClockBiasPredictor(mode="threshold", warmup_samples=10)
        # Warm up before the reset (reset at dt = 1e-4/1e-7 = 1000 s).
        for i in range(10):
            t = EPOCH + float(i)
            predictor.observe(t, SPEED_OF_LIGHT * clock.bias_seconds(t))
        assert predictor.is_ready
        assert predictor.reset_count == 0

        # Cross the reset and feed one post-reset observation.
        t_after = EPOCH + 1500.0
        predictor.observe(t_after, SPEED_OF_LIGHT * clock.bias_seconds(t_after))
        assert predictor.reset_count == 1
        # Prediction now tracks the post-reset branch.
        t_check = EPOCH + 1600.0
        expected = SPEED_OF_LIGHT * clock.bias_seconds(t_check)
        assert predictor.predict_bias_meters(t_check) == pytest.approx(
            expected, abs=1.0
        )

    def test_small_deviation_is_not_a_reset(self):
        clock = SteeringClock(epoch=EPOCH, offset_seconds=5e-8, drift=1e-10)
        predictor = LinearClockBiasPredictor(mode="threshold", warmup_samples=5)
        for i in range(5):
            t = EPOCH + float(i)
            predictor.observe(t, SPEED_OF_LIGHT * clock.bias_seconds(t))
        predictor.observe(EPOCH + 10.0, SPEED_OF_LIGHT * (clock.bias_seconds(EPOCH + 10.0) + 1e-8))
        assert predictor.reset_count == 0

    def test_mode_property(self):
        assert LinearClockBiasPredictor(mode="threshold").mode == "threshold"


class TestReanchor:
    def test_threshold_reanchor_corrects_exact_threshold_step(self):
        """A sawtooth step exactly equal to the jump-detection threshold
        slips past observe(); reanchor() must fix it regardless."""
        predictor = LinearClockBiasPredictor(
            mode="threshold", warmup_samples=3,
            reset_jump_threshold_seconds=5e-5,
        )
        clock = SteeringClock(epoch=EPOCH, offset_seconds=1e-7, drift=1e-10)
        for i in range(3):
            t = EPOCH + float(i)
            predictor.observe(t, SPEED_OF_LIGHT * clock.bias_seconds(t))
        # A step of exactly the detection threshold: observe() ignores it.
        t = EPOCH + 10.0
        stepped = SPEED_OF_LIGHT * (clock.bias_seconds(t) - 5e-5)
        predictor.observe(t, stepped)
        assert predictor.predict_bias_meters(t) != pytest.approx(stepped, abs=1.0)
        # reanchor() applies it unconditionally.
        predictor.reanchor(t, stepped)
        assert predictor.predict_bias_meters(t) == pytest.approx(stepped, abs=1e-6)
        assert predictor.reset_count == 1

    def test_steering_reanchor_joins_regression(self):
        predictor = LinearClockBiasPredictor(mode="steering", warmup_samples=3)
        clock = SteeringClock(epoch=EPOCH, offset_seconds=1e-7, drift=2e-10)
        for i in range(3):
            t = EPOCH + float(i)
            predictor.observe(t, SPEED_OF_LIGHT * clock.bias_seconds(t))
        t = EPOCH + 100.0
        truth = SPEED_OF_LIGHT * clock.bias_seconds(t)
        predictor.reanchor(t, truth)
        # Steering clocks do not step; reanchor behaves like observe.
        assert predictor.reset_count == 0
        assert predictor.predict_bias_meters(t) == pytest.approx(truth, abs=0.5)

    def test_reanchor_before_warmup_counts_as_observation(self):
        predictor = LinearClockBiasPredictor(mode="threshold", warmup_samples=2)
        predictor.reanchor(EPOCH, 10.0)
        predictor.reanchor(EPOCH + 1.0, 11.0)
        assert predictor.is_ready


def _trained(predictor, clock):
    for i in range(40):
        t = EPOCH + 10.0 * i
        predictor.observe(t, SPEED_OF_LIGHT * clock.bias_seconds(t))
    return predictor


class TestPredictBlock:
    """A flush's bias lane equals the per-row predictions exactly."""

    CLOCK = ThresholdClock(
        epoch=EPOCH, initial_offset_seconds=2e-4, drift=4e-7, threshold_seconds=1e-3
    )

    @pytest.mark.parametrize(
        "build",
        [
            ZeroClockBiasPredictor,
            lambda: ConstantClockBiasPredictor(-37.125),
            lambda: OracleClockBiasPredictor(TestPredictBlock.CLOCK),
            lambda: _trained(LinearClockBiasPredictor(), TestPredictBlock.CLOCK),
            lambda: _trained(
                LinearClockBiasPredictor(mode="threshold"), TestPredictBlock.CLOCK
            ),
            lambda: _trained(KalmanClockBiasPredictor(), TestPredictBlock.CLOCK),
        ],
        ids=["zero", "constant", "oracle", "linear", "linear-threshold", "kalman"],
    )
    def test_block_equals_per_row(self, build):
        predictor = build()
        times = [EPOCH + 17.5 * i for i in range(9)] + [
            GpsTime(week=1541, seconds_of_week=604799.5)
        ]
        weeks = np.array([t.week for t in times], dtype=np.int64)
        seconds = np.array([t.seconds_of_week for t in times])
        block = predictor.predict_block(weeks, seconds)
        per_row = np.array([predictor.predict_bias_meters(t) for t in times])
        assert block.dtype == np.float64 and block.shape == (len(times),)
        assert block.tobytes() == per_row.tobytes()
        assert predictor.predict_block(weeks[:0], seconds[:0]).shape == (0,)
