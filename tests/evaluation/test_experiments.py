"""Integration tests for the experiment runners."""

import pytest

from repro.errors import ConfigurationError, EstimationError
from repro.evaluation import (
    ExperimentConfig,
    ReplayClockBiasPredictor,
    StationPipeline,
    run_station_experiment,
)
from repro.evaluation.experiments import prn_order_subset
from repro.stations import DatasetConfig, get_station
from repro.timebase import GpsTime


@pytest.fixture(scope="module")
def quick_config():
    return ExperimentConfig(
        satellite_counts=(4, 6, 8),
        warmup_epochs=20,
        recalibration_interval=30,
        evaluation_stride=10,
        max_evaluation_epochs=20,
        # Best of 15 passes: one pass over 5 epochs lasts tens of
        # microseconds, so a single preemption could flip the Fig. 5.1
        # time rates.
        timing_repeats=15,
        timing_epochs=5,
        dataset=DatasetConfig(duration_seconds=400.0),
    )


@pytest.fixture(scope="module")
def srzn_result(quick_config):
    return run_station_experiment(get_station("SRZN"), quick_config)


class TestReplayPredictor:
    def test_record_and_replay(self):
        replay = ReplayClockBiasPredictor()
        t = GpsTime(week=1540, seconds_of_week=10.0)
        assert not replay.is_ready
        replay.record(t, 42.0)
        assert replay.is_ready
        assert replay.predict_bias_meters(t) == 42.0
        assert len(replay) == 1

    def test_unknown_epoch_raises(self):
        replay = ReplayClockBiasPredictor()
        replay.record(GpsTime(week=1540, seconds_of_week=0.0), 1.0)
        with pytest.raises(EstimationError, match="no recorded"):
            replay.predict_bias_meters(GpsTime(week=1540, seconds_of_week=99.0))

    def test_observe_is_noop(self):
        replay = ReplayClockBiasPredictor()
        replay.observe(GpsTime(week=1540, seconds_of_week=0.0), 1.0)
        assert not replay.is_ready


class TestExperimentConfig:
    def test_rejects_small_counts(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(satellite_counts=(3,))

    def test_rejects_empty_counts(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(satellite_counts=())


class TestPipeline:
    def test_collect_causal(self, quick_config):
        pipeline = StationPipeline(get_station("SRZN"), quick_config)
        epochs, replay = pipeline.collect()
        assert len(epochs) > 0
        assert len(replay) == len(epochs)
        # Every collected epoch has its bias pre-recorded.
        for epoch in epochs:
            replay.predict_bias_meters(epoch.time)

    def test_prn_order_subset(self, quick_config):
        pipeline = StationPipeline(get_station("SRZN"), quick_config)
        epochs, _replay = pipeline.collect()
        subset = prn_order_subset(epochs[0], 4)
        assert list(subset.prns) == sorted(subset.prns)
        assert subset.satellite_count == 4


class TestStationResult:
    def test_all_algorithms_present(self, srzn_result):
        assert set(srzn_result.error_m) == {"NR", "DLO", "DLG"}
        assert set(srzn_result.time_ns) == {"NR", "DLO", "DLG"}

    def test_rates_exclude_baseline(self, srzn_result):
        assert set(srzn_result.accuracy_rate_pct) == {"DLO", "DLG"}
        assert set(srzn_result.time_rate_pct) == {"DLO", "DLG"}

    def test_fig_5_1_shape_closed_form_faster(self, srzn_result):
        """The paper's headline: both closed-form methods run far
        below NR's time, DLO at or below DLG."""
        for m, theta in srzn_result.time_rate_pct["DLO"].items():
            assert theta < 70.0, f"DLO theta at m={m} is {theta}"
        for m, theta in srzn_result.time_rate_pct["DLG"].items():
            assert theta < 90.0, f"DLG theta at m={m} is {theta}"

    def test_fig_5_2_shape_accuracy_close_to_nr(self, srzn_result):
        for algorithm in ("DLO", "DLG"):
            for m, eta in srzn_result.accuracy_rate_pct[algorithm].items():
                assert 80.0 < eta < 250.0, f"{algorithm} eta at m={m} is {eta}"

    def test_epochs_used_recorded(self, srzn_result):
        assert srzn_result.epochs_used[4] > 0


class TestBancroftSeries:
    def test_bancroft_included_when_requested(self):
        config = ExperimentConfig(
            satellite_counts=(5, 7),
            warmup_epochs=10,
            recalibration_interval=20,
            evaluation_stride=10,
            max_evaluation_epochs=10,
            timing_repeats=1,
            timing_epochs=4,
            include_bancroft=True,
            dataset=DatasetConfig(duration_seconds=200.0),
        )
        result = run_station_experiment(get_station("YYR1"), config)
        assert "Bancroft" in result.error_m
        assert "Bancroft" in result.accuracy_rate_pct
        # Bancroft is closed-form: far below NR's time.
        for theta in result.time_rate_pct["Bancroft"].values():
            assert theta < 100.0


class TestPaperFullConfig:
    def test_full_day_parameters(self):
        config = ExperimentConfig.paper_full()
        assert config.dataset.epoch_count == 86_400
        assert config.max_evaluation_epochs == 1440
        assert config.evaluation_stride == 60
