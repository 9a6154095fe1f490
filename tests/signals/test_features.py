"""The C/N0 feature model the signal-plausibility monitors compare against."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.observations import EpochTruth, ObservationEpoch, SatelliteObservation
from repro.signals.features import (
    DEFAULT_HORIZON_DBHZ,
    DEFAULT_ZENITH_DBHZ,
    SignalFeatureConfig,
    SignalFeatureModel,
    elevations_from_geometry,
    nominal_cn0_dbhz,
)
from repro.timebase.gpstime import GpsTime

EARTH_RADIUS = 6.371e6
ORBIT_RADIUS = 2.6561e7
RECEIVER = np.array([EARTH_RADIUS, 0.0, 0.0])


def overhead_and_level_epoch(elevation=0.0):
    """One satellite straight overhead, one on the local horizon."""
    zenith = np.array([ORBIT_RADIUS, 0.0, 0.0])
    level = RECEIVER + np.array([0.0, 2.0e7, 0.0])
    observations = [
        SatelliteObservation(
            prn=prn,
            position=position,
            pseudorange=float(np.linalg.norm(position - RECEIVER)),
            elevation=elevation,
            azimuth=0.25 * prn,
        )
        for prn, position in ((3, zenith), (7, level))
    ]
    return ObservationEpoch(
        time=GpsTime(week=2000, seconds_of_week=10.0),
        observations=observations,
        truth=EpochTruth(receiver_position=RECEIVER, clock_bias_meters=0.0),
    )


class TestNominalCurve:
    def test_endpoints_are_horizon_and_zenith(self):
        values = nominal_cn0_dbhz(np.array([0.0, np.pi / 2.0]))
        np.testing.assert_allclose(values, [DEFAULT_HORIZON_DBHZ, DEFAULT_ZENITH_DBHZ])

    def test_rises_with_elevation(self):
        values = nominal_cn0_dbhz(np.linspace(0.0, np.pi / 2.0, 7))
        assert np.all(np.diff(values) > 0)

    def test_clamps_to_the_upper_hemisphere(self):
        values = nominal_cn0_dbhz(np.array([-0.3, np.pi]))
        np.testing.assert_allclose(values, [DEFAULT_HORIZON_DBHZ, DEFAULT_ZENITH_DBHZ])

    def test_nan_padding_stays_nan_and_shape_is_kept(self):
        lanes = np.array([[0.5, np.nan], [np.nan, 1.0]])
        values = nominal_cn0_dbhz(lanes)
        assert values.shape == (2, 2)
        np.testing.assert_array_equal(np.isnan(values), np.isnan(lanes))


class TestElevationsFromGeometry:
    def test_overhead_is_zenith_and_level_is_horizon(self):
        epoch = overhead_and_level_epoch()
        elevations = elevations_from_geometry(epoch.dense()[0], RECEIVER)
        np.testing.assert_allclose(elevations, [np.pi / 2.0, 0.0], atol=1e-12)

    def test_batched_rows_match_single_rows(self):
        positions = overhead_and_level_epoch().dense()[0]
        receivers = np.stack([RECEIVER, np.array([0.0, EARTH_RADIUS, 0.0])])
        batched = elevations_from_geometry(
            np.stack([positions, positions]), receivers
        )
        for row, receiver in enumerate(receivers):
            np.testing.assert_array_equal(
                batched[row], elevations_from_geometry(positions, receiver)
            )

    def test_non_finite_receiver_yields_nan(self):
        positions = overhead_and_level_epoch().dense()[0]
        elevations = elevations_from_geometry(positions, np.full(3, np.nan))
        assert np.all(np.isnan(elevations))


class TestSignalFeatureConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"zenith_dbhz": float("inf")},
            {"zenith_dbhz": 30.0, "horizon_dbhz": 30.0},
            {"noise_sigma_db": -1.0},
        ],
    )
    def test_rejects_bad_curves(self, overrides):
        with pytest.raises(ConfigurationError):
            SignalFeatureConfig(**overrides)

    def test_nominal_uses_the_configured_endpoints(self):
        config = SignalFeatureConfig(zenith_dbhz=45.0, horizon_dbhz=25.0)
        np.testing.assert_allclose(
            config.nominal(np.array([0.0, np.pi / 6.0])), [25.0, 35.0]
        )


class TestSignalFeatureModel:
    def test_noise_free_attach_is_the_nominal_curve(self):
        model = SignalFeatureModel(SignalFeatureConfig(noise_sigma_db=0.0))
        attached = model.attach(overhead_and_level_epoch(elevation=0.4))
        expected = nominal_cn0_dbhz(np.array([0.4, 0.4]))
        np.testing.assert_allclose(
            [obs.cn0_dbhz for obs in attached.observations], expected
        )

    def test_falls_back_to_geometry_without_elevations(self):
        model = SignalFeatureModel(SignalFeatureConfig(noise_sigma_db=0.0))
        attached = model.attach(overhead_and_level_epoch(elevation=0.0))
        np.testing.assert_allclose(
            [obs.cn0_dbhz for obs in attached.observations],
            [DEFAULT_ZENITH_DBHZ, DEFAULT_HORIZON_DBHZ],
        )

    def test_attach_keeps_everything_but_cn0(self):
        epoch = overhead_and_level_epoch(elevation=0.4)
        attached = SignalFeatureModel(seed=5).attach(epoch)
        assert attached.time == epoch.time
        assert attached.truth is epoch.truth
        for before, after in zip(epoch.observations, attached.observations):
            assert (after.prn, after.system, after.azimuth) == (
                before.prn,
                before.system,
                before.azimuth,
            )
            assert after.pseudorange == before.pseudorange
            np.testing.assert_array_equal(after.position, before.position)
            assert before.cn0_dbhz is None and after.cn0_dbhz is not None

    def test_stream_is_a_pure_function_of_the_seed(self):
        stream = [overhead_and_level_epoch(elevation=0.4) for _ in range(4)]

        def lanes(seed):
            attached = SignalFeatureModel(seed=seed).attach_stream(stream)
            return [[obs.cn0_dbhz for obs in e.observations] for e in attached]

        assert lanes(9) == lanes(9)
        assert lanes(9) != lanes(10)
        # Successive epochs draw fresh noise.
        first, second = lanes(9)[:2]
        assert first != second
