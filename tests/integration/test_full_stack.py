"""Whole-stack integration tests exercising many subsystems together."""

import numpy as np
import pytest

from repro import (
    DatasetConfig,
    GpsReceiver,
    HatchFilter,
    NavigationEkf,
    NewtonRaphsonSolver,
    ObservationDataset,
    VelocitySolver,
    get_station,
    ionosphere_free_epoch,
)
from repro.rinex import (
    ObservationHeader,
    read_navigation_file,
    read_observation_file,
    reconstruct_epochs,
    write_navigation_file,
    write_observation_file,
)


class TestAllObservablesDataset:
    """One dataset producing every observable at once."""

    @pytest.fixture(scope="class")
    def rich_dataset(self):
        return ObservationDataset(
            get_station("SRZN"),
            DatasetConfig(
                duration_seconds=30.0,
                track_carrier=True,
                track_doppler=True,
                dual_frequency=True,
                multipath_amplitude_meters=1.0,
            ),
        )

    def test_every_observable_present(self, rich_dataset):
        epoch = rich_dataset.epoch_at(0)
        for obs in epoch.observations:
            assert obs.pseudorange > 0
            assert obs.carrier_range is not None
            assert obs.pseudorange_l2 is not None
            assert obs.range_rate is not None
            assert obs.velocity is not None

    def test_all_processing_layers_compose(self, rich_dataset):
        """Hatch + iono-free + velocity + RAIM on the same rich epochs."""
        station = get_station("SRZN")
        hatch = HatchFilter(window=20)
        nr = NewtonRaphsonSolver()
        velocity_solver = VelocitySolver()

        for index in range(rich_dataset.epoch_count):
            epoch = rich_dataset.epoch_at(index)
            smoothed = hatch.smooth_epoch(epoch)
            combined = ionosphere_free_epoch(epoch)

            fix = nr.solve(smoothed)
            assert fix.distance_to(station.position) < 30.0
            fix_if = nr.solve(combined)
            assert fix_if.distance_to(station.position) < 60.0
            velocity = velocity_solver.solve(epoch, fix.position)
            assert velocity.speed < 1.0  # static station


class TestRinexAcrossEphemerisRefresh:
    def test_reconstruction_spans_window_boundary(self, tmp_path):
        """Export epochs straddling a 2-hour ephemeris re-issue; the
        reconstruction must pick the right upload on each side."""
        station = get_station("YYR1")
        dataset = ObservationDataset(
            station,
            DatasetConfig(
                duration_seconds=7400.0, ephemeris_refresh_seconds=3600.0
            ),
        )
        # Epochs just before and after the first two refreshes.
        indices = [3598, 3602, 7198, 7202]
        epochs = [dataset.epoch_at(index) for index in indices]
        header = ObservationHeader(
            marker_name=station.site_id,
            approx_position=station.ecef,
            interval=1.0,
        )
        write_observation_file(tmp_path / "w.obs", header, epochs)
        write_navigation_file(tmp_path / "w.nav", dataset.navigation_records())

        rebuilt = reconstruct_epochs(
            read_observation_file(tmp_path / "w.obs"),
            read_navigation_file(tmp_path / "w.nav"),
        )
        assert len(rebuilt) == len(epochs)
        solver = NewtonRaphsonSolver()
        for epoch in rebuilt:
            fix = solver.solve(epoch)
            assert fix.distance_to(station.position) < 30.0

    def test_positions_match_across_boundary(self, tmp_path):
        station = get_station("YYR1")
        dataset = ObservationDataset(
            station,
            DatasetConfig(
                duration_seconds=7400.0, ephemeris_refresh_seconds=3600.0
            ),
        )
        epochs = [dataset.epoch_at(3598), dataset.epoch_at(3602)]
        header = ObservationHeader(
            marker_name=station.site_id,
            approx_position=station.ecef,
            interval=1.0,
        )
        write_observation_file(tmp_path / "x.obs", header, epochs)
        write_navigation_file(tmp_path / "x.nav", dataset.navigation_records())
        rebuilt = reconstruct_epochs(
            read_observation_file(tmp_path / "x.obs"),
            read_navigation_file(tmp_path / "x.nav"),
        )
        for original, back in zip(epochs, rebuilt):
            by_prn = {obs.prn: obs for obs in original.observations}
            for obs in back.observations:
                assert (
                    np.linalg.norm(obs.position - by_prn[obs.prn].position) < 0.05
                )


class TestSmoothedSequentialPipeline:
    def test_ekf_on_hatch_smoothed_epochs(self):
        """The best static configuration: carrier smoothing under a
        sequential filter."""
        station = get_station("FAI1")
        dataset = ObservationDataset(
            station,
            DatasetConfig(duration_seconds=120.0, track_carrier=True),
        )
        hatch = HatchFilter(window=60)
        ekf = NavigationEkf(position_process_noise=0.05)
        filtered = np.array(
            [
                ekf.process(hatch.smooth_epoch(dataset.epoch_at(index))).position
                for index in range(dataset.epoch_count)
            ]
        )
        errors = np.linalg.norm(filtered[60:] - station.position, axis=1)
        # Stacked layers: comfortably under the raw ~3 m NR error.
        assert np.mean(errors) < 2.0


class TestReceiverWithPreprocessing:
    def test_receiver_consumes_preprocessed_epochs(self):
        station = get_station("KYCP")
        dataset = ObservationDataset(
            station,
            DatasetConfig(duration_seconds=90.0, track_carrier=True),
        )
        hatch = HatchFilter(window=30)
        receiver = GpsReceiver(
            algorithm="dlg", clock_mode="threshold", warmup_epochs=20
        )
        errors = []
        for index in range(dataset.epoch_count):
            epoch = hatch.smooth_epoch(dataset.epoch_at(index))
            fix = receiver.process(epoch)
            if index >= 40:
                errors.append(fix.distance_to(station.position))
        assert np.mean(errors) < 10.0
