"""Unit + consistency tests for the batched solvers (paper ext. 3)."""

import numpy as np
import pytest

from repro.clocks import ConstantClockBiasPredictor, OracleClockBiasPredictor
from repro.core import (
    BatchDLGSolver,
    BatchDLOSolver,
    BatchNewtonRaphsonSolver,
    DLGSolver,
    DLOSolver,
    NewtonRaphsonSolver,
)
from repro.errors import ConfigurationError, ConvergenceError, GeometryError


@pytest.fixture
def batch(make_stream):
    """Ten same-size noisy epochs with a common bias."""
    epochs = make_stream(10, bias_meters=35.0, count=8, noise_sigma=1.0)
    biases = [35.0] * len(epochs)
    return epochs, biases


class TestBatchDLO:
    def test_matches_per_epoch_solver_exactly(self, batch):
        epochs, biases = batch
        stacked = BatchDLOSolver().solve_batch(epochs, biases)
        for row, epoch, bias in zip(stacked, epochs, biases):
            single = DLOSolver().solve(
                epoch.with_observations(
                    type(epoch.observations[0])(
                        prn=obs.prn,
                        position=obs.position,
                        pseudorange=obs.pseudorange - bias,
                        elevation=obs.elevation,
                        azimuth=obs.azimuth,
                    )
                    for obs in epoch.observations
                )
            )
            np.testing.assert_allclose(row, single.position, atol=1e-6)

    def test_output_shape(self, batch):
        epochs, biases = batch
        assert BatchDLOSolver().solve_batch(epochs, biases).shape == (10, 3)

    def test_accuracy(self, batch):
        epochs, biases = batch
        stacked = BatchDLOSolver().solve_batch(epochs, biases)
        for row, epoch in zip(stacked, epochs):
            assert np.linalg.norm(row - epoch.truth.receiver_position) < 30.0


class TestBatchDLG:
    def test_matches_per_epoch_solver(self, batch, make_epoch):
        epochs, biases = batch
        stacked = BatchDLGSolver().solve_batch(epochs, biases)
        # Compare through the per-epoch DLG with an exact-bias oracle.
        solver = DLGSolver(ConstantClockBiasPredictor(35.0))
        for row, epoch in zip(stacked, epochs):
            np.testing.assert_allclose(
                row, solver.solve(epoch).position, atol=1e-6
            )

    def test_batch_dlg_beats_batch_dlo(self, make_epoch):
        epochs = [
            make_epoch(bias_meters=0.0, count=10, noise_sigma=3.0, seed=seed)
            for seed in range(80)
        ]
        biases = [0.0] * len(epochs)
        dlo = BatchDLOSolver().solve_batch(epochs, biases)
        dlg = BatchDLGSolver().solve_batch(epochs, biases)
        truth = np.stack([epoch.truth.receiver_position for epoch in epochs])
        assert np.mean(np.linalg.norm(dlg - truth, axis=1)) < np.mean(
            np.linalg.norm(dlo - truth, axis=1)
        )


class TestValidation:
    def test_rejects_empty_batch(self):
        with pytest.raises(GeometryError, match="at least one"):
            BatchDLOSolver().solve_batch([], [])

    def test_mixed_counts_solve_as_one_padded_batch(self, make_epoch):
        # Padded slots carry zero weight: each row answers like its own
        # narrower system.
        epochs = [
            make_epoch(count=count, noise_sigma=1.0, seed=count)
            for count in (8, 5, 11, 6)
        ]
        for batch, scalar in ((BatchDLOSolver(), DLOSolver()), (BatchDLGSolver(), DLGSolver())):
            stacked = batch.solve_batch(epochs, [0.0] * len(epochs))
            for row, epoch in zip(stacked, epochs):
                np.testing.assert_allclose(
                    row, scalar.solve(epoch).position, atol=1e-6
                )

    def test_rejects_too_few_satellites(self, make_epoch):
        with pytest.raises(GeometryError, match="at least 4"):
            BatchDLOSolver().solve_batch([make_epoch(count=3)], [0.0])

    def test_rejects_bias_shape(self, make_epoch):
        with pytest.raises(GeometryError, match="one per epoch"):
            BatchDLOSolver().solve_batch([make_epoch(count=8)], [0.0, 1.0])

    def test_rejects_huge_bias(self, make_epoch):
        with pytest.raises(GeometryError, match="non-positive"):
            BatchDLOSolver().solve_batch([make_epoch(count=8)], [1e9])


class TestSingleEpochBatch:
    def test_dlo_single_epoch_equals_scalar_bitwise(self, make_epoch):
        """A 1-epoch batch must reproduce the scalar solve bit-for-bit
        up to the (documented) difference in 3x3 solve routine."""
        epoch = make_epoch(bias_meters=0.0, count=8, noise_sigma=1.0, seed=5)
        stacked = BatchDLOSolver().solve_batch([epoch], [0.0])
        single = DLOSolver().solve(epoch)
        np.testing.assert_allclose(stacked[0], single.position, rtol=1e-12)

    def test_dlg_single_epoch_equals_scalar(self, make_epoch):
        epoch = make_epoch(bias_meters=0.0, count=8, noise_sigma=1.0, seed=6)
        stacked = BatchDLGSolver().solve_batch([epoch], [0.0])
        single = DLGSolver().solve(epoch)
        np.testing.assert_allclose(stacked[0], single.position, rtol=1e-12)

    def test_nr_single_epoch_equals_scalar(self, make_epoch):
        epoch = make_epoch(bias_meters=25.0, count=8, noise_sigma=1.0, seed=7)
        stacked = BatchNewtonRaphsonSolver().solve_batch([epoch])
        single = NewtonRaphsonSolver().solve(epoch)
        np.testing.assert_allclose(stacked[0], single.position, atol=1e-6)


class TestBatchNewtonRaphson:
    def test_matches_scalar_across_batch(self, batch):
        epochs, _biases = batch
        full = BatchNewtonRaphsonSolver().solve_batch_full(epochs)
        scalar = NewtonRaphsonSolver()
        for i, epoch in enumerate(epochs):
            fix = scalar.solve(epoch)
            np.testing.assert_allclose(full.positions[i], fix.position, atol=1e-6)
            assert full.clock_biases[i] == pytest.approx(
                fix.clock_bias_meters, abs=1e-6
            )
            assert full.iterations[i] == fix.iterations
        assert full.converged.all()

    def test_active_set_masks_converged_epochs(self, make_epoch):
        # A warm-started epoch converges immediately; a cold batch mate
        # needs the usual handful of iterations.  Per-epoch iteration
        # counts prove the converged epoch dropped out of the loop.
        near = make_epoch(bias_meters=10.0, count=8, noise_sigma=0.0, seed=1)
        far = make_epoch(
            truth_position=np.array([-2694045.0, -4293642.0, 3857878.0]),
            bias_meters=10.0,
            count=8,
            noise_sigma=0.0,
            seed=2,
        )
        epochs = [near, far]
        truth = near.truth.receiver_position
        warm = np.array([truth[0], truth[1], truth[2], 10.0])
        solver = BatchNewtonRaphsonSolver(initial_state=warm)
        full = solver.solve_batch_full(epochs)
        assert full.converged.all()
        assert full.iterations[0] < full.iterations[1]

    def test_unconverged_raises_with_count(self, batch):
        epochs, _ = batch
        solver = BatchNewtonRaphsonSolver(max_iterations=2)
        with pytest.raises(ConvergenceError, match="did not converge"):
            solver.solve_batch(epochs)
        # ... but the full record reports partial results instead.
        full = solver.solve_batch_full(epochs)
        assert not full.converged.any()
        assert np.all(full.iterations == 2)

    def test_mixed_counts_solve_as_one_padded_batch(self, make_epoch):
        epochs = [
            make_epoch(count=count, bias_meters=25.0, noise_sigma=1.0, seed=count)
            for count in (8, 5, 11)
        ]
        stacked = BatchNewtonRaphsonSolver().solve_batch(epochs)
        for row, epoch in zip(stacked, epochs):
            np.testing.assert_allclose(
                row, NewtonRaphsonSolver().solve(epoch).position, atol=1e-6
            )

    def test_rejects_empty_and_too_few(self, make_epoch):
        with pytest.raises(GeometryError, match="at least one"):
            BatchNewtonRaphsonSolver().solve_batch([])
        with pytest.raises(GeometryError, match="at least 4"):
            BatchNewtonRaphsonSolver().solve_batch([make_epoch(count=3)])

    def test_rejects_bad_configuration(self):
        with pytest.raises(ConfigurationError):
            BatchNewtonRaphsonSolver(max_iterations=0)
        with pytest.raises(ConfigurationError):
            BatchNewtonRaphsonSolver(tolerance_meters=0.0)
        with pytest.raises(ConfigurationError):
            BatchNewtonRaphsonSolver(initial_state=np.ones(3))

    def test_as_batch_shares_configuration(self, batch):
        epochs, _ = batch
        scalar = NewtonRaphsonSolver(max_iterations=30, tolerance_meters=1e-5)
        batched = scalar.as_batch()
        np.testing.assert_allclose(
            batched.solve_batch(epochs),
            np.stack([scalar.solve(e).position for e in epochs]),
            atol=1e-6,
        )

    def test_as_batch_rejects_unbatchable_modes(self):
        with pytest.raises(ConfigurationError, match="elevation"):
            NewtonRaphsonSolver(elevation_weighted=True).as_batch()
        with pytest.raises(ConfigurationError, match="convergence"):
            NewtonRaphsonSolver(convergence="residual").as_batch()


class TestNonPositiveCorrectedPseudoranges:
    def test_dlg_rejects_bias_exceeding_range(self, make_epoch):
        # A predicted bias larger than the pseudorange makes the
        # corrected pseudorange non-positive — the eq. 4-26 covariance
        # would still be PD, but the linearization is meaningless.
        with pytest.raises(GeometryError, match="non-positive"):
            BatchDLGSolver().solve_batch([make_epoch(count=8)], [3e7])

    def test_mixed_good_and_bad_epochs_rejected(self, make_epoch):
        epochs = [make_epoch(count=8, seed=1), make_epoch(count=8, seed=2)]
        with pytest.raises(GeometryError, match="non-positive"):
            BatchDLGSolver().solve_batch(epochs, [0.0, 5e7])


class TestBatchProperty:
    def test_batch_equals_loop_across_sizes(self, make_epoch):
        """Property: for any (m, N), the batched solvers agree with the
        per-epoch solvers to float precision."""
        from hypothesis import HealthCheck, given, settings, strategies as st

        @given(
            m=st.integers(min_value=5, max_value=11),
            n=st.integers(min_value=1, max_value=6),
            seed=st.integers(min_value=0, max_value=30),
        )
        @settings(
            max_examples=30,
            deadline=None,
            suppress_health_check=[HealthCheck.function_scoped_fixture],
        )
        def check(m, n, seed):
            epochs = [
                make_epoch(bias_meters=12.0, count=m, noise_sigma=1.0,
                           seed=seed + i)
                for i in range(n)
            ]
            biases = [12.0] * n

            from repro.errors import EstimationError, GeometryError

            try:
                stacked_dlo = BatchDLOSolver().solve_batch(epochs, biases)
                stacked_dlg = BatchDLGSolver().solve_batch(epochs, biases)
            except EstimationError:
                return  # a degenerate random sky in the batch; acceptable
            dlo = DLOSolver(ConstantClockBiasPredictor(12.0))
            dlg = DLGSolver(ConstantClockBiasPredictor(12.0))
            for row_o, row_g, epoch in zip(stacked_dlo, stacked_dlg, epochs):
                try:
                    single_o = dlo.solve(epoch).position
                    single_g = dlg.solve(epoch).position
                except GeometryError:
                    continue
                np.testing.assert_allclose(row_o, single_o, atol=1e-5)
                np.testing.assert_allclose(row_g, single_g, atol=1e-5)

        check()
