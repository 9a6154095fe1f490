"""Tests for the PositioningEngine one-kernel-call dispatcher."""

import json

import numpy as np
import pytest

from repro.clocks import ConstantClockBiasPredictor
from repro.core import DLGSolver, DLOSolver, NewtonRaphsonSolver
from repro.engine import EngineDiagnostics, PositioningEngine
from repro.errors import ConfigurationError, GeometryError
from repro.integrity import FdeConfig

BIAS = 21.0


@pytest.fixture
def mixed_stream(make_stream):
    """A mixed-count stream with a constant, known clock bias."""
    return make_stream(
        24,
        bias_meters=BIAS,
        count=[7 + (i % 4) for i in range(24)],
        noise_sigma=1.0,
    )


class TestSolveStream:
    @pytest.mark.parametrize("algorithm", ["dlo", "dlg", "nr"])
    def test_result_aligned_with_input_order(self, mixed_stream, algorithm):
        engine = PositioningEngine(algorithm=algorithm)
        result = engine.solve_stream(mixed_stream, biases=[BIAS] * len(mixed_stream))
        assert result.positions.shape == (len(mixed_stream), 3)
        assert result.algorithm == algorithm
        truth = np.stack([e.truth.receiver_position for e in mixed_stream])
        # Row i must answer epoch i: every fix lands near its own truth.
        assert np.all(np.linalg.norm(result.positions - truth, axis=1) < 30.0)

    def test_matches_scalar_solvers_epoch_by_epoch(self, mixed_stream):
        biases = [BIAS] * len(mixed_stream)
        dlo = PositioningEngine(algorithm="dlo").solve_stream(mixed_stream, biases)
        dlg = PositioningEngine(algorithm="dlg").solve_stream(mixed_stream, biases)
        nr = PositioningEngine(algorithm="nr").solve_stream(mixed_stream, biases)
        scalar_dlo = DLOSolver(ConstantClockBiasPredictor(BIAS))
        scalar_dlg = DLGSolver(ConstantClockBiasPredictor(BIAS))
        scalar_nr = NewtonRaphsonSolver()
        for i, epoch in enumerate(mixed_stream):
            np.testing.assert_allclose(
                dlo.positions[i], scalar_dlo.solve(epoch).position, atol=1e-6
            )
            np.testing.assert_allclose(
                dlg.positions[i], scalar_dlg.solve(epoch).position, atol=1e-6
            )
            np.testing.assert_allclose(
                nr.positions[i], scalar_nr.solve(epoch).position, atol=1e-6
            )

    def test_nr_reports_solved_biases(self, mixed_stream):
        result = PositioningEngine(algorithm="nr").solve_stream(mixed_stream)
        np.testing.assert_allclose(result.clock_biases, BIAS, atol=5.0)

    def test_closed_form_uses_predictor_when_no_biases(self, mixed_stream):
        engine = PositioningEngine(
            algorithm="dlg", clock_predictor=ConstantClockBiasPredictor(BIAS)
        )
        explicit = PositioningEngine(algorithm="dlg").solve_stream(
            mixed_stream, biases=[BIAS] * len(mixed_stream)
        )
        predicted = engine.solve_stream(mixed_stream)
        np.testing.assert_allclose(predicted.positions, explicit.positions)
        np.testing.assert_allclose(predicted.clock_biases, BIAS)

    def test_engine_result_len(self, mixed_stream):
        result = PositioningEngine(algorithm="dlo").solve_stream(
            mixed_stream, biases=[BIAS] * len(mixed_stream)
        )
        assert len(result) == len(mixed_stream)


class TestDiagnostics:
    def test_clean_stream_reports_empty_diagnostics(self, mixed_stream):
        result = PositioningEngine(algorithm="dlg").solve_stream(
            mixed_stream, biases=[BIAS] * len(mixed_stream)
        )
        assert isinstance(result.diagnostics, EngineDiagnostics)
        assert result.diagnostics.epochs_dropped == 0
        assert result.diagnostics.dropped_indices == ()
        assert result.diagnostics.invalid_indices == ()

    def test_drop_mode_answers_undersized_with_nan(self, make_epoch):
        stream = [
            make_epoch(bias_meters=BIAS, count=8, seed=0),
            make_epoch(bias_meters=BIAS, count=3, seed=1),
            make_epoch(bias_meters=BIAS, count=8, seed=2),
        ]
        result = PositioningEngine(algorithm="dlg").solve_stream(
            stream, biases=[BIAS] * 3, on_undersized="drop"
        )
        assert result.positions.shape == (3, 3)
        assert np.all(np.isnan(result.positions[1]))
        assert np.isnan(result.clock_biases[1])
        assert np.all(np.isfinite(result.positions[[0, 2]]))
        assert result.diagnostics.epochs_dropped == 1
        assert result.diagnostics.dropped_indices == (1,)

    def test_drop_mode_with_all_undersized_raises(self, make_epoch):
        stream = [make_epoch(count=3, seed=i) for i in range(2)]
        with pytest.raises(GeometryError, match="every epoch"):
            PositioningEngine(algorithm="dlg").solve_stream(
                stream, biases=[0.0, 0.0], on_undersized="drop"
            )

    def test_rejects_unknown_on_undersized(self, mixed_stream):
        with pytest.raises(ConfigurationError, match="on_undersized"):
            PositioningEngine().solve_stream(
                mixed_stream,
                biases=[BIAS] * len(mixed_stream),
                on_undersized="ignore",
            )

    def test_to_dict_is_json_ready(self, make_epoch):
        stream = [
            make_epoch(bias_meters=BIAS, count=8, seed=0),
            make_epoch(bias_meters=BIAS, count=3, seed=1),
        ]
        result = PositioningEngine(algorithm="dlg").solve_stream(
            stream, biases=[BIAS, BIAS], on_undersized="drop"
        )
        doc = result.diagnostics.to_dict()
        assert doc == {
            "epochs_dropped": 1,
            "dropped_indices": [1],
            "epochs_invalid": 0,
            "invalid_indices": [],
            "fde": None,
        }
        json.dumps(doc)


class TestStageSplit:
    """``stage_seconds`` names only the stages that ran."""

    @pytest.mark.parametrize("algorithm", ["dlo", "dlg", "nr"])
    def test_no_fde_stage_without_the_gate(self, mixed_stream, algorithm):
        result = PositioningEngine(algorithm=algorithm).solve_stream(
            mixed_stream, biases=[BIAS] * len(mixed_stream)
        )
        assert list(result.stage_seconds) == ["pack", "validate", "solve", "scatter"]

    def test_fde_armed_stream_reports_its_fde_stage(self, mixed_stream):
        engine = PositioningEngine(algorithm="dlg", fde_config=FdeConfig())
        result = engine.solve_stream(mixed_stream, biases=[BIAS] * len(mixed_stream))
        assert list(result.stage_seconds) == [
            "pack",
            "validate",
            "solve",
            "fde",
            "scatter",
        ]
        assert result.stage_seconds["fde"] > 0.0


class TestValidation:
    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ConfigurationError, match="dlo/dlg/nr"):
            PositioningEngine(algorithm="bancroft")

    def test_rejects_empty_stream(self):
        with pytest.raises(GeometryError, match="at least one"):
            PositioningEngine().solve_stream([])

    def test_rejects_bias_shape_mismatch(self, mixed_stream):
        with pytest.raises(ConfigurationError, match="one per epoch"):
            PositioningEngine().solve_stream(mixed_stream, biases=[BIAS])

    def test_rejects_small_epochs_with_counts(self, make_epoch):
        stream = [make_epoch(count=8), make_epoch(count=3)]
        with pytest.raises(GeometryError, match="fewer than 4"):
            PositioningEngine().solve_stream(stream, biases=[0.0, 0.0])
