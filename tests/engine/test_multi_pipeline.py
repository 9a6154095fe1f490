"""The engine's per-constellation mode: lanes, patterns, compatibility.

Mixed streams solve as one padded block whatever their satellite
counts and system patterns; the per-constellation result exposes one
solved-bias lane per system with NaN where a system was absent.
"""

import numpy as np
import pytest

from repro.api import SolverConfig, build_scene
from repro.engine import PositioningEngine

G_BIASES = {"G": 120.0}
GR_BIASES = {"G": 120.0, "R": -45.0}


def mixed_stream():
    """G-only and G+R epochs interleaved, all 11 satellites."""
    epochs = []
    for seed in range(6):
        if seed % 2:
            epochs.append(
                build_scene(
                    {"G": 6, "R": 5}, clock_bias_meters=GR_BIASES, seed=seed
                )
            )
        else:
            epochs.append(
                build_scene({"G": 11}, clock_bias_meters=G_BIASES, seed=seed)
            )
    return epochs


@pytest.fixture(params=["nr", "dlo", "dlg"])
def multi_engine(request):
    config = SolverConfig(
        algorithm=request.param, constellations="per_constellation"
    )
    return PositioningEngine.from_config(config)


class TestMultiEngine:
    def test_positions_and_bias_lanes(self, multi_engine):
        epochs = mixed_stream()
        result = multi_engine.solve_stream(epochs)
        truth = np.stack([epoch.truth.receiver_position for epoch in epochs])
        assert np.max(np.linalg.norm(result.positions - truth, axis=1)) < 1e-4
        lanes = result.constellation_biases
        assert set(lanes) == {"G", "R"}
        assert np.allclose(lanes["G"], 120.0, atol=1e-3)
        # R is observed only in the odd epochs; absent lanes are NaN.
        assert np.allclose(lanes["R"][1::2], -45.0, atol=1e-3)
        assert np.all(np.isnan(lanes["R"][::2]))

    def test_clock_biases_is_first_lane(self, multi_engine):
        result = multi_engine.solve_stream(mixed_stream())
        assert np.allclose(result.clock_biases, 120.0, atol=1e-3)

    def test_slot_orders_share_one_block(self, multi_engine):
        # Same per-system totals, different slot order: each row keeps
        # its own group layout inside the one padded block, and its
        # first-slot system decides its primary clock bias.
        epochs = [
            build_scene({"G": 6, "R": 5}, clock_bias_meters=GR_BIASES, seed=0),
            build_scene({"R": 5, "G": 6}, clock_bias_meters=GR_BIASES, seed=1),
        ]
        result = multi_engine.solve_stream(epochs)
        truth = np.stack([epoch.truth.receiver_position for epoch in epochs])
        assert np.max(np.linalg.norm(result.positions - truth, axis=1)) < 1e-4
        assert np.allclose(result.clock_biases, [120.0, -45.0], atol=1e-3)


class TestSingleModeCompatibility:
    def test_single_engine_ignores_tags(self):
        # A single-mode engine on tagged epochs keeps the one-bias
        # model: no constellation lanes.
        epochs = [
            build_scene({"G": 8}, clock_bias_meters={"G": 35.0}, seed=seed)
            for seed in range(3)
        ]
        engine = PositioningEngine(algorithm="dlg")
        result = engine.solve_stream(epochs, biases=np.full(3, 35.0))
        assert result.constellation_biases is None
        truth = np.stack([epoch.truth.receiver_position for epoch in epochs])
        assert np.max(np.linalg.norm(result.positions - truth, axis=1)) < 1e-6

    def test_from_config_threads_mode(self):
        config = SolverConfig(
            algorithm="dlg", constellations="per_constellation"
        )
        engine = PositioningEngine.from_config(config)
        epochs = [
            build_scene({"G": 6, "R": 5}, clock_bias_meters=GR_BIASES, seed=9)
        ]
        result = engine.solve_stream(epochs)
        assert result.constellation_biases is not None
