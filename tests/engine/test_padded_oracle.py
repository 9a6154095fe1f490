"""Padded-flush oracle: one kernel call against per-epoch references.

The engine packs a whole flush — any satellite counts, any
constellation patterns — into one padded block and answers it with one
kernel call, padded slots carrying zero weight.  Every row must
therefore answer exactly what its own epoch answers alone: the scalar
solvers pin the fixes, a one-row flush (which has no padding) pins the
FDE verdicts, and stream order holds by construction — row ``i`` is
epoch ``i``, dropped rows included.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.api import SolverConfig, build_scene
from repro.engine import PositioningEngine
from repro.integrity.fde import FdeConfig
from repro.observations import ObservationEpoch

BIAS = 4_321.5
SYSTEM_BIASES = {"G": 120.0, "R": -45.0, "E": 3_000.0, "C": -2_500.0}

#: Per-constellation rows: K = 1..4, varied slot orders, rows that
#: lack a constellation the rest of the flush observes, and the large
#: four-constellation skies (up to 11 satellites each, 44 in all).
MULTI_LAYOUTS = (
    {"G": 6, "R": 5},
    {"R": 4, "G": 5},
    {"G": 9},
    {"E": 3, "G": 4, "R": 3, "C": 3},
    {"G": 4, "E": 4},
    {"C": 3, "R": 3, "G": 3},
    {"E": 7},
    {"G": 11, "R": 11, "E": 11, "C": 11},
    {"C": 11, "E": 8, "R": 10, "G": 7},
)

#: Any per-constellation sky up to four constellations of 11.
LAYOUT = st.dictionaries(
    st.sampled_from(["G", "R", "E", "C"]),
    st.integers(min_value=2, max_value=11),
    min_size=1,
    max_size=4,
).filter(lambda layout: sum(layout.values()) >= 3 + 2 * len(layout))


def single_flush():
    counts = (7, 4, 11, 15, 5, 9, 6, 12)
    return [
        build_scene(count, clock_bias_meters=BIAS, seed=seed, noise_sigma=1.0)
        for seed, count in enumerate(counts)
    ]


def multi_flush():
    return [
        build_scene(
            layout,
            clock_bias_meters={code: SYSTEM_BIASES[code] for code in layout},
            seed=seed,
            noise_sigma=0.5,
        )
        for seed, layout in enumerate(MULTI_LAYOUTS)
    ]


def spiked(epoch, slot, meters):
    observations = list(epoch.observations)
    observations[slot] = replace(
        observations[slot], pseudorange=observations[slot].pseudorange + meters
    )
    return ObservationEpoch(epoch.time, tuple(observations), epoch.truth)


def assert_same_verdict(ours, reference):
    assert ours.status == reference.status
    assert ours.excluded_prn == reference.excluded_prn
    np.testing.assert_allclose(
        [ours.test_statistic, ours.threshold],
        [reference.test_statistic, reference.threshold],
        rtol=1e-6,
    )


def kernel_calls(solve):
    """``(result, calls, rows)`` of one solve under a fresh registry."""
    registry = telemetry.MetricsRegistry()
    telemetry.install(registry, telemetry.NULL_TRACER)
    try:
        result = solve()
    finally:
        telemetry.uninstall()
    (sample,) = registry.snapshot()["repro_engine_bucket_size"]["samples"]
    return result, sample["count"], sample["sum"]


class TestSingleConstellation:
    @pytest.mark.parametrize("algorithm", ["dlg", "dlo", "nr"])
    def test_rows_match_the_scalar_solver(self, algorithm):
        epochs = single_flush()
        engine = PositioningEngine(algorithm=algorithm)
        biases = None if algorithm == "nr" else np.full(len(epochs), BIAS)
        result, calls, rows = kernel_calls(
            lambda: engine.solve_stream(epochs, biases)
        )
        # Eight epochs of eight different counts: one kernel call.
        assert (calls, rows) == (1, len(epochs))
        scalar = SolverConfig(algorithm=algorithm, clock_bias_meters=BIAS).build_solver()
        for row, epoch in enumerate(epochs):
            np.testing.assert_allclose(
                result.positions[row], scalar.solve(epoch).position, atol=1e-6
            )

    @given(
        counts=st.lists(st.integers(min_value=4, max_value=15), min_size=1, max_size=12),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_any_count_mix_matches_one_row_flushes(self, counts, seed):
        epochs = [
            build_scene(count, clock_bias_meters=BIAS, seed=seed + row, noise_sigma=1.0)
            for row, count in enumerate(counts)
        ]
        engine = PositioningEngine(algorithm="dlg")
        flush = engine.solve_stream(epochs, np.full(len(epochs), BIAS))
        for row, epoch in enumerate(epochs):
            alone = engine.solve_stream([epoch], np.array([BIAS]))
            np.testing.assert_allclose(
                flush.positions[row], alone.positions[0], atol=1e-6
            )

    def test_dropped_rows_keep_stream_order(self, make_epoch):
        epochs = single_flush()
        epochs.insert(2, make_epoch(count=3, bias_meters=BIAS, seed=40))
        result = PositioningEngine(algorithm="dlg").solve_stream(
            epochs, np.full(len(epochs), BIAS), on_undersized="drop"
        )
        assert result.diagnostics.dropped_indices == (2,)
        assert np.isnan(result.positions[2]).all()
        scalar = SolverConfig(algorithm="dlg", clock_bias_meters=BIAS).build_solver()
        for row, epoch in enumerate(epochs):
            if row != 2:
                np.testing.assert_allclose(
                    result.positions[row], scalar.solve(epoch).position, atol=1e-6
                )

    def test_fde_verdicts_match_one_row_flushes(self):
        epochs = single_flush()
        epochs[2] = spiked(epochs[2], 3, 150.0)
        epochs[3] = spiked(epochs[3], 0, -120.0)  # the base satellite
        epochs[6] = spiked(epochs[6], 1, 200.0)  # 6 satellites
        epochs[4] = spiked(epochs[4], 2, 200.0)  # 5 satellites: detect only
        engine = PositioningEngine(algorithm="dlg", fde_config=FdeConfig())
        flush = engine.solve_stream(epochs, np.full(len(epochs), BIAS))
        record = flush.diagnostics.fde
        for row, epoch in enumerate(epochs):
            alone = engine.solve_stream([epoch], np.array([BIAS]))
            assert_same_verdict(record.verdict(row), alone.diagnostics.fde.verdict(0))
            np.testing.assert_allclose(
                flush.positions[row], alone.positions[0], atol=1e-6
            )
        statuses = [record.verdict(row).status for row in range(len(epochs))]
        assert statuses[1] == "unchecked"  # 4 satellites: no redundancy
        assert statuses[2] == statuses[3] == "repaired"
        assert statuses[4] == "unusable"
        assert record.verdict(3).excluded_prn == epochs[3].observations[0].prn


class TestPerConstellation:
    @pytest.mark.parametrize("algorithm", ["dlg", "dlo", "nr"])
    def test_rows_match_the_scalar_solver(self, algorithm):
        epochs = multi_flush()
        config = SolverConfig(algorithm=algorithm, constellations="per_constellation")
        engine = PositioningEngine.from_config(config)
        result, calls, rows = kernel_calls(lambda: engine.solve_stream(epochs))
        assert (calls, rows) == (1, len(epochs))
        scalar = config.build_solver()
        for row, epoch in enumerate(epochs):
            fix = scalar.solve(epoch)
            np.testing.assert_allclose(result.positions[row], fix.position, atol=1e-5)
            # The primary bias is the row's first constellation's.
            assert result.clock_biases[row] == pytest.approx(
                fix.clock_bias_meters, abs=1e-4
            )

    @given(
        layouts=st.lists(LAYOUT, min_size=1, max_size=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_any_layout_mix_matches_one_row_flushes(self, layouts, seed):
        epochs = [
            build_scene(
                layout,
                clock_bias_meters={code: SYSTEM_BIASES[code] for code in layout},
                seed=seed + row,
                noise_sigma=0.5,
            )
            for row, layout in enumerate(layouts)
        ]
        engine = PositioningEngine(algorithm="dlg", constellations="per_constellation")
        flush = engine.solve_stream(epochs)
        for row, epoch in enumerate(epochs):
            alone = engine.solve_stream([epoch])
            np.testing.assert_allclose(
                flush.positions[row], alone.positions[0], atol=1e-6
            )
            for code, lane in alone.constellation_biases.items():
                assert flush.constellation_biases[code][row] == pytest.approx(
                    lane[0], abs=1e-4
                )

    def test_absent_constellations_get_nan_lanes(self):
        epochs = multi_flush()
        config = SolverConfig(algorithm="dlg", constellations="per_constellation")
        lanes = PositioningEngine.from_config(config).solve_stream(
            epochs
        ).constellation_biases
        assert set(lanes) == {"G", "R", "E", "C"}
        scalar = config.build_solver()
        for row, epoch in enumerate(epochs):
            solved = dict(scalar.solve(epoch).clock_biases)
            for code, lane in lanes.items():
                if code in solved:
                    assert lane[row] == pytest.approx(solved[code], abs=1e-4)
                else:
                    assert np.isnan(lane[row])

    def test_fde_verdicts_match_one_row_flushes(self):
        epochs = multi_flush()
        epochs[0] = spiked(epochs[0], 2, 300.0)
        epochs[2] = spiked(epochs[2], 0, -250.0)
        epochs[7] = spiked(epochs[7], 25, 300.0)
        engine = PositioningEngine(
            algorithm="dlg",
            constellations="per_constellation",
            fde_config=FdeConfig(sigma_meters=2.0),
        )
        flush = engine.solve_stream(epochs)
        record = flush.diagnostics.fde
        for row, epoch in enumerate(epochs):
            alone = engine.solve_stream([epoch])
            assert_same_verdict(record.verdict(row), alone.diagnostics.fde.verdict(0))
            np.testing.assert_allclose(
                flush.positions[row], alone.positions[0], atol=1e-5
            )
        assert record.verdict(0).status == "repaired"
        assert record.verdict(0).excluded_prn == epochs[0].observations[2].prn
        assert record.verdict(2).status == "repaired"
        assert record.verdict(3).status != "unchecked"  # E3G4R3C3: dof 2
        assert record.verdict(5).status == "unchecked"  # C3R3G3: dof 0
        assert record.verdict(7).status == "repaired"  # 44 satellites
        assert record.verdict(7).excluded_prn == epochs[7].observations[25].prn
