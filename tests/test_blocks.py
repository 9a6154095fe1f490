"""Tests for the columnar epoch store and the zero-copy hot path.

Two layers of confidence in the struct-of-arrays refactor:

* **Losslessness** — property tests prove the
  ``ObservationEpoch ⇄ EpochBlock`` round trip is bit-exact for the
  solver contract (positions, pseudoranges, PRNs, times, truth), for
  same-count blocks and for mixed-count streams padded by
  :func:`~repro.blocks.pack_stream`, and that structurally invalid
  rows are caught the same way the scalar
  :func:`~repro.observations.epoch_integrity_error` guard catches them.
* **Differential pinning** — the columnar ``solve_stream`` is
  bit-identical across its three input forms (epoch list,
  pre-packed stream, raw block) over 50 seeded mixed scenarios, and
  stays within the documented 1.8e-7 m of the scalar DLG solver.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import (
    BatchFde,
    ConfigurationError,
    DLGSolver,
    EpochBlock,
    GeometryError,
    PositioningEngine,
    pack_stream,
)
from repro.observations import (
    EpochTruth,
    ObservationEpoch,
    SatelliteObservation,
    epoch_integrity_error,
)
from repro.timebase import GpsTime
from repro.validation.faults import DuplicateSatellite, NonFiniteMeasurement

TRUTH = np.array([3623420.0, -5214015.0, 602359.0])


def _build_epoch(
    count: int,
    seed: int,
    bias: float = 0.0,
    noise_sigma: float = 0.0,
    with_truth: bool = True,
) -> ObservationEpoch:
    """A synthetic epoch mirroring the shared ``make_epoch`` fixture.

    Module-level (not a fixture) so hypothesis properties can call it
    without tripping the function-scoped-fixture health check.
    """
    rng = np.random.default_rng(seed)
    up = TRUTH / np.linalg.norm(TRUTH)
    observations = []
    for prn in range(1, count + 1):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        direction += up
        direction /= np.linalg.norm(direction)
        position = TRUTH + direction * rng.uniform(2.0e7, 2.6e7)
        pseudorange = float(np.linalg.norm(position - TRUTH)) + bias
        if noise_sigma:
            pseudorange += float(rng.normal(0.0, noise_sigma))
        observations.append(
            SatelliteObservation(prn=prn, position=position, pseudorange=pseudorange)
        )
    return ObservationEpoch(
        time=GpsTime(week=1540, seconds_of_week=float(seed % 604800)),
        observations=tuple(observations),
        truth=(
            EpochTruth(receiver_position=TRUTH, clock_bias_meters=bias)
            if with_truth
            else None
        ),
    )


def _assert_epoch_equal(rebuilt: ObservationEpoch, original: ObservationEpoch):
    """The solver contract round-trips bit-exactly (== on floats)."""
    assert rebuilt.time == original.time
    assert rebuilt.prns == original.prns
    np.testing.assert_array_equal(
        rebuilt.satellite_positions(), original.satellite_positions()
    )
    np.testing.assert_array_equal(rebuilt.pseudoranges(), original.pseudoranges())
    if original.truth is None:
        assert rebuilt.truth is None
    else:
        np.testing.assert_array_equal(
            rebuilt.truth.receiver_position, original.truth.receiver_position
        )
        assert rebuilt.truth.clock_bias_meters == original.truth.clock_bias_meters


class TestBlockRoundTrip:
    @given(
        count=st.integers(min_value=4, max_value=12),
        n=st.integers(min_value=1, max_value=8),
        with_truth=st.booleans(),
    )
    def test_same_count_round_trip_is_bit_exact(self, count, n, with_truth):
        epochs = [
            _build_epoch(count, seed=i, bias=float(i), with_truth=with_truth)
            for i in range(n)
        ]
        block = EpochBlock.from_epochs(epochs)
        assert len(block) == n
        assert block.width == count
        assert not block.padded
        assert bool(block.has_truth().all()) == with_truth
        rebuilt = block.to_epochs()
        assert len(rebuilt) == n
        for new, old in zip(rebuilt, epochs):
            _assert_epoch_equal(new, old)

    @given(
        counts=st.lists(
            st.integers(min_value=4, max_value=12), min_size=1, max_size=12
        )
    )
    def test_pack_stream_pads_and_round_trips(self, counts):
        epochs = [
            _build_epoch(c, seed=i, bias=float(i)) for i, c in enumerate(counts)
        ]
        packed = pack_stream(epochs)
        assert packed.unpackable == ()
        assert len(packed) == len(epochs)
        # One block, stream-aligned, as wide as the widest epoch.
        block = packed.block
        assert block.width == max(counts)
        np.testing.assert_array_equal(block.counts, counts)
        rebuilt = block.to_epochs()
        for index, epoch in enumerate(epochs):
            _assert_epoch_equal(rebuilt[index], epoch)

    def test_padded_slots_are_marked_empty(self):
        block = EpochBlock.from_epochs(
            [_build_epoch(7, seed=0), _build_epoch(5, seed=1)]
        )
        assert block.padded and block.width == 7
        np.testing.assert_array_equal(block.occupied[1], [True] * 5 + [False] * 2)
        assert np.isnan(block.positions[1, 5:]).all()
        assert np.isnan(block.pseudoranges[1, 5:]).all()
        assert (block.prns[1, 5:] == -1).all()
        assert (block.systems[1, 5:] == -1).all()
        assert block.validity_mask(min_satellites=5).all()
        assert list(block.validity_mask(min_satellites=6)) == [True, False]

    def test_from_epochs_rejects_empty(self):
        with pytest.raises(GeometryError, match="at least one"):
            EpochBlock.from_epochs([])

    def test_blocks_are_read_only_values(self):
        block = EpochBlock.from_epochs([_build_epoch(6, seed=0)])
        for array in (block.positions, block.pseudoranges, block.prns):
            with pytest.raises(ValueError):
                array[...] = 0

    @pytest.mark.parametrize("pack", [
        lambda epochs: pack_stream(epochs).block,
        EpochBlock.from_epochs,
    ])
    def test_cn0_lane_survives_any_arrival_order(self, pack):
        # The lane is present when any row reports C/N0, whichever row
        # comes first; rows without C/N0 stay NaN.
        plain = _build_epoch(6, seed=0)
        reporting = _build_epoch(7, seed=1).with_observations(
            replace(obs, cn0_dbhz=40.0 + j)
            for j, obs in enumerate(_build_epoch(7, seed=1).observations)
        )
        for epochs, reporting_row in (
            ([plain, reporting], 1),
            ([reporting, plain], 0),
        ):
            block = pack(epochs)
            assert block.cn0 is not None
            np.testing.assert_array_equal(
                block.cn0[reporting_row], 40.0 + np.arange(7)
            )
            assert np.isnan(block.cn0[1 - reporting_row]).all()
        assert pack([plain]).cn0 is None


_LANES = (
    "positions",
    "pseudoranges",
    "prns",
    "systems",
    "counts",
    "weeks",
    "seconds_of_week",
    "truth_positions",
    "truth_biases",
)


def _assert_blocks_identical(ours: EpochBlock, theirs: EpochBlock):
    for lane in _LANES + ("cn0",):
        a, b = getattr(ours, lane), getattr(theirs, lane)
        if a is None or b is None:
            assert a is None and b is None, lane
            continue
        assert a.dtype == b.dtype and a.shape == b.shape, lane
        np.testing.assert_array_equal(a, b, err_msg=lane)


class TestCompact:
    """Dropping slots from a block is packing the trimmed epochs."""

    @given(
        counts=st.lists(
            st.integers(min_value=4, max_value=12), min_size=1, max_size=8
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_matches_packing_the_trimmed_epochs(self, counts, seed):
        epochs = [
            _build_epoch(c, seed=i, bias=float(i)) for i, c in enumerate(counts)
        ]
        block = pack_stream(epochs).block
        rng = np.random.default_rng(seed)
        # Any subset of each row's PRNs short of all of them.
        banned = [
            set(
                rng.choice(
                    epoch.prns, size=int(rng.integers(len(epoch))), replace=False
                ).tolist()
            )
            for epoch in epochs
        ]
        keep = block.occupied & ~np.array(
            [np.isin(block.prns[row], list(banned[row])) for row in range(len(epochs))]
        )
        trimmed = [
            epoch.with_observations(
                obs for obs in epoch.observations if obs.prn not in banned[i]
            )
            for i, epoch in enumerate(epochs)
        ]
        _assert_blocks_identical(block.compact(keep), pack_stream(trimmed).block)

    def test_cn0_lane_leaves_with_its_last_reporting_channel(self):
        plain = _build_epoch(6, seed=0)
        observations = list(_build_epoch(7, seed=1).observations)
        observations[0] = replace(observations[0], cn0_dbhz=42.0)
        reporting = plain.with_observations(observations)
        block = pack_stream([plain, reporting]).block
        keep = block.occupied.copy()
        keep[1, 0] = False
        compacted = block.compact(keep)
        assert compacted.cn0 is None
        _assert_blocks_identical(
            compacted,
            pack_stream([plain, reporting.with_observations(observations[1:])]).block,
        )

    def test_invalid_rows_keep_their_place(self):
        poisoned = NonFiniteMeasurement().apply(
            _build_epoch(6, seed=1), np.random.default_rng(0)
        )
        block = pack_stream([_build_epoch(6, seed=0), poisoned]).block
        keep = block.occupied.copy()
        keep[0, 0] = False
        compacted = block.compact(keep)
        assert list(compacted.counts) == [5, 6]
        assert list(compacted.validity_mask()) == [True, False]
        np.testing.assert_array_equal(
            compacted.pseudoranges[1], block.pseudoranges[1]
        )


class TestValidityScreening:
    FAULTS = (
        NonFiniteMeasurement(),
        NonFiniteMeasurement(target="position"),
        DuplicateSatellite(),
    )

    @given(
        n=st.integers(min_value=1, max_value=8),
        poison=st.integers(min_value=0, max_value=7),
        fault_index=st.integers(min_value=0, max_value=2),
    )
    def test_validity_mask_matches_the_scalar_guard(self, n, poison, fault_index):
        epochs = [_build_epoch(8, seed=i) for i in range(n)]
        poison %= n
        # DuplicateSatellite grows the epoch, so the block pads the
        # other rows.
        epochs[poison] = self.FAULTS[fault_index].apply(
            epochs[poison], np.random.default_rng(0)
        )
        packed = pack_stream(epochs)
        assert packed.unpackable == ()
        block = packed.block
        mask = block.validity_mask(min_satellites=1)
        for row, epoch in enumerate(epochs):
            scalar_verdict = epoch_integrity_error(epoch, min_satellites=1)
            assert bool(mask[row]) == (scalar_verdict is None)
            # The row-level explanation matches the scalar wording.
            assert block.row_integrity_error(row, min_satellites=1) == scalar_verdict

    def test_duplicate_prn_rows_cannot_rematerialize(self):
        poisoned = DuplicateSatellite().apply(
            _build_epoch(8, seed=3), np.random.default_rng(0)
        )
        block = EpochBlock.from_epochs([poisoned])
        assert not block.validity_mask(min_satellites=1)[0]
        with pytest.raises(ConfigurationError, match="duplicate PRNs"):
            block.to_epochs()

    def test_non_finite_rows_cannot_rematerialize(self):
        poisoned = NonFiniteMeasurement().apply(
            _build_epoch(8, seed=3), np.random.default_rng(0)
        )
        block = EpochBlock.from_epochs([poisoned])
        assert not block.validity_mask(min_satellites=1)[0]
        with pytest.raises(ConfigurationError):
            block.to_epochs()

    def test_undersized_blocks_are_wholly_invalid(self):
        block = EpochBlock.from_epochs([_build_epoch(3, seed=0)])
        assert not block.validity_mask(min_satellites=4).any()
        assert "fewer than 4" in block.row_integrity_error(0, min_satellites=4)

    def test_ragged_epoch_is_unpackable_not_fatal(self):
        epochs = [_build_epoch(8, seed=i) for i in range(3)]
        # Simulate a decoder that bypassed the validating constructors.
        object.__setattr__(epochs[1].observations[2], "position", np.ones(2))
        packed = pack_stream(epochs)
        assert packed.unpackable == (1,)
        assert len(packed) == 3
        np.testing.assert_array_equal(packed.block.counts, [8, 0, 8])
        assert list(packed.block.validity_mask(min_satellites=1)) == [True, False, True]


    @pytest.mark.parametrize(
        "tags",
        [("GPS",), ("X",), ("\u00e9",), (7,), ("", "GG")],
        ids=["word", "unknown-letter", "non-ascii", "not-a-string", "empty-and-double"],
    )
    def test_malformed_system_tag_is_unpackable_not_fatal(self, tags):
        # The tags are mapped through a byte table over the joined
        # letters; an empty tag next to a two-letter one keeps the
        # joined length right, and must still be caught.
        epochs = [_build_epoch(8, seed=i) for i in range(3)]
        for slot, tag in enumerate(tags):
            object.__setattr__(epochs[1].observations[slot], "system", tag)
        packed = pack_stream(epochs)
        assert packed.unpackable == (1,)
        np.testing.assert_array_equal(packed.block.counts, [8, 0, 8])

    def test_lower_case_system_tags_pack(self):
        epoch = _build_epoch(8, seed=0)
        for obs in epoch.observations:
            object.__setattr__(obs, "system", "g")
        packed = pack_stream([epoch])
        assert packed.unpackable == ()
        assert (packed.block.systems == 0).all()


class _FixedBias:
    is_ready = True

    def __init__(self, bias: float):
        self._bias = bias

    def observe(self, time, bias_meters):
        pass

    def reanchor(self, time, bias_meters):
        pass

    def predict_bias_meters(self, time):
        return self._bias


class TestColumnarDifferential:
    """The columnar path answers exactly what the object path answers."""

    def test_input_forms_are_bit_identical_over_seeded_scenarios(self):
        engine = PositioningEngine(algorithm="dlg")
        scalar_bound = 0.0
        for scenario in range(50):
            rng = np.random.default_rng(5000 + scenario)
            n = int(rng.integers(2, 24))
            counts = rng.choice([5, 6, 7, 8, 9, 10, 11], size=n)
            bias = float(rng.uniform(-80.0, 80.0))
            epochs = [
                _build_epoch(
                    int(c),
                    seed=scenario * 1000 + i,
                    bias=bias,
                    noise_sigma=1.0,
                )
                for i, c in enumerate(counts)
            ]
            biases = np.full(n, bias)

            from_list = engine.solve_stream(epochs, biases=biases)
            from_packed = engine.solve_stream(pack_stream(epochs), biases=biases)
            np.testing.assert_array_equal(from_packed.positions, from_list.positions)
            np.testing.assert_array_equal(
                from_packed.clock_biases, from_list.clock_biases
            )

            from_block = engine.solve_stream(
                EpochBlock.from_epochs(epochs), biases=biases
            )
            np.testing.assert_array_equal(from_block.positions, from_list.positions)

            scalar = np.stack(
                [DLGSolver(_FixedBias(bias)).solve(epoch).position for epoch in epochs]
            )
            scalar_bound = max(
                scalar_bound,
                float(np.max(np.linalg.norm(from_list.positions - scalar, axis=1))),
            )
        # The bench gate's batch-vs-scalar bound (1e-6 m); the standard
        # bench stream (7-11 satellites) sits at 1.8e-7 m, these harsher
        # scenarios include 5-satellite epochs with worse conditioning.
        assert scalar_bound <= 1e-6


class TestFdeBlockPath:
    def _spiked_epochs(self, n=12, spike_at=4):
        epochs = [
            _build_epoch(8, seed=i, bias=21.0, noise_sigma=1.0) for i in range(n)
        ]
        spiked = epochs[spike_at]
        observations = list(spiked.observations)
        bad = observations[2]
        observations[2] = SatelliteObservation(
            prn=bad.prn, position=bad.position, pseudorange=bad.pseudorange + 80.0
        )
        epochs[spike_at] = spiked.with_observations(observations)
        return epochs

    def test_block_input_matches_epoch_list_input(self):
        epochs = self._spiked_epochs()
        biases = np.full(len(epochs), 21.0)
        fde = BatchFde()
        list_solutions, list_record = fde.solve_batch(epochs, biases)
        block_solutions, block_record = fde.solve_batch(
            EpochBlock.from_epochs(epochs), biases
        )
        np.testing.assert_array_equal(block_solutions, list_solutions)
        np.testing.assert_array_equal(block_record.statuses, list_record.statuses)
        np.testing.assert_array_equal(
            block_record.excluded_prns, list_record.excluded_prns
        )
        np.testing.assert_array_equal(
            block_record.statistics, list_record.statistics
        )

    def test_exclusion_names_the_spiked_prn_from_the_block(self):
        epochs = self._spiked_epochs()
        biases = np.full(len(epochs), 21.0)
        _, record = BatchFde().solve_batch(
            EpochBlock.from_epochs(epochs), biases
        )
        assert record.verdict(4).status == "repaired"
        assert record.verdict(4).excluded_prn == 3
