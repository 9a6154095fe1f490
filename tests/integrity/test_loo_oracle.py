"""Closed-form leave-one-out against explicit subset re-solves.

:func:`~repro.integrity.fde.leave_one_out` prices every exclusion
candidate of a flagged row from the parent solve alone.  Here every
candidate of every row — single- and per-constellation, padded
mixed-width blocks and four-constellation skies of up to 44 satellites
included — is re-solved from scratch as its own subset with the batched
centered weighted least squares, and the closed form must reproduce
the subset's whitened residual square and its fix.  Slots that are no
candidate (padding, a 2-satellite constellation's members, a subset
whose geometry is degenerate) must be priced at ``+inf``.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import build_scene
from repro.blocks import EpochBlock
from repro.constellation.systems import system_code
from repro.errors import EstimationError, GeometryError
from repro.integrity import BatchFde, FdeConfig, FdeRecord
from repro.integrity.fde import leave_one_out
from repro.solvers import BatchDLGSolver
from repro.solvers.batch import build_difference_systems, build_range_systems

BIAS = 1_234.5
SYSTEM_BIASES = {"G": 120.0, "R": -45.0, "E": 3_000.0, "C": -2_500.0}
# Both sides form residuals of right-hand sides near 1e14 m^2, so a
# statistic carries an absolute floor of about eps * |b| / rho^2 times
# the whitened residual: ~1e-9 m^2 however small the statistic is.
STAT_RTOL = 1e-9
STAT_ATOL = 1e-8  # m^2
FIX_ATOL = 1e-5  # meters
# A constellation left with two satellites has its bias fixed by one
# equation with coefficient rho_a - rho_b, which can be small: there
# even two exact re-solves of the same subset (different
# factorizations) disagree at the 0.1 mm level.
BIAS_ATOL = 1e-2  # meters


def spiked(epoch, slot, meters):
    observations = list(epoch.observations)
    observations[slot] = replace(
        observations[slot], pseudorange=observations[slot].pseudorange + meters
    )
    return epoch.with_observations(observations)


def assert_statistic(closed, oracle, context):
    if np.isinf(oracle):
        assert np.isinf(closed), context
    else:
        assert closed == pytest.approx(oracle, rel=STAT_RTOL, abs=STAT_ATOL), context


# -- single constellation --------------------------------------------


def single_oracle(positions, corrected, keep):
    """The subset's DLG ``(fix, r^T W r)``, or ``(None, inf)``
    when its differenced design is rank-deficient."""
    positions, corrected = positions[keep][None], corrected[keep][None]
    design, _rhs = build_difference_systems(positions, corrected)
    if np.linalg.matrix_rank(design[0]) < 3:
        return None, np.inf
    solution, norm = build_range_systems(positions, corrected).solve()
    return solution[0], norm[0] ** 2


def check_single_block(block, biases):
    solutions, _norms, system = BatchDLGSolver().solve_block_full(block, biases)
    corrected = block.pseudoranges - biases[:, None]
    statistics, fixes = leave_one_out(system, solutions)
    for row in range(len(block)):
        count = int(block.counts[row])
        positions = block.positions[row, :count]
        ranges = corrected[row, :count]
        for slot in range(block.width):
            context = f"row {row} (m={count}) slot {slot}"
            if slot >= count:
                assert np.isinf(statistics[row, slot]), context  # padding
                continue
            keep = np.arange(count) != slot
            fix, oracle = single_oracle(positions, ranges, keep)
            assert_statistic(statistics[row, slot], oracle, context)
            if fix is not None:
                np.testing.assert_allclose(
                    fixes[row, slot], fix, rtol=0, atol=FIX_ATOL, err_msg=context
                )


class TestSingleConstellation:
    @given(
        counts=st.lists(st.integers(min_value=6, max_value=12), min_size=1, max_size=6),
        seed=st.integers(min_value=0, max_value=10_000),
        spike_at=st.integers(min_value=0, max_value=11),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_candidate_matches_its_subset_resolve(self, counts, seed, spike_at):
        # Mixed widths make a padded block; the spike may land on any
        # slot, slot 0 (the scalar solver's base) included.
        epochs = [
            build_scene(count, clock_bias_meters=BIAS, seed=seed + row, noise_sigma=1.0)
            for row, count in enumerate(counts)
        ]
        epochs[0] = spiked(epochs[0], spike_at % counts[0], 150.0)
        block = EpochBlock.from_epochs(epochs)
        check_single_block(block, np.full(len(epochs), BIAS))

    def test_degenerate_subset_is_priced_at_inf(self):
        # Five satellites lie exactly on the tilted plane x + 2y + 3z =
        # 9.6e7 m, so without the sixth the differenced design has rank
        # 2.  Rounding keeps that subset's Gram matrix invertible, and
        # its re-solve returns a meaningless fix with a near-zero
        # residual; the closed form must price it out instead.
        receiver = np.array([1.0e6, -2.0e6, 6.0e6])
        xy = np.array(
            [[1.5e7, 0.9e7], [-1.2e7, 1.8e7], [0.3e7, -0.6e7], [2.1e7, 0.3e7],
             [-0.6e7, -0.9e7]]
        )
        on_plane = np.column_stack([xy, (9.6e7 - xy[:, 0] - 2 * xy[:, 1]) / 3])
        positions = np.vstack([on_plane, [[0.3e7, 0.6e7, 3.0e7]]])
        ranges = np.linalg.norm(positions - receiver, axis=1)
        block = EpochBlock(
            positions=positions[None],
            pseudoranges=ranges[None],
            prns=np.arange(1, 7)[None],
            weeks=np.array([2000]),
            seconds_of_week=np.array([0.0]),
            truth_positions=np.full((1, 3), np.nan),
            truth_biases=np.full(1, np.nan),
        )
        solutions, _norms, system = BatchDLGSolver().solve_block_full(
            block, np.zeros(1)
        )
        np.testing.assert_allclose(solutions[0], receiver, atol=1e-3)
        statistics, _fixes = leave_one_out(system, solutions)
        assert np.isinf(statistics[0, 5])
        assert np.isfinite(statistics[0, :5]).all()
        check_single_block(block, np.zeros(1))


# -- per constellation ------------------------------------------------


def biases(layout):
    return {code: SYSTEM_BIASES[code] for code in layout}


LAYOUT = st.dictionaries(
    st.sampled_from(["G", "R", "E", "C"]),
    st.integers(min_value=2, max_value=11),
    min_size=1,
    max_size=4,
).filter(lambda layout: sum(layout.values()) - 3 - 2 * len(layout) >= 2)


def grouped_oracle(block, row, keep, parent_codes):
    """The subset's per-constellation DLG fix (biases in the parent's
    column order) and ``r^T W r``, or ``(None, inf)``."""
    occupied = np.ones(int(keep.sum()), dtype=bool)[None]
    try:
        system = build_range_systems(
            block.positions[row][keep][None],
            block.pseudoranges[row][keep][None],
            occupied,
            block.systems[row][keep][None],
        )
        solution, norm = system.solve()
    except (EstimationError, GeometryError):
        return None, np.inf
    fix = np.full(3 + parent_codes.shape[0], np.nan)
    fix[:3] = solution[0, :3]
    for column, code in enumerate(system.codes):
        fix[3 + int(np.flatnonzero(parent_codes == code)[0])] = solution[0, 3 + column]
    return fix, norm[0] ** 2


class TestPerConstellation:
    @given(
        layouts=st.lists(LAYOUT, min_size=1, max_size=4),
        seed=st.integers(min_value=0, max_value=10_000),
        spike_at=st.integers(min_value=0, max_value=43),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_candidate_matches_its_subset_resolve(self, layouts, seed, spike_at):
        # Rows differ in width and constellation set, so the block is
        # padded and most rows lack a constellation another row has.
        epochs = [
            build_scene(
                layout,
                clock_bias_meters=biases(layout),
                seed=seed + row,
                noise_sigma=0.5,
            )
            for row, layout in enumerate(layouts)
        ]
        epochs[0] = spiked(epochs[0], spike_at % epochs[0].satellite_count, 200.0)
        self.check_block(EpochBlock.from_epochs(epochs))

    def test_two_satellite_constellation_and_absent_lane(self):
        # Row 0: R has two satellites (no candidates there), E absent.
        # Row 1: E present, R absent.  Both rows are padded to width 11.
        layouts = ({"G": 7, "R": 2}, {"E": 5, "G": 4}, {"G": 8, "E": 3})
        epochs = [
            build_scene(layout, clock_bias_meters=biases(layout), seed=seed)
            for seed, layout in enumerate(layouts)
        ]
        statistics, fixes, system = self.check_block(EpochBlock.from_epochs(epochs))
        r_slots = [7, 8]
        assert np.isinf(statistics[0, r_slots]).all()
        assert np.isfinite(statistics[0, :7]).all()
        e_lane = 3 + [system_code(int(code)) for code in system.codes].index("E")
        assert np.isnan(fixes[0, :7, e_lane]).all()
        assert np.isinf(statistics[1, 9:]).all()  # padded slots

    def test_forty_four_satellites_over_four_constellations(self):
        # The large-constellation sky: 11 satellites in each of four
        # systems, beside a narrower row that lacks two of them.
        layouts = ({"G": 11, "R": 11, "E": 11, "C": 11}, {"C": 9, "G": 5})
        epochs = [
            build_scene(layout, clock_bias_meters=biases(layout), seed=seed + 7)
            for seed, layout in enumerate(layouts)
        ]
        epochs[0] = spiked(epochs[0], 30, 250.0)
        statistics, _fixes, _system = self.check_block(EpochBlock.from_epochs(epochs))
        assert np.isfinite(statistics[0]).all()
        assert int(np.argmin(statistics[0])) == 30

    def check_block(self, block):
        result = BatchDLGSolver(constellations="per_constellation").solve_block_multi(
            block
        )
        system = result.system
        statistics, fixes = leave_one_out(
            system,
            np.concatenate([result.positions, result.constellation_biases], axis=1),
        )
        for row in range(len(block)):
            count = int(block.counts[row])
            for slot in range(block.width):
                context = f"row {row} (m={count}) slot {slot}"
                if slot >= count:
                    assert np.isinf(statistics[row, slot]), context
                    continue
                keep = np.arange(block.width) < count
                keep[slot] = False
                fix, oracle = grouped_oracle(block, row, keep, system.codes)
                assert_statistic(statistics[row, slot], oracle, context)
                if fix is not None:
                    np.testing.assert_allclose(
                        fixes[row, slot, :3], fix[:3], rtol=0, atol=FIX_ATOL,
                        err_msg=context,
                    )
                    np.testing.assert_allclose(
                        fixes[row, slot, 3:], fix[3:], rtol=0, atol=BIAS_ATOL,
                        err_msg=context,
                    )
        return statistics, fixes, system


class TestSelection:
    def test_exact_tie_goes_to_the_first_candidate(self):
        gate = BatchFde(FdeConfig(sigma_meters=1.0))
        block = EpochBlock.from_epochs(
            [build_scene(7, clock_bias_meters=0.0, seed=seed) for seed in range(2)]
        )
        record = FdeRecord.unchecked(2)
        tied = np.array(
            [
                [np.inf, 2.0, 5.0, 2.0, np.inf, 9.0, 2.0],
                [np.inf, np.inf, 3.0, 1.0, 1.0, np.inf, 1.0],
            ]
        )
        repaired, picked = gate._pick(
            np.arange(2), tied, np.array([2, 2]), block, record
        )
        assert repaired.tolist() == [0, 1]
        assert picked.tolist() == [1, 3]
        assert record.excluded_prns.tolist() == [
            block.prns[0, 1], block.prns[1, 3]
        ]
