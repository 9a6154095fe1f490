"""The centered weighted least squares against the grouped GLS.

``Psi = diag(d) + sum_g s_g 1_g 1_g^T`` is the multi-constellation
difference covariance: one rank-one block per base satellite.  A
differenced system under that covariance is the same estimation
problem as the centered weighted least squares of its member rows plus
one zero row of variance ``s_g`` per group (the base, whose nuisance
constant differencing cancels).  The batched centered kernel must
therefore agree with explicit dense GLS solves to float64 round-off.
"""

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.estimation import (
    batched_centered_wls,
    center_segments,
    gls_solve_diag_rank1,
)


def random_grouped_system(n=5, k=9, p=5, k_groups=2, seed=0):
    rng = np.random.default_rng(seed)
    design = rng.normal(size=(n, k, p))
    observations = rng.normal(size=(n, k))
    diag = rng.uniform(0.5, 2.0, size=(n, k))
    scales = rng.uniform(0.5, 2.0, size=(n, k_groups))
    # Contiguous groups, every group non-empty (as the difference
    # system builder produces them).
    bounds = np.linspace(0, k, k_groups + 1).astype(int)
    groups = np.concatenate(
        [np.full(bounds[i + 1] - bounds[i], i) for i in range(k_groups)]
    )
    return design, observations, diag, scales, groups


def centered_form(design, observations, diag, scales, groups):
    """The grouped GLS system as centered-WLS arguments: the member
    rows with weight ``1/d`` plus one zero row of weight ``1/s_g`` in
    each group's segment."""
    n, k, p = design.shape
    k_groups = scales.shape[1]
    groups = np.broadcast_to(groups, (n, k))
    return (
        np.concatenate([design, np.zeros((n, k_groups, p))], axis=1),
        np.concatenate([observations, np.zeros((n, k_groups))], axis=1),
        np.concatenate([1.0 / diag, 1.0 / scales], axis=1),
        np.concatenate(
            [groups, np.broadcast_to(np.arange(k_groups), (n, k_groups))], axis=1
        ),
    )


def dense_reference(design, observations, diag, scales, groups):
    n, k, _ = design.shape
    solutions, norms = [], []
    for index in range(n):
        psi = np.diag(diag[index])
        for group in range(scales.shape[1]):
            ones = (groups == group).astype(float)
            psi += scales[index, group] * np.outer(ones, ones)
        psi_inv = np.linalg.inv(psi)
        gram = design[index].T @ psi_inv @ design[index]
        moment = design[index].T @ psi_inv @ observations[index]
        solution = np.linalg.solve(gram, moment)
        residual = observations[index] - design[index] @ solution
        solutions.append(solution)
        norms.append(np.sqrt(residual @ psi_inv @ residual))
    return np.stack(solutions), np.array(norms)


def batched_gls_solve_grouped_rank1(design, observations, diag, scales, groups):
    """Dense-Cholesky GLS for N grouped diag+rank-one systems: every
    ``diag(d) + sum_g s_g 1_g 1_g^T`` covariance is materialized and
    factorized, with one shared ``(k,)`` group layout."""
    n, k, _p = design.shape
    same_group = groups[:, None] == groups[None, :]
    psi = np.where(same_group, scales[:, groups][:, None, :], 0.0)
    psi[:, np.arange(k), np.arange(k)] += diag
    chol = np.linalg.cholesky(psi)
    white_a = np.linalg.solve(chol, design)
    white_b = np.linalg.solve(chol, observations[..., None])[..., 0]
    gram = np.einsum("nki,nkj->nij", white_a, white_a)
    moment = np.einsum("nki,nk->ni", white_a, white_b)
    solutions = np.linalg.solve(gram, moment[..., None])[..., 0]
    residuals = observations - np.einsum("nki,ni->nk", design, solutions)
    white_r = np.linalg.solve(chol, residuals[..., None])[..., 0]
    return solutions, np.sqrt(np.einsum("nk,nk->n", white_r, white_r))


class TestGroupedGls:
    @pytest.mark.parametrize("k_groups", [1, 2, 3, 4])
    def test_matches_dense_reference(self, k_groups):
        system = random_grouped_system(k=3 + 3 * k_groups, k_groups=k_groups)
        solutions, norms = batched_centered_wls(*centered_form(*system))
        expected_solutions, expected_norms = dense_reference(*system)
        assert np.allclose(solutions, expected_solutions, atol=1e-9)
        assert np.allclose(norms, expected_norms, atol=1e-9)

    def test_dense_oracle_matches_centered(self):
        system = random_grouped_system(k_groups=3, k=12, seed=4)
        centered = batched_centered_wls(*centered_form(*system))
        dense = batched_gls_solve_grouped_rank1(*system)
        assert np.allclose(centered[0], dense[0], atol=1e-9)
        assert np.allclose(centered[1], dense[1], atol=1e-9)

    def test_single_segment_matches_rank1_solve(self):
        # segments=None (one segment per row) is the single-clock DLG:
        # it must reproduce the scalar diag+rank-one Sherman-Morrison
        # solve row by row.
        design, observations, diag, scales, groups = random_grouped_system(
            k_groups=1, seed=7
        )
        stacked, observed, weights, _segments = centered_form(
            design, observations, diag, scales, groups
        )
        solutions, norms = batched_centered_wls(stacked, observed, weights)
        for row in range(design.shape[0]):
            x, norm = gls_solve_diag_rank1(
                design[row], observations[row], diag[row], scales[row, 0]
            )
            assert np.allclose(solutions[row], x, atol=1e-10)
            assert norms[row] == pytest.approx(norm, abs=1e-10)

    def test_segments_follow_their_ids_not_their_slots(self):
        # Interleaving the groups' slots (and renumbering the groups)
        # changes nothing: each slot is centered in its own segment.
        system = random_grouped_system(k_groups=3, k=12, seed=5)
        stacked, observed, weights, segments = centered_form(*system)
        order = np.random.default_rng(1).permutation(stacked.shape[1])
        relabel = np.array([2, 0, 1])
        shuffled = batched_centered_wls(
            stacked[:, order], observed[:, order], weights[:, order],
            relabel[segments[:, order]],
        )
        reference = batched_centered_wls(stacked, observed, weights, segments)
        assert np.allclose(shuffled[0], reference[0], atol=1e-10)
        assert np.allclose(shuffled[1], reference[1], atol=1e-10)

    def test_zero_weight_slots_take_no_part(self):
        system = random_grouped_system(k_groups=2, k=10, seed=6)
        stacked, observed, weights, segments = centered_form(*system)
        padded = [
            np.concatenate([array, np.zeros_like(array[:, :2])], axis=1)
            for array in (stacked, observed, weights, segments)
        ]
        narrow = batched_centered_wls(stacked, observed, weights, segments)
        wide = batched_centered_wls(*padded)
        assert np.allclose(wide[0], narrow[0], atol=1e-12)
        assert np.allclose(wide[1], narrow[1], atol=1e-12)

    def test_rejects_degenerate_design(self):
        design, observations, diag, scales, groups = random_grouped_system()
        design[:, :, 1] = design[:, :, 0]  # rank-deficient columns
        with pytest.raises(EstimationError, match="degenerate"):
            batched_centered_wls(
                *centered_form(design, observations, diag, scales, groups)
            )

    def test_rejects_negative_weights(self):
        stacked, observed, weights, segments = centered_form(*random_grouped_system())
        weights[0, 0] = -1.0
        with pytest.raises(EstimationError, match="non-negative"):
            batched_centered_wls(stacked, observed, weights, segments)


class TestCenterSegments:
    @pytest.mark.parametrize("segmented", [False, True])
    def test_constant_column_centers_to_exactly_zero(self, segmented):
        # Coplanar satellites share one coordinate exactly; it must
        # center to 0.0, not to rounding noise, so the degenerate
        # geometry stays singular instead of solving to garbage.
        rng = np.random.default_rng(11)
        n, m = 200, 9
        stack = rng.normal(size=(n, m, 3)) * 1e7
        stack[..., 2] = 2.0e7 + 602359.0
        weights = 1.0 / rng.uniform(2.0e7, 2.6e7, size=(n, m)) ** 2
        segments = rng.integers(0, 3, size=(n, m)) if segmented else None
        centered, _totals = center_segments(stack, weights, segments)
        assert np.all(centered[..., 2] == 0.0)
