"""Tests for the diag-plus-rank-one (Sherman-Morrison) GLS fast path
and the batched centered form that answers the same problem."""

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.estimation import (
    apply_inverse_diag_rank1,
    apply_inverse_grouped_rank1,
    batched_centered_wls,
    center_segments,
    gls_solve_diag_rank1,
    gls_solve_grouped_rank1,
    gls_solve_whitened,
    grouped_covariance,
)
from repro.estimation.structured import solve_centered_wls, solve_normal_equations
from tests.estimation.test_grouped_gls import centered_form


def _random_system(rng, k=8, p=3):
    design = rng.normal(size=(k, p)) * 1e7
    observations = rng.normal(size=k) * 1e7
    diag = rng.uniform(1.0, 4.0, size=k) * 1e14
    scale = float(rng.uniform(1.0, 4.0) * 1e14)
    return design, observations, diag, scale


def _dense(diag, scale):
    return np.diag(diag) + scale * np.ones((len(diag), len(diag)))


class TestApplyInverse:
    def test_matches_dense_inverse_on_vector(self):
        rng = np.random.default_rng(7)
        _, vector, diag, scale = _random_system(rng)
        expected = np.linalg.solve(_dense(diag, scale), vector)
        np.testing.assert_allclose(
            apply_inverse_diag_rank1(diag, scale, vector), expected, rtol=1e-10
        )

    def test_matches_dense_inverse_on_matrix(self):
        rng = np.random.default_rng(8)
        design, _, diag, scale = _random_system(rng)
        expected = np.linalg.solve(_dense(diag, scale), design)
        np.testing.assert_allclose(
            apply_inverse_diag_rank1(diag, scale, design), expected, rtol=1e-10
        )

    def test_zero_scale_reduces_to_diagonal(self):
        vector = np.array([2.0, 4.0, 8.0])
        diag = np.array([2.0, 4.0, 8.0])
        np.testing.assert_allclose(
            apply_inverse_diag_rank1(diag, 0.0, vector), np.ones(3)
        )

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(EstimationError, match="positive"):
            apply_inverse_diag_rank1(np.array([1.0, 0.0]), 1.0, np.ones(2))

    def test_rejects_negative_scale(self):
        with pytest.raises(EstimationError, match="non-negative"):
            apply_inverse_diag_rank1(np.ones(2), -1.0, np.ones(2))


class TestScalarSolve:
    def test_matches_dense_gls(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            design, observations, diag, scale = _random_system(rng)
            fast_x, fast_norm = gls_solve_diag_rank1(design, observations, diag, scale)
            dense_x, dense_norm = gls_solve_whitened(
                design, observations, _dense(diag, scale)
            )
            np.testing.assert_allclose(fast_x, dense_x, rtol=1e-8)
            assert fast_norm == pytest.approx(dense_norm, rel=1e-8)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(EstimationError, match="inconsistent"):
            gls_solve_diag_rank1(np.ones((4, 3)), np.ones(5), np.ones(4), 1.0)
        with pytest.raises(EstimationError, match="diag"):
            gls_solve_diag_rank1(np.ones((4, 3)), np.ones(4), np.ones(3), 1.0)


class TestBatchedSolve:
    """The batched DLG solves the same problem as a centered weighted
    least squares (a diag+rank-one system is its member rows plus one
    zero row of variance ``s``); it must match the scalar fast path."""

    def test_matches_scalar_solve_per_system(self):
        rng = np.random.default_rng(10)
        systems = [_random_system(rng) for _ in range(6)]
        design = np.stack([s[0] for s in systems])
        observations = np.stack([s[1] for s in systems])
        diag = np.stack([s[2] for s in systems])
        scale = np.array([s[3] for s in systems])
        solutions, norms = batched_centered_wls(
            *centered_form(
                design, observations, diag, scale[:, None], np.zeros(8, dtype=int)
            )
        )
        for i, (a, b, d, s) in enumerate(systems):
            x, norm = gls_solve_diag_rank1(a, b, d, s)
            np.testing.assert_allclose(solutions[i], x, rtol=1e-8)
            assert norms[i] == pytest.approx(norm, rel=1e-8)

    def test_rejects_degenerate_design(self):
        design = np.zeros((2, 5, 3))
        observations = np.ones((2, 5))
        with pytest.raises(EstimationError, match="degenerate"):
            batched_centered_wls(design, observations, np.ones((2, 5)))


def _random_grouped(rng, k=9, p=4, k_groups=3):
    design = rng.normal(size=(k, p))
    observations = rng.normal(size=k)
    diag = rng.uniform(0.5, 2.0, size=k)
    scales = rng.uniform(0.5, 2.0, size=k_groups)
    groups = np.arange(k) % k_groups  # interleaved: ids, not slots, decide
    return design, observations, diag, scales, groups


class TestGroupedCovariance:
    def test_matches_explicit_block_sum(self):
        diag = np.array([1.0, 2.0, 3.0, 4.0])
        scales = np.array([10.0, 20.0])
        groups = np.array([0, 1, 0, 1])
        expected = np.diag(diag)
        for g, s in enumerate(scales):
            member = (groups == g).astype(float)
            expected = expected + s * np.outer(member, member)
        np.testing.assert_array_equal(
            grouped_covariance(diag, scales, groups), expected
        )

    def test_is_symmetric_positive_definite(self):
        _, _, diag, scales, groups = _random_grouped(np.random.default_rng(1))
        psi = grouped_covariance(diag, scales, groups)
        np.testing.assert_array_equal(psi, psi.T)
        assert np.all(np.linalg.eigvalsh(psi) > 0)

    def test_rejects_group_without_scale(self):
        with pytest.raises(EstimationError, match="group indices"):
            grouped_covariance(np.ones(3), np.ones(2), np.array([0, 1, 2]))

    def test_rejects_mismatched_rows(self):
        with pytest.raises(EstimationError, match="do not match"):
            grouped_covariance(np.ones(3), np.ones(1), np.zeros(4, dtype=int))


class TestApplyInverseGrouped:
    def test_matches_dense_inverse_on_vector(self):
        _, vector, diag, scales, groups = _random_grouped(np.random.default_rng(2))
        expected = np.linalg.solve(grouped_covariance(diag, scales, groups), vector)
        np.testing.assert_allclose(
            apply_inverse_grouped_rank1(diag, scales, groups, vector),
            expected,
            rtol=1e-10,
        )

    def test_matches_dense_inverse_on_matrix(self):
        design, _, diag, scales, groups = _random_grouped(np.random.default_rng(3))
        expected = np.linalg.solve(grouped_covariance(diag, scales, groups), design)
        np.testing.assert_allclose(
            apply_inverse_grouped_rank1(diag, scales, groups, design),
            expected,
            rtol=1e-10,
        )

    def test_one_group_is_the_diag_rank1_inverse(self):
        design, _, diag, scales, _ = _random_grouped(np.random.default_rng(4))
        groups = np.zeros(diag.size, dtype=int)
        np.testing.assert_allclose(
            apply_inverse_grouped_rank1(diag, scales[:1], groups, design),
            apply_inverse_diag_rank1(diag, scales[0], design),
            rtol=1e-12,
        )

    def test_rejects_negative_scale(self):
        with pytest.raises(EstimationError, match="non-negative"):
            apply_inverse_grouped_rank1(
                np.ones(2), np.array([-1.0]), np.zeros(2, dtype=int), np.ones(2)
            )


class TestGroupedSolve:
    @pytest.mark.parametrize("method", ["auto", "sherman_morrison", "dense"])
    def test_every_method_matches_dense_gls(self, method):
        design, observations, diag, scales, groups = _random_grouped(
            np.random.default_rng(5)
        )
        expected_x, expected_norm = gls_solve_whitened(
            design, observations, grouped_covariance(diag, scales, groups)
        )
        x, norm = gls_solve_grouped_rank1(
            design, observations, diag, scales, groups, method=method
        )
        np.testing.assert_allclose(x, expected_x, rtol=1e-9)
        assert norm == pytest.approx(expected_norm, rel=1e-9)

    def test_rejects_unknown_method(self):
        design, observations, diag, scales, groups = _random_grouped(
            np.random.default_rng(6)
        )
        with pytest.raises(EstimationError, match="unknown grouped GLS method"):
            gls_solve_grouped_rank1(
                design, observations, diag, scales, groups, method="qr"
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(EstimationError, match="inconsistent"):
            gls_solve_grouped_rank1(
                np.ones((4, 3)), np.ones(5), np.ones(4), np.ones(1), np.zeros(4, int)
            )


class TestNormalEquations:
    def test_matches_per_row_solve(self):
        rng = np.random.default_rng(11)
        factors = rng.normal(size=(4, 6, 3))
        gram = np.matmul(factors.transpose(0, 2, 1), factors)
        moment = rng.normal(size=(4, 3))
        solutions = solve_normal_equations(gram, moment)
        for i in range(4):
            np.testing.assert_allclose(
                solutions[i], np.linalg.solve(gram[i], moment[i]), rtol=1e-12
            )

    def test_decoupled_unknown_solves_to_zero_and_leaves_the_rest(self):
        gram = np.array([[[2.0, 0.0], [0.0, 0.0]]])
        moment = np.array([[4.0, 0.0]])
        decoupled = np.array([[False, True]])
        solutions = solve_normal_equations(gram, moment, decoupled)
        np.testing.assert_array_equal(solutions, [[2.0, 0.0]])
        # The caller's Gram matrix is not patched in place.
        assert gram[0, 1, 1] == 0.0

    def test_singular_system_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            solve_normal_equations(np.zeros((1, 2, 2)), np.ones((1, 2)))


class TestSolveCenteredWls:
    def _centered(self, seed=12):
        rng = np.random.default_rng(seed)
        stack = rng.normal(size=(3, 7, 4))  # [A | b], p = 3
        weights = rng.uniform(0.5, 2.0, size=(3, 7))
        return center_segments(stack, weights)[0], weights

    def test_skipping_norms_keeps_the_solutions(self):
        centered, weights = self._centered()
        with_norms, norms = solve_centered_wls(centered, weights)
        without, none = solve_centered_wls(centered, weights, norms=False)
        assert none is None and norms.shape == (3,)
        np.testing.assert_array_equal(without, with_norms)

    def test_reads_but_never_writes_the_stack(self):
        centered, weights = self._centered()
        before = centered.copy()
        solve_centered_wls(centered, weights)
        np.testing.assert_array_equal(centered, before)

    def test_decoupled_unknowns_come_back_nan(self):
        centered, weights = self._centered()
        centered[0, :, 2] = 0.0  # row 0 does not observe unknown 2
        decoupled = np.zeros((3, 3), dtype=bool)
        decoupled[0, 2] = True
        solutions, _norms = solve_centered_wls(centered, weights, decoupled)
        assert np.isnan(solutions[0, 2])
        assert np.all(np.isfinite(solutions[1:])) and np.all(
            np.isfinite(solutions[0, :2])
        )
