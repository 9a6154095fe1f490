"""Tests for the diag-plus-rank-one (Sherman-Morrison) GLS fast path
and the batched centered form that answers the same problem."""

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.estimation import (
    apply_inverse_diag_rank1,
    batched_centered_wls,
    gls_solve_diag_rank1,
    gls_solve_whitened,
)
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
