"""Differential regression: Sherman-Morrison GLS vs dense Cholesky.

The eq. 4-26 fast path (:func:`gls_solve_diag_rank1`), the batched
centered weighted least squares (:func:`batched_centered_wls`) and the
dense :func:`gls_solve_whitened` answer the *same* mathematical problem
by different factorizations; this suite pins their agreement across 50
seeded random diag-plus-rank-one covariances, at GPS-realistic scales,
so a refactor of either path that silently changes the answer fails
loudly here before it shows up as a positioning drift.
"""

import numpy as np
import pytest

from repro.estimation import (
    batched_centered_wls,
    gls_solve,
    gls_solve_diag_rank1,
    gls_solve_whitened,
)
from tests.estimation.test_grouped_gls import centered_form

#: ISSUE acceptance bound: both paths agree to 1e-9 (relative).  The
#: two factorizations share O(eps * cond) rounding, so with the mild
#: condition numbers below the observed spread is ~1e-12; 1e-9 leaves
#: three decades of headroom without masking a real algorithmic change.
AGREEMENT_RTOL = 1e-9

#: Trials required by the issue checklist.
TRIALS = 50


def _random_case(seed):
    """One seeded diag+rank-1 GLS system at GPS difference scales.

    Sizes sweep the real constellation range (k = 4..12 equations,
    3 unknowns); design rows are O(1) unit line-of-sight differences,
    observations O(1e5) linearized range differences, and the
    covariance components O(rho^2) = O(1e14) like eq. 4-26.
    """
    rng = np.random.default_rng(seed)
    k = int(rng.integers(4, 13))
    design = rng.uniform(-2.0, 2.0, size=(k, 3))
    observations = rng.uniform(-1.0, 1.0, size=k) * 1.0e5
    diag = rng.uniform(0.5, 4.0, size=k) * 1.0e14
    # Every fifth trial degenerates the rank-one term to zero: the
    # Sherman-Morrison correction must vanish cleanly, not blow up.
    scale = 0.0 if seed % 5 == 4 else float(rng.uniform(0.5, 4.0) * 1.0e14)
    return design, observations, diag, scale


def _dense(diag, scale):
    return np.diag(diag) + scale * np.ones((len(diag), len(diag)))


class TestShermanMorrisonVsDenseCholesky:
    @pytest.mark.parametrize("seed", range(TRIALS))
    def test_solutions_agree(self, seed):
        design, observations, diag, scale = _random_case(seed)
        fast, _ = gls_solve_diag_rank1(design, observations, diag, scale)
        dense = gls_solve(design, observations, _dense(diag, scale))
        np.testing.assert_allclose(fast, dense, rtol=AGREEMENT_RTOL)

    @pytest.mark.parametrize("seed", range(TRIALS))
    def test_whitened_residual_norms_agree(self, seed):
        design, observations, diag, scale = _random_case(seed)
        _, fast_norm = gls_solve_diag_rank1(design, observations, diag, scale)
        _, dense_norm = gls_solve_whitened(design, observations, _dense(diag, scale))
        assert fast_norm == pytest.approx(dense_norm, rel=AGREEMENT_RTOL)

    def test_batched_path_matches_dense_per_row(self):
        # The batched centered weighted least squares (the system's
        # member rows plus one zero row of variance ``scale``) must
        # agree with N independent dense solves — same bound, so the
        # three implementations pin each other pairwise.
        n, k = 12, 8
        rng = np.random.default_rng(123)
        design = rng.uniform(-2.0, 2.0, size=(n, k, 3))
        observations = rng.uniform(-1.0, 1.0, size=(n, k)) * 1.0e5
        diag = rng.uniform(0.5, 4.0, size=(n, k)) * 1.0e14
        scale = rng.uniform(0.5, 4.0, size=n) * 1.0e14
        solutions, norms = batched_centered_wls(
            *centered_form(
                design, observations, diag, scale[:, None], np.zeros(k, dtype=int)
            )
        )
        for row in range(n):
            expected, expected_norm = gls_solve_whitened(
                design[row], observations[row], _dense(diag[row], scale[row])
            )
            np.testing.assert_allclose(
                solutions[row], expected, rtol=AGREEMENT_RTOL
            )
            assert norms[row] == pytest.approx(expected_norm, rel=AGREEMENT_RTOL)

    def test_observed_agreement_has_headroom(self):
        # Guard the guard: if the typical spread creeps toward the
        # 1e-9 bound (e.g. a worse-conditioned refactor), surface it
        # before individual trials start flaking.
        worst = 0.0
        for seed in range(TRIALS):
            design, observations, diag, scale = _random_case(seed)
            fast, _ = gls_solve_diag_rank1(design, observations, diag, scale)
            dense = gls_solve(design, observations, _dense(diag, scale))
            denom = max(float(np.max(np.abs(dense))), 1e-30)
            worst = max(worst, float(np.max(np.abs(fast - dense))) / denom)
        assert worst < AGREEMENT_RTOL / 10.0
