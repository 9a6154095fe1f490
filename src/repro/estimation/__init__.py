"""Least-squares estimation substrate.

The paper leans on two estimators: *ordinary* least squares (OLS,
optimal under i.i.d. residuals — used inside NR and by DLO) and
*general* least squares (GLS, optimal under correlated residuals with a
known covariance — the key to DLG, Theorem 4.2).  This package provides
both, plus weighted LS (the batched DLG's centered form) and the
linear-algebra diagnostics the solvers use to fail loudly on
degenerate geometry.
"""

from repro.estimation.linalg import (
    cholesky_solve,
    condition_number,
    is_positive_definite,
)
from repro.estimation.leastsquares import (
    LeastSquaresResult,
    ols_solve,
    ols_solve_full,
    weighted_solve,
    gls_solve,
    gls_solve_whitened,
    gls_solve_full,
)
from repro.estimation.structured import (
    apply_inverse_diag_rank1,
    apply_inverse_grouped_rank1,
    batched_centered_wls,
    center_segments,
    gls_solve_diag_rank1,
    gls_solve_grouped_rank1,
    grouped_covariance,
)

__all__ = [
    "cholesky_solve",
    "condition_number",
    "is_positive_definite",
    "LeastSquaresResult",
    "ols_solve",
    "ols_solve_full",
    "weighted_solve",
    "gls_solve",
    "gls_solve_whitened",
    "gls_solve_full",
    "apply_inverse_diag_rank1",
    "apply_inverse_grouped_rank1",
    "batched_centered_wls",
    "center_segments",
    "gls_solve_diag_rank1",
    "gls_solve_grouped_rank1",
    "grouped_covariance",
]
