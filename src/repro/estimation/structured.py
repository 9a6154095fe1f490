"""Structured-covariance least squares: the diagonal-plus-rank-one path.

The eq. 4-26 difference covariance is not an arbitrary dense matrix:
every off-diagonal entry is the shared base-satellite variance, so

    Psi = diag(d) + s * 1 1^T,   d_j = rho_j^2,  s = rho_base^2.

That structure admits the Sherman-Morrison identity

    Psi^-1 = D^-1 - (s / (1 + s * sum(1/d))) * D^-1 1 1^T D^-1,

so applying ``Psi^-1`` costs O(k) per vector instead of the O(k^3)
Cholesky factorization that a dense GLS solve pays — and, unlike a
factorization, it vectorizes trivially across a whole ``(N, k)`` stack
of epochs.  This module is the shared fast path behind the scalar
:class:`~repro.solvers.direct_linear.DLGSolver` and the batch engine's
:class:`~repro.solvers.batch.BatchDLGSolver`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.errors import EstimationError
from repro.estimation.linalg import cholesky_solve
from repro.telemetry import get_registry

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.estimation.workspace import KernelWorkspace


# Per-registry cached counter children for _count_gls_path: it runs
# once per kernel call on the serving path, where the uncached
# name -> family -> child lookup costs more than the increment.
_GLS_PATH_CACHE: Tuple[object, Dict[str, object]] = (None, {})


def _count_gls_path(path: str, solves: int = 1) -> None:
    """Record which GLS implementation answered (telemetry only).

    The Sherman-Morrison fast path and the dense-Cholesky fallback
    produce identical answers, so *which one ran* is invisible without
    this counter — yet it is exactly what a perf investigation needs.
    """
    global _GLS_PATH_CACHE
    registry = get_registry()
    if not registry.enabled:
        return
    cached_registry, children = _GLS_PATH_CACHE
    if cached_registry is not registry:
        children = {}
        _GLS_PATH_CACHE = (registry, children)
    child = children.get(path)
    if child is None:
        child = registry.counter(
            "repro_estimation_gls_solves_total",
            "GLS solves by implementation path.",
            labels=("path",),
        ).labels(path=path)
        children[path] = child
    child.inc(solves)


def _validate_components(diag: np.ndarray, scale: np.ndarray) -> None:
    # +inf is a legal diagonal entry: infinite variance is zero weight,
    # the padded slot of a padded block (its design/rhs rows are zero).
    if not np.all(diag > 0):
        raise EstimationError(
            "diag-plus-rank-one covariance needs positive diagonal terms"
        )
    if not np.all(np.isfinite(scale)) or np.any(scale < 0):
        raise EstimationError(
            "diag-plus-rank-one covariance needs a non-negative finite rank-one scale"
        )


def apply_inverse_diag_rank1(
    diag: np.ndarray,
    scale: float,
    matrix: np.ndarray,
) -> np.ndarray:
    """``(diag(d) + s 11^T)^-1 @ matrix`` without forming the matrix.

    Parameters
    ----------
    diag:
        ``(k,)`` positive diagonal entries ``d``.
    scale:
        Non-negative rank-one scale ``s``.
    matrix:
        ``(k,)`` vector or ``(k, p)`` matrix to multiply.
    """
    d = np.asarray(diag, dtype=float)
    s = float(scale)
    v = np.asarray(matrix, dtype=float)
    _validate_components(d, np.asarray(s))
    inv_d = 1.0 / d
    denominator = 1.0 + s * float(inv_d.sum())
    u = v * (inv_d[:, None] if v.ndim == 2 else inv_d)
    column_sums = u.sum(axis=0)
    correction = (s / denominator) * column_sums
    if v.ndim == 2:
        return u - inv_d[:, None] * correction[None, :]
    return u - inv_d * correction


def gls_solve_diag_rank1(
    design: np.ndarray,
    observations: np.ndarray,
    diag: np.ndarray,
    scale: float,
) -> Tuple[np.ndarray, float]:
    """GLS with a ``diag(d) + s 11^T`` covariance, O(k) whitening.

    Solves ``x = (A^T Psi^-1 A)^-1 A^T Psi^-1 b`` (eq. 4-21) using the
    Sherman-Morrison inverse, and returns the solution together with
    the whitened (Mahalanobis) residual norm ``sqrt(r^T Psi^-1 r)`` —
    identical, up to float error, to what the dense
    :func:`~repro.estimation.leastsquares.gls_solve_whitened` returns
    for the materialized covariance, at a fraction of the cost.
    """
    a = np.asarray(design, dtype=float)
    b = np.asarray(observations, dtype=float)
    if a.ndim != 2 or b.shape != (a.shape[0],):
        raise EstimationError(
            f"design {a.shape} and observations {b.shape} are inconsistent"
        )
    d = np.asarray(diag, dtype=float)
    if d.shape != (a.shape[0],):
        raise EstimationError(
            f"diag shape {d.shape} does not match {a.shape[0]} equations"
        )
    _count_gls_path("sherman_morrison")
    psi_inv_design = apply_inverse_diag_rank1(d, scale, a)
    psi_inv_obs = apply_inverse_diag_rank1(d, scale, b)
    solution = cholesky_solve(a.T @ psi_inv_design, a.T @ psi_inv_obs)
    residuals = b - a @ solution
    mahalanobis_sq = float(residuals @ apply_inverse_diag_rank1(d, scale, residuals))
    return solution, float(np.sqrt(max(mahalanobis_sq, 0.0)))


def batched_apply_inverse_diag_rank1(
    diag: np.ndarray,
    scale: np.ndarray,
    stack: np.ndarray,
) -> np.ndarray:
    """Batched ``Psi^-1 @ v`` for N independent diag+rank-one systems.

    Parameters
    ----------
    diag:
        ``(N, k)`` positive diagonals.
    scale:
        ``(N,)`` non-negative rank-one scales.
    stack:
        ``(N, k)`` vectors or ``(N, k, p)`` matrices.
    """
    d = np.asarray(diag, dtype=float)
    s = np.asarray(scale, dtype=float)
    v = np.asarray(stack, dtype=float)
    _validate_components(d, s)
    inv_d = 1.0 / d  # (N, k)
    denominator = 1.0 + s * inv_d.sum(axis=1)  # (N,)
    if v.ndim == 3:
        u = v * inv_d[:, :, None]
        correction = (s / denominator)[:, None] * u.sum(axis=1)  # (N, p)
        return u - inv_d[:, :, None] * correction[:, None, :]
    u = v * inv_d
    correction = (s / denominator) * u.sum(axis=1)  # (N,)
    return u - inv_d * correction[:, None]


def batched_gls_solve_diag_rank1(
    design: np.ndarray,
    observations: np.ndarray,
    diag: np.ndarray,
    scale: np.ndarray,
    workspace: "Optional[KernelWorkspace]" = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """One stacked GLS solve for N diag+rank-one systems.

    Parameters
    ----------
    design:
        ``(N, k, p)`` stacked design matrices.
    observations:
        ``(N, k)`` stacked right-hand sides.
    diag, scale:
        ``(N, k)`` diagonals and ``(N,)`` rank-one scales of the per-
        system covariances.  A ``+inf`` diagonal entry gives its row
        zero weight (its design and right-hand-side rows must be zero):
        the padded slots of a padded block solve exactly like the
        narrower system without them.
    workspace:
        Optional :class:`~repro.estimation.workspace.KernelWorkspace`
        supplying the whitening scratch tensors, so repeated solves of
        the same block shape allocate nothing.  Results are bitwise
        independent of whether a workspace is passed.

    Returns
    -------
    (solutions, whitened_norms)
        ``(N, p)`` solutions and ``(N,)`` Mahalanobis residual norms.

    The design and right-hand side are whitened as one fused ``[A | b]``
    stack: the Sherman-Morrison correction is column-independent
    (elementwise scaling plus a per-column axis-k reduction), so the
    fused pass is bitwise identical to whitening them separately while
    touching the diagonal/denominator arithmetic once instead of twice.
    """
    a = np.asarray(design, dtype=float)
    b = np.asarray(observations, dtype=float)
    if a.ndim != 3 or b.shape != a.shape[:2]:
        raise EstimationError(
            f"batched design {a.shape} and observations {b.shape} are inconsistent"
        )
    d = np.asarray(diag, dtype=float)
    s = np.asarray(scale, dtype=float)
    _validate_components(d, s)
    _count_gls_path("sherman_morrison_batched", solves=a.shape[0])
    n, k, p = a.shape

    def _scratch(name: str, shape: Tuple[int, ...]) -> np.ndarray:
        if workspace is not None:
            return workspace.buffer(name, shape, a.dtype)
        return np.empty(shape, dtype=a.dtype)

    # Fused [A | b] whitening through the Sherman-Morrison identity.
    ab = _scratch("gls_ab", (n, k, p + 1))
    ab[..., :p] = a
    ab[..., p] = b
    inv_d = 1.0 / d  # (N, k)
    coefficient = s / (1.0 + s * inv_d.sum(axis=1))  # (N,)
    whitened = np.multiply(ab, inv_d[:, :, None], out=_scratch("gls_u", (n, k, p + 1)))
    correction = coefficient[:, None] * whitened.sum(axis=1)  # (N, p+1)
    whitened -= np.multiply(
        inv_d[:, :, None], correction[:, None, :], out=ab
    )
    # One contraction gives the normal equations' [gram | moment]
    # (matmul: the stacked small products run far faster than einsum).
    normal = np.matmul(a.transpose(0, 2, 1), whitened)  # (N, p, p+1)
    try:
        solutions = np.linalg.solve(normal[..., :p], normal[..., p:])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise EstimationError(
            "a batched GLS system is degenerate (rank-deficient design)"
        ) from exc
    residuals = b - np.einsum("nki,ni->nk", a, solutions)
    # r^T Psi^-1 r through the same Sherman-Morrison pass (no
    # re-validation, inverse diagonal and coefficient reused).
    scaled = residuals * inv_d
    scaled -= inv_d * (coefficient * scaled.sum(axis=1))[:, None]
    mahalanobis_sq = np.einsum("nk,nk->n", residuals, scaled)
    return solutions, np.sqrt(np.maximum(mahalanobis_sq, 0.0))


# ----------------------------------------------------------------------
# Grouped (diag + rank-K block) structure: the multi-constellation
# generalization.  Differencing each constellation against its own base
# satellite makes the eq. 4-26 covariance *block*-diagonal — one
# diag+rank-one block per constellation, zero covariance across
# constellations (independent base satellites):
#
#     Psi = diag(d) + sum_g s_g 1_g 1_g^T,
#
# where 1_g is the indicator of rows in group g and s_g the squared
# pseudorange of group g's base satellite.  Sherman-Morrison applies
# per block, so the O(k) structure survives: each group needs only its
# own inverse-diagonal sum and column sums.
# ----------------------------------------------------------------------


def _validate_grouped(
    diag: np.ndarray, scales: np.ndarray, groups: np.ndarray
) -> int:
    """Common validation; returns the group count K.

    ``groups`` is ``(k,)`` (one layout shared by every row) or, for the
    batched kernels, ``(N, k)`` per-row layouts where ``-1`` marks a
    zero-weight row (``+inf`` diagonal) that belongs to no group.
    """
    if groups.ndim not in (1, 2) or (groups.ndim == 2 and diag.ndim != 2):
        raise EstimationError(f"groups must be (k,) or (N, k), got {groups.shape}")
    if diag.shape[-1] != groups.shape[-1] or (
        groups.ndim == 2 and groups.shape != diag.shape
    ):
        raise EstimationError(
            f"diag rows ({diag.shape[-1]}) do not match groups ({groups.shape[-1]})"
        )
    k_groups = int(scales.shape[-1])
    low = -1 if groups.ndim == 2 else 0
    if groups.size and (groups.min() < low or groups.max() >= k_groups):
        raise EstimationError(
            f"group indices must be in [0, {k_groups - 1}] to match scales"
        )
    if not np.all(diag > 0):
        raise EstimationError(
            "grouped covariance needs positive diagonal terms"
        )
    if not np.all(np.isfinite(scales)) or np.any(scales < 0):
        raise EstimationError(
            "grouped covariance needs non-negative finite rank-one scales"
        )
    return k_groups


def _group_indicator(groups: np.ndarray, k_groups: int) -> np.ndarray:
    """One-hot membership (float64, for matmul): ``(k, K)`` for a shared
    layout, ``(N, k, K)`` for per-row layouts (``-1`` rows all zero)."""
    return (groups[..., None] == np.arange(k_groups)).astype(float)


def grouped_covariance(
    diag: np.ndarray, scales: np.ndarray, groups: np.ndarray
) -> np.ndarray:
    """Materialize the dense ``diag(d) + sum_g s_g 1_g 1_g^T`` matrix.

    The dense-Cholesky fallback (and the differential oracle for the
    grouped Sherman-Morrison path) needs the explicit matrix; at
    O(k^2) storage this stays off the hot path.
    """
    d = np.asarray(diag, dtype=float)
    s = np.asarray(scales, dtype=float)
    g = np.asarray(groups, dtype=np.int64)
    _validate_grouped(d, s, g)
    same_group = g[:, None] == g[None, :]
    psi = np.where(same_group, s[g][None, :], 0.0)
    psi[np.arange(g.size), np.arange(g.size)] += d
    return psi


def apply_inverse_grouped_rank1(
    diag: np.ndarray,
    scales: np.ndarray,
    groups: np.ndarray,
    matrix: np.ndarray,
) -> np.ndarray:
    """``Psi^-1 @ matrix`` for the grouped diag+rank-one structure.

    Parameters
    ----------
    diag:
        ``(k,)`` positive diagonal entries.
    scales:
        ``(K,)`` non-negative per-group rank-one scales.
    groups:
        ``(k,)`` group index of every row, values in ``[0, K)``.
    matrix:
        ``(k,)`` vector or ``(k, p)`` matrix to multiply.
    """
    d = np.asarray(diag, dtype=float)
    s = np.asarray(scales, dtype=float)
    g = np.asarray(groups, dtype=np.int64)
    v = np.asarray(matrix, dtype=float)
    k_groups = _validate_grouped(d, s, g)
    inv_d = 1.0 / d
    inv_sums = np.bincount(g, weights=inv_d, minlength=k_groups)  # (K,)
    denominator = 1.0 + s * inv_sums  # (K,)
    coefficient = s / denominator  # (K,)
    if v.ndim == 2:
        u = v * inv_d[:, None]
        group_sums = _group_indicator(g, k_groups).T @ u  # (K, p)
        return u - inv_d[:, None] * (coefficient[g, None] * group_sums[g, :])
    u = v * inv_d
    group_sums = np.bincount(g, weights=u, minlength=k_groups)  # (K,)
    return u - inv_d * (coefficient[g] * group_sums[g])


def gls_solve_grouped_rank1(
    design: np.ndarray,
    observations: np.ndarray,
    diag: np.ndarray,
    scales: np.ndarray,
    groups: np.ndarray,
    method: str = "auto",
) -> Tuple[np.ndarray, float]:
    """GLS under the grouped diag+rank-one covariance.

    ``method`` selects the implementation: ``"auto"`` (the grouped
    Sherman-Morrison fast path), ``"sherman_morrison"`` explicitly, or
    ``"dense"`` — materialize the covariance and run the dense-Cholesky
    :func:`~repro.estimation.leastsquares.gls_solve_whitened`, the
    fallback/oracle for the structured path.  All methods agree to
    float rounding.
    """
    a = np.asarray(design, dtype=float)
    b = np.asarray(observations, dtype=float)
    if a.ndim != 2 or b.shape != (a.shape[0],):
        raise EstimationError(
            f"design {a.shape} and observations {b.shape} are inconsistent"
        )
    d = np.asarray(diag, dtype=float)
    s = np.asarray(scales, dtype=float)
    g = np.asarray(groups, dtype=np.int64)
    if method not in ("auto", "sherman_morrison", "dense"):
        raise EstimationError(f"unknown grouped GLS method {method!r}")
    if method == "dense":
        from repro.estimation.leastsquares import gls_solve_whitened

        psi = grouped_covariance(d, s, g)
        return gls_solve_whitened(a, b, psi)
    _validate_grouped(d, s, g)
    if d.shape != (a.shape[0],):
        raise EstimationError(
            f"diag shape {d.shape} does not match {a.shape[0]} equations"
        )
    _count_gls_path("grouped_sherman_morrison")
    psi_inv_design = apply_inverse_grouped_rank1(d, s, g, a)
    psi_inv_obs = apply_inverse_grouped_rank1(d, s, g, b)
    solution = cholesky_solve(a.T @ psi_inv_design, a.T @ psi_inv_obs)
    residuals = b - a @ solution
    mahalanobis_sq = float(
        residuals @ apply_inverse_grouped_rank1(d, s, g, residuals)
    )
    return solution, float(np.sqrt(max(mahalanobis_sq, 0.0)))


def _batched_grouped_whiten(
    inv_d: np.ndarray,
    scales: np.ndarray,
    indicator: np.ndarray,
    stack: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``Psi^-1 @ stack`` for ``(N, k, q)`` stacks under per-row group
    layouts given as an ``(N, k, K)`` one-hot ``indicator``."""
    inv_sums = np.matmul(inv_d[:, None, :], indicator)[:, 0, :]  # (N, K)
    coefficient = scales / (1.0 + scales * inv_sums)  # (N, K)
    u = np.multiply(stack, inv_d[:, :, None], out=out)
    group_sums = np.matmul(indicator.transpose(0, 2, 1), u)  # (N, K, q)
    # Each row's own group's correction: the one-hot product picks it
    # (one non-zero term per row, so no rounding enters).
    correction = np.matmul(indicator, coefficient[:, :, None] * group_sums)
    u -= inv_d[:, :, None] * correction
    return u


def batched_apply_inverse_grouped_rank1(
    diag: np.ndarray,
    scales: np.ndarray,
    groups: np.ndarray,
    stack: np.ndarray,
) -> np.ndarray:
    """Batched ``Psi^-1 @ v`` for N grouped diag+rank-one systems.

    Parameters
    ----------
    diag:
        ``(N, k)`` positive diagonals (``+inf`` for zero-weight rows).
    scales:
        ``(N, K)`` non-negative per-group scales.
    groups:
        ``(k,)`` layout shared by the batch, or ``(N, k)`` per-row
        layouts (``-1`` for zero-weight rows).
    stack:
        ``(N, k)`` vectors or ``(N, k, p)`` matrices.
    """
    d = np.asarray(diag, dtype=float)
    s = np.asarray(scales, dtype=float)
    g = np.asarray(groups, dtype=np.int64)
    v = np.asarray(stack, dtype=float)
    k_groups = _validate_grouped(d, s, g)
    g = np.broadcast_to(g, d.shape)
    whitened = _batched_grouped_whiten(
        1.0 / d, s, _group_indicator(g, k_groups), v if v.ndim == 3 else v[..., None]
    )
    return whitened if v.ndim == 3 else whitened[..., 0]


def batched_gls_solve_grouped_rank1(
    design: np.ndarray,
    observations: np.ndarray,
    diag: np.ndarray,
    scales: np.ndarray,
    groups: np.ndarray,
    workspace: "Optional[KernelWorkspace]" = None,
    method: str = "auto",
    decoupled: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """One stacked GLS solve for N grouped diag+rank-one systems.

    The rank-K generalization of :func:`batched_gls_solve_diag_rank1`:
    same fused ``[A | b]`` whitening, with the per-column axis-k
    reduction replaced by K per-group reductions through an
    ``(N, k, K)`` one-hot membership, so every row may carry its own
    group layout (``groups`` of shape ``(N, k)``; a shared ``(k,)``
    layout is broadcast).  ``method="dense"`` runs the batched
    dense-Cholesky fallback instead — O(k^3) per epoch, finite
    diagonals only, used as the structured path's oracle.

    ``decoupled`` optionally marks ``(N, p)`` unknowns a row does not
    observe at all (a constellation absent from that epoch, whose
    design column is zero): each gets a unit Gram diagonal, so it
    decouples from the rest of the row's system, and a NaN solution.

    Returns ``(solutions (N, p), whitened_norms (N,))``.
    """
    a = np.asarray(design, dtype=float)
    b = np.asarray(observations, dtype=float)
    if a.ndim != 3 or b.shape != a.shape[:2]:
        raise EstimationError(
            f"batched design {a.shape} and observations {b.shape} are inconsistent"
        )
    d = np.asarray(diag, dtype=float)
    s = np.asarray(scales, dtype=float)
    g = np.asarray(groups, dtype=np.int64)
    k_groups = _validate_grouped(d, s, g)
    if method not in ("auto", "sherman_morrison", "dense"):
        raise EstimationError(f"unknown grouped GLS method {method!r}")
    n, k, p = a.shape
    g = np.broadcast_to(g, (n, k))
    if method == "dense":
        _count_gls_path("dense_cholesky_batched", solves=n)
        same_group = (g[:, :, None] == g[:, None, :]) & (g[:, :, None] >= 0)
        group_scales = np.take_along_axis(s, np.maximum(g, 0), axis=1)
        psi = np.where(same_group, group_scales[:, None, :], 0.0)
        psi[:, np.arange(k), np.arange(k)] += d
        try:
            chol = np.linalg.cholesky(psi)
            white_a = np.linalg.solve(chol, a)
            white_b = np.linalg.solve(chol, b[..., None])[..., 0]
            gram = np.einsum("nki,nkj->nij", white_a, white_a)
            moment = np.einsum("nki,nk->ni", white_a, white_b)
            solutions = solve_normal_equations(gram, moment, decoupled)
        except np.linalg.LinAlgError as exc:
            raise EstimationError(
                "a batched grouped GLS system is degenerate"
            ) from exc
        residuals = b - np.einsum("nki,ni->nk", a, solutions)
        white_r = np.linalg.solve(chol, residuals[..., None])[..., 0]
        norms = np.sqrt(np.einsum("nk,nk->n", white_r, white_r))
        return _mark_decoupled(solutions, decoupled), norms
    _count_gls_path("grouped_sherman_morrison_batched", solves=n)

    def _scratch(name: str, shape: Tuple[int, ...]) -> np.ndarray:
        if workspace is not None:
            return workspace.buffer(name, shape, a.dtype)
        return np.empty(shape, dtype=a.dtype)

    indicator = _group_indicator(g, k_groups)  # (N, k, K)
    inv_d = 1.0 / d  # (N, k); 0 on zero-weight rows
    ab = _scratch("grouped_gls_ab", (n, k, p + 1))
    ab[..., :p] = a
    ab[..., p] = b
    whitened = _batched_grouped_whiten(
        inv_d, s, indicator, ab, out=_scratch("grouped_gls_u", (n, k, p + 1))
    )
    # (einsum over a contiguous copy: on the strided slice it runs an
    # order of magnitude slower, with the same reduction order)
    gram = np.einsum("nki,nkj->nij", a, np.ascontiguousarray(whitened[..., :p]))
    moment = np.einsum("nki,nk->ni", a, whitened[..., p])
    try:
        solutions = solve_normal_equations(gram, moment, decoupled)
    except np.linalg.LinAlgError as exc:
        raise EstimationError(
            "a batched grouped GLS system is degenerate (rank-deficient design)"
        ) from exc
    residuals = b - np.einsum("nki,ni->nk", a, solutions)
    mahalanobis_sq = np.einsum(
        "nk,nk->n",
        residuals,
        _batched_grouped_whiten(inv_d, s, indicator, residuals[..., None])[..., 0],
    )
    return (
        _mark_decoupled(solutions, decoupled),
        np.sqrt(np.maximum(mahalanobis_sq, 0.0)),
    )


def solve_normal_equations(
    gram: np.ndarray,
    moment: np.ndarray,
    decoupled: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Batched ``(N, p, p)`` normal-equation solve.

    ``decoupled`` (``(N, p)``) marks unknowns a row does not observe:
    their Gram rows and columns are zero, so they get a unit diagonal
    and solve to 0.  Raises ``numpy.linalg.LinAlgError`` on a singular
    system.
    """
    if decoupled is not None and decoupled.any():
        rows, columns = np.nonzero(decoupled)
        gram = gram.copy()
        gram[rows, columns, columns] = 1.0
    return np.linalg.solve(gram, moment[..., None])[..., 0]


def _mark_decoupled(
    solutions: np.ndarray, decoupled: Optional[np.ndarray]
) -> np.ndarray:
    if decoupled is not None and decoupled.any():
        solutions[decoupled] = np.nan
    return solutions
