"""Structured least squares for the paper's DLG (eq. 4-21/4-26).

The eq. 4-26 difference covariance is not an arbitrary dense matrix:
every off-diagonal entry is the shared base-satellite variance, so

    Psi = diag(d) + s * 1 1^T,   d_j = rho_j^2,  s = rho_base^2.

The scalar solvers apply ``Psi^-1`` through the Sherman-Morrison
identity

    Psi^-1 = D^-1 - (s / (1 + s * sum(1/d))) * D^-1 1 1^T D^-1,

one rank-one block per constellation (:func:`gls_solve_diag_rank1`,
:func:`gls_solve_grouped_rank1`): the paper-faithful reference behind
:class:`~repro.solvers.direct_linear.DLGSolver`.

The batched path never forms the differences.  Differencing is an
invertible row transform, so GLS under eq. 4-26 is the *undifferenced*
weighted least squares

    s_i^T x - rho_i b_c - w_c = (|s_i|^2 - rho_i^2) / 2,   weight 1/rho_i^2,

with one nuisance unknown ``w_c`` per constellation (segment).  By
Frisch-Waugh-Lovell, weighted centering inside each segment removes
``w_c`` exactly, so :func:`batched_centered_wls` solves every row of a
padded ``(N, m, p)`` stack with diagonal weights, segment sums and one
small normal-equation solve: no base satellite, no rank-one
correction.  It returns the same fix and the same whitened residual norm as the
eq. 4-26 GLS.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import EstimationError
from repro.estimation.linalg import cholesky_solve
from repro.telemetry import get_registry


# Per-registry cached counter children for _count_gls_path: it runs
# once per kernel call on the serving path, where the uncached
# name -> family -> child lookup costs more than the increment.
_GLS_PATH_CACHE: Tuple[object, Dict[str, object]] = (None, {})


def _count_gls_path(path: str, solves: int = 1) -> None:
    """Record which GLS implementation answered (telemetry only).

    The structured paths and the dense-Cholesky fallback produce
    identical answers, so *which one ran* is invisible without this
    counter — yet it is exactly what a perf investigation needs.
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
        p = u.shape[1]
        group_sums = np.bincount(
            (g[:, None] * p + np.arange(p)).ravel(),
            weights=u.ravel(),
            minlength=k_groups * p,
        ).reshape(k_groups, p)
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


def center_segments(
    stack: np.ndarray,
    weights: np.ndarray,
    segments: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Weighted centering of ``(N, m, q)`` rows inside each segment,
    in place.

    ``segments`` gives the ``(N, m)`` segment of every slot (ids in
    ``[0, K)``; ``None`` puts each row's slots in one segment).  Every
    column loses its weighted mean over the slot's own (row, segment),
    which projects out one nuisance constant per segment.  Zero-weight
    slots enter no mean.

    The mean is taken of the differences to the segment's first
    weighted slot, so a column that is constant inside a segment
    centers to exactly zero: a degenerate geometry (coplanar
    satellites) stays exactly singular instead of rounding into a
    meaningless solve.

    Returns ``(stack, totals)``, ``stack`` now centered and ``totals``
    the weight sum of each slot's segment: ``(N, m)``, or ``(N, 1)``
    when each row is one segment.
    """
    n, m, q = stack.shape
    live = weights > 0
    rows = np.arange(n)[:, None]
    if segments is None:
        stack -= stack[rows, live.argmax(axis=1)[:, None]]
        totals = weights.sum(axis=1, keepdims=True)
        sums = np.matmul(weights[:, None, :], stack)  # (N, 1, q)
        stack -= sums / np.where(totals > 0, totals, 1.0)[:, :, None]
        return stack, totals
    k = int(segments.max()) + 1 if segments.size else 1
    index = rows * k + segments  # (N, m)
    # (flat takes: several times faster than fancy indexing here)
    firsts = (
        (segments[:, None, :] == np.arange(k)[:, None]) & live[:, None, :]
    ).argmax(axis=2)  # (N, K) first weighted slot of each segment
    references = (rows * m + firsts.ravel().take(index)).ravel()
    stack -= stack.reshape(n * m, q).take(references, axis=0).reshape(n, m, q)
    totals = np.bincount(index.ravel(), weights=weights.ravel(), minlength=n * k)
    # One bincount over (row, segment, column) gives every segment sum.
    sums = np.bincount(
        (index[..., None] * q + np.arange(q)).ravel(),
        weights=(stack * weights[..., None]).ravel(),
        minlength=n * k * q,
    ).reshape(n * k, q)
    stack -= (sums / np.where(totals > 0, totals, 1.0)[:, None]).take(index, axis=0)
    return stack, totals.take(index)


def batched_centered_wls(
    design: np.ndarray,
    observations: np.ndarray,
    weights: np.ndarray,
    segments: Optional[np.ndarray] = None,
    decoupled: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """One stacked weighted least squares with a free constant per segment.

    Solves, for each of N rows, ``observations ~ design @ x + w_c`` with
    diagonal ``weights`` and one nuisance constant ``w_c`` per segment
    (:func:`center_segments` removes it, so it never becomes a column).
    This is the batched DLG: with undifferenced range rows and weights
    ``1/rho^2`` it returns the eq. 4-26 GLS fix and whitened norm.

    Parameters
    ----------
    design:
        ``(N, m, p)`` design rows.
    observations:
        ``(N, m)`` right-hand sides.
    weights:
        ``(N, m)`` non-negative weights; a zero-weight slot (padding)
        takes no part, its design and right-hand side must be finite.
    segments:
        ``(N, m)`` non-negative segment ids, or ``None`` for one
        segment per row.
    decoupled:
        ``(N, p)`` unknowns a row does not observe (a column that
        centers to zero): they solve to NaN.

    Returns
    -------
    (solutions, whitened_norms)
        ``(N, p)`` solutions and ``(N,)`` norms ``sqrt(r^T W r)`` of
        the centered residuals.
    """
    a = np.asarray(design, dtype=float)
    b = np.asarray(observations, dtype=float)
    w = np.asarray(weights, dtype=float)
    if a.ndim != 3 or b.shape != a.shape[:2] or w.shape != b.shape:
        raise EstimationError(
            f"batched design {a.shape}, observations {b.shape} and "
            f"weights {w.shape} are inconsistent"
        )
    if not np.all(w >= 0):
        raise EstimationError("weighted least squares needs non-negative weights")
    centered, _totals = center_segments(
        np.concatenate([a, b[..., None]], axis=2), w, segments
    )
    return solve_centered_wls(centered, w, decoupled)


def solve_centered_wls(
    centered: np.ndarray,
    weights: np.ndarray,
    decoupled: Optional[np.ndarray] = None,
    norms: bool = True,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The solve half of :func:`batched_centered_wls`.

    ``centered`` is the ``(N, m, p+1)`` stack ``[A | b]`` already
    centered by :func:`center_segments` with the same ``(N, m)``
    ``weights``; it is read, never written, so a caller can keep it
    (the FDE gate prices its exclusion candidates from it).  Returns
    ``(solutions (N, p), whitened_norms (N,))``; with ``norms=False``
    the residual pass is skipped and the norms are ``None`` (a solve
    no integrity test reads).
    """
    n, _m, q = centered.shape
    p = q - 1
    _count_gls_path("centered_wls_batched", solves=n)
    # Whiten a copy by sqrt(W); one contraction gives the normal
    # equations' [gram | moment].
    white = centered * np.sqrt(weights)[..., None]
    normal = np.matmul(white[..., :p].transpose(0, 2, 1), white)  # (N, p, p+1)
    try:
        solutions = solve_normal_equations(normal[..., :p], normal[..., p], decoupled)
    except np.linalg.LinAlgError as exc:
        raise EstimationError(
            "a batched weighted least-squares system is degenerate "
            "(rank-deficient design)"
        ) from exc
    if not norms:
        return _mark_decoupled(solutions, decoupled), None
    residuals = white[..., p] - np.einsum("nki,ni->nk", white[..., :p], solutions)
    whitened = np.sqrt(np.einsum("nk,nk->n", residuals, residuals))
    return _mark_decoupled(solutions, decoupled), whitened


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
