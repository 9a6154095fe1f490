"""The paper's direct-linearization algorithms DLO and DLG (Section 4).

Pipeline shared by both (Section 4.5):

1. Predict the receiver clock bias ``eps_hat_R`` with the clock model
   (Section 4.2) and remove it: ``rho_E_i = rho_e_i - eps_hat_R``
   (eq. 4-1).
2. Linearize algebraically: expand the squared-range equations
   (eq. 4-6) and subtract the *base* equation from the rest, which
   cancels the quadratic terms and yields the (m-1)-equation linear
   system ``A X = D`` of eq. 4-8..4-11 (:func:`build_difference_system`).
3. Solve:

   * **DLO** with ordinary least squares, ``X = (A^T A)^-1 A^T D``
     (eq. 4-12) — cheap but, per Theorem 4.1, not optimal because the
     differencing correlates the right-hand-side errors.
   * **DLG** with general least squares,
     ``X = (A^T M^-1 A)^-1 A^T M^-1 D`` (eq. 4-21), where ``M`` is the
     difference covariance of eq. 4-26
     (:func:`difference_covariance`) — optimal by Theorem 4.2.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.clocks.prediction import ClockBiasPredictor, ZeroClockBiasPredictor
from repro.constellation.systems import group_layout, system_code
from repro.core.base import PositioningAlgorithm
from repro.core.selection import BaseSatelliteSelector, FirstSelector
from repro.core.types import PositionFix
from repro.errors import ConfigurationError, EstimationError, GeometryError
from repro.estimation import (
    gls_solve_diag_rank1,
    gls_solve_grouped_rank1,
    ols_solve,
)
from repro.observations import ObservationEpoch
from repro.telemetry import get_registry

#: The two constellation policies of the direct-linear solvers.
CONSTELLATION_MODES = ("single", "per_constellation")

#: Condition numbers of the differenced design: well-posed skies sit
#: in the tens; sick geometry climbs orders of magnitude.
_CONDITION_BUCKETS = (1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1e3, 1e4, 1e5, 1e6)
#: Residual norms (meters in the whitened/differenced metric).
_RESIDUAL_BUCKETS = (1e-6, 1e-3, 0.1, 1.0, 3.0, 10.0, 30.0, 100.0, 1e3, 1e6)


def _observe_solve(registry, solver: str, design: np.ndarray, residual_norm: float) -> None:
    """Record per-solve design conditioning and residual telemetry.

    Only called when a real registry is installed: the condition
    number costs an SVD the solve itself never needs.
    """
    registry.counter(
        "repro_solver_solves_total",
        "Solver invocations by outcome.",
        labels=("solver", "status"),
    ).labels(solver=solver, status="converged").inc()
    registry.histogram(
        "repro_solver_condition_number",
        "Condition number of the design matrix per solve.",
        labels=("solver",),
        buckets=_CONDITION_BUCKETS,
    ).labels(solver=solver).observe(float(np.linalg.cond(design)))
    registry.histogram(
        "repro_solver_residual_norm",
        "Residual norm per solve (whitened for DLG).",
        labels=("solver",),
        buckets=_RESIDUAL_BUCKETS,
    ).labels(solver=solver).observe(float(residual_norm))


def build_difference_system(
    satellite_positions: np.ndarray,
    corrected_pseudoranges: np.ndarray,
    base_index: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Build the linear system ``A X = D`` of eq. (4-8).

    Parameters
    ----------
    satellite_positions:
        ``(m, 3)`` satellite ECEF positions.
    corrected_pseudoranges:
        ``(m,)`` clock-corrected pseudoranges ``rho_E_i`` (eq. 4-1).
    base_index:
        Which satellite's equation is subtracted from the others.

    Returns
    -------
    (A, D)
        ``A`` is ``(m-1, 3)`` with rows ``s_j - s_base`` (eq. 4-9);
        ``D`` is ``(m-1,)`` with entries
        ``((|s_j|^2 - |s_base|^2) - (rho_j^2 - rho_base^2)) / 2``
        (eq. 4-11).
    """
    positions = np.asarray(satellite_positions, dtype=float)
    pseudoranges = np.asarray(corrected_pseudoranges, dtype=float)
    m = positions.shape[0]
    if m < 2:
        raise GeometryError("differencing needs at least two satellites")
    if not 0 <= base_index < m:
        raise GeometryError(f"base_index {base_index} out of range for {m} satellites")

    mask = np.arange(m) != base_index
    base_position = positions[base_index]
    base_pseudorange = pseudoranges[base_index]

    design = positions[mask] - base_position
    squared_norms = np.einsum("ij,ij->i", positions, positions)
    rhs = 0.5 * (
        (squared_norms[mask] - squared_norms[base_index])
        - (pseudoranges[mask] ** 2 - base_pseudorange**2)
    )
    return design, rhs


def difference_covariance_components(
    corrected_pseudoranges: np.ndarray,
    base_index: int = 0,
) -> Tuple[np.ndarray, float]:
    """The eq. 4-26 covariance in its structured ``(diag, scale)`` form.

    The covariance is diagonal-plus-rank-one,
    ``Psi = diag(rho_j^2) + rho_base^2 * 11^T``: every row of the
    differenced system shares the base-satellite error, and nothing
    else couples rows.  Returning the two components instead of the
    materialized matrix lets GLS run through the O(m) Sherman-Morrison
    whitening (:func:`~repro.estimation.gls_solve_diag_rank1`) of the
    scalar :class:`DLGSolver`.

    Returns
    -------
    (diag, scale)
        ``(m-1,)`` diagonal terms ``rho_j^2`` (base excluded, original
        order) and the scalar rank-one term ``rho_base^2``.
    """
    pseudoranges = np.asarray(corrected_pseudoranges, dtype=float)
    m = pseudoranges.shape[0]
    if m < 2:
        raise GeometryError("differencing needs at least two satellites")
    if not 0 <= base_index < m:
        raise GeometryError(f"base_index {base_index} out of range for {m} satellites")

    mask = np.arange(m) != base_index
    return pseudoranges[mask] ** 2, float(pseudoranges[base_index] ** 2)


def difference_covariance(
    corrected_pseudoranges: np.ndarray,
    base_index: int = 0,
) -> np.ndarray:
    """The covariance structure ``Psi`` of the differenced RHS (eq. 4-26).

    The error in row ``j`` of ``D`` is
    ``Delta beta_j = rho_base * Delta rho_base - rho_j * Delta rho_j``
    (eq. 4-18, to first order), so with i.i.d. pseudorange errors of
    variance ``sigma^2``:

    * diagonal: ``rho_base^2 + rho_j^2``
    * off-diagonal: ``rho_base^2`` (every row shares the base error)

    The common factor ``sigma^2`` cancels in GLS, so it is omitted.
    Measured pseudoranges stand in for the unknown true ranges, as the
    paper does — at GPS ranges (2e7 m) the relative substitution error
    is ~1e-6 and irrelevant.

    This materializes the dense ``(m-1, m-1)`` matrix for callers that
    need it (ablations, diagnostics); the solvers themselves use
    :func:`difference_covariance_components` and never build it.
    """
    diag, scale = difference_covariance_components(corrected_pseudoranges, base_index)
    covariance = np.full((diag.shape[0], diag.shape[0]), scale)
    covariance[np.diag_indices(diag.shape[0])] += diag
    return covariance


# ----------------------------------------------------------------------
# Multi-constellation differencing: one base satellite and one bias
# column per constellation.  Cross-constellation differences would keep
# quadratic ``b_c^2 - b_c'^2`` terms (different system clocks do not
# cancel), so each constellation differences against *its own* base —
# the quadratic terms cancel within the group exactly as in eq. 4-6,
# and the per-group bias survives as a *linear* column:
#
#     (s_i - s_b) . x  -  (rho_i - rho_b) b_c  =  D_i   (eq. 4-11 rhs)
#
# for satellite i and base b both in constellation c.  The unknown
# vector grows from (x, y, z) to (x, y, z, b_1..b_K).
# ----------------------------------------------------------------------


def check_multi_admissibility(groups: np.ndarray, codes: np.ndarray) -> None:
    """Reject group layouts the per-constellation system cannot solve.

    Every constellation must contribute at least two satellites (a
    singleton loses its only equation to the differencing, leaving its
    bias unobservable), and the differenced system must keep at least
    as many equations as unknowns: ``m - K >= 3 + K``.
    """
    k_groups = int(codes.shape[0])
    m = int(groups.shape[0])
    counts = np.bincount(groups, minlength=k_groups)
    if k_groups and counts.min() < 2:
        singleton = system_code(int(codes[int(np.argmin(counts))]))
        raise GeometryError(
            f"constellation {singleton!r} contributes a single satellite; "
            "its clock bias is unobservable under per-constellation "
            "differencing"
        )
    if m - k_groups < 3 + k_groups:
        raise GeometryError(
            f"{m} satellites across {k_groups} constellations give "
            f"{m - k_groups} differenced equations for {3 + k_groups} "
            f"unknowns; need at least {3 + 2 * k_groups} satellites"
        )


def build_multi_difference_system(
    satellite_positions: np.ndarray,
    pseudoranges: np.ndarray,
    system_ids: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Build the per-constellation linear system ``A X = D``.

    Parameters
    ----------
    satellite_positions:
        ``(m, 3)`` satellite ECEF positions.
    pseudoranges:
        ``(m,)`` *raw* pseudoranges (no bias removal: the biases are
        unknowns of this system, one per constellation).
    system_ids:
        ``(m,)`` numeric system ids
        (:data:`repro.constellation.systems.SYSTEM_CODES` indices).

    Returns
    -------
    (design, rhs, row_groups, base_indices, codes)
        ``design`` is ``(m - K, 3 + K)``: position columns
        ``s_i - s_base(c)`` plus, in column ``3 + c``, the bias
        coefficient ``-(rho_i - rho_base(c))`` of satellite ``i``'s
        constellation (zero elsewhere).  ``rhs`` is the eq. 4-11
        right-hand side per-group.  ``row_groups`` maps each row to its
        constellation index, ``base_indices`` gives each
        constellation's base satellite (first occurrence, a
        deterministic choice that survives relabeling), and ``codes``
        the numeric system id of each group in first-appearance order.
    """
    positions = np.asarray(satellite_positions, dtype=float)
    rho = np.asarray(pseudoranges, dtype=float)
    groups, codes = group_layout(system_ids)
    check_multi_admissibility(groups, codes)
    m = positions.shape[0]
    k_groups = int(codes.shape[0])

    # First occurrence of each group is its base satellite.
    base_indices = np.full(k_groups, -1, dtype=np.int64)
    for index in range(m):
        g = groups[index]
        if base_indices[g] < 0:
            base_indices[g] = index
    non_base = np.ones(m, dtype=bool)
    non_base[base_indices] = False

    row_groups = groups[non_base]
    base_positions = positions[base_indices]  # (K, 3)
    base_rho = rho[base_indices]  # (K,)

    design = np.zeros((m - k_groups, 3 + k_groups))
    design[:, :3] = positions[non_base] - base_positions[row_groups]
    rows = np.arange(m - k_groups)
    design[rows, 3 + row_groups] = -(rho[non_base] - base_rho[row_groups])

    squared_norms = np.einsum("ij,ij->i", positions, positions)
    base_squared = squared_norms[base_indices]
    rhs = 0.5 * (
        (squared_norms[non_base] - base_squared[row_groups])
        - (rho[non_base] ** 2 - base_rho[row_groups] ** 2)
    )
    return design, rhs, row_groups, base_indices, codes


def multi_difference_covariance_components(
    pseudoranges: np.ndarray,
    base_indices: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The block-diagonal eq. 4-26 covariance in ``(diag, scales)`` form.

    Within a constellation the differenced errors share that group's
    base satellite; across constellations the bases are independent, so
    the covariance is block-diagonal with one diag+rank-one block per
    group: ``Psi = diag(rho_j^2) + sum_g rho_base(g)^2 1_g 1_g^T``.

    Returns ``(diag (m-K,), scales (K,))`` aligned with the rows/groups
    of :func:`build_multi_difference_system`.
    """
    rho = np.asarray(pseudoranges, dtype=float)
    base_indices = np.asarray(base_indices, dtype=np.int64)
    non_base = np.ones(rho.shape[0], dtype=bool)
    non_base[base_indices] = False
    return rho[non_base] ** 2, rho[base_indices] ** 2


class _DirectLinearBase(PositioningAlgorithm):
    """Shared machinery of DLO and DLG."""

    #: Direct linearization consumes one equation for the differencing,
    #: so m satellites give m-1 linear equations in 3 unknowns: m >= 4.
    min_satellites = 4

    def __init__(
        self,
        clock_predictor: Optional[ClockBiasPredictor] = None,
        base_selector: Optional[BaseSatelliteSelector] = None,
        constellations: str = "single",
    ) -> None:
        if constellations not in CONSTELLATION_MODES:
            raise ConfigurationError(
                f"constellations must be one of {CONSTELLATION_MODES}, "
                f"got {constellations!r}"
            )
        if constellations == "per_constellation":
            # Per-constellation mode *estimates* every system's bias;
            # a predicted-and-removed global bias contradicts that, and
            # the base choice is per-group (first satellite of each
            # constellation), so a single-base selector has no meaning.
            if clock_predictor is not None:
                raise ConfigurationError(
                    "per-constellation mode estimates the clock biases; "
                    "a clock predictor cannot be combined with it"
                )
            if base_selector is not None:
                raise ConfigurationError(
                    "per-constellation mode picks one base per "
                    "constellation; a base selector cannot be combined "
                    "with it"
                )
        self.constellations = constellations
        #: The eps_hat_R source (eq. 4-4).  Defaults to the zero
        #: predictor, appropriate when the caller feeds pseudoranges
        #: that are already clock-free (e.g. unit tests, DGPS-corrected
        #: data); real pipelines pass a warmed-up LinearClockBiasPredictor.
        self.clock_predictor = (
            clock_predictor if clock_predictor is not None else ZeroClockBiasPredictor()
        )
        self.base_selector = base_selector if base_selector is not None else FirstSelector()

    # ------------------------------------------------------------------
    def _prepare(self, epoch: ObservationEpoch):
        """Steps 1-2 common to both algorithms."""
        self._require_satellites(epoch)
        bias = float(self.clock_predictor.predict_bias_meters(epoch.time))
        positions = epoch.satellite_positions()
        corrected = epoch.pseudoranges() - bias  # eq. 4-1
        if np.any(corrected <= 0):
            raise GeometryError(
                "clock-corrected pseudoranges are non-positive; the clock "
                "bias prediction is grossly wrong for this epoch"
            )
        base_index = self.base_selector.select(epoch)
        design, rhs = build_difference_system(positions, corrected, base_index)
        return bias, corrected, base_index, design, rhs

    def _finish(
        self,
        solution: np.ndarray,
        design: np.ndarray,
        rhs: np.ndarray,
        bias: float,
    ) -> PositionFix:
        residuals = rhs - design @ solution
        return PositionFix(
            position=solution,
            clock_bias_meters=bias,
            algorithm=self.name,
            iterations=1,
            converged=True,
            residual_norm=float(np.linalg.norm(residuals)),
        )

    def residual_dof(self, epoch: ObservationEpoch) -> int:
        """``m - 4`` classically; ``m - 3 - 2K`` per-constellation.

        Differencing consumes one equation per constellation (``m - K``
        rows) and the state gains one clock unknown per constellation
        (``3 + K`` columns), so each extra constellation costs *two*
        degrees of freedom — one equation and one unknown.
        """
        if self.constellations != "per_constellation":
            return epoch.satellite_count - 4
        return epoch.satellite_count - 3 - 2 * epoch.constellation_count

    # ------------------------------------------------------------------
    def _prepare_multi(self, epoch: ObservationEpoch):
        """Build the per-constellation differenced system for an epoch."""
        self._require_satellites(epoch)
        positions, rho, _prns, system_ids = epoch.dense()
        return build_multi_difference_system(positions, rho, system_ids)

    def _finish_multi(
        self,
        solution: np.ndarray,
        codes: np.ndarray,
        residual_norm: float,
    ) -> PositionFix:
        biases = tuple(
            (system_code(int(code)), float(solution[3 + g]))
            for g, code in enumerate(codes)
        )
        return PositionFix(
            position=solution[:3],
            clock_bias_meters=biases[0][1],
            algorithm=self.name,
            iterations=1,
            converged=True,
            residual_norm=float(residual_norm),
            clock_biases=biases,
        )


class DLOSolver(_DirectLinearBase):
    """Algorithm DLO: direct linearization + ordinary least squares.

    The fastest of the three methods (no iteration, no covariance
    handling), at the cost of the Theorem-4.1 sub-optimality: accuracy
    degrades as satellite count grows because the correlated
    differencing errors are treated as independent.
    """

    name = "DLO"

    def solve(self, epoch: ObservationEpoch) -> PositionFix:
        if self.constellations == "per_constellation":
            return self._solve_multi(epoch)
        bias, _corrected, _base, design, rhs = self._prepare(epoch)
        try:
            solution = ols_solve(design, rhs)  # eq. 4-12
        except EstimationError as exc:
            raise GeometryError(f"DLO design matrix is degenerate: {exc}") from exc
        fix = self._finish(solution, design, rhs, bias)
        registry = get_registry()
        if registry.enabled:
            _observe_solve(registry, self.name.lower(), design, fix.residual_norm)
        return fix

    def _solve_multi(self, epoch: ObservationEpoch) -> PositionFix:
        design, rhs, _row_groups, _bases, codes = self._prepare_multi(epoch)
        try:
            solution = ols_solve(design, rhs)  # eq. 4-12, (3+K) unknowns
        except EstimationError as exc:
            raise GeometryError(f"DLO design matrix is degenerate: {exc}") from exc
        fix = self._finish_multi(
            solution, codes, float(np.linalg.norm(rhs - design @ solution))
        )
        registry = get_registry()
        if registry.enabled:
            _observe_solve(registry, self.name.lower(), design, fix.residual_norm)
        return fix


class DLGSolver(_DirectLinearBase):
    """Algorithm DLG: direct linearization + general least squares.

    Whitens the differenced system with the eq. 4-26 covariance before
    solving, restoring optimality (Theorem 4.2) at a modest extra cost —
    still closed-form, still far cheaper than NR.

    DLG fixes report ``residual_norm`` as the *whitened* (Mahalanobis)
    residual norm, which the eq. 4-26 covariance scales back to
    pseudorange-domain units — chi-square testable with ``m - 4``
    degrees of freedom, so DLG plugs directly into
    :class:`~repro.integrity.raim.RaimMonitor`.  (DLO's residual norm
    stays
    in the raw differenced domain, ~range-times-larger.)
    """

    name = "DLG"

    def solve(self, epoch: ObservationEpoch) -> PositionFix:
        if self.constellations == "per_constellation":
            return self._solve_multi(epoch)
        bias, corrected, base_index, design, rhs = self._prepare(epoch)
        diag, scale = difference_covariance_components(corrected, base_index)
        try:
            # eq. 4-21 with the eq. 4-26 covariance applied through its
            # diag+rank-one structure: O(m) whitening, no factorization.
            solution, whitened_norm = gls_solve_diag_rank1(design, rhs, diag, scale)
        except EstimationError as exc:
            raise GeometryError(f"DLG system is degenerate: {exc}") from exc
        registry = get_registry()
        if registry.enabled:
            _observe_solve(registry, self.name.lower(), design, whitened_norm)
        return PositionFix(
            position=solution,
            clock_bias_meters=bias,
            algorithm=self.name,
            iterations=1,
            converged=True,
            residual_norm=whitened_norm,
        )

    def _solve_multi(self, epoch: ObservationEpoch) -> PositionFix:
        design, rhs, row_groups, base_indices, codes = self._prepare_multi(epoch)
        rho = epoch.dense()[1]
        diag, scales = multi_difference_covariance_components(rho, base_indices)
        try:
            # eq. 4-21 with the block-diagonal covariance applied
            # through its grouped diag+rank-one structure.
            solution, whitened_norm = gls_solve_grouped_rank1(
                design, rhs, diag, scales, row_groups
            )
        except EstimationError as exc:
            raise GeometryError(f"DLG system is degenerate: {exc}") from exc
        registry = get_registry()
        if registry.enabled:
            _observe_solve(registry, self.name.lower(), design, whitened_norm)
        return self._finish_multi(solution, codes, whitened_norm)
