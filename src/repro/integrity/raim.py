"""Receiver Autonomous Integrity Monitoring (RAIM).

The paper's over-determined systems (m > 4) leave redundancy that the
least-squares residuals expose; RAIM turns that redundancy into fault
detection.  The textbook residual-based scheme implemented here:

* **Detection** — the sum of squared range residuals, normalized by
  the measurement variance, is chi-square distributed with ``m - 4``
  degrees of freedom under the no-fault hypothesis; exceeding the
  ``1 - p_false_alarm`` quantile flags the epoch.
* **Exclusion** — re-solve with each satellite left out in turn; if
  exactly the subsets excluding one particular satellite pass the
  test, that satellite is the faulty one and its exclusion is the
  repaired fix.

This complements the paper's fast closed-form solvers in exactly the
setting they target: a high-rate pipeline can afford RAIM on every
epoch only if the per-solve cost is small — which is what DLO/DLG buy.
The vectorized batch counterpart lives in
:mod:`repro.integrity.fde`; this scalar monitor is its reference
implementation and the two are differentially tested against each
other.

The chi-square quantile uses the exact normal-quantile identity at one
degree of freedom and the Wilson-Hilferty approximation above it, so
the module stays numpy-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.base import PositioningAlgorithm
from repro.solvers.newton_raphson import NewtonRaphsonSolver
from repro.core.types import PositionFix
from repro.errors import ConfigurationError, ConvergenceError, GeometryError
from repro.observations import ObservationEpoch


def chi_square_quantile(probability: float, dof: int) -> float:
    """Chi-square quantile: exact at ``dof <= 2``, Wilson-Hilferty above.

    ``dof == 1`` is RAIM's m=5 detection case, where Wilson-Hilferty is
    at its worst (the cube-root normalization assumes more averaging
    than one squared normal provides).  There the identity
    ``chi2_1(p) = Phi^-1((1 + p) / 2)^2`` — equivalently, with upper
    tail ``q = 1 - p``, ``Phi^-1(1 - q/2)^2`` — is exact, since
    ``X ~ chi2_1`` is the square of a standard normal.  ``dof == 2``
    (the two-constellation m=9 detection gate, and every minimal
    exclusion subset one satellite above it) is the exponential
    distribution, where ``chi2_2(p) = -2 ln(1 - p)`` is likewise exact.
    For ``dof >= 3`` Wilson-Hilferty stays within a fraction of a
    percent across the upper-tail probabilities RAIM uses.
    """
    if not 0.0 < probability < 1.0:
        raise ConfigurationError("probability must be in (0, 1)")
    if dof < 1:
        raise ConfigurationError("dof must be at least 1")
    if dof == 1:
        z = _normal_quantile(0.5 * (1.0 + probability))
        return z * z
    if dof == 2:
        return -2.0 * math.log(1.0 - probability)
    z = _normal_quantile(probability)
    term = 1.0 - 2.0 / (9.0 * dof) + z * math.sqrt(2.0 / (9.0 * dof))
    return dof * term**3


def _normal_quantile(probability: float) -> float:
    """Standard normal quantile via Acklam's rational approximation."""
    # Coefficients for the central and tail regions.
    a = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
    b = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00)
    p_low = 0.02425

    if probability < p_low:
        q = math.sqrt(-2.0 * math.log(probability))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if probability <= 1.0 - p_low:
        q = probability - 0.5
        r = q * q
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        )
    q = math.sqrt(-2.0 * math.log(1.0 - probability))
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
        (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
    )


@dataclass(frozen=True)
class RaimResult:
    """Outcome of a RAIM check on one epoch.

    Attributes
    ----------
    fix:
        The fix to use: the original when the test passes, the repaired
        (post-exclusion) fix when exclusion succeeds, otherwise the
        original fix flagged unusable.
    passed:
        Whether the *final* fix passes the global test.
    test_statistic, threshold:
        The normalized sum of squared residuals and its chi-square
        gate.
    excluded_prn, excluded_system:
        PRN and system code of the satellite removed by exclusion, or
        ``None``.
    """

    fix: PositionFix
    passed: bool
    test_statistic: float
    threshold: float
    excluded_prn: Optional[int] = None
    excluded_system: Optional[str] = None


class RaimMonitor:
    """Residual-based fault detection and single-satellite exclusion.

    Parameters
    ----------
    solver:
        Any P4P algorithm producing a ``residual_norm`` (all of this
        library's solvers do).  NR is the conventional choice.
    sigma_meters:
        Expected 1-sigma of the pseudorange residuals under no fault.
    p_false_alarm:
        Probability of flagging a fault-free epoch.
    """

    def __init__(
        self,
        solver: Optional[PositioningAlgorithm] = None,
        sigma_meters: float = 3.0,
        p_false_alarm: float = 1e-3,
    ) -> None:
        if sigma_meters <= 0:
            raise ConfigurationError("sigma_meters must be positive")
        if not 0.0 < p_false_alarm < 1.0:
            raise ConfigurationError("p_false_alarm must be in (0, 1)")
        self.solver = solver if solver is not None else NewtonRaphsonSolver()
        self.sigma = float(sigma_meters)
        self.p_false_alarm = float(p_false_alarm)

    # ------------------------------------------------------------------
    def check(self, epoch: ObservationEpoch) -> RaimResult:
        """Detect and, if possible, exclude a faulty satellite."""
        m = epoch.satellite_count
        dof = self._solver_dof(epoch)
        if dof < 1:
            # Single-constellation solvers reduce to the classic m >= 5
            # requirement; per-constellation solvers burn extra dof on
            # the additional clock unknowns (and, when differenced, the
            # extra base satellites), so the floor rises with K.
            if m < 5:
                raise GeometryError(
                    "RAIM detection needs redundancy: at least 5 satellites "
                    f"(got {m})"
                )
            raise GeometryError(
                f"RAIM detection needs redundancy: {m} satellites across "
                f"{epoch.constellation_count} constellations leave "
                f"{self.solver.name} no spare degrees of freedom"
            )
        fix = self.solver.solve(epoch)
        statistic, threshold = self._test(fix, dof)
        if statistic <= threshold:
            return RaimResult(
                fix=fix, passed=True, test_statistic=statistic, threshold=threshold
            )

        repaired = self._exclude(epoch)
        if repaired is not None:
            dropped, repaired_fix, repaired_stat, repaired_threshold = repaired
            return RaimResult(
                fix=repaired_fix,
                passed=True,
                test_statistic=repaired_stat,
                threshold=repaired_threshold,
                excluded_prn=dropped.prn,
                excluded_system=dropped.system,
            )
        return RaimResult(
            fix=fix, passed=False, test_statistic=statistic, threshold=threshold
        )

    # ------------------------------------------------------------------
    def _solver_dof(self, epoch: ObservationEpoch) -> int:
        """The solver's residual dof, defaulting to the classic ``m - 4``.

        Duck-typed solvers (the monitor only requires ``solve``) may not
        implement :meth:`~repro.core.base.PositioningAlgorithm.
        residual_dof`; they get the single-constellation counting.
        """
        dof_of = getattr(self.solver, "residual_dof", None)
        if dof_of is None:
            return epoch.satellite_count - 4
        return int(dof_of(epoch))

    def _test(self, fix: PositionFix, dof: int) -> "tuple[float, float]":
        statistic = (fix.residual_norm / self.sigma) ** 2
        threshold = chi_square_quantile(1.0 - self.p_false_alarm, dof)
        return statistic, threshold

    def _exclude(self, epoch: ObservationEpoch):
        """Try dropping each satellite; return the best passing subset as
        ``(dropped observation, fix, statistic, threshold)``.

        Subsets are ranked by *normalized margin* ``statistic /
        threshold``, not raw statistic: when candidate subsets end up
        with different satellite counts (a solver rejecting one subset
        changes nothing, but callers may pass heterogeneous exclusion
        candidates), their thresholds differ and raw statistics are not
        comparable across them.  Ties keep the first (lowest-index)
        candidate, so the selection is deterministic under permutation
        of equal margins.
        """
        if epoch.satellite_count < 6:
            return None  # exclusion needs m - 1 >= 5 for a residual test
        best = None
        best_margin = None
        for drop_index in range(epoch.satellite_count):
            observations = [
                obs
                for index, obs in enumerate(epoch.observations)
                if index != drop_index
            ]
            subset = epoch.with_observations(observations)
            sub_dof = self._solver_dof(subset)
            if sub_dof < 1:
                # A per-constellation subset can run out of redundancy
                # before the m >= 6 gate above notices (each extra
                # constellation costs dof); no residual test, no verdict.
                continue
            try:
                fix = self.solver.solve(subset)
            except (GeometryError, ConvergenceError):
                continue
            statistic, threshold = self._test(fix, sub_dof)
            if statistic <= threshold:
                margin = statistic / threshold
                if best_margin is None or margin < best_margin:
                    best = (epoch.observations[drop_index], fix, statistic, threshold)
                    best_margin = margin
        if best is None:
            return None
        return best[0], best[1], best[2], best[3]
