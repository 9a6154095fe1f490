"""The receiver pipeline and positioning primitives.

* :class:`GpsReceiver` — the end-to-end pipeline: NR warm-up, clock
  bias prediction, then closed-form solving, with threshold-reset
  recalibration.
* Velocity, EKF, satellite selection, and DOP — the
  machinery around the solvers.

The solver implementations themselves (NR, DLO, DLG, Bancroft and the
batch trio) live in :mod:`repro.solvers` since the PR 4 API redesign,
and RAIM lives in :mod:`repro.integrity` since the PR 5 integrity
subsystem; this package re-exports them so ``from repro.core import
DLGSolver`` keeps working warning-free.  The old *deep* import paths
(``repro.core.direct_linear``, ``repro.core.raim`` et al.) are gone.
New code should reach solvers through the :mod:`repro.api` facade and
integrity through :mod:`repro.integrity`.
"""

from repro.core.types import PositionFix
from repro.core.base import PositioningAlgorithm
from repro.solvers.newton_raphson import NewtonRaphsonSolver
from repro.solvers.direct_linear import (
    DLOSolver,
    DLGSolver,
    build_difference_system,
    difference_covariance,
    difference_covariance_components,
)
from repro.solvers.bancroft import BancroftSolver
from repro.core.three_sat import ThreeSatelliteSolver
from repro.solvers.batch import (
    BatchDLOSolver,
    BatchDLGSolver,
    BatchNewtonRaphsonSolver,
    BatchNrResult,
)
from repro.integrity.raim import RaimMonitor, RaimResult, chi_square_quantile
from repro.core.velocity import VelocityFix, VelocitySolver
from repro.core.ekf import NavigationEkf
from repro.core.selection import (
    BaseSatelliteSelector,
    FirstSelector,
    RandomSelector,
    HighestElevationSelector,
    ClosestRangeSelector,
)
from repro.core.dop import DilutionOfPrecision, compute_dop
from repro.core.receiver import GpsReceiver

__all__ = [
    "PositionFix",
    "PositioningAlgorithm",
    "NewtonRaphsonSolver",
    "DLOSolver",
    "DLGSolver",
    "build_difference_system",
    "difference_covariance",
    "difference_covariance_components",
    "BancroftSolver",
    "ThreeSatelliteSolver",
    "BatchDLOSolver",
    "BatchDLGSolver",
    "BatchNewtonRaphsonSolver",
    "BatchNrResult",
    "RaimMonitor",
    "RaimResult",
    "chi_square_quantile",
    "VelocityFix",
    "VelocitySolver",
    "NavigationEkf",
    "BaseSatelliteSelector",
    "FirstSelector",
    "RandomSelector",
    "HighestElevationSelector",
    "ClosestRangeSelector",
    "DilutionOfPrecision",
    "compute_dop",
    "GpsReceiver",
]
