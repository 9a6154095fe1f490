"""repro.solvers — the canonical home of the positioning solvers.

The implementation layer behind the :mod:`repro.api` facade: the
paper's scalar algorithms and their stacked batch counterparts, seven
constructors in all.

* :class:`NewtonRaphsonSolver` — the iterative baseline (Section 3.4).
* :class:`DLOSolver` / :class:`DLGSolver` — the paper's direct
  linearization solved with OLS / GLS (Section 4.5).
* :class:`BancroftSolver` — the classic closed-form comparator [2].
* :class:`BatchNewtonRaphsonSolver` / :class:`BatchDLOSolver` /
  :class:`BatchDLGSolver` — the same three families as stacked-tensor
  batch solves (Section 6, extension 3).

Most callers should not construct these directly: build them from a
:class:`repro.api.SolverConfig` (``config.build_solver()`` /
``config.build_batch_solver()``) or call :func:`repro.api.solve`, so
solver choice and tuning travel as one frozen value instead of seven
scattered constructor signatures.  These classes remain public as the
extension surface — subclass or instantiate them when implementing a
new solver path, not when merely *using* one.

The modules once lived under ``repro.core``; that package still
re-exports every solver name warning-free, but the old deep import
paths (``repro.core.newton_raphson`` et al.) are gone.
"""

from repro.solvers.newton_raphson import NewtonRaphsonSolver
from repro.solvers.direct_linear import (
    CONSTELLATION_MODES,
    DLOSolver,
    DLGSolver,
    build_difference_system,
    build_multi_difference_system,
    difference_covariance,
    difference_covariance_components,
    multi_difference_covariance_components,
)
from repro.solvers.bancroft import BancroftSolver
from repro.solvers.batch import (
    BatchDLOSolver,
    BatchDLGSolver,
    BatchMultiResult,
    BatchNewtonRaphsonSolver,
    BatchNrResult,
    build_difference_systems,
    build_multi_difference_systems,
)

__all__ = [
    "CONSTELLATION_MODES",
    "NewtonRaphsonSolver",
    "DLOSolver",
    "DLGSolver",
    "BancroftSolver",
    "BatchDLOSolver",
    "BatchDLGSolver",
    "BatchMultiResult",
    "BatchNewtonRaphsonSolver",
    "BatchNrResult",
    "build_difference_system",
    "build_difference_systems",
    "build_multi_difference_system",
    "build_multi_difference_systems",
    "difference_covariance",
    "difference_covariance_components",
    "multi_difference_covariance_components",
]
