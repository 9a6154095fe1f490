"""repro — reproduction of "Design and Analysis of a New GPS Algorithm"
(Wei Li et al., ICDCS 2010).

The library implements the paper's direct-linearization positioning
algorithms (DLO, DLG), the classic Newton-Raphson baseline, and every
substrate they stand on: a simulated GPS constellation, receiver clock
models with bias prediction, atmospheric error models, a RINEX layer,
and the evaluation harness that regenerates the paper's tables and
figures.

Quickstart::

    from repro import get_station, ObservationDataset, DatasetConfig, GpsReceiver

    station = get_station("SRZN")
    dataset = ObservationDataset(station, DatasetConfig(duration_seconds=600.0))
    receiver = GpsReceiver(algorithm="dlg", clock_mode="steering")
    for epoch in dataset.epochs():
        fix = receiver.process(epoch)
        print(fix.position, fix.distance_to(station.position))
"""

from repro.constants import SPEED_OF_LIGHT
from repro.errors import (
    ReproError,
    ConfigurationError,
    GeometryError,
    ConvergenceError,
    EphemerisError,
    RinexError,
    DatasetError,
    EstimationError,
    ServiceError,
    QueueFullError,
    RequestTimeoutError,
)
from repro.timebase import GpsTime
from repro.observations import (
    SatelliteObservation,
    ObservationEpoch,
    EpochTruth,
    epoch_integrity_error,
)
from repro.blocks import EpochBlock, PackedStream, pack_stream
from repro.constellation import Constellation, Satellite
from repro.clocks import (
    SteeringClock,
    ThresholdClock,
    ConstantClockBiasPredictor,
    LinearClockBiasPredictor,
    KalmanClockBiasPredictor,
    OracleClockBiasPredictor,
    ZeroClockBiasPredictor,
)
from repro.core import (
    PositionFix,
    PositioningAlgorithm,
    NewtonRaphsonSolver,
    DLOSolver,
    DLGSolver,
    BancroftSolver,
    ThreeSatelliteSolver,
    BatchDLOSolver,
    BatchDLGSolver,
    BatchNewtonRaphsonSolver,
    VelocityFix,
    VelocitySolver,
    NavigationEkf,
    GpsReceiver,
    compute_dop,
    DilutionOfPrecision,
)
from repro.engine import (
    EngineDiagnostics,
    EngineResult,
    ParallelReplay,
    PositioningEngine,
)
from repro.api import SolverConfig, solve, solve_batch
from repro.integrity import (
    BatchFde,
    EpochVerdict,
    FdeConfig,
    FdeRecord,
    HealthConfig,
    RaimMonitor,
    RaimResult,
    SatelliteHealthTracker,
)
from repro.service import (
    AsyncPositioningClient,
    PositioningService,
    ServiceConfig,
    ServiceResult,
)
from repro import telemetry
from repro.validation import (
    FaultProfile,
    FuzzConfig,
    FuzzHarness,
    Scenario,
    ScenarioConfig,
    ScenarioGenerator,
    run_differential,
    run_metamorphic,
)
from repro.dgps import DgpsCorrections, DgpsReferenceStation, apply_corrections
from repro.signals import (
    HatchFilter,
    MultipathModel,
    ionosphere_free_epoch,
)
from repro.constellation import SatellitePass, find_passes
from repro.motion import (
    Trajectory,
    StaticTrajectory,
    LinearTrajectory,
    GreatCircleTrajectory,
    WaypointTrajectory,
    KinematicScenario,
    AlphaBetaFilter,
)
from repro.stations import (
    Station,
    STATIONS,
    get_station,
    all_stations,
    DatasetConfig,
    ObservationDataset,
    generate_dataset,
)

__version__ = "1.0.0"

__all__ = [
    "SPEED_OF_LIGHT",
    "ReproError",
    "ConfigurationError",
    "GeometryError",
    "ConvergenceError",
    "EphemerisError",
    "RinexError",
    "DatasetError",
    "EstimationError",
    "ServiceError",
    "QueueFullError",
    "RequestTimeoutError",
    "GpsTime",
    "SatelliteObservation",
    "ObservationEpoch",
    "EpochTruth",
    "epoch_integrity_error",
    "EpochBlock",
    "PackedStream",
    "pack_stream",
    "Constellation",
    "Satellite",
    "SteeringClock",
    "ThresholdClock",
    "ConstantClockBiasPredictor",
    "LinearClockBiasPredictor",
    "KalmanClockBiasPredictor",
    "OracleClockBiasPredictor",
    "ZeroClockBiasPredictor",
    "PositionFix",
    "PositioningAlgorithm",
    "NewtonRaphsonSolver",
    "DLOSolver",
    "DLGSolver",
    "BancroftSolver",
    "ThreeSatelliteSolver",
    "BatchDLOSolver",
    "BatchDLGSolver",
    "BatchNewtonRaphsonSolver",
    "EngineDiagnostics",
    "EngineResult",
    "ParallelReplay",
    "PositioningEngine",
    "SolverConfig",
    "solve",
    "solve_batch",
    "AsyncPositioningClient",
    "PositioningService",
    "ServiceConfig",
    "ServiceResult",
    "telemetry",
    "FaultProfile",
    "FuzzConfig",
    "FuzzHarness",
    "Scenario",
    "ScenarioConfig",
    "ScenarioGenerator",
    "run_differential",
    "run_metamorphic",
    "RaimMonitor",
    "RaimResult",
    "BatchFde",
    "EpochVerdict",
    "FdeConfig",
    "FdeRecord",
    "HealthConfig",
    "SatelliteHealthTracker",
    "VelocityFix",
    "VelocitySolver",
    "NavigationEkf",
    "GpsReceiver",
    "compute_dop",
    "DilutionOfPrecision",
    "DgpsCorrections",
    "DgpsReferenceStation",
    "apply_corrections",
    "HatchFilter",
    "MultipathModel",
    "ionosphere_free_epoch",
    "SatellitePass",
    "find_passes",
    "Trajectory",
    "StaticTrajectory",
    "LinearTrajectory",
    "GreatCircleTrajectory",
    "WaypointTrajectory",
    "KinematicScenario",
    "AlphaBetaFilter",
    "Station",
    "STATIONS",
    "get_station",
    "all_stations",
    "DatasetConfig",
    "ObservationDataset",
    "generate_dataset",
    "__version__",
]
