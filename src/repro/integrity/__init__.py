"""Online integrity: fault detection, exclusion, and health memory.

Three layers, stacked by time horizon:

* :mod:`repro.integrity.raim` — the scalar per-epoch monitor
  (:class:`RaimMonitor`), one epoch at a time with full re-solves;
  the reference implementation.
* :mod:`repro.integrity.fde` — :class:`BatchFde`, the vectorized
  batch counterpart the engine and service actually run: chi-square
  gate over stacked DLG solves, leave-one-out exclusion priced in
  closed form from the same solve.
* :mod:`repro.integrity.health` — :class:`SatelliteHealthTracker`,
  cross-epoch exclusion memory with quarantine, probation, and
  reinstatement backoff.
* :mod:`repro.integrity.monitors` — the signal-plausibility plane:
  streaming C/N0, clock-drift, and stationarity monitors that catch
  the residual-consistent attacks (spoofing, meaconing, jamming) FDE
  is structurally blind to, with M-of-N confirmation and graceful
  ``suspect``/``spoofed`` degradation.
"""

from repro.integrity.fde import (
    BatchFde,
    EpochVerdict,
    FdeConfig,
    FdeRecord,
    NO_EXCLUSION,
    STATUS_NAMES,
    STATUS_PASSED,
    STATUS_REPAIRED,
    STATUS_UNCHECKED,
    STATUS_UNUSABLE,
)
from repro.integrity.health import (
    HEALTH_STATES,
    HealthConfig,
    SatelliteHealthTracker,
)
from repro.integrity.monitors import (
    AndFiltered,
    ClockDriftRateMonitor,
    Cn0AgcProxyMonitor,
    Cn0ConsistencyMonitor,
    Cn0DropMonitor,
    Cn0ThresholdMonitor,
    EpochMonitorVerdict,
    MOfNFiltered,
    MonitorConfig,
    MonitorRecord,
    MonitorSuite,
    MonitorVerdict,
    SEVERITY_NAMES,
    SEVERITY_NOMINAL,
    SEVERITY_SPOOFED,
    SEVERITY_SUSPECT,
    StationaryPositionMonitor,
    StationaryVelocityMonitor,
    StreamingMonitor,
)
from repro.integrity.raim import RaimMonitor, RaimResult, chi_square_quantile

__all__ = [
    "AndFiltered",
    "ClockDriftRateMonitor",
    "Cn0AgcProxyMonitor",
    "Cn0ConsistencyMonitor",
    "Cn0DropMonitor",
    "Cn0ThresholdMonitor",
    "EpochMonitorVerdict",
    "MOfNFiltered",
    "MonitorConfig",
    "MonitorRecord",
    "MonitorSuite",
    "MonitorVerdict",
    "SEVERITY_NAMES",
    "SEVERITY_NOMINAL",
    "SEVERITY_SPOOFED",
    "SEVERITY_SUSPECT",
    "StationaryPositionMonitor",
    "StationaryVelocityMonitor",
    "StreamingMonitor",
    "BatchFde",
    "EpochVerdict",
    "FdeConfig",
    "FdeRecord",
    "HEALTH_STATES",
    "HealthConfig",
    "NO_EXCLUSION",
    "RaimMonitor",
    "RaimResult",
    "STATUS_NAMES",
    "STATUS_PASSED",
    "STATUS_REPAIRED",
    "STATUS_UNCHECKED",
    "STATUS_UNUSABLE",
    "SatelliteHealthTracker",
    "chi_square_quantile",
]
