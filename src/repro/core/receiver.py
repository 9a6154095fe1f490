"""End-to-end receiver pipeline (the library's main public entry point).

Ties together everything Section 4 and 5.2.2 describe operationally:

* a **warm-up** phase where epochs are solved with NR and the solved
  clock biases train the clock-bias predictor (eq. 5-4 bootstrap, "a
  small set of data items at the initialization time is used" for the
  drift);
* a **steady state** where the configured closed-form algorithm
  (DLO or DLG) runs with the predicted bias;
* periodic **recalibration** NR solves that keep feeding the predictor
  so threshold-clock resets are detected and absorbed;
* a **residual gate**: a clock reset between recalibrations makes the
  predicted bias wrong by up to ``c * threshold`` (kilometers), which
  blows up the closed-form residuals by orders of magnitude; the
  receiver detects the jump against a running residual history,
  recalibrates with NR immediately, and re-solves the epoch;
* a **fallback**: if the closed-form solve rejects the epoch outright,
  the receiver transparently answers with an NR fix and retrains.

Typical use::

    receiver = GpsReceiver(algorithm="dlg", clock_mode="threshold")
    for epoch in dataset.epochs():
        fix = receiver.process(epoch)
"""

from __future__ import annotations

import logging
import math
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Iterable, List, Optional

from repro.clocks.prediction import ClockBiasPredictor, LinearClockBiasPredictor
from repro.constellation.systems import system_index
from repro.core.base import PositioningAlgorithm
from repro.solvers.bancroft import BancroftSolver
from repro.solvers.direct_linear import DLGSolver, DLOSolver
from repro.solvers.newton_raphson import NewtonRaphsonSolver
from repro.core.selection import BaseSatelliteSelector
from repro.core.types import PositionFix
from repro.errors import ConfigurationError, ConvergenceError, GeometryError
from repro.observations import ObservationEpoch, epoch_integrity_error
from repro.telemetry import get_registry

if TYPE_CHECKING:
    from repro.integrity.health import SatelliteHealthTracker
    from repro.integrity.raim import RaimMonitor

_log = logging.getLogger(__name__)


def _satellite_keys(epoch: ObservationEpoch) -> List[int]:
    """The epoch's ``prn*4+system`` satellite keys in observation
    order, the naming :attr:`~repro.blocks.EpochBlock.satellite_keys`
    gives the service's health tracker."""
    _positions, _pseudoranges, prns, systems = epoch.dense()
    return (prns * 4 + systems).tolist()


#: Buckets for the iterations-to-convergence histogram: NR typically
#: converges in 4-6 iterations from the cold start, 1-2 warm.
_ITERATION_BUCKETS = (1, 2, 3, 4, 5, 6, 7, 8, 10, 15, 20)


class GpsReceiver:
    """A complete positioning pipeline around one algorithm choice.

    Parameters
    ----------
    algorithm:
        ``"nr"``, ``"dlo"``, ``"dlg"``, or ``"bancroft"``.
    clock_mode:
        ``"steering"`` or ``"threshold"`` — must match the station's
        clock correction type (Table 5.1) when using DLO/DLG.
    warmup_epochs:
        NR-solved epochs used to fit the clock model before switching
        to the closed-form algorithm.
    recalibration_interval:
        In steady state, run a parallel NR solve every this many epochs
        and feed its bias to the predictor (reset detection).  ``0``
        disables recalibration (pure open-loop prediction).
    predictor:
        Optional externally built clock-bias predictor (e.g. a
        :class:`~repro.clocks.kalman.KalmanClockBiasPredictor`);
        overrides ``clock_mode``/``warmup_epochs``.
    base_selector:
        Optional base-satellite strategy for the difference system.
    nr_solver:
        Optional pre-configured NR instance (warm starts, tolerances).
    raim_sigma_meters:
        When set, every steady-state epoch with enough redundancy runs
        through a :class:`~repro.integrity.raim.RaimMonitor` built
        around the configured solver with this residual sigma — faults
        are detected and excluded transparently.  Only valid with
        ``nr`` and ``dlg`` (whose residual norms are chi-square
        scaled); DLO's raw differenced residuals are not.
    health_tracker:
        Optional shared
        :class:`~repro.integrity.health.SatelliteHealthTracker`.
        Quarantined satellites are pre-excluded from each epoch before
        solving, and RAIM exclusions/clean passes feed the tracker so
        persistently faulty satellites stop paying the per-epoch
        exclusion search.  Satellites are named by ``prn*4+system``
        keys, as the service names them, so the tracker is useful
        standalone or shared with an async service: both paths agree
        on satellite health, and a fault on G07 never bans E07.
    """

    def __init__(
        self,
        algorithm: str = "dlg",
        clock_mode: str = "steering",
        warmup_epochs: int = 30,
        recalibration_interval: int = 60,
        predictor: Optional[ClockBiasPredictor] = None,
        base_selector: Optional[BaseSatelliteSelector] = None,
        nr_solver: Optional[NewtonRaphsonSolver] = None,
        raim_sigma_meters: Optional[float] = None,
        health_tracker: Optional["SatelliteHealthTracker"] = None,
    ) -> None:
        algorithm = algorithm.lower()
        if algorithm not in ("nr", "dlo", "dlg", "bancroft"):
            raise ConfigurationError(
                f"algorithm must be one of nr/dlo/dlg/bancroft, got {algorithm!r}"
            )
        if recalibration_interval < 0:
            raise ConfigurationError("recalibration_interval must be >= 0")

        self._algorithm_name = algorithm
        self._nr = nr_solver if nr_solver is not None else NewtonRaphsonSolver()
        if predictor is not None:
            self._predictor = predictor
        else:
            self._predictor = LinearClockBiasPredictor(
                mode=clock_mode, warmup_samples=warmup_epochs
            )
        self._recalibration_interval = int(recalibration_interval)

        self._solver: PositioningAlgorithm
        if algorithm == "nr":
            self._solver = self._nr
        elif algorithm == "bancroft":
            self._solver = BancroftSolver()
        elif algorithm == "dlo":
            self._solver = DLOSolver(self._predictor, base_selector)
        else:
            self._solver = DLGSolver(self._predictor, base_selector)

        self._raim: Optional["RaimMonitor"] = None
        if raim_sigma_meters is not None:
            if algorithm not in ("nr", "dlg"):
                raise ConfigurationError(
                    "RAIM integration requires chi-square-scaled residuals: "
                    "use algorithm='nr' or 'dlg'"
                )
            from repro.integrity.raim import RaimMonitor

            self._raim = RaimMonitor(
                solver=self._solver, sigma_meters=raim_sigma_meters
            )
        self._health = health_tracker

        self._epochs_processed = 0
        #: Recent closed-form residual norms; a new residual far above
        #: this history signals a stale clock prediction (clock reset).
        self._residual_history: Deque[float] = deque(maxlen=40)
        #: How many times above the running median residual counts as
        #: anomalous.  The bias error at a 1 ms reset inflates residuals
        #: by ~4 orders of magnitude, so 50x has huge margin both ways.
        self._residual_gate_factor = 50.0
        self._stats: Dict[str, int] = {
            "warmup_fixes": 0,
            "closed_form_fixes": 0,
            "nr_fixes": 0,
            "recalibrations": 0,
            "fallbacks": 0,
            "residual_gate_trips": 0,
            "residual_gate_recoveries": 0,
            "raim_exclusions": 0,
            "raim_unrepaired": 0,
            "rejected_epochs": 0,
            "health_preexclusions": 0,
        }

    # ------------------------------------------------------------------
    @property
    def algorithm(self) -> str:
        """The configured algorithm name."""
        return self._algorithm_name

    @property
    def predictor(self) -> ClockBiasPredictor:
        """The clock-bias predictor in use."""
        return self._predictor

    @property
    def stats(self) -> Dict[str, int]:
        """Pipeline counters (copies; safe to mutate)."""
        return dict(self._stats)

    @property
    def epochs_processed(self) -> int:
        """Total epochs seen by :meth:`process`."""
        return self._epochs_processed

    # ------------------------------------------------------------------
    def _event(self, name: str) -> None:
        """Bump a pipeline counter, mirrored into the metrics registry."""
        self._stats[name] += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "repro_receiver_events_total",
                "GpsReceiver pipeline events by type.",
                labels=("event",),
            ).labels(event=name).inc()

    def _nr_fix(self, epoch: ObservationEpoch) -> PositionFix:
        """One NR solve, with iteration telemetry."""
        fix = self._nr.solve(epoch)
        registry = get_registry()
        if registry.enabled:
            registry.histogram(
                "repro_receiver_nr_iterations",
                "Iterations NR needed to converge inside the receiver.",
                buckets=_ITERATION_BUCKETS,
            ).observe(fix.iterations)
        return fix

    def process(self, epoch: ObservationEpoch) -> PositionFix:
        """Solve one epoch, transparently handling warm-up and resets.

        Raises
        ------
        GeometryError
            If the epoch fails the shared input contract
            (:func:`~repro.observations.epoch_integrity_error`):
            undersized, duplicate PRNs, or non-finite measurements.
            Checked before any solver or fallback runs, so a corrupt
            epoch can never half-train the clock predictor.
        """
        integrity_error = epoch_integrity_error(epoch)
        if integrity_error is not None:
            self._event("rejected_epochs")
            raise GeometryError(integrity_error)
        self._epochs_processed += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "repro_receiver_epochs_total",
                "Epochs seen by GpsReceiver.process.",
                labels=("algorithm",),
            ).labels(algorithm=self._algorithm_name).inc()

        if self._health is not None:
            keys = _satellite_keys(epoch)
            pre_excluded = self._health.admit(keys)
            if pre_excluded:
                banned = set(pre_excluded)
                kept = [
                    obs
                    for obs, key in zip(epoch.observations, keys)
                    if key not in banned
                ]
                if len(kept) >= 4:
                    epoch = epoch.with_observations(kept)
                    self._event("health_preexclusions")

        if self._algorithm_name in ("nr", "bancroft"):
            if self._algorithm_name == "nr":
                fix = (
                    self._nr_fix(epoch)
                    if self._raim is None or epoch.satellite_count < 5
                    else self._checked_solve(epoch)
                )
                self._event("nr_fixes")
                return fix
            return self._checked_solve(epoch)

        if not self._predictor.is_ready:
            fix = self._nr_fix(epoch)
            if fix.clock_bias_meters is not None:
                self._predictor.observe(epoch.time, fix.clock_bias_meters)
            self._event("warmup_fixes")
            self._event("nr_fixes")
            return fix

        if (
            self._recalibration_interval
            and self._epochs_processed % self._recalibration_interval == 0
        ):
            self._recalibrate(epoch)

        try:
            fix = self._checked_solve(epoch)
        except GeometryError:
            # The prediction can be grossly wrong exactly at a clock
            # reset; answer with NR and retrain the predictor.
            _log.warning(
                "closed-form solve rejected epoch %d; falling back to NR",
                self._epochs_processed,
            )
            fix = self._nr_fix(epoch)
            if fix.clock_bias_meters is not None:
                self._predictor.observe(epoch.time, fix.clock_bias_meters)
            self._event("fallbacks")
            self._event("nr_fixes")
            return fix

        if self._residual_is_anomalous(fix.residual_norm):
            # Clock reset between recalibrations: the exploded residual
            # is independent evidence the prediction is stale, so
            # re-anchor the predictor unconditionally and re-solve.
            _log.warning(
                "residual gate tripped at epoch %d (residual %.3e m); "
                "recalibrating clock prediction",
                self._epochs_processed,
                fix.residual_norm,
            )
            self._event("residual_gate_trips")
            self._recalibrate(epoch, force=True)
            try:
                fix = self._checked_solve(epoch)
                self._event("residual_gate_recoveries")
            except GeometryError:
                fix = self._nr_fix(epoch)
                self._event("fallbacks")
                self._event("nr_fixes")
                return fix

        if math.isfinite(fix.residual_norm):
            self._residual_history.append(fix.residual_norm)
        self._event("closed_form_fixes")
        return fix

    def process_many(self, epochs: "Iterable[ObservationEpoch]") -> "List[PositionFix]":
        """Process an epoch stream in order, returning one fix per epoch.

        Equivalent to calling :meth:`process` in a loop; exists so bulk
        replay (and the parallel executor in :mod:`repro.engine`) has a
        single picklable entry point per receiver.
        """
        return [self.process(epoch) for epoch in epochs]

    def _checked_solve(self, epoch: ObservationEpoch):
        """Solve one epoch, through RAIM when enabled and possible."""
        if self._raim is None or epoch.satellite_count < 5:
            return self._solver.solve(epoch)
        result = self._raim.check(epoch)
        if result.excluded_prn is not None:
            _log.info("RAIM excluded PRN %s at epoch %d",
                      result.excluded_prn, self._epochs_processed)
            self._event("raim_exclusions")
        if not result.passed:
            self._event("raim_unrepaired")
        if self._health is not None:
            keys = _satellite_keys(epoch)
            if result.excluded_prn is not None:
                excluded = result.excluded_prn * 4 + system_index(
                    result.excluded_system
                )
                self._health.record_exclusion(excluded)
                self._health.record_clean(key for key in keys if key != excluded)
            elif result.passed:
                self._health.record_clean(keys)
        return result.fix

    def _residual_is_anomalous(self, residual_norm: float) -> bool:
        if not math.isfinite(residual_norm) or len(self._residual_history) < 10:
            return False
        history = sorted(self._residual_history)
        median = history[len(history) // 2]
        return residual_norm > self._residual_gate_factor * max(median, 1e-9)

    # ------------------------------------------------------------------
    def _recalibrate(self, epoch: ObservationEpoch, force: bool = False) -> None:
        try:
            nr_fix = self._nr_fix(epoch)
        except (ConvergenceError, GeometryError):
            _log.debug(
                "recalibration NR solve failed at epoch %d; skipping",
                self._epochs_processed,
            )
            return  # skip this recalibration; the main solve still runs
        if nr_fix.clock_bias_meters is not None:
            if force:
                self._predictor.reanchor(epoch.time, nr_fix.clock_bias_meters)
            else:
                self._predictor.observe(epoch.time, nr_fix.clock_bias_meters)
            self._event("recalibrations")
