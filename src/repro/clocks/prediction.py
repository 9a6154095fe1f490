"""Receiver-side clock bias prediction (paper Sections 4.2 and 5.2.2).

The DLO/DLG algorithms need an estimate ``eps_hat_R = c * (D + r t)``
of the receiver clock bias *before* solving for position.  The paper
obtains ``D`` and ``r`` by bootstrapping from the Newton-Raphson
method's solved bias (eq. 5-4, ``D ~= eps_R / c``): a small window of
NR solutions at start-up fits the line, after which the predictor runs
open-loop.  For threshold-corrected clocks, ``D`` is re-estimated
whenever a clock reset is detected (Section 5.2.2).

All predictors speak meters at the interface (the bias as it appears in
pseudoranges) and seconds internally.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Tuple

import numpy as np

from repro.clocks.models import ReceiverClockModel
from repro.constants import SPEED_OF_LIGHT
from repro.errors import ConfigurationError, EstimationError
from repro.timebase import GpsTime


class ClockBiasPredictor(ABC):
    """Interface for receiver clock bias predictors."""

    @abstractmethod
    def observe(self, time: GpsTime, bias_meters: float) -> None:
        """Feed one solved clock bias (meters), e.g. from an NR fix."""

    @abstractmethod
    def predict_bias_meters(self, time: GpsTime) -> float:
        """Predicted receiver clock bias ``eps_hat_R`` in meters."""

    def predict_block(
        self, weeks: np.ndarray, seconds_of_week: np.ndarray
    ) -> np.ndarray:
        """:meth:`predict_bias_meters` for each ``(week,
        seconds_of_week)`` pair, as one float lane.

        The default predicts row by row; a predictor whose prediction
        does not depend on the time fills the lane in one call.
        """
        return np.array(
            [
                self.predict_bias_meters(GpsTime(week=week, seconds_of_week=sow))
                for week, sow in zip(
                    np.asarray(weeks, dtype=np.int64).tolist(),
                    np.asarray(seconds_of_week, dtype=float).tolist(),
                )
            ],
            dtype=float,
        )

    def reanchor(self, time: GpsTime, bias_meters: float) -> None:
        """Unconditionally re-align the prediction to a trusted bias.

        Called when the *caller* has independent evidence the current
        prediction is stale (e.g. the receiver's residual gate fired),
        so the predictor must not second-guess with its own jump
        heuristics.  The default delegates to :meth:`observe`;
        stateful predictors override.
        """
        self.observe(time, bias_meters)

    @property
    @abstractmethod
    def is_ready(self) -> bool:
        """Whether enough observations have been absorbed to predict."""


class ZeroClockBiasPredictor(ClockBiasPredictor):
    """Predicts a zero bias — the "no prediction" ablation baseline.

    Using this with DLO/DLG shows how badly direct linearization fails
    when the clock bias is simply ignored, which is why the paper's
    prediction model matters.
    """

    def observe(self, time: GpsTime, bias_meters: float) -> None:
        pass

    def predict_bias_meters(self, time: GpsTime) -> float:
        return 0.0

    def predict_block(
        self, weeks: np.ndarray, seconds_of_week: np.ndarray
    ) -> np.ndarray:
        return np.zeros(len(weeks))

    @property
    def is_ready(self) -> bool:
        return True


class ConstantClockBiasPredictor(ClockBiasPredictor):
    """Predicts a fixed, caller-supplied bias (meters) at every epoch.

    The workhorse of differential testing: when an epoch's pseudoranges
    were synthesized with a known bias, handing DLO/DLG that exact value
    isolates the *solver* from the *clock model*, so any residual
    disagreement against NR is attributable to the linearization alone.
    """

    def __init__(self, bias_meters: float = 0.0) -> None:
        if not np.isfinite(bias_meters):
            raise ConfigurationError("bias_meters must be finite")
        self._bias_meters = float(bias_meters)

    def observe(self, time: GpsTime, bias_meters: float) -> None:
        pass

    def predict_bias_meters(self, time: GpsTime) -> float:
        return self._bias_meters

    def predict_block(
        self, weeks: np.ndarray, seconds_of_week: np.ndarray
    ) -> np.ndarray:
        return np.full(len(weeks), self._bias_meters)

    @property
    def is_ready(self) -> bool:
        return True


class OracleClockBiasPredictor(ClockBiasPredictor):
    """Predicts the *true* bias straight from the clock model.

    Only possible in simulation; serves as the upper bound in the
    clock-model ablation (what DLO/DLG achieve with perfect clock
    knowledge).
    """

    def __init__(self, clock_model: ReceiverClockModel) -> None:
        self._clock_model = clock_model

    def observe(self, time: GpsTime, bias_meters: float) -> None:
        pass

    def predict_bias_meters(self, time: GpsTime) -> float:
        return SPEED_OF_LIGHT * self._clock_model.bias_seconds(time)

    @property
    def is_ready(self) -> bool:
        return True


class LinearClockBiasPredictor(ClockBiasPredictor):
    """The paper's linear model ``eps_hat_R = c (D + r t)`` (eq. 4-4).

    Parameters
    ----------
    mode:
        ``"steering"`` or ``"threshold"`` — the Table 5.1 clock
        correction type of the station.  Steering fits ``(D, r)`` at
        initialization and keeps *refining* the line with every further
        observation (a running least-squares over the whole history —
        the paper's "use the clock bias calculated by the NR method"
        calibration source, applied continuously; the drift estimate
        tightens as the observation baseline grows).  Threshold mode
        freezes the line after warm-up and instead watches for bias
        resets, re-estimating ``D`` when one occurs and keeping ``r`` —
        refitting across a sawtooth discontinuity would corrupt both
        parameters.
    warmup_samples:
        How many solved-bias observations to collect before fitting the
        line.  Must be at least 2 (a line has two parameters).
    reset_jump_threshold_seconds:
        For threshold mode: an observation deviating from the
        prediction by more than this is treated as a clock reset.
        The default (50 microseconds) sits far above normal prediction
        error and far below the common 1 ms adjustment step.
    """

    def __init__(
        self,
        mode: str = "steering",
        warmup_samples: int = 30,
        reset_jump_threshold_seconds: float = 5e-5,
    ) -> None:
        if mode not in ("steering", "threshold"):
            raise ConfigurationError(
                f"mode must be 'steering' or 'threshold', got {mode!r}"
            )
        if warmup_samples < 2:
            raise ConfigurationError("warmup_samples must be at least 2")
        if reset_jump_threshold_seconds <= 0:
            raise ConfigurationError("reset_jump_threshold_seconds must be positive")
        self._mode = mode
        self._warmup_samples = int(warmup_samples)
        self._reset_jump = float(reset_jump_threshold_seconds)
        self._window: List[Tuple[float, float]] = []  # (gps_seconds, bias_s)
        self._origin: Optional[float] = None  # gps_seconds of t_e = 0
        self._offset: Optional[float] = None  # D (seconds)
        self._drift: Optional[float] = None  # r (s/s)
        self._reset_count = 0
        # Running regression sums for steering-mode refinement
        # (x = seconds since origin, y = bias seconds).
        self._n = 0
        self._sum_x = 0.0
        self._sum_y = 0.0
        self._sum_xx = 0.0
        self._sum_xy = 0.0

    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """The configured clock correction mode."""
        return self._mode

    @property
    def is_ready(self) -> bool:
        return self._offset is not None

    @property
    def offset_seconds(self) -> Optional[float]:
        """The fitted offset ``D`` (seconds), or ``None`` before warmup."""
        return self._offset

    @property
    def drift(self) -> Optional[float]:
        """The fitted drift ``r`` (s/s), or ``None`` before warmup."""
        return self._drift

    @property
    def reset_count(self) -> int:
        """How many clock resets have been detected (threshold mode)."""
        return self._reset_count

    # ------------------------------------------------------------------
    def observe(self, time: GpsTime, bias_meters: float) -> None:
        bias_seconds = bias_meters / SPEED_OF_LIGHT
        t = time.to_gps_seconds()

        if not self.is_ready:
            self._window.append((t, bias_seconds))
            if len(self._window) >= self._warmup_samples:
                self._fit_window()
            return

        if self._mode == "threshold":
            predicted = self._predict_seconds(t)
            if abs(bias_seconds - predicted) > self._reset_jump:
                # Clock reset: keep the drift, move the line so it
                # passes through the fresh observation (eq. 5-4).
                assert self._origin is not None and self._drift is not None
                self._offset = bias_seconds - self._drift * (t - self._origin)
                self._reset_count += 1
            return

        # Steering mode: fold the observation into the running
        # regression and refit (the drift estimate sharpens as the
        # time baseline grows — crucial for long open-loop spans).
        self._accumulate(t, bias_seconds)
        self._refit_from_sums()

    def reanchor(self, time: GpsTime, bias_meters: float) -> None:
        """Move the line through a trusted bias, keeping the drift.

        Unlike :meth:`observe`, no jump-size heuristic applies: a
        threshold-clock reset step exactly at (or below) the detection
        threshold still gets corrected when the caller's own evidence
        demands it.  In steering mode (no resets by construction) the
        observation simply joins the running regression.
        """
        if not self.is_ready or self._mode != "threshold":
            self.observe(time, bias_meters)
            return
        bias_seconds = bias_meters / SPEED_OF_LIGHT
        t = time.to_gps_seconds()
        assert self._origin is not None and self._drift is not None
        self._offset = bias_seconds - self._drift * (t - self._origin)
        self._reset_count += 1

    def predict_bias_meters(self, time: GpsTime) -> float:
        if not self.is_ready:
            raise EstimationError(
                "clock bias predictor is still warming up "
                f"({len(self._window)}/{self._warmup_samples} samples); "
                "solve with NR and feed the bias via observe() first"
            )
        return SPEED_OF_LIGHT * self._predict_seconds(time.to_gps_seconds())

    # ------------------------------------------------------------------
    def _predict_seconds(self, gps_seconds: float) -> float:
        assert (
            self._origin is not None
            and self._offset is not None
            and self._drift is not None
        )
        return self._offset + self._drift * (gps_seconds - self._origin)

    def _fit_window(self) -> None:
        """Least-squares fit of the line through the warmup window."""
        times = np.array([t for t, _b in self._window])
        biases = np.array([b for _t, b in self._window])
        self._origin = float(times[0])
        for t, b in zip(times, biases):
            self._accumulate(float(t), float(b))
        self._refit_from_sums()
        if self._offset is None:
            # Defensive: _refit_from_sums always sets it for n >= 1.
            self._offset = float(np.mean(biases))
            self._drift = 0.0
        self._window.clear()

    def _accumulate(self, gps_seconds: float, bias_seconds: float) -> None:
        assert self._origin is not None or not self._n
        if self._origin is None:
            self._origin = gps_seconds
        x = gps_seconds - self._origin
        self._n += 1
        self._sum_x += x
        self._sum_y += bias_seconds
        self._sum_xx += x * x
        self._sum_xy += x * bias_seconds

    def _refit_from_sums(self) -> None:
        """Closed-form line fit from the running sums."""
        n = self._n
        if n == 0:
            return
        denominator = n * self._sum_xx - self._sum_x * self._sum_x
        if denominator <= 0.0 or n < 2:
            # All observations at one instant: constant-offset model.
            self._offset = self._sum_y / n
            self._drift = 0.0
            return
        drift = (n * self._sum_xy - self._sum_x * self._sum_y) / denominator
        self._drift = drift
        self._offset = (self._sum_y - drift * self._sum_x) / n
