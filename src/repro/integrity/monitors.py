"""Streaming signal-plausibility monitors: what residuals can't see.

The RAIM/FDE stack (:mod:`repro.integrity.fde`) is residual-based: it
catches measurements that disagree with *each other*.  A coherent
spoofer — a meaconed replay, a slow position drag, a clock pull — keeps
the measurement set self-consistent by construction, so every residual
test passes while the fix walks away.  The monitors in this module
watch the observables such an attack cannot keep plausible at the same
time: the C/N0 lane against the elevation-dependent nominal curve
(:mod:`repro.signals.features`), the implied per-system receiver clock
against its physical drift bounds, and — for receivers that declare
themselves stationary — the fix itself against position/velocity
plausibility.

Architecture:

* a :class:`StreamingMonitor` consumes a :class:`StreamContext` (the
  stream-ordered, NaN-padded columnar lanes of one solved
  :class:`~repro.blocks.PackedStream`) and returns vectorized per-epoch
  raw breaches, statistics and per-satellite flags.  Monitors carry
  bounded ring-buffer state across calls, keyed only on epoch order —
  never on batch boundaries — so a stream chopped into different batch
  sizes produces bitwise-identical verdicts (the shard-parity
  contract);
* :class:`MonitorSuite` runs a set of monitors and applies the
  **M-of-N confirmation rung**: a raw breach is ``suspect`` the epoch
  it fires and escalates to ``spoofed`` once ``confirm_epochs`` of the
  last ``confirm_window`` epochs breached — one noisy epoch degrades
  gracefully (served, flagged, recorded), a persistent signature blocks;
* combinators (:class:`AndFiltered`, :class:`MOfNFiltered`) compose
  monitors at the raw-breach level for custom suites;
* per-satellite flags feed :meth:`SatelliteHealthTracker.
  record_monitor_strike <repro.integrity.health.SatelliteHealthTracker.
  record_monitor_strike>`, so monitor evidence drives the same
  quarantine machinery as FDE exclusions without double-counting.

Everything is NaN-aware: a stream without a C/N0 lane simply keeps the
C/N0 monitors silent, and epochs whose solve failed are skipped by the
geometry monitors.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.blocks import PackedStream, satellite_label
from repro.constellation.systems import SYSTEM_CODES
from repro.errors import ConfigurationError

__all__ = [
    "SEVERITY_NOMINAL",
    "SEVERITY_SUSPECT",
    "SEVERITY_SPOOFED",
    "SEVERITY_NAMES",
    "MonitorVerdict",
    "EpochMonitorVerdict",
    "MonitorRecord",
    "MonitorConfig",
    "MonitorSuite",
    "StreamContext",
    "StreamingMonitor",
    "Cn0ThresholdMonitor",
    "Cn0DropMonitor",
    "Cn0ConsistencyMonitor",
    "Cn0AgcProxyMonitor",
    "ClockDriftRateMonitor",
    "StationaryPositionMonitor",
    "StationaryVelocityMonitor",
    "AndFiltered",
    "MOfNFiltered",
]

#: Epoch-level severity ladder.  ``suspect`` = a raw breach this epoch
#: (served, flagged); ``spoofed`` = the breach confirmed by the M-of-N
#: rung (policy may refuse to serve the fix).
SEVERITY_NOMINAL = 0
SEVERITY_SUSPECT = 1
SEVERITY_SPOOFED = 2
SEVERITY_NAMES: Tuple[str, ...] = ("nominal", "suspect", "spoofed")

_SECONDS_PER_WEEK = 604800.0


@dataclass(frozen=True)
class MonitorVerdict:
    """One monitor's verdict on one epoch.

    ``statistic`` is the monitor's decision variable at this epoch and
    ``threshold`` the value it breached (adaptive monitors report the
    learned threshold).  ``flagged`` names the satellites the monitor
    implicates (``G07``-style labels); common-mode monitors flag none.
    """

    monitor: str
    severity: str
    statistic: float
    threshold: float
    flagged: Tuple[str, ...] = ()

    def to_dict(self) -> Dict:
        return {
            "monitor": self.monitor,
            "severity": self.severity,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "flagged": list(self.flagged),
        }


@dataclass(frozen=True)
class EpochMonitorVerdict:
    """The suite's aggregate verdict on one epoch.

    ``severity`` is the maximum over monitors; ``monitors`` lists only
    the non-nominal contributors (a nominal epoch has no verdict object
    at all — see :meth:`MonitorRecord.verdict`).
    """

    severity: str
    monitors: Tuple[MonitorVerdict, ...]

    @property
    def flagged(self) -> Tuple[str, ...]:
        """Union of per-monitor satellite flags, sorted."""
        labels = {label for verdict in self.monitors for label in verdict.flagged}
        return tuple(sorted(labels))

    def to_dict(self) -> Dict:
        return {
            "severity": self.severity,
            "monitors": [verdict.to_dict() for verdict in self.monitors],
        }


class LaneStats:
    """NaN-quiet reductions of one ``(N, m)`` lane over its finite
    entries (no RuntimeWarnings on all-NaN rows).

    Each reduction is computed on first use and then shared, so the
    monitors reading one lane pay for its mask, counts and sums once.
    """

    def __init__(self, values: np.ndarray) -> None:
        self.values = values

    @cached_property
    def finite(self) -> np.ndarray:
        return np.isfinite(self.values)

    @cached_property
    def count(self) -> np.ndarray:
        return self.finite.sum(axis=-1)

    @cached_property
    def sum(self) -> np.ndarray:
        return np.where(self.finite, self.values, 0.0).sum(axis=-1)

    @cached_property
    def mean(self) -> np.ndarray:
        return np.where(self.count > 0, self.sum / np.maximum(self.count, 1), np.nan)

    @cached_property
    def min(self) -> np.ndarray:
        return self._extreme(np.inf, np.min)

    @cached_property
    def max(self) -> np.ndarray:
        return self._extreme(-np.inf, np.max)

    def _extreme(self, fill: float, reduce) -> np.ndarray:
        values = self.values
        if not values.shape[-1]:
            return np.full(values.shape[:-1], np.nan)
        # Only a row with no finite entry reduces to the fill itself.
        extreme = reduce(np.where(self.finite, values, fill), axis=-1)
        return np.where(extreme == fill, np.nan, extreme)

    def std(self, min_count: int = 2) -> np.ndarray:
        """Population standard deviation, NaN below ``min_count``."""
        safe = np.maximum(self.count, 1)
        centered = np.where(
            self.finite, self.values - (self.sum / safe)[..., np.newaxis], 0.0
        )
        variance = (centered**2).sum(axis=-1) / safe
        return np.where(self.count >= min_count, np.sqrt(variance), np.nan)


@dataclass
class StreamContext:
    """Stream-ordered columnar lanes of one solved packed stream.

    Built once per :meth:`MonitorSuite.observe_stream` call and shared
    by every monitor.  All per-satellite lanes are the ``(N, m_max)``
    lanes of the flush's padded block, NaN/-1 on padded slots;
    ``receiver_positions`` are the *solved* fixes (NaN rows where the
    solve failed), which is deliberate — the monitors judge what the
    service is about to serve, not what the simulator knows.  What more
    than one monitor needs (the C/N0 reductions, the key alignment, the
    per-system clock residuals) is computed on first use, once.
    """

    times: np.ndarray  # (N,) seconds (week*604800 + sow)
    receiver_positions: np.ndarray  # (N, 3) solved fixes, NaN-padded
    cn0: np.ndarray  # (N, m_max) dB-Hz, NaN-padded
    nominal_cn0: np.ndarray  # (N, m_max) expected dB-Hz, NaN-padded
    keys: np.ndarray  # (N, m_max) prn*4+system, -1-padded
    system_ids: np.ndarray  # (N, m_max) int8, -1-padded
    sat_positions: np.ndarray  # (N, m_max, 3) ECEF, NaN-padded
    pseudoranges: np.ndarray  # (N, m_max) meters, NaN-padded
    ranges: np.ndarray  # (N, m_max) |sat - fix| meters, NaN-padded

    def __len__(self) -> int:
        return int(self.times.shape[0])

    @property
    def width(self) -> int:
        return int(self.cn0.shape[1])

    @cached_property
    def cn0_stats(self) -> LaneStats:
        return LaneStats(self.cn0)

    @cached_property
    def cn0_deviation(self) -> np.ndarray:
        """``cn0 - nominal_cn0``."""
        return self.cn0 - self.nominal_cn0

    @cached_property
    def deviation_stats(self) -> LaneStats:
        return LaneStats(self.cn0_deviation)

    @cached_property
    def keys_aligned(self) -> np.ndarray:
        """``(N-1,)`` whether row ``i+1`` holds row ``i``'s satellites
        in the same slots."""
        return (self.keys[1:] == self.keys[:-1]).all(axis=1)

    @cached_property
    def system_biases(self) -> np.ndarray:
        """``(N, len(SYSTEM_CODES))`` mean ``pseudorange - range`` of
        each system's satellites per row, NaN where it has none.

        One bincount over ``row*K + system``.  While the fix is near the
        receiver, each pseudorange is within a factor of two of its
        range, so the residual is an exact difference (Sterbenz), a
        multiple of the ranges' ulp, and a row's sum of them needs far
        fewer than 53 bits: it is exact, and the summation order does
        not change its bits.
        """
        n, k = len(self), len(SYSTEM_CODES)
        residuals = self.pseudoranges - self.ranges
        finite = np.isfinite(residuals)  # padding, failed fixes
        index = (np.arange(n)[:, np.newaxis] * k + self.system_ids)[finite]
        sums = np.bincount(index, weights=residuals[finite], minlength=n * k)
        counts = np.bincount(index, minlength=n * k)
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
        return means.reshape(n, k)


def _build_context(
    packed: PackedStream,
    positions: np.ndarray,
    zenith_dbhz: float,
    horizon_dbhz: float,
) -> StreamContext:
    # The padded block's lanes ARE the context lanes (stream-ordered by
    # construction); padded slots read as NaN / -1 whatever the block
    # holds there, so a slab-backed block needs no cleanup upstream.
    block = packed.block
    n, m_max = len(block), block.width
    times = block.weeks * _SECONDS_PER_WEEK + block.seconds_of_week
    keys = block.satellite_keys  # -1 on padded slots already
    system_ids = block.systems
    sat_positions = block.positions
    pseudoranges = block.pseudoranges
    cn0 = block.cn0 if block.cn0 is not None else np.full((n, m_max), np.nan)
    if block.padded:
        occupied = block.occupied
        system_ids = np.where(occupied, system_ids, np.int8(-1))
        sat_positions = np.where(occupied[:, :, np.newaxis], sat_positions, np.nan)
        pseudoranges = np.where(occupied, pseudoranges, np.nan)
        if block.cn0 is not None:
            cn0 = np.where(occupied, cn0, np.nan)
    receiver = np.asarray(positions, dtype=float).reshape(n, 3)
    if m_max:
        # One pass over the satellite geometry, shared by the nominal
        # C/N0 curve here and the clock-drift monitor's residuals.
        delta = sat_positions - receiver[:, np.newaxis, :]
        with np.errstate(invalid="ignore", divide="ignore"):
            # einsum fuses the square-and-reduce into one pass with no
            # (N, m, 3) temporaries; over a length-3 axis its
            # accumulation order matches sum(), so the bits agree with
            # the scalar path.
            ranges = np.sqrt(np.einsum("ijk,ijk->ij", delta, delta))
            up = (
                receiver
                / np.sqrt(np.einsum("ij,ij->i", receiver, receiver))[
                    :, np.newaxis
                ]
            )
            sin_el = np.einsum("ijk,ik->ij", delta, up) / ranges
        # sin(arcsin(x)) is x: feed the elevation sine straight into the
        # gain curve instead of round-tripping through the angle.  NaN
        # lanes (padded satellites, failed fixes) propagate through the
        # clip, so no explicit finite mask is needed.
        gain = np.minimum(np.maximum(sin_el, 0.0), 1.0)  # clip, minus its overhead
        nominal = horizon_dbhz + (zenith_dbhz - horizon_dbhz) * gain
    else:
        ranges = np.full((n, 0), np.nan)
        nominal = np.full((n, 0), np.nan)
    return StreamContext(
        times=times,
        receiver_positions=receiver,
        cn0=cn0,
        nominal_cn0=nominal,
        keys=keys,
        system_ids=system_ids,
        sat_positions=sat_positions,
        pseudoranges=pseudoranges,
        ranges=ranges,
    )


@dataclass
class MonitorOutput:
    """Raw, unconfirmed per-epoch output of one monitor."""

    breach: np.ndarray  # (N,) bool
    statistic: np.ndarray  # (N,) float
    # (N,) float for adaptive monitors, a float shared by every epoch
    # for fixed ones.
    threshold: Union[np.ndarray, float]
    flagged: Optional[np.ndarray] = None  # (N, m_max) bool, None = no flags


class StreamingMonitor:
    """Base protocol: vectorized observe with ring-buffer state.

    State must be a pure function of the *epoch sequence* observed so
    far — never of how the sequence was chopped into ``observe`` calls.
    That invariant is what makes in-process and sharded runs bitwise
    comparable.
    """

    name: str = "?"

    def reset(self) -> None:
        """Drop all carried state (start of a new stream)."""

    def observe(self, ctx: StreamContext) -> MonitorOutput:
        """Raw breaches for every epoch of ``ctx``, advancing state."""
        raise NotImplementedError


class Cn0ThresholdMonitor(StreamingMonitor):
    """Absolute C/N0 floor: tracking this weak is not open-sky GPS.

    Flags satellites below ``threshold_dbhz``; breaches when at least
    ``min_flagged`` are flagged at once (deep jamming pushes the whole
    sky down; a single weak satellite is just a blocked ray).
    """

    name = "cn0_threshold"

    def __init__(self, threshold_dbhz: float = 28.0, min_flagged: int = 2) -> None:
        if not np.isfinite(threshold_dbhz):
            raise ConfigurationError("threshold_dbhz must be finite")
        if min_flagged < 1:
            raise ConfigurationError("min_flagged must be at least 1")
        self.threshold_dbhz = float(threshold_dbhz)
        self.min_flagged = int(min_flagged)

    def observe(self, ctx: StreamContext) -> MonitorOutput:
        flagged = ctx.cn0 < self.threshold_dbhz  # NaN compares False
        breach = flagged.sum(axis=1) >= self.min_flagged
        return MonitorOutput(
            breach=breach,
            statistic=ctx.cn0_stats.min,
            threshold=self.threshold_dbhz,
            flagged=flagged,
        )


class Cn0DropMonitor(StreamingMonitor):
    """Abrupt per-satellite C/N0 drop between consecutive epochs.

    A spoofer capturing a tracking loop first drowns the authentic
    signal — a step down (then up) in C/N0 no elevation change
    explains.  Satellites are matched to the previous epoch by
    ``(system, prn)`` identity; the common case of a stable
    constellation compares lanes elementwise, and the rows whose
    satellite set changed are matched by key in one vectorized pass
    (an ``(R, m, m')`` key-equality cube), never row by row.
    """

    name = "cn0_drop"

    def __init__(self, drop_db: float = 8.0) -> None:
        if not np.isfinite(drop_db) or drop_db <= 0:
            raise ConfigurationError("drop_db must be positive and finite")
        self.drop_db = float(drop_db)
        self._last_keys: Optional[np.ndarray] = None
        self._last_cn0: Optional[np.ndarray] = None

    def reset(self) -> None:
        self._last_keys = None
        self._last_cn0 = None

    def observe(self, ctx: StreamContext) -> MonitorOutput:
        drops = self.drops(ctx)
        flagged = drops > self.drop_db
        return MonitorOutput(
            breach=flagged.any(axis=1),
            statistic=LaneStats(drops).max,
            threshold=self.drop_db,
            flagged=flagged,
        )

    def drops(self, ctx: StreamContext) -> np.ndarray:
        """``(N, m)`` C/N0 fall of every slot's satellite since the
        previous epoch (NaN where it was not in view), advancing the
        carried state."""
        n, width = len(ctx), ctx.width
        drops = np.full((n, width), np.nan)
        keys, cn0 = ctx.keys, ctx.cn0
        if n and width:
            # Row i diffs against row i-1, row 0 against the carried
            # previous epoch, so batch boundaries cannot change the
            # verdict.  Rows whose satellite set is unchanged compare
            # lanes elementwise (the hot path: plain slice arithmetic);
            # the others are matched by key all at once.
            changed = np.zeros(n, dtype=bool)
            if self._last_keys is not None:
                if self._last_keys.shape[0] == width and bool(
                    (self._last_keys == keys[0]).all()
                ):
                    drops[0] = self._last_cn0 - cn0[0]
                else:
                    changed[0] = True
            if n > 1:
                aligned = ctx.keys_aligned
                if aligned.all():
                    drops[1:] = cn0[:-1] - cn0[1:]
                else:
                    rows = np.flatnonzero(aligned) + 1
                    drops[rows] = cn0[rows - 1] - cn0[rows]
                    changed[1:] = ~aligned
            if changed.any():
                self._keyed_drops(drops, np.flatnonzero(changed), keys, cn0)
            self._last_keys = keys[-1].copy()
            self._last_cn0 = cn0[-1].copy()
        return drops

    def _keyed_drops(
        self, drops: np.ndarray, rows: np.ndarray, keys: np.ndarray, cn0: np.ndarray
    ) -> None:
        """Match ``rows``' satellites to their previous epochs' by key.

        One ``(R, m, m')`` key-equality cube over every changed row:
        a slot takes the drop from the previous epoch's slot with its
        key, the last one when the key repeats; padding (``-1``) never
        matches, and NaN C/N0 propagates into the drop.
        """
        width = keys.shape[1]
        carried = 0 if rows[0] else len(self._last_keys)
        previous_keys = np.full((len(rows), max(width, carried)), -1)
        previous_cn0 = np.full(previous_keys.shape, np.nan)
        later = rows > 0
        previous_keys[later, :width] = keys[rows[later] - 1]
        previous_cn0[later, :width] = cn0[rows[later] - 1]
        if carried:
            previous_keys[0, :carried] = self._last_keys
            previous_cn0[0, :carried] = self._last_cn0
        match = keys[rows][:, :, np.newaxis] == previous_keys[:, np.newaxis, :]
        match &= previous_keys[:, np.newaxis, :] >= 0
        hit, slot = np.nonzero(match.any(axis=2))
        last = match.shape[2] - 1 - match[hit, slot, ::-1].argmax(axis=1)
        drops[rows[hit], slot] = previous_cn0[hit, last] - cn0[rows[hit], slot]


class Cn0ConsistencyMonitor(StreamingMonitor):
    """Cross-satellite C/N0 consistency against the elevation curve.

    Independent satellites scatter tightly around the nominal curve; a
    single-transmitter spoofer hands every channel roughly the *same*
    power, so the deviation-from-nominal spread blows up to the spread
    of the curve itself.  The statistic is the standard deviation of
    ``cn0 - nominal`` over reporting satellites.
    """

    name = "cn0_consistency"

    def __init__(self, spread_db: float = 2.0, min_satellites: int = 4) -> None:
        if not np.isfinite(spread_db) or spread_db <= 0:
            raise ConfigurationError("spread_db must be positive and finite")
        if min_satellites < 2:
            raise ConfigurationError("min_satellites must be at least 2")
        self.spread_db = float(spread_db)
        self.min_satellites = int(min_satellites)

    def observe(self, ctx: StreamContext) -> MonitorOutput:
        statistic = ctx.deviation_stats.std(self.min_satellites)
        return MonitorOutput(
            breach=statistic > self.spread_db,
            statistic=statistic,
            threshold=self.spread_db,
        )


class Cn0AgcProxyMonitor(StreamingMonitor):
    """Common-mode C/N0 suppression — the software AGC proxy.

    Broadband interference drives every channel's C/N0 down together
    long before any satellite hits the absolute floor.  The statistic
    is the mean deviation from nominal; breach when it falls below
    ``-suppression_db``.
    """

    name = "cn0_agc"

    def __init__(self, suppression_db: float = 6.0) -> None:
        if not np.isfinite(suppression_db) or suppression_db <= 0:
            raise ConfigurationError("suppression_db must be positive and finite")
        self.suppression_db = float(suppression_db)

    def observe(self, ctx: StreamContext) -> MonitorOutput:
        statistic = ctx.deviation_stats.mean
        return MonitorOutput(
            breach=statistic < -self.suppression_db,
            statistic=statistic,
            threshold=-self.suppression_db,
        )


class ClockDriftRateMonitor(StreamingMonitor):
    """Implied receiver clock drift rate, per constellation.

    The monitor-side generalization of the engine's per-system bias
    lanes: the implied bias is recomputed from the *served fix* —
    ``mean(pseudorange - range)`` per system — so it stays sensitive
    even when a solver pins the bias to a prediction (where a pull
    attack never surfaces in the solved-bias lane).  The drift rate
    over a ``window_epochs`` baseline must stay within the oscillator's
    physical bounds; a clock-pull attack is a rate step no TCXO
    exhibits.
    """

    name = "clock_drift"

    def __init__(
        self,
        max_rate_mps: float = 4.0,
        window_epochs: int = 10,
        max_gap_seconds: float = 30.0,
    ) -> None:
        if not np.isfinite(max_rate_mps) or max_rate_mps <= 0:
            raise ConfigurationError("max_rate_mps must be positive and finite")
        if window_epochs < 1:
            raise ConfigurationError("window_epochs must be at least 1")
        if not np.isfinite(max_gap_seconds) or max_gap_seconds <= 0:
            raise ConfigurationError("max_gap_seconds must be positive and finite")
        self.max_rate_mps = float(max_rate_mps)
        self.window_epochs = int(window_epochs)
        self.max_gap_seconds = float(max_gap_seconds)
        self._carry_times = np.empty(0)
        self._carry_biases = np.empty((0, len(SYSTEM_CODES)))

    def reset(self) -> None:
        self._carry_times = np.empty(0)
        self._carry_biases = np.empty((0, len(SYSTEM_CODES)))

    def observe(self, ctx: StreamContext) -> MonitorOutput:
        n = len(ctx)
        k = len(SYSTEM_CODES)
        times = np.concatenate([self._carry_times, ctx.times])
        series = np.concatenate([self._carry_biases, ctx.system_biases])
        offset = len(self._carry_times)
        rates = np.full((n, k), np.nan)
        # Row i's baseline is series row i + offset - window: rows from
        # `start` on have one, and theirs are one contiguous slice.
        start = max(0, self.window_epochs - offset)
        if start < n:
            lag = offset - self.window_epochs
            base = slice(start + lag, n + lag)
            dt = ctx.times[start:] - times[base]
            # A window-long baseline may legitimately span up to
            # window_epochs nominal intervals; beyond that the stream
            # gapped and the rate is meaningless.
            max_span = self.max_gap_seconds * self.window_epochs
            ok = np.isfinite(dt) & (dt > 0) & (dt <= max_span)
            with np.errstate(invalid="ignore", divide="ignore"):
                rates[start:] = np.where(
                    ok[:, np.newaxis],
                    (series[start + offset :] - series[base])
                    / np.where(ok, dt, 1.0)[:, np.newaxis],
                    np.nan,
                )
        keep = min(len(times), self.window_epochs)
        self._carry_times = times[len(times) - keep :].copy()
        self._carry_biases = series[len(series) - keep :].copy()
        statistic = LaneStats(np.abs(rates)).max
        return MonitorOutput(
            breach=statistic > self.max_rate_mps,
            statistic=statistic,
            threshold=self.max_rate_mps,
        )


class _AdaptiveScale:
    """Shared learn-then-watch scaffolding for the stationary monitors."""

    def __init__(self, learn_epochs: int, floor: float, multiplier: float) -> None:
        self.learn_epochs = int(learn_epochs)
        self.floor = float(floor)
        self.multiplier = float(multiplier)
        self.samples: List[float] = []
        self.threshold: Optional[float] = None

    def reset(self) -> None:
        self.samples = []
        self.threshold = None

    def learned(self) -> bool:
        return self.threshold is not None

    def feed(self, sample: float) -> None:
        """One clean-phase sample; finalizes the threshold when full."""
        self.samples.append(float(sample))
        if len(self.samples) >= self.learn_epochs:
            scale = float(np.sqrt(np.mean(np.square(self.samples))))
            self.threshold = max(self.floor, self.multiplier * scale)


class StationaryPositionMonitor(StreamingMonitor):
    """Displacement plausibility for a declared-stationary receiver.

    Learns a reference position (median of the first ``learn_epochs``
    solved fixes) and a noise scale, then breaches when the fix wanders
    beyond ``max(floor_meters, sigma_multiplier * scale)`` — the slow
    position drag's signature, invisible to residuals by construction.
    """

    name = "stationary_position"

    def __init__(
        self,
        learn_epochs: int = 8,
        floor_meters: float = 15.0,
        sigma_multiplier: float = 4.0,
    ) -> None:
        if learn_epochs < 2:
            raise ConfigurationError("learn_epochs must be at least 2")
        if not np.isfinite(floor_meters) or floor_meters <= 0:
            raise ConfigurationError("floor_meters must be positive and finite")
        if not np.isfinite(sigma_multiplier) or sigma_multiplier <= 0:
            raise ConfigurationError("sigma_multiplier must be positive and finite")
        self.learn_epochs = int(learn_epochs)
        self.floor_meters = float(floor_meters)
        self.sigma_multiplier = float(sigma_multiplier)
        self._fixes: List[np.ndarray] = []
        self._reference: Optional[np.ndarray] = None
        self._scale = _AdaptiveScale(learn_epochs, floor_meters, sigma_multiplier)

    def reset(self) -> None:
        self._fixes = []
        self._reference = None
        self._scale.reset()

    def observe(self, ctx: StreamContext) -> MonitorOutput:
        n = len(ctx)
        statistic = np.full(n, np.nan)
        threshold = np.full(n, np.nan)
        breach = np.zeros(n, dtype=bool)
        start = 0
        if self._reference is None:
            # Learning phase: consume leading finite fixes one at a
            # time until the reference exists.  Rare — at most
            # learn_epochs rows ever take this loop.
            for i in range(n):
                fix = ctx.receiver_positions[i]
                if not np.isfinite(fix).all():
                    continue
                self._fixes.append(fix.copy())
                if len(self._fixes) >= self.learn_epochs:
                    stack = np.stack(self._fixes)
                    self._reference = np.median(stack, axis=0)
                    for sample in stack:
                        self._scale.feed(
                            float(np.linalg.norm(sample - self._reference))
                        )
                    start = i + 1
                    break
            else:
                start = n
        if self._reference is not None and start < n:
            # Watch phase, fully vectorized (the armed hot path).
            delta = ctx.receiver_positions[start:] - self._reference
            with np.errstate(invalid="ignore"):
                displacement = np.sqrt((delta**2).sum(axis=1))
            finite = np.isfinite(displacement)
            statistic[start:] = displacement
            threshold[start:][finite] = self._scale.threshold
            breach[start:] = finite & (displacement > self._scale.threshold)
        return MonitorOutput(breach=breach, statistic=statistic, threshold=threshold)


class StationaryVelocityMonitor(StreamingMonitor):
    """Epoch-to-epoch implied speed of a declared-stationary receiver.

    Catches step changes — a meaconer switching on walks the fix to its
    own antenna at a speed no stationary receiver's noise exhibits.
    The threshold adapts to the observed fix-noise speed scale.
    """

    name = "stationary_velocity"

    def __init__(
        self,
        learn_epochs: int = 8,
        floor_mps: float = 15.0,
        sigma_multiplier: float = 5.0,
        max_gap_seconds: float = 30.0,
    ) -> None:
        if learn_epochs < 2:
            raise ConfigurationError("learn_epochs must be at least 2")
        if not np.isfinite(floor_mps) or floor_mps <= 0:
            raise ConfigurationError("floor_mps must be positive and finite")
        if not np.isfinite(sigma_multiplier) or sigma_multiplier <= 0:
            raise ConfigurationError("sigma_multiplier must be positive and finite")
        if not np.isfinite(max_gap_seconds) or max_gap_seconds <= 0:
            raise ConfigurationError("max_gap_seconds must be positive and finite")
        self.floor_mps = float(floor_mps)
        self.max_gap_seconds = float(max_gap_seconds)
        self._last_time: Optional[float] = None
        self._last_fix: Optional[np.ndarray] = None
        self._scale = _AdaptiveScale(learn_epochs, floor_mps, sigma_multiplier)

    def reset(self) -> None:
        self._last_time = None
        self._last_fix = None
        self._scale.reset()

    def observe(self, ctx: StreamContext) -> MonitorOutput:
        n = len(ctx)
        statistic = np.full(n, np.nan)
        threshold = np.full(n, np.nan)
        breach = np.zeros(n, dtype=bool)
        if n == 0:
            return MonitorOutput(
                breach=breach, statistic=statistic, threshold=threshold
            )
        start = 0
        if not self._scale.learned():
            # Learning phase: consume rows one at a time until the
            # scale finalizes.  Rare — at most learn_epochs rows ever
            # take this loop.
            for i in range(n):
                self._observe_row(ctx, i, statistic, threshold, breach)
                if self._scale.learned():
                    start = i + 1
                    break
            else:
                start = n
        if start < n:
            tail_positions = ctx.receiver_positions[start:]
            tail_times = ctx.times[start:]
            if (
                self._last_fix is not None
                and bool(np.isfinite(tail_positions).all())
                and bool(np.isfinite(tail_times).all())
            ):
                # Armed hot path: every fix and stamp finite, so the
                # last-finite predecessor is just the previous row.
                prev_fix = np.concatenate(
                    [self._last_fix[np.newaxis], tail_positions[:-1]]
                )
                prev_time = np.concatenate([[self._last_time], tail_times[:-1]])
                dt = tail_times - prev_time
                step = np.sqrt(((tail_positions - prev_fix) ** 2).sum(axis=1))
                usable = (dt > 0) & (dt <= self.max_gap_seconds)
                with np.errstate(invalid="ignore", divide="ignore"):
                    speed = np.where(
                        usable, step / np.where(usable, dt, 1.0), np.nan
                    )
                statistic[start:] = speed
                threshold[start:][usable] = self._scale.threshold
                breach[start:] = usable & (speed > self._scale.threshold)
                self._last_time = float(tail_times[-1])
                self._last_fix = tail_positions[-1].copy()
            else:
                for i in range(start, n):
                    self._observe_row(ctx, i, statistic, threshold, breach)
        return MonitorOutput(breach=breach, statistic=statistic, threshold=threshold)

    def _observe_row(
        self,
        ctx: StreamContext,
        i: int,
        statistic: np.ndarray,
        threshold: np.ndarray,
        breach: np.ndarray,
    ) -> None:
        """One epoch of the scalar path (learning, or NaN-holed tails)."""
        fix = ctx.receiver_positions[i]
        time = float(ctx.times[i]) if np.isfinite(ctx.times[i]) else None
        if not np.isfinite(fix).all() or time is None:
            return
        if self._last_fix is not None:
            dt = time - self._last_time
            if 0 < dt <= self.max_gap_seconds:
                # Same expression as the vectorized hot path — norm()
                # routes through BLAS and can differ in the last bit,
                # which would break shard parity.
                speed = float(np.sqrt(((fix - self._last_fix) ** 2).sum())) / dt
                if not self._scale.learned():
                    self._scale.feed(speed)
                else:
                    statistic[i] = speed
                    threshold[i] = self._scale.threshold
                    breach[i] = speed > self._scale.threshold
        self._last_time = time
        self._last_fix = fix.copy()


class AndFiltered(StreamingMonitor):
    """Raw-breach conjunction: breaches only when *every* child does.

    For pairing a sensitive monitor with a confirming one (e.g. AGC
    proxy AND absolute threshold) so neither alone trips the alarm.
    Statistic and threshold are taken from the first child; flags are
    the intersection of children that flag.
    """

    def __init__(self, name: str, monitors: Sequence[StreamingMonitor]) -> None:
        if not monitors:
            raise ConfigurationError("AndFiltered needs at least one monitor")
        self.name = name
        self._monitors = tuple(monitors)

    def reset(self) -> None:
        for monitor in self._monitors:
            monitor.reset()

    def observe(self, ctx: StreamContext) -> MonitorOutput:
        outputs = [monitor.observe(ctx) for monitor in self._monitors]
        breach = outputs[0].breach.copy()
        for output in outputs[1:]:
            breach &= output.breach
        flagged: Optional[np.ndarray] = None
        for output in outputs:
            if output.flagged is None:
                continue
            flagged = (
                output.flagged.copy() if flagged is None else flagged & output.flagged
            )
        return MonitorOutput(
            breach=breach,
            statistic=outputs[0].statistic,
            threshold=outputs[0].threshold,
            flagged=flagged,
        )


class MOfNFiltered(StreamingMonitor):
    """Raw-breach persistence filter: M breaches in the last N epochs.

    Pre-confirms a flappy child *before* the suite's own confirmation
    rung, for monitors whose single-epoch breaches are meaningless.
    Ring state carries across calls, batch-boundary independent.
    """

    def __init__(
        self, monitor: StreamingMonitor, required: int, window: int
    ) -> None:
        if window < 1 or not 1 <= required <= window:
            raise ConfigurationError(
                "need 1 <= required <= window for an M-of-N filter"
            )
        self.name = f"{monitor.name}_{required}of{window}"
        self._monitor = monitor
        self._required = int(required)
        self._window = int(window)
        self._history = np.zeros((1, 0), dtype=bool)

    def reset(self) -> None:
        self._monitor.reset()
        self._history = np.zeros((1, 0), dtype=bool)

    def observe(self, ctx: StreamContext) -> MonitorOutput:
        output = self._monitor.observe(ctx)
        confirmed, self._history = _windowed_confirm(
            output.breach[np.newaxis], self._history, self._required, self._window
        )
        return MonitorOutput(
            breach=confirmed[0],
            statistic=output.statistic,
            threshold=output.threshold,
            flagged=output.flagged,
        )


def _windowed_confirm(
    breaches: np.ndarray, history: np.ndarray, required: int, window: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(confirmed, new_history)`` for M-of-N sliding counts.

    ``breaches`` is ``(K, N)``: one row per monitor, all sharing the
    confirmation config, so one cumulative sum covers every row.
    ``confirmed[k, i]`` is true when epoch ``i`` itself breaches and at
    least ``required`` of the trailing ``window`` epochs (ending at
    ``i``) breached.  ``history`` (``(K, H)``) carries the last
    ``window - 1`` breach bits between calls.
    """
    k, n = breaches.shape
    offset = history.shape[1]
    extended = np.concatenate([history, breaches], axis=1)
    cumulative = np.zeros((k, offset + n + 1), dtype=np.int64)
    np.cumsum(extended, axis=1, out=cumulative[:, 1:])
    low = offset + 1 - window  # the first epoch's window start
    if low >= 0:  # every window is whole: two slices
        counts = cumulative[:, offset + 1 :] - cumulative[:, low : low + n]
    else:
        ends = np.arange(offset + 1, offset + n + 1)
        counts = cumulative[:, ends] - cumulative[:, np.maximum(ends - window, 0)]
    keep = min(offset + n, window - 1)
    return breaches & (counts >= required), extended[:, offset + n - keep :]


@dataclass(frozen=True)
class MonitorRecord:
    """Struct-of-arrays verdicts for one observed stream segment.

    The vectorized product of :meth:`MonitorSuite.observe_stream` —
    per-epoch aggregate severities plus per-monitor severity/statistic/
    threshold/flag lanes.  :meth:`verdict` materializes the per-epoch
    object form lazily (and only for non-nominal epochs, which is what
    keeps the clean-stream hot path allocation-free).
    """

    names: Tuple[str, ...]
    severities: np.ndarray  # (N,) int8, max over monitors
    monitor_severities: np.ndarray  # (K, N) int8
    statistics: np.ndarray  # (K, N) float
    thresholds: np.ndarray  # (K, N) float
    flagged: np.ndarray  # (K, N, m_max) bool
    keys: np.ndarray  # (N, m_max) int64, -1-padded

    def __len__(self) -> int:
        return int(self.severities.shape[0])

    def verdict(self, index: int) -> Optional[EpochMonitorVerdict]:
        """The epoch's verdict object, or ``None`` when nominal."""
        level = int(self.severities[index])
        if level == SEVERITY_NOMINAL:
            return None
        verdicts = []
        for k, name in enumerate(self.names):
            monitor_level = int(self.monitor_severities[k, index])
            if monitor_level == SEVERITY_NOMINAL:
                continue
            flags = self.flagged[k, index]
            labels = tuple(
                satellite_label(key)
                for key in sorted(self.keys[index][flags])
                if key >= 0
            )
            verdicts.append(
                MonitorVerdict(
                    monitor=name,
                    severity=SEVERITY_NAMES[monitor_level],
                    statistic=float(self.statistics[k, index]),
                    threshold=float(self.thresholds[k, index]),
                    flagged=labels,
                )
            )
        return EpochMonitorVerdict(
            severity=SEVERITY_NAMES[level], monitors=tuple(verdicts)
        )

    def flagged_keys(self, index: int, min_severity: int = SEVERITY_SUSPECT):
        """Sorted unique ``prn*4+system`` keys flagged at this epoch by
        any monitor at or above ``min_severity``."""
        rows = self.monitor_severities[:, index] >= min_severity
        if not rows.any():
            return ()
        mask = self.flagged[rows, index].any(axis=0)
        return tuple(int(key) for key in sorted(self.keys[index][mask]) if key >= 0)

    def counts(self) -> Dict[str, int]:
        """Epochs per aggregate severity name."""
        return {
            name: int((self.severities == level).sum())
            for level, name in enumerate(SEVERITY_NAMES)
        }


@dataclass(frozen=True)
class MonitorConfig:
    """Tuning for the default :class:`MonitorSuite`.

    One knob per monitor family plus the shared confirmation rung; see
    ``docs/observability.md`` for the tuning runbook.  ``stationary``
    arms the position/velocity monitors — only set it for receivers
    that genuinely do not move (the spoof-detection deployments the
    suite exists for); a rover would trip them on honest motion.
    """

    cn0_threshold_dbhz: float = 28.0
    cn0_min_flagged: int = 2
    cn0_drop_db: float = 8.0
    cn0_spread_db: float = 2.0
    agc_suppression_db: float = 6.0
    clock_drift_max_mps: float = 4.0
    clock_drift_window: int = 10
    stationary: bool = True
    learn_epochs: int = 8
    position_floor_meters: float = 15.0
    position_sigma_multiplier: float = 4.0
    velocity_floor_mps: float = 15.0
    velocity_sigma_multiplier: float = 5.0
    max_gap_seconds: float = 30.0
    confirm_epochs: int = 3
    confirm_window: int = 5
    zenith_dbhz: float = 50.0
    horizon_dbhz: float = 36.0
    block_spoofed: bool = True

    def __post_init__(self) -> None:
        if self.confirm_window < 1 or not (
            1 <= self.confirm_epochs <= self.confirm_window
        ):
            raise ConfigurationError(
                "need 1 <= confirm_epochs <= confirm_window"
            )
        if self.learn_epochs < 2:
            raise ConfigurationError("learn_epochs must be at least 2")
        if self.zenith_dbhz <= self.horizon_dbhz:
            raise ConfigurationError("zenith_dbhz must exceed horizon_dbhz")
        for name in (
            "cn0_drop_db",
            "cn0_spread_db",
            "agc_suppression_db",
            "clock_drift_max_mps",
            "position_floor_meters",
            "position_sigma_multiplier",
            "velocity_floor_mps",
            "velocity_sigma_multiplier",
            "max_gap_seconds",
        ):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0:
                raise ConfigurationError(f"{name} must be positive and finite")
        if not np.isfinite(self.cn0_threshold_dbhz):
            raise ConfigurationError("cn0_threshold_dbhz must be finite")
        if self.cn0_min_flagged < 1:
            raise ConfigurationError("cn0_min_flagged must be at least 1")
        if self.clock_drift_window < 1:
            raise ConfigurationError("clock_drift_window must be at least 1")

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "MonitorConfig":
        return cls(**data)

    def build(self) -> "MonitorSuite":
        """The default suite this config describes."""
        monitors: List[StreamingMonitor] = [
            Cn0ThresholdMonitor(self.cn0_threshold_dbhz, self.cn0_min_flagged),
            Cn0DropMonitor(self.cn0_drop_db),
            Cn0ConsistencyMonitor(self.cn0_spread_db),
            Cn0AgcProxyMonitor(self.agc_suppression_db),
            ClockDriftRateMonitor(
                self.clock_drift_max_mps,
                self.clock_drift_window,
                self.max_gap_seconds,
            ),
        ]
        if self.stationary:
            monitors.append(
                StationaryPositionMonitor(
                    self.learn_epochs,
                    self.position_floor_meters,
                    self.position_sigma_multiplier,
                )
            )
            monitors.append(
                StationaryVelocityMonitor(
                    self.learn_epochs,
                    self.velocity_floor_mps,
                    self.velocity_sigma_multiplier,
                    self.max_gap_seconds,
                )
            )
        return MonitorSuite(
            monitors,
            confirm_epochs=self.confirm_epochs,
            confirm_window=self.confirm_window,
            zenith_dbhz=self.zenith_dbhz,
            horizon_dbhz=self.horizon_dbhz,
        )


class MonitorSuite:
    """A set of streaming monitors plus the confirmation rung.

    Feed it solved streams in order via :meth:`observe_stream`; state
    (ring buffers, learned references, confirmation history) carries
    across calls, keyed on epoch order only.  Severity semantics: a raw
    breach is ``suspect`` the epoch it fires; once ``confirm_epochs``
    of the trailing ``confirm_window`` epochs breached the same
    monitor, the breach is confirmed and the epoch is ``spoofed``.
    """

    def __init__(
        self,
        monitors: Sequence[StreamingMonitor],
        confirm_epochs: int = 3,
        confirm_window: int = 5,
        zenith_dbhz: float = 50.0,
        horizon_dbhz: float = 36.0,
    ) -> None:
        if not monitors:
            raise ConfigurationError("a MonitorSuite needs at least one monitor")
        names = [monitor.name for monitor in monitors]
        if len(set(names)) != len(names):
            raise ConfigurationError("monitor names must be unique within a suite")
        if confirm_window < 1 or not 1 <= confirm_epochs <= confirm_window:
            raise ConfigurationError("need 1 <= confirm_epochs <= confirm_window")
        self._monitors = tuple(monitors)
        self._confirm_epochs = int(confirm_epochs)
        self._confirm_window = int(confirm_window)
        self._zenith_dbhz = float(zenith_dbhz)
        self._horizon_dbhz = float(horizon_dbhz)
        self._history = np.zeros((len(self._monitors), 0), dtype=bool)

    @property
    def monitors(self) -> Tuple[StreamingMonitor, ...]:
        return self._monitors

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(monitor.name for monitor in self._monitors)

    def reset(self) -> None:
        """Forget all carried state (start of a new stream)."""
        for monitor in self._monitors:
            monitor.reset()
        self._history = np.zeros((len(self._monitors), 0), dtype=bool)

    def observe_stream(
        self, packed: PackedStream, positions: np.ndarray
    ) -> MonitorRecord:
        """Judge one solved stream segment, advancing suite state.

        ``positions`` are the solved fixes aligned with the stream
        (``(N, 3)``, NaN rows where the solve failed).  Returns the
        segment's :class:`MonitorRecord`.
        """
        ctx = _build_context(
            packed, positions, self._zenith_dbhz, self._horizon_dbhz
        )
        n = len(ctx)
        k = len(self._monitors)
        # Every monitor writes its row of the suite's (K, N) lanes; a
        # fixed threshold broadcasts along its row.
        breaches = np.empty((k, n), dtype=bool)
        statistics = np.empty((k, n))
        thresholds = np.empty((k, n))
        flagged = np.zeros((k, n, ctx.width), dtype=bool)
        for index, monitor in enumerate(self._monitors):
            output = monitor.observe(ctx)
            breaches[index] = output.breach
            statistics[index] = output.statistic
            thresholds[index] = output.threshold
            # Flags only count on breaching epochs: a sub-threshold
            # per-satellite wobble is not evidence against the PRN.
            # No breach anywhere (the clean hot path) masks every flag
            # off, so the zero plane stands as-is.
            if output.flagged is not None and output.breach.any():
                flagged[index] = output.flagged & output.breach[:, np.newaxis]
        # One confirmation pass for the whole suite: every monitor
        # shares the M-of-N config, so their histories stay aligned.
        confirmed, self._history = _windowed_confirm(
            breaches, self._history, self._confirm_epochs, self._confirm_window
        )
        monitor_severities = breaches.astype(np.int8)
        monitor_severities[confirmed] = SEVERITY_SPOOFED
        severities = (
            monitor_severities.max(axis=0)
            if k
            else np.zeros(n, dtype=np.int8)
        )
        return MonitorRecord(
            names=self.names,
            severities=severities,
            monitor_severities=monitor_severities,
            statistics=statistics,
            thresholds=thresholds,
            flagged=flagged,
            keys=ctx.keys,
        )
