"""Cross-epoch satellite health memory.

Batch FDE is stateless: a satellite with a persistent fault (a stuck
clock, a bad ephemeris upload) is re-detected from scratch every
epoch, paying the exclusion search each time and briefly polluting
every solve it enters.  :class:`SatelliteHealthTracker` adds the
memory: satellites excluded repeatedly are *quarantined* — pre-excluded
cheaply at admission, before any solving — then re-admitted through a
watched *probation* with exponential reinstatement backoff so a
genuinely flapping satellite settles into long quarantines instead of
oscillating in and out of the solution (flap suppression).

State machine (per satellite)::

    healthy ──exclusion──▶ suspect ──threshold in window──▶ quarantined
       ▲                                                        │
       │                                              quarantine expires
       │                                                        ▼
       └────── probation_epochs clean epochs ────────── probation
                                                                │
                                                 any exclusion  │
                                                                ▼
                                             quarantined (backoff × longer)

Time is the *admission counter*, not wall time: the tracker advances
one tick per :meth:`admit` call, so replayed streams behave
identically to live ones and tests are deterministic.

The tracker is intentionally solver-agnostic — it consumes exclusion
events from any source (batch FDE verdicts, scalar RAIM results) and
is shared by :class:`~repro.core.receiver.GpsReceiver` and the async
service's circuit breaker.  It keys its state by an integer satellite
identity: both callers pass ``prn*4+system`` keys
(:attr:`~repro.blocks.EpochBlock.satellite_keys`), because PRNs repeat
across constellations and a fault on Galileo E1 must not quarantine
GPS G1.  The ``prn`` parameters below are these identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple
from collections import deque

import numpy as np

from repro.blocks import satellite_label
from repro.errors import ConfigurationError
from repro.telemetry import get_registry

#: The four externally visible per-satellite states.
HEALTH_STATES: Tuple[str, ...] = ("healthy", "suspect", "quarantined", "probation")

#: :meth:`SatelliteHealthTracker.record_block`'s ``excluded`` lane: a
#: row that passed with nothing excluded, and a row with no usable
#: verdict (satellite identities are never negative).
CLEAN, UNJUDGED = -1, -2


@dataclass(frozen=True)
class HealthConfig:
    """Tuning for :class:`SatelliteHealthTracker`.

    Attributes
    ----------
    window_epochs:
        Sliding window (in admitted epochs) over which exclusions are
        counted toward quarantine.
    exclusion_threshold:
        Exclusions within the window that trigger quarantine.  The
        default of 3 tolerates isolated false exclusions (a noisy epoch
        scapegoating a healthy satellite) without quarantining.
    quarantine_epochs:
        Base quarantine duration; doubled (``backoff_factor``) on each
        re-quarantine, capped at ``max_quarantine_epochs``.
    probation_epochs:
        Clean epochs a reinstated satellite must serve before it is
        healthy again.  A single exclusion during probation
        re-quarantines immediately.
    backoff_factor, max_quarantine_epochs:
        Reinstatement backoff: quarantine ``i`` lasts
        ``quarantine_epochs * backoff_factor**(i-1)`` epochs, capped.
    min_satellites:
        Admission floor: pre-exclusion never leaves an epoch with
        fewer than this many satellites (5 keeps the epoch
        RAIM-testable; the worst offenders stay excluded, the rest are
        readmitted and left to per-epoch FDE).
    """

    window_epochs: int = 50
    exclusion_threshold: int = 3
    quarantine_epochs: int = 200
    probation_epochs: int = 20
    backoff_factor: float = 2.0
    max_quarantine_epochs: int = 5000
    min_satellites: int = 5

    def __post_init__(self) -> None:
        if self.window_epochs < 1:
            raise ConfigurationError("window_epochs must be at least 1")
        if self.exclusion_threshold < 1:
            raise ConfigurationError("exclusion_threshold must be at least 1")
        if self.quarantine_epochs < 1:
            raise ConfigurationError("quarantine_epochs must be at least 1")
        if self.probation_epochs < 1:
            raise ConfigurationError("probation_epochs must be at least 1")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("backoff_factor must be at least 1.0")
        if self.max_quarantine_epochs < self.quarantine_epochs:
            raise ConfigurationError(
                "max_quarantine_epochs must be at least quarantine_epochs"
            )
        if self.min_satellites < 4:
            raise ConfigurationError("min_satellites must be at least 4")

    def to_dict(self) -> Dict:
        return {
            "window_epochs": self.window_epochs,
            "exclusion_threshold": self.exclusion_threshold,
            "quarantine_epochs": self.quarantine_epochs,
            "probation_epochs": self.probation_epochs,
            "backoff_factor": self.backoff_factor,
            "max_quarantine_epochs": self.max_quarantine_epochs,
            "min_satellites": self.min_satellites,
        }


class _PrnRecord:
    """Mutable per-satellite bookkeeping (internal)."""

    __slots__ = (
        "exclusion_epochs",
        "quarantined",
        "quarantine_until",
        "strikes",
        "probation_left",
        "last_strike_epoch",
        "last_monitor_epoch",
    )

    def __init__(self) -> None:
        self.exclusion_epochs: Deque[int] = deque()
        self.quarantined = False
        self.quarantine_until = 0
        self.strikes = 0  # lifetime quarantine count, drives backoff
        self.probation_left = 0  # > 0 means on probation
        self.last_strike_epoch = -1  # dedupes multi-source strikes
        self.last_monitor_epoch = -1  # epoch of the last monitor strike


class SatelliteHealthTracker:
    """Exclusion memory with probation, backoff, and flap suppression.

    Not thread-safe: the service serializes access through its worker
    thread, and the receiver is single-threaded by construction.
    """

    def __init__(self, config: Optional[HealthConfig] = None) -> None:
        self._config = config if config is not None else HealthConfig()
        self._records: Dict[int, _PrnRecord] = {}
        self._epoch = 0

    @property
    def config(self) -> HealthConfig:
        return self._config

    @property
    def epoch(self) -> int:
        """Admission-counter time: epochs admitted so far."""
        return self._epoch

    # ------------------------------------------------------------------
    def admit(self, prns: Sequence[int]) -> Tuple[int, ...]:
        """Advance one epoch; return the PRNs to pre-exclude from it.

        Quarantines whose sentence expired flip to probation here.
        The returned PRNs are currently quarantined members of
        ``prns``, trimmed (worst strikes first survive) so the epoch
        keeps at least ``min_satellites`` satellites.
        """
        self._epoch += 1
        return self._ban(prns, len(prns))

    def _ban(self, prns: Iterable[int], count: int) -> Tuple[int, ...]:
        """The bans of the epoch just admitted: ``count`` satellites,
        among them ``prns``, which name at least every quarantined one
        (in slot order)."""
        candidates = []
        for prn in prns:
            record = self._records.get(prn)
            if record is None or not record.quarantined:
                continue
            if self._epoch >= record.quarantine_until:
                record.quarantined = False
                record.probation_left = self._config.probation_epochs
                record.exclusion_epochs.clear()
                continue
            candidates.append(prn)
        if not candidates:
            return ()
        # Admission floor: keep the epoch solvable and testable.  The
        # most-struck satellites stay excluded; the tie-break on PRN
        # keeps trimming deterministic.
        budget = count - self._config.min_satellites
        if budget <= 0:
            return ()
        if len(candidates) > budget:
            candidates.sort(key=lambda prn: (-self._records[prn].strikes, prn))
            candidates = candidates[:budget]
        return tuple(sorted(candidates))

    def admit_block(
        self, keys: np.ndarray, counts: np.ndarray
    ) -> Dict[int, Tuple[int, ...]]:
        """:meth:`admit` for every row of a padded block, in row order.

        Row ``i`` names ``keys[i, :counts[i]]``; the tracker advances
        one epoch per row, and the result maps each row that has bans
        to what :meth:`admit` would have returned for it.  Admission
        only touches quarantined satellites, and none is quarantined
        here, so a row naming no currently quarantined satellite just
        advances the clock: with no quarantine active the pass is
        O(tracked satellites), and otherwise only the quarantined
        members of a row are looked at.
        """
        quarantined = [
            prn for prn, record in self._records.items() if record.quarantined
        ]
        start = self._epoch
        banned_rows: Dict[int, Tuple[int, ...]] = {}
        if quarantined:
            widths = counts.tolist()
            for row, members in _members(keys, counts, quarantined).items():
                self._epoch = start + row + 1
                banned = self._ban(members, widths[row])
                if banned:
                    banned_rows[row] = banned
        self._epoch = start + len(counts)
        return banned_rows

    def record_block(
        self, keys: np.ndarray, counts: np.ndarray, excluded: np.ndarray
    ) -> None:
        """One flush's FDE verdicts, in row order, at the current epoch.

        ``excluded`` holds per row the satellite a ``repaired`` verdict
        excluded, :data:`CLEAN` for a ``passed`` row and
        :data:`UNJUDGED` for a row without a usable verdict.  Row by
        row this is :meth:`record_exclusion` of the excluded satellite
        (if any) then :meth:`record_clean` of the row's other
        satellites.  Only probation satellites gain from a clean epoch
        and none enters probation outside admission, so with no
        probation active only the repaired rows are visited, and
        otherwise those plus the probation members of the other rows.
        """
        probation = [
            prn for prn, record in self._records.items() if record.probation_left > 0
        ]
        repaired = np.flatnonzero(excluded >= 0).tolist()
        excluded_list = excluded.tolist()
        if not probation:
            for row in repaired:
                self.record_exclusion(excluded_list[row])
            return
        served = _members(keys, np.where(excluded != UNJUDGED, counts, 0), probation)
        for row in sorted(served.keys() | set(repaired)):
            prn = excluded_list[row]
            if prn >= 0:
                self.record_exclusion(prn)
            self.record_clean(key for key in served.get(row, ()) if key != prn)

    # ------------------------------------------------------------------
    def record_exclusion(self, prn: int) -> None:
        """An FDE/RAIM exclusion of ``prn`` at the current epoch."""
        record = self._records.setdefault(prn, _PrnRecord())
        if record.quarantined:
            return  # already serving; nothing new to learn
        if record.last_monitor_epoch == self._epoch:
            # A monitor already struck this PRN this epoch: the FDE
            # exclusion is the second witness to the same event, not
            # new evidence (the mirror image of the monitor-side dedup).
            return
        record.last_strike_epoch = self._epoch
        if record.probation_left > 0:
            # Probation is one-strike: the satellite already proved
            # flappy, so a single exclusion re-quarantines with backoff.
            record.probation_left = 0
            self._quarantine(record)
            return
        record.exclusion_epochs.append(self._epoch)
        self._prune_window(record)
        if len(record.exclusion_epochs) >= self._config.exclusion_threshold:
            record.exclusion_epochs.clear()
            self._quarantine(record)

    def record_monitor_strike(self, prn: int) -> bool:
        """A signal-plausibility monitor strike against ``prn``.

        Monitors and per-epoch FDE are *independent witnesses to the
        same event*: when both flag one satellite in the same admitted
        epoch, that is one piece of evidence, not two.  This entry
        point therefore dedupes against any strike (FDE or monitor)
        already recorded for the PRN this epoch, and otherwise counts
        exactly like :meth:`record_exclusion` — same window, threshold,
        probation one-strike rule, and reinstatement backoff.

        Returns whether the strike was counted (``False`` when deduped
        or the PRN is already quarantined).
        """
        record = self._records.setdefault(prn, _PrnRecord())
        if record.quarantined or record.last_strike_epoch == self._epoch:
            return False
        # Count first, mark second: the monitor-epoch stamp exists to
        # dedupe a *later* FDE exclusion this epoch, not this call.
        self.record_exclusion(prn)
        record.last_monitor_epoch = self._epoch
        return True

    def record_clean(self, prns: Iterable[int]) -> None:
        """Satellites that served in a passed (un-excluded) epoch."""
        for prn in prns:
            record = self._records.get(prn)
            if record is None or record.probation_left <= 0:
                continue
            record.probation_left -= 1
            # Probation served; strikes persist so the *next*
            # quarantine is still longer (flap suppression).

    # ------------------------------------------------------------------
    def state(self, prn: int) -> str:
        """The PRN's current state name (``HEALTH_STATES``)."""
        record = self._records.get(prn)
        if record is None:
            return "healthy"
        if record.quarantined:
            return "quarantined"
        if record.probation_left > 0:
            return "probation"
        self._prune_window(record)
        if record.exclusion_epochs:
            return "suspect"
        return "healthy"

    def state_counts(self) -> Dict[str, int]:
        """``{state: PRNs}`` over every PRN the tracker has seen."""
        counts = {name: 0 for name in HEALTH_STATES}
        for prn in self._records:
            counts[self.state(prn)] += 1
        return counts

    def quarantined_prns(self) -> Tuple[int, ...]:
        """Currently quarantined PRNs, sorted."""
        return tuple(
            sorted(prn for prn, rec in self._records.items() if rec.quarantined)
        )

    def to_dict(self) -> Dict:
        """JSON-ready snapshot for diagnostics and chaos artifacts.

        Quarantined satellites are listed by label (``G01``, ``E11``),
        read from the service's ``prn*4+system`` keys.
        """
        return {
            "epoch": self._epoch,
            "state_counts": self.state_counts(),
            "quarantined": [satellite_label(key) for key in self.quarantined_prns()],
            "config": self._config.to_dict(),
        }

    def publish(self) -> None:
        """Push per-state PRN counts to the telemetry gauge."""
        registry = get_registry()
        if not registry.enabled:
            return
        gauge = registry.gauge(
            "repro_integrity_tracker_prns",
            "Tracked PRNs by health state.",
            labels=("state",),
        )
        for name, count in self.state_counts().items():
            gauge.labels(state=name).set(count)

    # ------------------------------------------------------------------
    def _quarantine(self, record: _PrnRecord) -> None:
        record.strikes += 1
        duration = self._config.quarantine_epochs * (
            self._config.backoff_factor ** (record.strikes - 1)
        )
        duration = min(duration, float(self._config.max_quarantine_epochs))
        record.quarantined = True
        record.quarantine_until = self._epoch + int(duration)

    def _prune_window(self, record: _PrnRecord) -> None:
        horizon = self._epoch - self._config.window_epochs
        while record.exclusion_epochs and record.exclusion_epochs[0] <= horizon:
            record.exclusion_epochs.popleft()


def _members(
    keys: np.ndarray, counts: np.ndarray, prns: Sequence[int]
) -> Dict[int, List[int]]:
    """Row → the members of ``prns`` among ``keys[row, :counts[row]]``,
    in slot order; rows with none are left out."""
    hits = np.isin(keys, prns) & (np.arange(keys.shape[1]) < counts[:, None])
    rows, slots = np.nonzero(hits)
    members: Dict[int, List[int]] = {}
    for row, key in zip(rows.tolist(), keys[rows, slots].tolist()):
        members.setdefault(row, []).append(key)
    return members
