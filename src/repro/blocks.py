"""The columnar epoch store: struct-of-arrays blocks for the hot path.

Every tier of the stack used to re-pack Python
:class:`~repro.observations.ObservationEpoch` objects into numpy
arrays at its own boundary — the service before dispatch, the engine
for integrity screening, the batch solvers for stacking, the FDE gate
for exclusion.  Profiling showed that for batched DLG well over 80% of
the per-fix time was exactly this boundary cost, not solver math.

:class:`EpochBlock` is the one representation that crosses all of
those boundaries: N epochs of any satellite counts as read-only dense
arrays padded to the widest row (positions ``(N, m, 3)``,
pseudoranges ``(N, m)``, PRNs ``(N, m)``, epoch times, truth), packed
**once** — at decode, or on first contact with the batch path — and
flowing zero-copy from there:

* :func:`pack_stream` packs a whole flush in one pass
  (:class:`PackedStream`: the padded block plus the rows that could
  not be packed at all);
* :meth:`EpochBlock.validity_mask` answers the structural-integrity
  question (:func:`~repro.observations.epoch_integrity_error`) as a
  handful of vectorized reductions instead of a per-epoch Python walk;
* the batch solvers (:mod:`repro.solvers.batch`), the FDE gate
  (:mod:`repro.integrity.fde`) and the monitors consume the block's
  arrays directly, giving padded slots zero weight.

Row ``i`` keeps its satellites in slots ``[0, counts[i])``; the
padded slots hold NaN positions and pseudoranges, PRN and system id
``-1``.  Consumers never trust the padding's contents (a block viewed
straight out of a shared-memory slab may carry anything there): they
mask by :attr:`EpochBlock.occupied`.

Blocks carry exactly the solver contract: satellite positions,
pseudoranges, PRNs, system ids, epoch times, optional C/N0 and
optional truth.  Auxiliary per-satellite fields (elevation, carrier
phase, Doppler) stay on the source
:class:`~repro.observations.ObservationEpoch` objects, which remain
the rich data model for everything off the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter, countOf
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.constellation.systems import SYSTEM_CODES, system_code
from repro.errors import ConfigurationError, GeometryError, ReproError
from repro.observations import (
    EpochTruth,
    ObservationEpoch,
    SatelliteObservation,
)
from repro.telemetry import get_registry
from repro.timebase import GpsTime

#: Block-size histogram buckets (epochs per packed block).
_BLOCK_SIZE_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 5000)

#: Byte -> compact system id byte (``0xff``, ``-1`` as int8: no
#: system), the :meth:`bytes.translate` table :func:`pack_stream` maps
#: every observation's one-letter tag through (lower case accepted,
#: like :func:`~repro.constellation.systems.normalize_system`).
_SYSTEM_IDS = bytearray(b"\xff" * 256)
for _index, _code in enumerate(SYSTEM_CODES):
    _SYSTEM_IDS[ord(_code)] = _SYSTEM_IDS[ord(_code.lower())] = _index

#: Duplicate-check key of padded slots (minus the slot index).
_PAD_KEY = np.iinfo(np.int64).max

#: Why a row :func:`pack_stream` could not pack is invalid.
UNPACKABLE_ERROR = "epoch could not be packed into dense arrays"

#: What a malformed observation raises while its lanes are built.
_PACK_ERRORS = (TypeError, ValueError, OverflowError, KeyError, AttributeError)

#: The one position layout :func:`_joined_positions` joins buffers of.
_FLOAT64 = np.dtype(np.float64)
_DTYPE = attrgetter("dtype")
_NDIM = attrgetter("ndim")


def satellite_label(key: int) -> str:
    """A ``prn*4+system`` satellite key (:attr:`EpochBlock.
    satellite_keys`) as its ``G07``-style label."""
    return f"{system_code(int(key) & 3)}{int(key) >> 2:02d}"


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array`` itself when it is already read-only, else a read-only
    view of it (the caller's copy stays writable)."""
    if not array.flags.writeable:
        return array
    view = array.view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True)
class EpochBlock:
    """N epochs as dense, read-only arrays padded to a common width.

    Attributes
    ----------
    positions:
        ``(N, m, 3)`` satellite ECEF positions (float64).
    pseudoranges:
        ``(N, m)`` measured pseudoranges (float64).
    prns:
        ``(N, m)`` satellite PRNs (int64), aligned with the satellite
        axis of ``positions``/``pseudoranges``.
    weeks, seconds_of_week:
        ``(N,)`` per-epoch GPS times in (week, seconds-of-week) form —
        columnar so a block never holds per-epoch Python objects.
    truth_positions, truth_biases:
        ``(N, 3)`` / ``(N,)`` simulation ground truth; all-NaN rows
        mark epochs without truth (an :class:`~repro.observations.
        EpochTruth` position is validated finite, so NaN is
        unambiguous).
    systems:
        ``(N, m)`` compact GNSS system ids (int8, the indices of
        :data:`repro.constellation.systems.SYSTEM_CODES`), aligned with
        the satellite axis.  ``None`` defaults to all-GPS (zeros), so
        every single-constellation producer keeps working unchanged.
    cn0:
        Optional ``(N, m)`` C/N0 lane (dB-Hz, float64), NaN where a
        channel reported no carrier-to-noise ratio.  ``None`` (the
        default) means no row of the block reports C/N0 at all — the
        solvers never read this lane, only the signal-plausibility
        monitors do, so blocks built from plain pseudorange streams
        pay nothing for it.
    counts:
        ``(N,)`` satellites per row: row ``i`` occupies slots
        ``[0, counts[i])`` and the rest is padding.  ``None`` (the
        default) means every row fills the full width ``m``.

    All arrays are read-only: a block is a value, shared freely across
    tiers without defensive copies.
    """

    positions: np.ndarray
    pseudoranges: np.ndarray
    prns: np.ndarray
    weeks: np.ndarray
    seconds_of_week: np.ndarray
    truth_positions: np.ndarray
    truth_biases: np.ndarray
    systems: Optional[np.ndarray] = None
    cn0: Optional[np.ndarray] = None
    counts: Optional[np.ndarray] = None
    _occupied: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )
    _padded: bool = field(default=False, init=False, repr=False, compare=False)
    _keys: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        positions = np.asarray(self.positions, dtype=float)
        if positions.ndim != 3 or positions.shape[2] != 3:
            raise ConfigurationError(
                f"positions must have shape (N, m, 3), got {positions.shape}"
            )
        n, m = positions.shape[:2]
        pseudoranges = np.asarray(self.pseudoranges, dtype=float)
        prns = np.asarray(self.prns, dtype=np.int64)
        weeks = np.asarray(self.weeks, dtype=np.int64)
        sow = np.asarray(self.seconds_of_week, dtype=float)
        truth_positions = np.asarray(self.truth_positions, dtype=float)
        truth_biases = np.asarray(self.truth_biases, dtype=float)
        if pseudoranges.shape != (n, m):
            raise ConfigurationError(
                f"pseudoranges shape {pseudoranges.shape} does not match "
                f"positions ({n}, {m})"
            )
        if prns.shape != (n, m):
            raise ConfigurationError(
                f"prns shape {prns.shape} does not match positions ({n}, {m})"
            )
        if weeks.shape != (n,) or sow.shape != (n,):
            raise ConfigurationError(
                f"weeks/seconds_of_week must have shape ({n},), got "
                f"{weeks.shape}/{sow.shape}"
            )
        if truth_positions.shape != (n, 3) or truth_biases.shape != (n,):
            raise ConfigurationError(
                f"truth arrays must have shapes ({n}, 3)/({n},), got "
                f"{truth_positions.shape}/{truth_biases.shape}"
            )
        padded = False
        if self.counts is None:
            counts = np.full(n, m, dtype=np.int64)
        else:
            counts = np.asarray(self.counts, dtype=np.int64)
            if counts.shape != (n,):
                raise ConfigurationError(
                    f"counts shape {counts.shape} does not match {n} rows"
                )
            if n:
                low = int(counts.min())
                if low < 0 or int(counts.max()) > m:
                    raise ConfigurationError(
                        f"satellite counts must be in [0, {m}] for a block of width {m}"
                    )
                padded = low < m
        occupied = np.arange(m) < counts[:, None] if padded else None
        if self.systems is None:
            systems = np.zeros((n, m), dtype=np.int8)
        else:
            systems = np.asarray(self.systems, dtype=np.int8)
            if systems.shape != (n, m):
                raise ConfigurationError(
                    f"systems shape {systems.shape} does not match positions "
                    f"({n}, {m})"
                )
            tags = systems if occupied is None else systems[occupied]
            # Viewed unsigned, a negative id reads above 3: one
            # reduction checks both ends.
            if tags.view(np.uint8).max(initial=0) > 3:
                raise ConfigurationError(
                    "system ids must be in [0, 3] (G/R/E/C)"
                )
        cn0 = self.cn0
        if cn0 is not None:
            cn0 = np.asarray(cn0, dtype=float)
            if cn0.shape != (n, m):
                raise ConfigurationError(
                    f"cn0 shape {cn0.shape} does not match positions ({n}, {m})"
                )
            cn0 = _read_only(cn0)
        keys = prns * 4
        keys += systems
        if padded:
            keys[~occupied] = -1
        else:
            occupied = np.ones((n, m), dtype=bool)
        occupied.setflags(write=False)
        keys.setflags(write=False)
        self.__dict__.update(
            positions=_read_only(positions),
            pseudoranges=_read_only(pseudoranges),
            prns=_read_only(prns),
            weeks=_read_only(weeks),
            seconds_of_week=_read_only(sow),
            truth_positions=_read_only(truth_positions),
            truth_biases=_read_only(truth_biases),
            systems=_read_only(systems),
            cn0=cn0,
            counts=_read_only(counts),
            _occupied=occupied,
            _padded=padded,
            _keys=keys,
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.positions.shape[0])

    @property
    def width(self) -> int:
        """The padded satellite axis length ``m`` (the widest row)."""
        return int(self.positions.shape[1])

    @property
    def occupied(self) -> np.ndarray:
        """``(N, m)`` mask of slots holding a satellite (not padding)."""
        return self._occupied

    @property
    def padded(self) -> bool:
        """Whether any row is narrower than the block width."""
        return self._padded

    @property
    def satellite_keys(self) -> np.ndarray:
        """``(N, m)`` ``prn*4+system`` satellite identities (int64).

        PRNs are unique only within a system; folding the 2-bit
        system id in names a satellite across constellations.  Padded
        slots read ``-1``.  Built once with the block: admission, the
        health tracker and the monitors all read the same lane.
        """
        return self._keys

    def time(self, index: int) -> GpsTime:
        """The :class:`~repro.timebase.GpsTime` of epoch ``index``."""
        return GpsTime(
            week=int(self.weeks[index]),
            seconds_of_week=float(self.seconds_of_week[index]),
        )

    def has_truth(self) -> np.ndarray:
        """``(N,)`` mask of epochs carrying simulation ground truth."""
        return np.isfinite(self.truth_positions).all(axis=1)

    # ------------------------------------------------------------------
    @classmethod
    def from_epochs(cls, epochs: Sequence[ObservationEpoch]) -> "EpochBlock":
        """Pack N epochs of any satellite counts into one padded block.

        The block half of :func:`pack_stream`; raises
        :class:`~repro.errors.GeometryError` for an empty sequence or
        an epoch whose observations cannot be packed.
        """
        epochs = list(epochs)
        if not epochs:
            raise GeometryError("an EpochBlock needs at least one epoch")
        packed = pack_stream(epochs)
        if packed.unpackable:
            raise GeometryError(
                f"epoch {packed.unpackable[0]} could not be packed into dense arrays"
            )
        return packed.block

    def epoch(self, index: int) -> ObservationEpoch:
        """Materialize row ``index`` as a validated epoch object.

        Goes through the validating constructors, so a structurally
        invalid row (duplicate PRNs, non-finite measurements — see
        :meth:`validity_mask`) raises a
        :class:`~repro.errors.ReproError`.
        """
        cn0 = self.cn0
        observations = tuple(
            SatelliteObservation(
                prn=int(self.prns[index, j]),
                position=self.positions[index, j].copy(),
                pseudorange=float(self.pseudoranges[index, j]),
                system=system_code(int(self.systems[index, j])),
                cn0_dbhz=(
                    float(cn0[index, j])
                    if cn0 is not None and np.isfinite(cn0[index, j])
                    else None
                ),
            )
            for j in range(int(self.counts[index]))
        )
        truth = None
        if np.isfinite(self.truth_positions[index]).all():
            truth = EpochTruth(
                receiver_position=self.truth_positions[index].copy(),
                clock_bias_meters=float(self.truth_biases[index]),
            )
        return ObservationEpoch(
            time=self.time(index), observations=observations, truth=truth
        )

    def to_epochs(self) -> List[ObservationEpoch]:
        """Materialize every row (the inverse of :meth:`from_epochs`).

        Positions, pseudoranges, PRNs, system tags, C/N0, times and
        truth round-trip bit-exactly.  Raises on a structurally invalid
        row, like :meth:`epoch`.
        """
        return [self.epoch(i) for i in range(len(self))]

    def take(self, rows: np.ndarray) -> "EpochBlock":
        """A new block keeping only the given row indices (or mask)."""
        return EpochBlock(
            positions=self.positions[rows],
            pseudoranges=self.pseudoranges[rows],
            prns=self.prns[rows],
            weeks=self.weeks[rows],
            seconds_of_week=self.seconds_of_week[rows],
            truth_positions=self.truth_positions[rows],
            truth_biases=self.truth_biases[rows],
            systems=self.systems[rows],
            cn0=None if self.cn0 is None else self.cn0[rows],
            counts=self.counts[rows],
        )

    def compact(self, keep: np.ndarray) -> "EpochBlock":
        """A new block holding only the occupied slots ``keep`` marks.

        ``keep`` is an ``(N, m)`` mask.  Every row keeps its remaining
        satellites in slot order, left-packed and padded to the new
        widest row: the block :func:`pack_stream` builds from the same
        epochs with the other observations removed.
        """
        keep = keep & self.occupied
        counts = keep.sum(axis=1)
        m = int(counts.max()) if len(self) else 0
        slots = np.arange(m) < counts[:, None]

        def lane(values: np.ndarray, fill, dtype) -> np.ndarray:
            packed = np.full(slots.shape + values.shape[2:], fill, dtype=dtype)
            packed[slots] = values[keep]
            return packed

        cn0 = None if self.cn0 is None else lane(self.cn0, np.nan, float)
        return EpochBlock(
            positions=lane(self.positions, np.nan, float),
            pseudoranges=lane(self.pseudoranges, np.nan, float),
            prns=lane(self.prns, -1, np.int64),
            systems=lane(self.systems, -1, np.int8),
            # Like pack_stream's, the lane exists only while some kept
            # channel reports C/N0.
            cn0=cn0 if cn0 is not None and np.isfinite(cn0).any() else None,
            weeks=self.weeks,
            seconds_of_week=self.seconds_of_week,
            truth_positions=self.truth_positions,
            truth_biases=self.truth_biases,
            counts=counts,
        )

    # ------------------------------------------------------------------
    def validity_mask(self, min_satellites: int = 4) -> np.ndarray:
        """``(N,)`` mask of rows satisfying the solvers' input contract.

        The vectorized equivalent of running :func:`~repro.
        observations.epoch_integrity_error` on every row: satellite
        count, duplicate PRNs, non-finite positions, non-finite or
        non-positive pseudoranges — as a handful of stacked reductions
        over the occupied slots instead of N Python calls.
        """
        valid = self.counts >= min_satellites
        pseudoranges = self.pseudoranges
        coordinates = np.isfinite(self.positions)
        # (three strided ANDs beat a reduction over the length-3 axis)
        finite = coordinates[..., 0] & coordinates[..., 1] & coordinates[..., 2]
        finite &= np.isfinite(pseudoranges)
        finite &= pseudoranges > 0
        # PRNs are unique per (system, prn): duplicates are checked on
        # the satellite keys so cross-system PRN reuse stays legal.
        keys = self.satellite_keys
        if self.padded:
            padding = ~self.occupied
            finite |= padding
            # Distinct sentinels above any real key keep padded slots
            # out of the duplicate check.
            keys = np.where(padding, _PAD_KEY - np.arange(self.width), keys)
        valid &= finite.all(axis=1)
        if self.width > 1:
            sorted_keys = np.sort(keys, axis=1)
            valid &= (sorted_keys[:, 1:] != sorted_keys[:, :-1]).all(axis=1)
        return valid

    def row_integrity_error(
        self, index: int, min_satellites: int = 4
    ) -> Optional[str]:
        """Why row ``index`` violates the contract, or ``None``.

        Mirrors :func:`~repro.observations.epoch_integrity_error`'s
        checks and wording (first violation wins, satellites scanned in
        order) for callers holding only the block.
        """
        m = int(self.counts[index])
        if m < min_satellites:
            return (
                f"epoch has {m} satellites, fewer than {min_satellites} required"
            )
        prns = self.prns[index]
        systems = self.systems[index]
        identities = [
            (system_code(int(systems[j])), int(prns[j])) for j in range(m)
        ]
        if len(set(identities)) != m:
            duplicated = sorted(
                {key for key in identities if identities.count(key) > 1}
            )
            return "epoch contains duplicate PRNs " + ", ".join(
                f"{system}{prn:02d}" for system, prn in duplicated
            )
        for j in range(m):
            if not np.all(np.isfinite(self.positions[index, j])):
                return (
                    f"PRN {int(prns[j])} has a non-finite satellite position"
                )
            pseudorange = self.pseudoranges[index, j]
            if not np.isfinite(pseudorange) or pseudorange <= 0:
                return (
                    f"PRN {int(prns[j])} has a non-finite or non-positive "
                    f"pseudorange ({pseudorange})"
                )
        return None


@dataclass(frozen=True)
class PackedStream:
    """A flush in columnar form: one padded block, stream-aligned.

    Attributes
    ----------
    block:
        Every epoch of the stream, row ``i`` answering stream epoch
        ``i``.
    unpackable:
        Stream indices of epochs that could not be packed at all
        (structurally ragged observations — wrong-shaped positions,
        non-numeric fields).  Their block rows are empty
        (``counts == 0``), so they are invalid by definition; packable
        rows that merely violate the value contract (NaN, duplicate
        PRNs) are found by :meth:`EpochBlock.validity_mask`.
    """

    block: EpochBlock
    unpackable: Tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.block)

    def row_integrity_error(
        self, index: int, min_satellites: int = 4
    ) -> Optional[str]:
        """Why stream epoch ``index`` violates the solver contract, or
        ``None``: :data:`UNPACKABLE_ERROR` for a row that could not be
        packed, else the block row's
        :meth:`EpochBlock.row_integrity_error`."""
        if index in self.unpackable:
            return UNPACKABLE_ERROR
        return self.block.row_integrity_error(index, min_satellites)


def _joined_positions(position_list: list) -> Optional[np.ndarray]:
    """The ``(total, 3)`` position lane as one join of the observations'
    own buffers, or ``None`` unless every position is a C-contiguous,
    native float64, shape ``(3,)`` ndarray — what the validating
    :class:`~repro.observations.SatelliteObservation` constructor builds.

    A position that is anything else (another dtype or byte order, a
    strided view, another shape, a list) sends the flush to
    :func:`_flat_lanes`' general path.
    """
    total = len(position_list)
    try:
        if not (
            countOf(map(_DTYPE, position_list), _FLOAT64) == total
            and countOf(map(_NDIM, position_list), 1) == total
            and countOf(map(len, position_list), 3) == total
        ):
            return None
        joined = b"".join(position_list)  # TypeError on a strided view
    except _PACK_ERRORS:
        return None
    if len(joined) != 24 * total:
        return None
    return np.frombuffer(joined, dtype=np.float64).reshape(total, 3)


def _flat_lanes(epochs: Sequence[ObservationEpoch]):
    """Every observation of ``epochs`` as flat lanes, in stream order.

    One attribute walk per lane over the whole flush, each lane filled
    by a single array constructor.  Raises one of :data:`_PACK_ERRORS`
    if any observation is malformed.
    """
    observation_lists = [epoch.observations for epoch in epochs]
    counts = np.fromiter(
        map(len, observation_lists), dtype=np.int64, count=len(epochs)
    )
    flat = list(chain.from_iterable(observation_lists))
    total = len(flat)
    position_list = [obs.position for obs in flat]
    positions = _joined_positions(position_list) if total else np.empty((0, 3))
    if positions is None:
        if not (
            np.fromiter(map(len, position_list), dtype=np.intp, count=total) == 3
        ).all():
            raise ValueError("satellite positions must be 3-vectors")
        positions = (
            np.concatenate(position_list).astype(float, copy=False).reshape(total, 3)
        )
    pseudoranges = np.fromiter(
        [obs.pseudorange for obs in flat], dtype=float, count=total
    )
    prns = np.fromiter([obs.prn for obs in flat], dtype=np.int64, count=total)
    tags = [obs.system for obs in flat]
    letters = "".join(tags)
    # No empty tag and one letter per observation: every tag is one
    # letter, so the byte table maps the joined string in one pass.
    if len(letters) != total or "" in tags:
        raise ValueError("system tags must be single letters")
    ids = letters.encode("ascii").translate(_SYSTEM_IDS)
    if b"\xff" in ids:
        raise ValueError("unknown system tag")
    systems = np.frombuffer(ids, dtype=np.int8)
    cn0_values = [obs.cn0_dbhz for obs in flat]
    cn0 = None
    if cn0_values.count(None) != total:
        cn0 = np.array(cn0_values, dtype=float)  # None -> NaN
    return counts, positions, pseudoranges, prns, systems, cn0


def _dense_lanes(epochs: Sequence[ObservationEpoch], packable: np.ndarray):
    """:func:`_flat_lanes` through each epoch's own dense arrays.

    The slow path for a flush holding malformed epochs: rows not in
    ``packable`` contribute no observations.
    """
    rows = [epochs[i] for i in np.flatnonzero(packable)]
    dense = [epoch.dense() for epoch in rows]
    counts = np.zeros(len(epochs), dtype=np.int64)
    counts[packable] = [lanes[1].shape[0] for lanes in dense]
    cn0_rows = [epoch.cn0() for epoch in rows]
    cn0 = np.concatenate(cn0_rows) if cn0_rows else np.empty(0)
    return (
        counts,
        np.concatenate([lanes[0] for lanes in dense]) if dense else np.empty((0, 3)),
        np.concatenate([lanes[1] for lanes in dense]) if dense else np.empty(0),
        np.concatenate([lanes[2] for lanes in dense])
        if dense
        else np.empty(0, dtype=np.int64),
        np.concatenate([lanes[3] for lanes in dense])
        if dense
        else np.empty(0, dtype=np.int8),
        cn0 if np.isfinite(cn0).any() else None,
    )


def _is_packable(epoch: ObservationEpoch) -> bool:
    try:
        epoch.dense()
        epoch.cn0()
        float(epoch.time.seconds_of_week)
        int(epoch.time.week)
    except (ReproError,) + _PACK_ERRORS:
        return False
    return True


def pack_stream(epochs: Sequence[ObservationEpoch]) -> PackedStream:
    """Pack a flush of epochs into one padded columnar block, once.

    The single object→array boundary of the whole pipeline: one pass
    gathers every observation of the flush into flat lanes (one array
    constructor per lane, system tags mapped through the code→id
    table), then one masked scatter places them into ``(N, m_max)``
    lanes.  Everything downstream — validity screening, the batched
    solve, FDE, the monitors — works on the block without touching the
    epoch objects again.

    Epochs whose observations cannot be stacked (ragged shapes,
    non-numeric fields — only possible for objects that bypassed the
    validating constructors) are reported as ``unpackable`` (empty
    rows) rather than failing the stream.
    """
    epochs = list(epochs)
    n = len(epochs)
    unpackable: Tuple[int, ...] = ()
    try:
        counts, positions, pseudoranges, prns, systems, cn0 = _flat_lanes(epochs)
        times = [epoch.time for epoch in epochs]
        weeks = np.fromiter([t.week for t in times], dtype=np.int64, count=n)
        sow = np.fromiter(
            [t.seconds_of_week for t in times], dtype=float, count=n
        )
        truths = [epoch.truth for epoch in epochs]
    except _PACK_ERRORS:
        packable = np.array([_is_packable(epoch) for epoch in epochs], dtype=bool)
        unpackable = tuple(np.flatnonzero(~packable).tolist())
        counts, positions, pseudoranges, prns, systems, cn0 = _dense_lanes(
            epochs, packable
        )
        weeks = np.zeros(n, dtype=np.int64)
        sow = np.full(n, np.nan)
        truths = [None] * n
        for i in np.flatnonzero(packable):
            weeks[i] = epochs[i].time.week
            sow[i] = epochs[i].time.seconds_of_week
            truths[i] = epochs[i].truth
    m = int(counts.max()) if n else 0
    if positions.shape[0] == n * m:
        # Every row is m wide: the flat lanes already are the block.
        block_positions = positions.reshape(n, m, 3)
        block_pseudoranges = pseudoranges.reshape(n, m)
        block_prns = prns.reshape(n, m)
        block_systems = systems.reshape(n, m)
        block_cn0 = None if cn0 is None else cn0.reshape(n, m)
    else:
        occupied = np.arange(m) < counts[:, None]
        block_positions = np.full((n, m, 3), np.nan)
        block_positions[occupied] = positions
        block_pseudoranges = np.full((n, m), np.nan)
        block_pseudoranges[occupied] = pseudoranges
        block_prns = np.full((n, m), -1, dtype=np.int64)
        block_prns[occupied] = prns
        block_systems = np.full((n, m), -1, dtype=np.int8)
        block_systems[occupied] = systems
        block_cn0 = None
        if cn0 is not None:
            block_cn0 = np.full((n, m), np.nan)
            block_cn0[occupied] = cn0
    truth_positions = np.full((n, 3), np.nan)
    truth_biases = np.full(n, np.nan)
    if truths.count(None) != n:
        for i, truth in enumerate(truths):
            if truth is not None:
                truth_positions[i] = truth.receiver_position
                truth_biases[i] = truth.clock_bias_meters
    block = EpochBlock(
        positions=block_positions,
        pseudoranges=block_pseudoranges,
        prns=block_prns,
        systems=block_systems,
        cn0=block_cn0,
        weeks=weeks,
        seconds_of_week=sow,
        truth_positions=truth_positions,
        truth_biases=truth_biases,
        counts=counts,
    )
    registry = get_registry()
    if registry.enabled and n:
        registry.histogram(
            "repro_blocks_block_size",
            "Epochs per packed columnar block.",
            buckets=_BLOCK_SIZE_BUCKETS,
        ).observe(n)
    return PackedStream(block=block, unpackable=unpackable)
