"""GNSS system registry: codes, numeric ids, and orbital shells.

The paper's construction is GPS-only, but its differenced solvers
generalize to any mix of constellations as long as every observation
carries a *system tag*: each constellation runs its own system clock,
so a multi-GNSS receiver has one clock-bias unknown per constellation
present (``b_1..b_K``) instead of the single ``b`` of eq. 4-2.

This module is the single source of truth for those tags.  Codes follow
the RINEX 3 convention (``G`` GPS, ``R`` GLONASS, ``E`` Galileo, ``C``
BeiDou); the numeric ids are the compact ``int8`` lane values carried by
:class:`~repro.blocks.EpochBlock`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from repro.constants import (
    GPS_ORBIT_INCLINATION,
    GPS_ORBIT_PLANE_COUNT,
    GPS_ORBIT_SEMI_MAJOR_AXIS,
)
from repro.errors import ConfigurationError

#: RINEX system codes in canonical (id) order.
SYSTEM_CODES: Tuple[str, ...] = ("G", "R", "E", "C")

#: Human-readable constellation names, keyed by system code.
SYSTEM_NAMES: Dict[str, str] = {
    "G": "GPS",
    "R": "GLONASS",
    "E": "Galileo",
    "C": "BeiDou",
}

#: The default system everywhere a tag is optional: plain GPS, which
#: keeps every pre-existing single-constellation code path meaningful.
DEFAULT_SYSTEM: str = "G"

_CODE_TO_ID: Dict[str, int] = {code: index for index, code in enumerate(SYSTEM_CODES)}


@dataclass(frozen=True)
class OrbitShell:
    """Nominal orbital geometry of one constellation's MEO shell."""

    semi_major_axis: float  # meters
    inclination: float  # radians
    plane_count: int


#: Nominal shells for the four global constellations.  GPS matches the
#: repo-wide constants; the others use published nominal values
#: (GLONASS 25,508 km / 64.8 deg / 3 planes, Galileo 29,600 km /
#: 56 deg / 3 planes, BeiDou MEO 27,906 km / 55 deg / 3 planes).
ORBIT_SHELLS: Dict[str, OrbitShell] = {
    "G": OrbitShell(
        semi_major_axis=GPS_ORBIT_SEMI_MAJOR_AXIS,
        inclination=GPS_ORBIT_INCLINATION,
        plane_count=GPS_ORBIT_PLANE_COUNT,
    ),
    "R": OrbitShell(
        semi_major_axis=25_508_000.0,
        inclination=math.radians(64.8),
        plane_count=3,
    ),
    "E": OrbitShell(
        semi_major_axis=29_600_000.0,
        inclination=math.radians(56.0),
        plane_count=3,
    ),
    "C": OrbitShell(
        semi_major_axis=27_906_000.0,
        inclination=math.radians(55.0),
        plane_count=3,
    ),
}


def normalize_system(system: str) -> str:
    """Validate a system code, returning its canonical (upper) form."""
    if not isinstance(system, str):
        raise ConfigurationError(
            f"system code must be a string, got {type(system).__name__}"
        )
    code = system.upper()
    if code not in _CODE_TO_ID:
        raise ConfigurationError(
            f"unknown GNSS system {system!r}; expected one of {SYSTEM_CODES}"
        )
    return code


def system_index(system: str) -> int:
    """The compact numeric id of a system code (``G``=0, ``R``=1, ...)."""
    return _CODE_TO_ID[normalize_system(system)]


def system_code(index: int) -> str:
    """The system code for a numeric id (inverse of :func:`system_index`)."""
    idx = int(index)
    if not 0 <= idx < len(SYSTEM_CODES):
        raise ConfigurationError(
            f"system id must be in [0, {len(SYSTEM_CODES) - 1}], got {index}"
        )
    return SYSTEM_CODES[idx]


def constellation_signature(system_ids: Union[Sequence[int], np.ndarray]) -> str:
    """Compact per-epoch signature, e.g. ``"G5R3"``.

    Counts satellites per system in canonical system order, skipping
    absent systems.  Two epochs share a signature exactly when they have
    the same per-constellation satellite counts (the *slot pattern* may
    still differ); it is the human-facing label of a constellation mix.
    """
    ids = np.asarray(system_ids, dtype=np.int64).ravel()
    if ids.size == 0:
        return ""
    if np.any(ids < 0) or np.any(ids >= len(SYSTEM_CODES)):
        raise ConfigurationError("system ids out of range for signature")
    counts = np.bincount(ids, minlength=len(SYSTEM_CODES))
    return "".join(
        f"{SYSTEM_CODES[index]}{int(count)}"
        for index, count in enumerate(counts)
        if count
    )


def group_layout(
    system_ids: Union[Sequence[int], np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row group indices and the distinct system ids present.

    Returns ``(groups, codes)`` where ``codes`` holds the distinct
    system ids in order of first appearance and ``groups[i]`` is the
    index into ``codes`` of row ``i``'s system.  First-appearance order
    (rather than sorted order) keeps the mapping stable under the
    relabeling metamorphic property: permuting which *code* a group
    carries never changes the group structure itself.
    """
    ids = np.asarray(system_ids, dtype=np.int64).ravel()
    codes, groups = np.unique(ids, return_inverse=True)
    # np.unique sorts; remap to first-appearance order for stability.
    first_seen = np.argsort([np.argmax(ids == code) for code in codes], kind="stable")
    codes = codes[first_seen]
    remap = np.empty(first_seen.size, dtype=np.int64)
    remap[first_seen] = np.arange(first_seen.size)
    return remap[groups], codes
