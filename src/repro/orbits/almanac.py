"""Nominal constellation almanac generator.

The paper's data sets see 8-12 satellites per epoch from a 31-satellite
GPS constellation (footnote 2: 31 active satellites in March 2008).
This module fabricates constellations with nominal geometry — for GPS,
six orbital planes at 55 degrees inclination, right ascensions spaced
evenly, satellites phased within and across planes — and realistic
per-satellite clock errors, returning one broadcast ephemeris per space
vehicle.  Other GNSS (GLONASS, Galileo, BeiDou MEO) reuse the same
Walker-style layout on their own orbital shells from
:data:`repro.constellation.systems.ORBIT_SHELLS`.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.constants import GPS_ACTIVE_SATELLITE_COUNT
from repro.constellation.systems import ORBIT_SHELLS, normalize_system
from repro.errors import ConfigurationError
from repro.orbits.elements import OrbitalElements
from repro.orbits.ephemeris import BroadcastEphemeris
from repro.timebase import GpsTime

#: How many satellites each plane carries in the 31-SV GPS layout
#: (planes A..F).  31 = 6 + 5 + 5 + 5 + 5 + 5.
_PLANE_SLOT_COUNTS = (6, 5, 5, 5, 5, 5)

#: Typical broadcast clock bias magnitude (seconds): tens of
#: microseconds, matching real af0 values.
_TYPICAL_CLOCK_BIAS = 2e-5

#: Typical broadcast clock drift magnitude (s/s): ~1e-11 for the
#: rubidium/cesium standards flown on GPS satellites.
_TYPICAL_CLOCK_DRIFT = 1e-11


def nominal_almanac(
    epoch: GpsTime,
    satellite_count: int = GPS_ACTIVE_SATELLITE_COUNT,
    rng: Optional[np.random.Generator] = None,
    system: str = "G",
) -> List[BroadcastEphemeris]:
    """Fabricate a nominal constellation for one GNSS system.

    Parameters
    ----------
    epoch:
        Reference time of all generated ephemerides (``toe``/``toc``).
    satellite_count:
        Number of space vehicles, at most 63 (PRN space).  The default
        31 matches the paper's quoted GPS constellation size.
    rng:
        Source of the small per-satellite perturbations (eccentricity,
        phase jitter, clock polynomial).  ``None`` gives the unperturbed
        deterministic layout with zero clock errors — useful for tests
        that need exact geometry.
    system:
        RINEX system code selecting the orbital shell (``"G"`` GPS,
        ``"R"`` GLONASS, ``"E"`` Galileo, ``"C"`` BeiDou).  PRNs are
        numbered ``1..satellite_count`` *within* the system; callers
        mixing systems must key satellites by ``(system, prn)``.

    Returns
    -------
    list of BroadcastEphemeris
        One ephemeris per satellite, PRNs ``1..satellite_count``.
    """
    if not 1 <= satellite_count <= 63:
        raise ConfigurationError(
            f"satellite_count must be in [1, 63], got {satellite_count}"
        )
    shell = ORBIT_SHELLS[normalize_system(system)]

    ephemerides: List[BroadcastEphemeris] = []
    prn = 1
    plane_count = shell.plane_count
    assignments = _slot_assignments(satellite_count, plane_count, system=system)

    for plane_index, slots_in_plane in enumerate(assignments):
        raan = 2.0 * math.pi * plane_index / plane_count
        for slot_index in range(slots_in_plane):
            # In-plane spacing plus an inter-plane phase offset so
            # satellites in adjacent planes are staggered — this is what
            # gives GNSS constellations their uniform sky coverage.
            mean_anomaly = (
                2.0 * math.pi * slot_index / max(slots_in_plane, 1)
                + 2.0 * math.pi * plane_index / (plane_count * max(slots_in_plane, 1))
            )

            eccentricity = 0.0
            phase_jitter = 0.0
            af0 = af1 = 0.0
            if rng is not None:
                eccentricity = float(rng.uniform(0.001, 0.02))
                phase_jitter = float(rng.normal(0.0, math.radians(2.0)))
                af0 = float(rng.normal(0.0, _TYPICAL_CLOCK_BIAS))
                af1 = float(rng.normal(0.0, _TYPICAL_CLOCK_DRIFT))

            elements = OrbitalElements(
                semi_major_axis=shell.semi_major_axis,
                eccentricity=eccentricity,
                inclination=shell.inclination,
                raan=raan,
                argument_of_perigee=0.0,
                mean_anomaly=mean_anomaly + phase_jitter,
                epoch=epoch,
            )
            ephemerides.append(
                BroadcastEphemeris.from_elements(prn, elements, af0=af0, af1=af1)
            )
            prn += 1

    return ephemerides


def _slot_assignments(
    satellite_count: int, plane_count: int, system: str = "G"
) -> List[int]:
    """Distribute ``satellite_count`` satellites over ``plane_count`` planes.

    Uses the canonical 31-SV GPS layout when it applies; otherwise
    spreads satellites as evenly as possible.
    """
    if (
        system == "G"
        and satellite_count == sum(_PLANE_SLOT_COUNTS)
        and plane_count == len(_PLANE_SLOT_COUNTS)
    ):
        return list(_PLANE_SLOT_COUNTS)
    base, extra = divmod(satellite_count, plane_count)
    return [base + (1 if plane < extra else 0) for plane in range(plane_count)]

