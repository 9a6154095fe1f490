"""Orbital mechanics substrate: Kepler solver, elements, ephemerides."""

from repro.orbits.kepler import solve_kepler, eccentric_to_true_anomaly
from repro.orbits.elements import OrbitalElements
from repro.orbits.ephemeris import BroadcastEphemeris
from repro.orbits.almanac import nominal_almanac

__all__ = [
    "solve_kepler",
    "eccentric_to_true_anomaly",
    "OrbitalElements",
    "BroadcastEphemeris",
    "nominal_almanac",
]

