"""Signal-feature model: C/N0 synthesis and plausibility features.

The point solvers only ever read geometry and pseudoranges; everything
a tracking channel *also* reports — carrier-to-noise density (C/N0),
front-end gain (AGC), carrier/code coherence — is invisible to them.
That is exactly the blind spot a coherent spoofer exploits: a replayed
or dragged signal set keeps the residuals small while its *signal*
signature (one transmitter's power profile instead of a sky of
independent ones) is glaring.

This module is the feature side of the signal-plausibility plane
(:mod:`repro.integrity.monitors` is the decision side):

* :func:`nominal_cn0_dbhz` — the elevation-dependent open-sky C/N0
  curve every monitor compares against;
* :class:`SignalFeatureModel` — a seeded synthesizer attaching
  realistic C/N0 to simulated epochs (the monitors' test harnesses and
  the spoof chaos campaign both draw from it).

Everything is vectorized over the columnar lanes
(:class:`~repro.blocks.EpochBlock` C/N0 is ``(N, m)`` NaN-padded), so
the monitor plane rides the same zero-copy arrays as the solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.observations import ObservationEpoch, SatelliteObservation

__all__ = [
    "SignalFeatureConfig",
    "SignalFeatureModel",
    "nominal_cn0_dbhz",
    "elevations_from_geometry",
]

#: Default open-sky C/N0 at zenith / at the horizon mask (dB-Hz).
#: The sine-of-elevation interpolation between them matches the
#: standard antenna-gain-dominated model used by receiver monitors.
DEFAULT_ZENITH_DBHZ = 50.0
DEFAULT_HORIZON_DBHZ = 36.0


def nominal_cn0_dbhz(
    elevations: np.ndarray,
    zenith_dbhz: float = DEFAULT_ZENITH_DBHZ,
    horizon_dbhz: float = DEFAULT_HORIZON_DBHZ,
) -> np.ndarray:
    """Expected open-sky C/N0 (dB-Hz) at the given elevations (radians).

    ``horizon + (zenith - horizon) * sin(elevation)``, clamped to the
    upper hemisphere; NaN elevations pass through as NaN so padded
    lanes stay padded.  Works on any array shape.
    """
    elevations = np.asarray(elevations, dtype=float)
    gain = np.sin(np.clip(elevations, 0.0, np.pi / 2.0))
    return horizon_dbhz + (zenith_dbhz - horizon_dbhz) * gain


def elevations_from_geometry(
    positions: np.ndarray, receiver: np.ndarray
) -> np.ndarray:
    """Satellite elevations (radians) from ECEF geometry, vectorized.

    ``positions`` is ``(..., m, 3)``, ``receiver`` broadcastable
    ``(..., 3)``; the local vertical is the geocentric up at the
    receiver (sub-milliradian from the geodetic normal — irrelevant for
    a C/N0 curve).  Rows with a non-finite receiver yield NaN.
    """
    positions = np.asarray(positions, dtype=float)
    receiver = np.asarray(receiver, dtype=float)
    los = positions - receiver[..., np.newaxis, :]
    los_norm = np.linalg.norm(los, axis=-1)
    up = receiver / np.linalg.norm(receiver, axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        sin_el = np.sum(los * up[..., np.newaxis, :], axis=-1) / los_norm
    return np.arcsin(np.clip(sin_el, -1.0, 1.0))


@dataclass(frozen=True)
class SignalFeatureConfig:
    """Shape of the synthesized C/N0 population.

    Attributes
    ----------
    zenith_dbhz, horizon_dbhz:
        The endpoints of the elevation-dependent nominal curve.
    noise_sigma_db:
        Per-observation Gaussian scatter around the curve (thermal +
        multipath flicker).
    """

    zenith_dbhz: float = DEFAULT_ZENITH_DBHZ
    horizon_dbhz: float = DEFAULT_HORIZON_DBHZ
    noise_sigma_db: float = 1.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.zenith_dbhz) or not np.isfinite(self.horizon_dbhz):
            raise ConfigurationError("C/N0 curve endpoints must be finite")
        if self.zenith_dbhz <= self.horizon_dbhz:
            raise ConfigurationError(
                "zenith_dbhz must exceed horizon_dbhz (gain rises with elevation)"
            )
        if not np.isfinite(self.noise_sigma_db) or self.noise_sigma_db < 0:
            raise ConfigurationError("noise_sigma_db must be non-negative")

    def nominal(self, elevations: np.ndarray) -> np.ndarray:
        """The configured nominal curve at ``elevations`` (radians)."""
        return nominal_cn0_dbhz(elevations, self.zenith_dbhz, self.horizon_dbhz)


class SignalFeatureModel:
    """Seeded C/N0 synthesizer for simulated observation streams.

    A pure function of ``(config, seed, epoch order)``: attaching the
    same stream twice produces bit-identical lanes, which is what lets
    the spoof chaos campaign and its replay artifacts agree.
    """

    def __init__(
        self, config: Optional[SignalFeatureConfig] = None, seed: int = 0
    ) -> None:
        self._config = config if config is not None else SignalFeatureConfig()
        self._rng = np.random.default_rng(seed)

    @property
    def config(self) -> SignalFeatureConfig:
        """The population shape."""
        return self._config

    def attach(self, epoch: ObservationEpoch) -> ObservationEpoch:
        """A new epoch whose observations carry synthesized C/N0.

        Elevations come from each observation when the producer set
        them, else from geometry against the epoch's truth position;
        with neither, the zenith value is used (flat sky).
        """
        elevations = np.array(
            [obs.elevation for obs in epoch.observations], dtype=float
        )
        if not elevations.any() and epoch.truth is not None:
            positions = epoch.dense()[0]
            elevations = elevations_from_geometry(
                positions, epoch.truth.receiver_position
            )
        nominal = self._config.nominal(elevations)
        noise = self._rng.normal(
            0.0, self._config.noise_sigma_db, size=len(epoch.observations)
        )
        cn0 = nominal + noise
        observations: List[SatelliteObservation] = [
            SatelliteObservation(
                prn=obs.prn,
                position=obs.position,
                pseudorange=obs.pseudorange,
                elevation=obs.elevation,
                azimuth=obs.azimuth,
                carrier_range=obs.carrier_range,
                pseudorange_l2=obs.pseudorange_l2,
                range_rate=obs.range_rate,
                velocity=obs.velocity,
                system=obs.system,
                cn0_dbhz=float(cn0[index]),
            )
            for index, obs in enumerate(epoch.observations)
        ]
        return epoch.with_observations(observations)

    def attach_stream(
        self, epochs: Iterable[ObservationEpoch]
    ) -> List[ObservationEpoch]:
        """Attach C/N0 to every epoch of a stream, in order."""
        return [self.attach(epoch) for epoch in epochs]
