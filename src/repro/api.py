"""repro.api — the unified solver facade.

One frozen :class:`SolverConfig` value subsumes the seven scattered
solver constructors (:class:`~repro.solvers.NewtonRaphsonSolver`,
:class:`~repro.solvers.DLOSolver`, :class:`~repro.solvers.DLGSolver`,
:class:`~repro.solvers.BancroftSolver` and the batch trio): pick the
algorithm, tune it, and hand the *value* around — the service, the
CLI, the validation oracles, and the benchmarks all consume it, so
"which solver, configured how" travels as data instead of as seven
call-site-specific constructor signatures.

Entry points::

    from repro.api import SolverConfig, solve

    fix = solve(epoch)                          # default: DLG
    fix = solve(epoch, "nr")                    # algorithm shorthand
    fix = solve(epoch, SolverConfig(algorithm="dlg", clock_bias_meters=35.0))

    config = SolverConfig(algorithm="nr", tolerance_meters=1e-5)
    solver = config.build_solver()              # reusable scalar solver
    batch = config.build_batch_solver()         # reusable batch solver
    positions = solve_batch(epochs, config)     # (N, 3) stacked solve

Design rules:

* **Frozen value semantics.**  A ``SolverConfig`` never mutates;
  derive variants with :func:`dataclasses.replace` (the service builds
  its NR degradation ladder exactly that way).
* **Ignored is documented, contradictory is an error.**  Knobs that do
  not apply to the chosen algorithm are *ignored* when harmless (NR
  tuning on a DLG config also parameterizes any NR fallback built from
  the same config) but *rejected* when contradictory (two clock-bias
  sources at once, batched Bancroft).
* **Back-compat.**  The solver classes stay public in
  :mod:`repro.solvers` (re-exported by :mod:`repro.core`); only the
  deep ``repro.core.<solver module>`` import paths are deprecated.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.clocks.prediction import ClockBiasPredictor, ConstantClockBiasPredictor
from repro.constellation.systems import DEFAULT_SYSTEM, normalize_system
from repro.core.base import PositioningAlgorithm
from repro.core.selection import BaseSatelliteSelector
from repro.core.types import PositionFix
from repro.errors import ConfigurationError
from repro.geodesy import geodetic_to_ecef
from repro.observations import (
    EpochTruth,
    ObservationEpoch,
    SatelliteObservation,
)
from repro.solvers import (
    CONSTELLATION_MODES,
    BancroftSolver,
    BatchDLGSolver,
    BatchDLOSolver,
    BatchNewtonRaphsonSolver,
    DLGSolver,
    DLOSolver,
    NewtonRaphsonSolver,
)
from repro.timebase import GpsTime

#: Algorithms a :class:`SolverConfig` can name.
ALGORITHMS: Tuple[str, ...] = ("nr", "dlo", "dlg", "bancroft")

#: Algorithms with a batched implementation (Bancroft has none).
BATCH_ALGORITHMS: Tuple[str, ...] = ("nr", "dlo", "dlg")


@dataclass(frozen=True)
class SolverConfig:
    """Everything needed to build any solver path, as one frozen value.

    Attributes
    ----------
    algorithm:
        ``"nr"``, ``"dlo"``, ``"dlg"`` (the paper's algorithms) or
        ``"bancroft"`` (the classic closed-form comparator).
    clock_bias_meters:
        Known receiver clock bias (meters) handed to DLO/DLG as a
        fixed :class:`~repro.clocks.ConstantClockBiasPredictor`.
        Ignored by NR and Bancroft, which solve their own bias.
        Mutually exclusive with ``clock_predictor``.
    clock_predictor:
        A live bias predictor for DLO/DLG (e.g. a warmed-up
        :class:`~repro.clocks.LinearClockBiasPredictor`).  Ignored by
        NR and Bancroft.
    base_selector:
        Base-satellite strategy for the DLO/DLG difference system;
        defaults to the first (highest-elevation) satellite.
    max_iterations, tolerance_meters, initial_state:
        Newton-Raphson iteration budget, update-norm stopping tolerance
        and optional warm start.  Consumed when ``algorithm="nr"`` —
        and by any NR fallback derived from this config with
        ``dataclasses.replace(config, algorithm="nr")``, which is why
        they are legal on every algorithm.
    elevation_weighted, convergence:
        NR-only refinements (see
        :class:`~repro.solvers.NewtonRaphsonSolver`).  Rejected by
        :meth:`build_batch_solver` when set to non-batchable values,
        exactly as :meth:`NewtonRaphsonSolver.as_batch` would.
    constellations:
        ``"single"`` (the paper's GPS-only model: one clock bias, any
        system tags ignored) or ``"per_constellation"`` (one clock-bias
        unknown per distinct system present).  Per-constellation mode
        *estimates* every bias, so it rejects both external bias
        sources, the 4-state ``initial_state`` warm start, and
        Bancroft (whose closed form is single-clock by construction).
    """

    algorithm: str = "dlg"
    clock_bias_meters: Optional[float] = None
    clock_predictor: Optional[ClockBiasPredictor] = field(
        default=None, compare=False
    )
    base_selector: Optional[BaseSatelliteSelector] = field(
        default=None, compare=False
    )
    max_iterations: int = 20
    tolerance_meters: float = 1e-4
    initial_state: Optional[Tuple[float, float, float, float]] = None
    elevation_weighted: bool = False
    convergence: str = "update"
    constellations: str = "single"

    def __post_init__(self) -> None:
        algorithm = str(self.algorithm).lower()
        if algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"algorithm must be one of {'/'.join(ALGORITHMS)}, "
                f"got {self.algorithm!r}"
            )
        object.__setattr__(self, "algorithm", algorithm)
        if self.constellations not in CONSTELLATION_MODES:
            raise ConfigurationError(
                f"constellations must be one of {CONSTELLATION_MODES}, "
                f"got {self.constellations!r}"
            )
        if self.constellations == "per_constellation":
            if self.algorithm == "bancroft":
                raise ConfigurationError(
                    "Bancroft's closed form assumes one shared clock bias; "
                    "per-constellation mode needs 'nr', 'dlo', or 'dlg'"
                )
            if self.clock_bias_meters is not None or self.clock_predictor is not None:
                raise ConfigurationError(
                    "per-constellation mode estimates the clock biases; "
                    "drop clock_bias_meters/clock_predictor or use "
                    "constellations='single'"
                )
            if self.initial_state is not None:
                raise ConfigurationError(
                    "per-constellation NR sizes its state per epoch "
                    "(3 + K unknowns); a fixed 4-state initial_state cannot "
                    "be combined with it"
                )
        if self.clock_bias_meters is not None and self.clock_predictor is not None:
            raise ConfigurationError(
                "set clock_bias_meters or clock_predictor, not both: the "
                "fixed bias would silently shadow the live predictor"
            )
        if self.clock_bias_meters is not None and not np.isfinite(
            self.clock_bias_meters
        ):
            raise ConfigurationError("clock_bias_meters must be finite")
        if self.initial_state is not None:
            state = tuple(float(v) for v in self.initial_state)
            if len(state) != 4 or not all(np.isfinite(v) for v in state):
                raise ConfigurationError("initial_state must be a finite 4-tuple")
            object.__setattr__(self, "initial_state", state)
        # Delegate the remaining NR validation to the constructor it
        # parameterizes, so the rules live in exactly one place.
        if self.algorithm == "nr":
            self.build_solver()

    # ------------------------------------------------------------------
    def bias_predictor(self) -> Optional[ClockBiasPredictor]:
        """The DLO/DLG bias source this config describes (or ``None``)."""
        if self.clock_bias_meters is not None:
            return ConstantClockBiasPredictor(float(self.clock_bias_meters))
        return self.clock_predictor

    def build_solver(self) -> PositioningAlgorithm:
        """A scalar solver configured from this value.

        Solvers are cheap to construct but reusable; hot paths should
        build once and call ``solver.solve(epoch)`` per epoch, which is
        exactly what :func:`solve` does when handed a config it has
        seen before via its internal one-slot cache.
        """
        if self.algorithm == "nr":
            return NewtonRaphsonSolver(
                max_iterations=self.max_iterations,
                tolerance_meters=self.tolerance_meters,
                initial_state=(
                    np.asarray(self.initial_state, dtype=float)
                    if self.initial_state is not None
                    else None
                ),
                elevation_weighted=self.elevation_weighted,
                convergence=self.convergence,
                constellations=self.constellations,
            )
        if self.algorithm == "dlo":
            return DLOSolver(
                self.bias_predictor(),
                self.base_selector,
                constellations=self.constellations,
            )
        if self.algorithm == "dlg":
            return DLGSolver(
                self.bias_predictor(),
                self.base_selector,
                constellations=self.constellations,
            )
        return BancroftSolver()

    def build_batch_solver(self):
        """The batched counterpart of :meth:`build_solver`.

        Returns a :class:`~repro.solvers.BatchNewtonRaphsonSolver`,
        :class:`~repro.solvers.BatchDLOSolver` or
        :class:`~repro.solvers.BatchDLGSolver`; Bancroft has no batch
        implementation and raises
        :class:`~repro.errors.ConfigurationError`.
        """
        if self.algorithm == "bancroft":
            raise ConfigurationError(
                "Bancroft has no batched implementation; use algorithm "
                "'nr', 'dlo', or 'dlg' for batch solving"
            )
        if self.algorithm == "nr":
            if self.elevation_weighted:
                raise ConfigurationError(
                    "batched NR does not support elevation weighting"
                )
            if self.convergence != "update":
                raise ConfigurationError(
                    "batched NR only supports the 'update' convergence criterion"
                )
            return BatchNewtonRaphsonSolver(
                max_iterations=self.max_iterations,
                tolerance_meters=self.tolerance_meters,
                initial_state=(
                    np.asarray(self.initial_state, dtype=float)
                    if self.initial_state is not None
                    else None
                ),
                constellations=self.constellations,
            )
        if self.algorithm == "dlo":
            return BatchDLOSolver(constellations=self.constellations)
        return BatchDLGSolver(constellations=self.constellations)

    def nr_fallback(self) -> "SolverConfig":
        """This config's NR degradation target.

        The same tuning with ``algorithm="nr"`` — what the service (and
        :class:`~repro.core.receiver.GpsReceiver`-style ladders) solve
        with when the closed-form path rejects an epoch.
        """
        if self.algorithm == "nr":
            return self
        return replace(
            self,
            algorithm="nr",
            clock_bias_meters=None,
            clock_predictor=None,
        )

    def batch_biases(
        self,
        epochs: Sequence[ObservationEpoch],
        biases: Optional[Sequence[float]] = None,
    ) -> np.ndarray:
        """Per-epoch clock biases (meters) for a DLO/DLG batch solve.

        Resolution order: explicit ``biases`` argument, the config's
        fixed ``clock_bias_meters``, the config's ``clock_predictor``
        evaluated at each epoch time, else zeros (pseudoranges already
        clock-free).
        """
        if biases is not None:
            resolved = np.asarray(biases, dtype=float)
            if resolved.shape != (len(epochs),):
                raise ConfigurationError(
                    f"biases must be one per epoch: expected ({len(epochs)},), "
                    f"got {resolved.shape}"
                )
            return resolved
        if self.clock_bias_meters is not None:
            return np.full(len(epochs), float(self.clock_bias_meters))
        if self.clock_predictor is not None:
            return np.array(
                [
                    self.clock_predictor.predict_bias_meters(epoch.time)
                    for epoch in epochs
                ]
            )
        return np.zeros(len(epochs))


def _as_config(config: Union[SolverConfig, str, None]) -> SolverConfig:
    """Normalize the facade's ``config`` argument."""
    if config is None:
        return SolverConfig()
    if isinstance(config, str):
        return SolverConfig(algorithm=config)
    if isinstance(config, SolverConfig):
        return config
    raise ConfigurationError(
        f"config must be a SolverConfig, an algorithm name, or None, "
        f"got {type(config).__name__}"
    )


#: One-slot solver cache: repeated ``solve(epoch, same_config)`` calls
#: (the fuzzer's pattern) reuse the built solver instead of paying
#: construction per epoch.  Keyed by config identity, not equality, so
#: stateful predictors are never shared across distinct configs.
_LAST_BUILT: Tuple[Optional[SolverConfig], Optional[PositioningAlgorithm]] = (
    None,
    None,
)


def solve(
    epoch: ObservationEpoch,
    config: Union[SolverConfig, str, None] = None,
) -> PositionFix:
    """Solve one epoch under a :class:`SolverConfig` (default: DLG).

    The single scalar entry point of the facade: ``config`` may be a
    full :class:`SolverConfig`, a bare algorithm name (``"nr"``,
    ``"dlo"``, ``"dlg"``, ``"bancroft"``), or ``None`` for the default
    DLG with a zero clock-bias predictor.
    """
    global _LAST_BUILT
    resolved = _as_config(config)
    cached_config, cached_solver = _LAST_BUILT
    if cached_config is resolved and cached_solver is not None:
        return cached_solver.solve(epoch)
    solver = resolved.build_solver()
    if isinstance(config, SolverConfig):
        _LAST_BUILT = (resolved, solver)
    return solver.solve(epoch)


def solve_batch(
    epochs: Sequence[ObservationEpoch],
    config: Union[SolverConfig, str, None] = None,
    biases: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Solve N epochs as one stacked (padded) batch.

    Returns ``(N, 3)`` positions.  For DLO/DLG the per-epoch clock
    biases follow :meth:`SolverConfig.batch_biases`; NR solves its own
    biases and raises :class:`~repro.errors.ConvergenceError` if any
    epoch fails to converge.  Streams that need per-epoch screening and
    NaN-dropping belong to :class:`~repro.engine.PositioningEngine` (or
    the async service), which calls this layer once per flush.
    """
    resolved = _as_config(config)
    solver = resolved.build_batch_solver()
    if resolved.algorithm == "nr":
        return solver.solve_batch(epochs)
    if resolved.constellations == "per_constellation":
        # The multi-constellation solvers estimate every bias; handing
        # them predicted biases is the contradiction they reject.
        return solver.solve_batch(epochs, biases)
    return solver.solve_batch(epochs, resolved.batch_biases(epochs, biases))


#: Synthetic-scene range band (meters): zenith to low-elevation slant
#: ranges of a MEO shell, matching the validation scenario generator.
_SCENE_RANGE_BAND = (2.0e7, 2.6e7)

#: Reference GPS week for :func:`build_scene` epochs.
_SCENE_REFERENCE_WEEK = 2200


def build_scene(
    satellites: Union[int, Mapping[str, int]],
    *,
    clock_bias_meters: Union[float, Mapping[str, float]] = 0.0,
    seed: int = 0,
    noise_sigma: float = 0.0,
    time: Optional[GpsTime] = None,
) -> ObservationEpoch:
    """A reproducible synthetic epoch, single- or multi-constellation.

    The facade's scene constructor: hand it satellite counts and truth
    clock biases and get back an :class:`~repro.observations.
    ObservationEpoch` with :class:`~repro.observations.EpochTruth`
    attached — ready for :func:`solve`, the batch solvers, or the
    engine.  Everything is a pure function of ``(satellites,
    clock_bias_meters, seed, noise_sigma)``: same arguments, same scene,
    bit for bit.

    Parameters
    ----------
    satellites:
        Either a plain count (a GPS-only scene, the paper's setting) or
        a mapping of RINEX system codes to counts, e.g. ``{"G": 6,
        "R": 5}``.  Mapping order is preserved: the first key is the
        first constellation, whose bias doubles as the legacy
        ``truth.clock_bias_meters``.
    clock_bias_meters:
        One receiver clock bias for every system (a float), or one per
        system code.  Per-system keys must name systems present in
        ``satellites``; systems left out default to a zero bias.
    seed:
        Seed of the private random stream (receiver location, sky
        directions, ranges, noise).
    noise_sigma:
        Gaussian pseudorange noise (meters); zero keeps the scene
        exactly consistent with its truth.
    time:
        Receive instant; defaults to a fixed reference week with the
        seed as seconds-of-week.
    """
    if isinstance(satellites, Mapping):
        counts = [
            (normalize_system(system), int(count))
            for system, count in satellites.items()
        ]
        tagged = True
    else:
        counts = [(DEFAULT_SYSTEM, int(satellites))]
        tagged = False
    if not counts:
        raise ConfigurationError("satellites must name at least one system")
    if len({system for system, _count in counts}) != len(counts):
        raise ConfigurationError("satellites lists a system code twice")
    if any(count < 1 for _system, count in counts):
        raise ConfigurationError("every per-system satellite count must be >= 1")

    if isinstance(clock_bias_meters, Mapping):
        biases = {
            normalize_system(system): float(bias)
            for system, bias in clock_bias_meters.items()
        }
        present = {system for system, _count in counts}
        absent = sorted(set(biases) - present)
        if absent:
            raise ConfigurationError(
                "clock_bias_meters names systems not in the scene: "
                + ", ".join(absent)
            )
    else:
        biases = {system: float(clock_bias_meters) for system, _count in counts}
    if any(not np.isfinite(bias) for bias in biases.values()):
        raise ConfigurationError("clock biases must be finite")
    if not np.isfinite(noise_sigma) or noise_sigma < 0:
        raise ConfigurationError("noise_sigma must be finite and >= 0")

    rng = np.random.default_rng(seed)
    latitude = float(np.arcsin(rng.uniform(-1.0, 1.0)))  # area-uniform
    longitude = float(rng.uniform(-np.pi, np.pi))
    height = float(rng.uniform(0.0, 9000.0))
    receiver = geodetic_to_ecef(latitude, longitude, height)
    up = receiver / np.linalg.norm(receiver)

    observations = []
    for system, count in counts:
        bias = biases.get(system, 0.0)
        for prn in range(1, count + 1):
            direction = _upper_hemisphere_direction(rng, up)
            satellite = receiver + direction * rng.uniform(*_SCENE_RANGE_BAND)
            pseudorange = float(np.linalg.norm(satellite - receiver)) + bias
            if noise_sigma:
                pseudorange += float(rng.normal(0.0, noise_sigma))
            observations.append(
                SatelliteObservation(
                    prn=prn,
                    position=satellite,
                    pseudorange=pseudorange,
                    elevation=float(np.arcsin(np.clip(direction @ up, -1.0, 1.0))),
                    system=system,
                )
            )

    truth = EpochTruth(
        receiver_position=receiver,
        clock_bias_meters=biases.get(counts[0][0], 0.0),
        clock_biases=(
            tuple((system, biases.get(system, 0.0)) for system, _count in counts)
            if tagged
            else None
        ),
    )
    return ObservationEpoch(
        time=(
            time
            if time is not None
            else GpsTime(
                week=_SCENE_REFERENCE_WEEK, seconds_of_week=float(seed % 604800)
            )
        ),
        observations=tuple(observations),
        truth=truth,
    )


def _upper_hemisphere_direction(
    rng: np.random.Generator, up: np.ndarray
) -> np.ndarray:
    """One unit line-of-sight direction at least ~5 degrees up."""
    minimum = np.sin(np.radians(5.0))
    while True:
        candidate = rng.normal(size=3)
        norm = np.linalg.norm(candidate)
        if norm < 1e-12:
            continue
        candidate /= norm
        if candidate @ up < 0:
            candidate = -candidate  # fold into the upper hemisphere
        if candidate @ up >= minimum:
            return candidate


__all__ = [
    "ALGORITHMS",
    "BATCH_ALGORITHMS",
    "CONSTELLATION_MODES",
    "SolverConfig",
    "solve",
    "solve_batch",
    "build_scene",
]
