"""Seeded workload inputs, their digests, and the reference fixes.

Everything here is a pure function of ``(workload, seed)``.  The
program under test only ever receives the epochs built by a
:class:`Stream`; the reference fixes and the fault plan stay on the
benchmark side and are used after the run to check what was served.

Every request gets a *fresh* :class:`~repro.observations.ObservationEpoch`
built from pooled observations.  An epoch memoizes its packed arrays
on first use, so re-submitting one epoch object would let the batch
packer skip work that a real receiver's stream never lets it skip.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from repro import DatasetConfig, ObservationDataset, get_station
from repro.api import SolverConfig, build_scene
from repro.engine import PositioningEngine
from repro.integrity.fde import FdeConfig
from repro.observations import ObservationEpoch, SatelliteObservation
from repro.signals.features import SignalFeatureModel
from repro.timebase import GpsTime

#: Fixed receiver clock bias of the serve-gps epochs (meters).
GPS_BIAS_METERS = 3_456.25

#: Distinct observation sets per stream; requests cycle through them.
GPS_POOL = 2048
#: Fault blocks in the integrity pool (rounded up to whole spike rotations).
INTEGRITY_BLOCKS = 200
#: Simulated station data replayed by replay-shard (1 Hz epochs).
REPLAY_SECONDS = 600.0

#: Satellites per constellation of the integrity receiver's sky.
INTEGRITY_SKY = {"G": 8, "E": 7}
#: Start of the replayed station data.  Fixed, so every seed sees the
#: same satellite counts (and cost); the seed draws noise and clocks.
REPLAY_START = GpsTime(week=1540, seconds_of_week=36000.0)

#: Integrity stream fault plan: in every block of this many epochs one
#: epoch carries a pseudorange spike and another loses one satellite.
FAULT_BLOCK = 10
SPIKE_RANGE_METERS = (80.0, 250.0)
#: A satellite is spiked only if a fault of this size on it is already
#: detected and excluded.  On a satellite with little redundancy a fault
#: barely shows in the residuals: below its minimal detectable bias no
#: residual test can find it, so such a spike would measure the test's
#: power, not the service.  The probe sits below the spike floor: a
#: single fault's test statistic grows with its square, so every served
#: spike scores at least (80/60)^2 times what the detected probe did.
DETECTABLE_PROBE_METERS = 60.0
#: Pseudorange noise of the integrity stream, well inside the FDE's
#: 3 m sigma so fault-free epochs never raise a false alarm.
INTEGRITY_NOISE_METERS = 0.3

WORKLOADS = ("serve-gps", "serve-integrity", "replay-shard")


@dataclass
class Stream:
    """One workload's pooled inputs and what a correct answer is.

    Request ``k`` uses pool slot ``k % len(pool)``.  ``reference[j]``
    is the fix a correct service returns for slot ``j``;
    ``spiked_prn[j]`` (``-1`` when clean) is the satellite whose
    pseudorange was corrupted, which FDE must exclude.  Without
    ``times`` the stream is one 1 Hz receiver: request ``k`` is stamped
    ``k`` seconds into the stream, so times strictly increase.
    """

    name: str
    observations: List[Tuple[SatelliteObservation, ...]]
    times: Optional[List[GpsTime]]
    reference: np.ndarray
    spiked_prn: np.ndarray
    biases: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.observations)

    def epoch(self, k: int) -> ObservationEpoch:
        """A fresh epoch object for request ``k``."""
        slot = k % len(self.observations)
        if self.times is None:
            time = GpsTime(week=2200 + k // 604800, seconds_of_week=float(k % 604800))
        else:
            time = self.times[slot]
        return ObservationEpoch(time, self.observations[slot])

    def bias(self, k: int) -> Optional[float]:
        if self.biases is None:
            return None
        return float(self.biases[k % len(self.observations)])

    def digest(self) -> str:
        """SHA-256 over every pooled measurement the program is fed."""
        hasher = hashlib.sha256(self.name.encode())
        for slot, observations in enumerate(self.observations):
            rows = np.array(
                [
                    (
                        ord(obs.system),
                        obs.prn,
                        *obs.position,
                        obs.pseudorange,
                        np.nan if obs.cn0_dbhz is None else obs.cn0_dbhz,
                    )
                    for obs in observations
                ],
                dtype=float,
            )
            hasher.update(rows.tobytes())
            if self.times is not None:
                time = self.times[slot]
                hasher.update(np.array([time.week, time.seconds_of_week]).tobytes())
        if self.biases is not None:
            hasher.update(np.asarray(self.biases, dtype=float).tobytes())
        return hasher.hexdigest()


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def serve_gps_stream(seed: int) -> Stream:
    """Independent GPS-only epochs with 7-11 satellites, fixed bias."""
    rng = _rng(seed, "serve-gps")
    counts = rng.integers(7, 12, size=GPS_POOL)
    scene_seeds = rng.integers(0, 2**31 - 1, size=GPS_POOL)
    solver = SolverConfig(algorithm="dlg", clock_bias_meters=GPS_BIAS_METERS).build_solver()
    observations, times, reference = [], [], np.empty((GPS_POOL, 3))
    for slot in range(GPS_POOL):
        scene = build_scene(
            int(counts[slot]),
            clock_bias_meters=GPS_BIAS_METERS,
            seed=int(scene_seeds[slot]),
            noise_sigma=1.0,
        )
        observations.append(scene.observations)
        times.append(scene.time)
        reference[slot] = solver.solve(ObservationEpoch(scene.time, scene.observations)).position
    return Stream(
        "serve-gps", observations, times, reference, np.full(GPS_POOL, -1)
    )


def integrity_config() -> SolverConfig:
    return SolverConfig(algorithm="dlg", constellations="per_constellation")


def serve_integrity_stream(seed: int) -> Stream:
    """One stationary G+E receiver's 1 Hz stream with C/N0, spikes, dropouts.

    Same sky every epoch (the regime the plausibility monitors are
    tuned for), fresh noise per epoch.  In each block of
    :data:`FAULT_BLOCK` epochs one epoch gets a pseudorange spike and a
    different one loses one satellite.  Spiked satellites rotate
    through a seeded permutation, so no satellite is excluded often
    enough to be quarantined, and a dropout leaves every constellation
    with at least five satellites.  The seed draws the sky's geometry,
    biases, noise and fault plan; the satellite counts are fixed, since
    FDE's cost grows with them.
    """
    rng = _rng(seed, "serve-integrity")
    template = build_scene(
        INTEGRITY_SKY,
        clock_bias_meters={"G": float(rng.uniform(-3e4, 3e4)), "E": float(rng.uniform(-3e4, 3e4))},
        seed=int(rng.integers(0, 2**31 - 1)),
    )
    sky = template.observations
    count = len(sky)
    spike_order = rng.permutation(detectable_satellites(template))
    # Whole rotations per pool, so the spacing between two spikes of one
    # satellite holds across the pool's wrap-around too.
    blocks = len(spike_order) * -(-INTEGRITY_BLOCKS // len(spike_order))
    pool = blocks * FAULT_BLOCK
    features = SignalFeatureModel(seed=int(rng.integers(0, 2**31 - 1)))
    solver = integrity_config().build_solver()
    observations, reference = [], np.empty((pool, 3))
    spiked_prn = np.full(pool, -1)
    for slot in range(pool):
        block, offset = divmod(slot, FAULT_BLOCK)
        if offset == 0:
            # Offset 0 stays clean, so the set-up fix (request 0) costs
            # the same for every seed.
            spike_at, drop_at = 1 + rng.choice(FAULT_BLOCK - 1, size=2, replace=False)
        noise = rng.normal(0.0, INTEGRITY_NOISE_METERS, size=count)
        clean = [
            replace(obs, pseudorange=obs.pseudorange + float(noise[index]))
            for index, obs in enumerate(sky)
        ]
        # The C/N0 model is stateful (per-satellite AR(1)); it sees the
        # full sky once per epoch, in stream order.
        clean = list(features.attach(ObservationEpoch(template.time, tuple(clean), template.truth)).observations)
        served = list(clean)
        solved = clean
        if offset == spike_at:
            victim = int(spike_order[block % len(spike_order)])
            magnitude = float(rng.uniform(*SPIKE_RANGE_METERS)) * float(rng.choice((-1.0, 1.0)))
            served[victim] = replace(clean[victim], pseudorange=clean[victim].pseudorange + magnitude)
            spiked_prn[slot] = clean[victim].prn
            solved = clean[:victim] + clean[victim + 1 :]
        elif offset == drop_at:
            victim = int(rng.integers(count))
            served = clean[:victim] + clean[victim + 1 :]
            solved = served
        observations.append(tuple(served))
        reference[slot] = solver.solve(ObservationEpoch(template.time, tuple(solved))).position
    return Stream(
        "serve-integrity",
        observations,
        None,
        reference,
        spiked_prn,
    )


def detectable_satellites(template: ObservationEpoch) -> np.ndarray:
    """Sky indices where a :data:`DETECTABLE_PROBE_METERS` fault of
    either sign is detected and that satellite excluded."""
    sky = template.observations
    probes = [
        ObservationEpoch(
            template.time,
            tuple(
                replace(obs, pseudorange=obs.pseudorange + sign * DETECTABLE_PROBE_METERS)
                if index == victim
                else obs
                for index, obs in enumerate(sky)
            ),
        )
        for victim in range(len(sky))
        for sign in (1.0, -1.0)
    ]
    engine = PositioningEngine.from_config(integrity_config(), fde_config=FdeConfig())
    fde = engine.solve_stream(probes).diagnostics.fde
    found = [
        all(
            fde.verdict(2 * victim + k).status == "repaired"
            and fde.verdict(2 * victim + k).excluded_prn == sky[victim].prn
            for k in (0, 1)
        )
        for victim in range(len(sky))
    ]
    detectable = np.flatnonzero(found)
    if len(detectable) < 4:
        # Fewer would repeat a satellite's exclusion often enough to
        # quarantine it.
        raise ValueError(f"only {len(detectable)} satellites have detectable faults")
    return detectable


def replay_shard_stream(seed: int) -> Stream:
    """The simulated SRZN station stream, truth clock bias as override."""
    rng = _rng(seed, "replay-shard")
    dataset = ObservationDataset(
        get_station("SRZN"),
        DatasetConfig(
            start_time=REPLAY_START,
            duration_seconds=REPLAY_SECONDS,
            seed=int(rng.integers(0, 2**31 - 1)),
        ),
    )
    epochs = list(dataset.epochs())
    biases = np.array([epoch.truth.clock_bias_meters for epoch in epochs])
    base = SolverConfig(algorithm="dlg")
    reference = np.array(
        [
            replace(base, clock_bias_meters=float(bias)).build_solver().solve(
                ObservationEpoch(epoch.time, epoch.observations)
            ).position
            for epoch, bias in zip(epochs, biases)
        ]
    )
    return Stream(
        "replay-shard",
        [epoch.observations for epoch in epochs],
        [epoch.time for epoch in epochs],
        reference,
        np.full(len(epochs), -1),
        biases=biases,
    )


def build_stream(workload: str, seed: int) -> Stream:
    builders = {
        "serve-gps": serve_gps_stream,
        "serve-integrity": serve_integrity_stream,
        "replay-shard": replay_shard_stream,
    }
    return builders[workload](seed)
