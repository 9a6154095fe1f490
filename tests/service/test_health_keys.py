"""The circuit breaker names satellites, not bare PRNs.

PRNs repeat across constellations: a G+E sky holds both G1 and E1.
The executor and the scalar receiver both key the health tracker by
``prn*4+system``, so repeated exclusions of E1 quarantine E1 alone,
the clean-epoch credit G1 earns is never withheld because E1 was
excluded, and one tracker shared by a receiver and a service means the
same satellite on both sides.
"""

from dataclasses import replace

from repro.api import SolverConfig, build_scene
from repro.blocks import pack_stream
from repro.core.receiver import GpsReceiver
from repro.integrity import FdeConfig, HealthConfig, SatelliteHealthTracker
from repro.service import ServiceConfig
from repro.service.executor import BatchExecutor
from repro.solvers.newton_raphson import NewtonRaphsonSolver

SKY = {"G": 8, "E": 7}
BIASES = {"G": 120.0, "E": 3_000.0}
G1 = 1 * 4 + 0  # prn*4+system; GPS is system 0, Galileo system 2
E1 = 1 * 4 + 2
G7, E7 = 7 * 4 + 0, 7 * 4 + 2
C1 = 1 * 4 + 3  # BeiDou C01: the key a bare PRN 7 collides with


def sky_with_spiked_e1(seed, meters=300.0):
    epoch = build_scene(SKY, clock_bias_meters=BIASES, seed=seed, noise_sigma=0.5)
    observations = [
        replace(obs, pseudorange=obs.pseudorange + meters)
        if (obs.system, obs.prn) == ("E", 1)
        else obs
        for obs in epoch.observations
    ]
    return epoch.with_observations(observations)


def executor(tracker):
    config = ServiceConfig(
        solver=SolverConfig(algorithm="dlg", constellations="per_constellation"),
        integrity=FdeConfig(sigma_meters=2.0),
        health=tracker.config,
    )
    return BatchExecutor(config, health_tracker=tracker)


def test_repeated_e1_exclusions_quarantine_e1_only():
    tracker = SatelliteHealthTracker(HealthConfig(exclusion_threshold=3))
    run = executor(tracker)
    for seed in range(3):
        block, _meta = run.execute([sky_with_spiked_e1(seed)])
        (result,) = block.results(run.algorithm, 1)
        assert result.integrity.status == "repaired"
        assert result.integrity.excluded_prn == 1
    assert tracker.state(E1) == "quarantined"
    assert tracker.state(G1) == "healthy"
    assert tracker.quarantined_prns() == (E1,)

    # Admission drops E1 alone: the epoch keeps all 8 GPS satellites.
    _block, meta = run.execute([sky_with_spiked_e1(3)])
    admitted = meta.block.epoch(0)
    satellites = {(obs.system, obs.prn) for obs in admitted.observations}
    assert len(satellites) == 14
    assert ("E", 1) not in satellites and ("G", 1) in satellites


def test_e1_exclusion_does_not_withhold_g1_clean_credit():
    tracker = SatelliteHealthTracker(
        HealthConfig(exclusion_threshold=3, quarantine_epochs=1, probation_epochs=2)
    )
    for _ in range(3):
        tracker.admit([G1])
        tracker.record_exclusion(G1)
    tracker.admit([G1])  # sentence served: G1 enters probation
    assert tracker.state(G1) == "probation"

    # Two epochs whose FDE excludes E1, a different satellite that
    # shares G1's PRN: G1 served clean in both and finishes probation.
    run = executor(tracker)
    for seed in range(2):
        block, _meta = run.execute([sky_with_spiked_e1(seed)])
        (result,) = block.results(run.algorithm, 1)
        assert result.integrity.status == "repaired"
        assert result.integrity.excluded_prn == 1
    assert tracker.state(G1) == "healthy"
    assert tracker.state(E1) == "suspect"


def spiked(epoch, system, prn, meters=300.0):
    return epoch.with_observations(
        [
            replace(obs, pseudorange=obs.pseudorange + meters)
            if (obs.system, obs.prn) == (system, prn)
            else obs
            for obs in epoch.observations
        ]
    )


def test_receiver_exclusions_quarantine_the_key_the_service_uses():
    """Three RAIM exclusions of G07 in a receiver quarantine G07 (key
    28), not BeiDou C01 (key 7), and a service row sharing the tracker
    has key 28 banned at admission."""
    tracker = SatelliteHealthTracker(HealthConfig(exclusion_threshold=3))
    receiver = GpsReceiver(
        algorithm="nr", raim_sigma_meters=2.0, health_tracker=tracker
    )
    for seed in range(3):
        sky = build_scene(8, clock_bias_meters=0.0, seed=seed, noise_sigma=0.5)
        receiver.process(spiked(sky, "G", 7))
    assert receiver.stats["raim_exclusions"] == 3
    assert tracker.state(G7) == "quarantined"
    assert tracker.state(C1) == "healthy"
    assert tracker.to_dict()["quarantined"] == ["G07"]

    block = pack_stream([build_scene(8, clock_bias_meters=0.0, seed=9)]).block
    assert tracker.admit_block(block.satellite_keys, block.counts) == {0: (G7,)}


class _Recording(NewtonRaphsonSolver):
    def __init__(self):
        super().__init__()
        self.seen = []

    def solve(self, epoch):
        self.seen.append(epoch)
        return super().solve(epoch)


def test_receiver_pre_excludes_only_the_quarantined_constellation():
    """With G07 quarantined, the receiver drops G07 from a G+E epoch
    and keeps E07."""
    tracker = SatelliteHealthTracker(HealthConfig(exclusion_threshold=3))
    for _ in range(3):
        tracker.admit([G7])
        tracker.record_exclusion(G7)
    assert tracker.state(G7) == "quarantined"
    solver = _Recording()
    receiver = GpsReceiver(algorithm="nr", nr_solver=solver, health_tracker=tracker)
    receiver.process(build_scene(SKY, clock_bias_meters=0.0, seed=4))
    assert receiver.stats["health_preexclusions"] == 1
    (solved,) = solver.seen
    satellites = {(obs.system, obs.prn) for obs in solved.observations}
    assert len(satellites) == 14
    assert ("G", 7) not in satellites and ("E", 7) in satellites
    assert tracker.state(E7) == "healthy"
