"""The service's circuit breaker names satellites, not bare PRNs.

PRNs repeat across constellations: a G+E sky holds both G1 and E1.
The executor keys the health tracker by ``prn*4+system``, so repeated
FDE exclusions of E1 quarantine E1 alone, and the clean-epoch credit
G1 earns is never withheld because E1 was excluded.
"""

from dataclasses import replace

from repro.api import SolverConfig, build_scene
from repro.integrity import FdeConfig, HealthConfig, SatelliteHealthTracker
from repro.service import ServiceConfig
from repro.service.executor import BatchExecutor

SKY = {"G": 8, "E": 7}
BIASES = {"G": 120.0, "E": 3_000.0}
G1 = 1 * 4 + 0  # prn*4+system; GPS is system 0, Galileo system 2
E1 = 1 * 4 + 2


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
