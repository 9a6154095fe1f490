"""Stream state lives in one process: the shard's router.

The only state a flush carries into the next is the executor's health
tracker (quarantine) and its monitor suite.  A config that arms either
(:func:`repro.service.shard.stateless` is false) spawns no worker,
whatever ``workers`` says: the router answers every batch in stream
order.  So the shard equals the in-process service at every worker
count, with quarantine engaged and with monitors confirming an
attack.  A stateless config still spawns
its workers.
"""

import numpy as np
import pytest

from repro.integrity.fde import FdeConfig
from repro.integrity.health import HealthConfig
from repro.integrity.monitors import MonitorConfig
from repro.service import ServiceConfig, ShardConfig, ShardedPositioningService
from repro.validation.faults import DuplicateSatellite, NonFiniteMeasurement
from repro.validation.scenarios import ScenarioConfig, ScenarioGenerator
from tests.service.slabs import list_slabs
from tests.service import test_monitor_integration as monitored
from tests.service.test_shard_determinism import (
    SEEDS,
    assert_identical,
    make_epochs,
    run_in_process,
    run_shard,
    service_config,
    spike,
)

WORKERS = [2, 4]


@pytest.fixture(scope="module")
def quarantine_run():
    """``TestStatefulQuarantineParity``'s stream (a spike on every
    eighth epoch, a NaN row and a duplicated satellite late on) and its
    in-process answers."""
    generator = ScenarioGenerator(
        ScenarioConfig(min_satellites=6, max_satellites=9, max_flatness=0.5)
    )
    scenarios = [generator.generate(seed) for seed in SEEDS]
    epochs = [
        spike(s.epoch) if i % 8 == 3 else s.epoch for i, s in enumerate(scenarios)
    ]
    epochs[45] = NonFiniteMeasurement().apply(epochs[45], np.random.default_rng(45))
    epochs[46] = DuplicateSatellite().apply(epochs[46], np.random.default_rng(46))
    biases = [s.clock_bias_meters for s in scenarios]
    config = service_config(with_fde=True)
    baseline = run_in_process(epochs, config, biases)
    # Quarantine engaged: late spikes pass because their PRN was
    # pre-excluded at admission, early ones are repaired by FDE.
    spiked = {baseline[i].integrity.status for i in range(3, len(epochs), 8)}
    assert {"repaired", "passed"} <= spiked
    return epochs, biases, config, baseline


@pytest.mark.parametrize("workers", WORKERS)
def test_quarantine_stream_matches_in_process(quarantine_run, workers):
    epochs, biases, config, baseline = quarantine_run
    sharded = run_shard(epochs, config, workers, biases=biases)
    assert_identical(sharded, baseline)


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize(
    "make_stream",
    [monitored.jammed_epochs, monitored.degraded_satellite_epochs],
    ids=["jammed", "degraded"],
)
def test_monitor_stream_matches_in_process(make_stream, workers):
    epochs = make_stream()
    config = monitored.service_config()
    baseline = monitored.run_in_process(epochs, config)
    assert any(r.monitor and r.monitor.severity == "spoofed" for r in baseline)
    sharded = monitored.run_shard(epochs, config, workers)
    monitored.TestShardParity().assert_same_verdicts(sharded, baseline)


STATEFUL = {
    "fde": dict(integrity=FdeConfig()),
    "fde+health": dict(integrity=FdeConfig(), health=HealthConfig(exclusion_threshold=2)),
    "monitors": dict(monitors=MonitorConfig()),
}


def test_only_a_stateless_config_spawns_workers():
    """A stateful config reads no live worker and creates no slab; a
    stateless one still spawns (and frees) one slab per worker."""
    epochs, _biases = make_epochs(with_fde=False)
    before = set(list_slabs())
    for arm, overrides in STATEFUL.items():
        config = ShardConfig(service=ServiceConfig(**overrides), workers=3)
        with ShardedPositioningService(config) as shard:
            assert shard.live_workers == 0, arm
            assert set(list_slabs()) == before, arm
            results = shard.solve_many(epochs[:8])
        assert len(results) == 8, arm
    with ShardedPositioningService(ShardConfig(workers=3)) as shard:
        assert shard.live_workers == 3
        assert len(set(list_slabs()) - before) == 3
    assert set(list_slabs()) == before
