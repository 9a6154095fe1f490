"""The router solves a stateless call's last batch while its workers
are busy, and nothing about the answers may tell.

With workers and a config that carries no stream state (no health
tracker, no monitor suite), the router answers a call's last batch on
its own :class:`~repro.service.executor.BatchExecutor` when every live
worker already holds a batch in flight.  It runs the flush body a
worker runs (:func:`repro.service.shard.answer_batch`), so every field
of every result is bitwise identical to inline mode, to a worker, and
to the in-process service.  A stateful config spawns no worker: the
router answers every batch of it.
"""

from dataclasses import replace

import numpy as np
import pytest

import repro.service.shard as shard_module
from repro.blocks import UNPACKABLE_ERROR
from repro.integrity.fde import FdeConfig
from repro.integrity.monitors import MonitorConfig
from repro.service import ShardConfig, ShardedPositioningService
from repro.service.executor import BatchExecutor
from repro.telemetry import aggregate_registries, capture
from repro.validation.faults import NonFiniteMeasurement
from repro.validation.scenarios import ScenarioConfig, ScenarioGenerator
from tests.service.test_shard_determinism import (
    BATCH,
    assert_identical,
    run_in_process,
    service_config,
    unpackable,
)

#: Rows of the call's last batch (a partial batch).
TAIL = 10


def make_call(workers):
    """``workers`` full batches and a partial last batch holding an
    invalid row, an unpackable row and mixed bias overrides."""
    generator = ScenarioGenerator(
        ScenarioConfig(min_satellites=5, max_satellites=9, max_flatness=0.5)
    )
    scenarios = [generator.generate(seed) for seed in range(workers * BATCH + TAIL)]
    epochs = [scenario.epoch for scenario in scenarios]
    biases = [
        None if index % 3 == 0 else scenario.clock_bias_meters
        for index, scenario in enumerate(scenarios)
    ]
    tail = workers * BATCH
    epochs[tail + 2] = NonFiniteMeasurement().apply(
        epochs[tail + 2], np.random.default_rng(2)
    )
    epochs[tail + 5] = unpackable(epochs[tail + 5])
    return epochs, biases


def run_shard(epochs, biases, config, workers):
    shard_config = ShardConfig(service=config, workers=workers, batch_size=BATCH)
    with ShardedPositioningService(shard_config) as shard:
        return shard.solve_many(epochs, bias_meters=biases)


@pytest.fixture
def router_solves(monkeypatch):
    """The ``(offset, count)`` of every batch the router answered."""
    solved = []
    solve_here = ShardedPositioningService._solve_here

    def spy(self, results, offset, count, packed, biases):
        solved.append((offset, count))
        return solve_here(self, results, offset, count, packed, biases)

    monkeypatch.setattr(ShardedPositioningService, "_solve_here", spy)
    return solved


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_last_batch_solved_by_router_matches_every_transport(workers, router_solves):
    """Each worker holds one batch when the last is cut, so the router
    takes exactly that batch, and its rows equal inline mode's and the
    in-process service's, field by field."""
    epochs, biases = make_call(workers)
    config = service_config(with_fde=False)
    sharded = run_shard(epochs, biases, config, workers)
    assert router_solves == [(workers * BATCH, TAIL)]
    del router_solves[:]
    inline = run_shard(epochs, biases, config, workers=0)
    assert len(router_solves) == workers + 1  # inline: the router solves all
    baseline = run_in_process(epochs, config, biases)

    tail = slice(workers * BATCH, None)
    statuses = [result.status for result in sharded[tail]]
    assert statuses.count("invalid") == 2 and statuses.count("ok") == TAIL - 2
    assert sharded[workers * BATCH + 5].error == UNPACKABLE_ERROR
    assert "non-finite" in sharded[workers * BATCH + 2].error
    for theirs in (inline, baseline):
        assert_identical(sharded, theirs)
        assert [r.batch_size for r in sharded] == [r.batch_size for r in theirs]


def test_single_batch_call_goes_to_the_worker(router_solves):
    epochs, biases = make_call(workers=0)
    results = run_shard(epochs, biases, service_config(with_fde=False), workers=1)
    assert router_solves == []
    assert len(results) == TAIL


def test_router_answered_batches_count_in_the_fleet_scrape():
    """The router counts the batch it answered as an executor batch, so
    the fleet's executor batches still sum to every batch of the call."""
    epochs, biases = make_call(workers=1)
    config = ShardConfig(
        service=service_config(with_fde=False), workers=1, batch_size=BATCH
    )
    with capture() as (router_registry, _tracer):
        with ShardedPositioningService(config) as shard:
            shard.solve_many(epochs, bias_meters=biases)
            registries = [router_registry] + shard.worker_registries()

    def answered(registry):
        family = registry.snapshot().get("repro_shard_worker_batches_total")
        return 0 if family is None else sum(s["value"] for s in family["samples"])

    assert answered(router_registry) == 1
    assert answered(aggregate_registries(registries)) == 2


STATEFUL = {
    "fde-health": dict(integrity=FdeConfig()),
    "monitors": dict(monitors=MonitorConfig()),
}


@pytest.mark.parametrize("arm", sorted(STATEFUL))
def test_stateful_config_spawns_no_worker_and_the_router_answers_every_batch(
    arm, monkeypatch, router_solves
):
    """A health tracker or monitor suite keeps stream state, so it
    lives in one process: the router builds the only executor, spawns
    no worker and answers every batch in stream order."""
    built = []

    class Counting(BatchExecutor):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(shard_module, "BatchExecutor", Counting)
    epochs, biases = make_call(workers=2)
    config = replace(service_config(with_fde=False), **STATEFUL[arm])
    shard_config = ShardConfig(service=config, workers=2, batch_size=BATCH)
    with ShardedPositioningService(shard_config) as shard:
        assert shard.live_workers == 0 and shard._executor is built[0]
        sharded = shard.solve_many(epochs, bias_meters=biases)
    assert len(built) == 1
    assert router_solves == [(0, BATCH), (BATCH, BATCH), (2 * BATCH, TAIL)]
    assert_identical(sharded, run_in_process(epochs, config, biases))
