"""Fleet telemetry parity: N worker scrapes sum to the 1-process truth.

Each shard worker owns a private :class:`MetricsRegistry` and ships
snapshots over its control pipe; the router restores them
(:func:`registry_from_snapshot`) and merges with its own registry
(:func:`aggregate_registries`).  Because the same epoch stream does
the same executor work regardless of how it is sharded, every
executor/engine family in the aggregated N-worker scrape must sum
*exactly* to the single-process (inline) values — counters are
integers of events, histogram bucket counts are integers, and the
float sums are sums of identical observations, so equality here is
exact, not approximate.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.api import SolverConfig
from repro.service import (
    ServiceConfig,
    ShardConfig,
    ShardedPositioningService,
)
from repro.telemetry import (
    MetricsRegistry,
    aggregate_registries,
    capture,
    registry_from_snapshot,
)
from repro.validation.scenarios import ScenarioConfig, ScenarioGenerator

#: Families that exist only in one topology by design: the router's
#: own shard bookkeeping (inline mode has no workers to count) and the
#: per-worker batch counter (inline mode never runs worker_main).
TOPOLOGY_FAMILIES = {
    "repro_shard_requests_total",
    "repro_shard_batches_total",
    "repro_shard_retryable_total",
    "repro_shard_worker_restarts_total",
    "repro_shard_workers_up",
    "repro_shard_worker_batches_total",
}


def make_run(workers):
    """Run one fixed stream through a shard; return the merged registry.

    The epochs carry their true clock biases (the DLG oracle-predictor
    contract).  The config is stateless (no integrity, health or
    monitors): a stateful one spawns no worker, so there would be no
    fleet to compare.
    """
    generator = ScenarioGenerator(
        ScenarioConfig(min_satellites=5, max_satellites=9)
    )
    scenarios = [generator.generate(seed) for seed in range(48)]
    epochs = [scenario.epoch for scenario in scenarios]
    biases = [scenario.clock_bias_meters for scenario in scenarios]
    config = ShardConfig(
        service=ServiceConfig(
            solver=SolverConfig(algorithm="dlg"),
            max_batch_size=16,
        ),
        workers=workers,
        batch_size=16,
    )
    with capture() as (router_registry, _tracer):
        with ShardedPositioningService(config) as shard:
            results = shard.solve_many(epochs, bias_meters=biases)
            assert len(results) == len(epochs)
            assert all(result.status == "ok" for result in results)
            registries = [router_registry]
            if workers:
                worker_registries = shard.worker_registries()
                assert len(worker_registries) == workers
                registries.extend(worker_registries)
            scrape_text = shard.scrape()
    return aggregate_registries(registries), scrape_text


def family_samples(registry, name):
    """``{label values: value-or-histogram-state}`` for one family."""
    document = registry.snapshot()
    family = document[name]
    samples = {}
    for sample in family["samples"]:
        key = tuple(sorted(sample["labels"].items()))
        if family["kind"] == "histogram":
            samples[key] = (
                sample["buckets"],
                sample["sum"],
                sample["count"],
            )
        else:
            samples[key] = sample["value"]
    return family["kind"], samples


class TestFleetParity:
    def test_three_worker_scrape_sums_to_single_process(self):
        single, _text = make_run(workers=0)
        fleet, _text = make_run(workers=3)
        single_doc = single.snapshot()
        fleet_doc = fleet.snapshot()

        shared = (set(single_doc) | set(fleet_doc)) - TOPOLOGY_FAMILIES
        # Every work-proportional family exists on both sides...
        assert shared <= set(single_doc) and shared <= set(fleet_doc)
        assert shared  # ...and the comparison is not vacuous
        for name in sorted(shared):
            single_kind, ours = family_samples(single, name)
            fleet_kind, theirs = family_samples(fleet, name)
            assert single_kind == fleet_kind, name
            assert ours.keys() == theirs.keys(), name
            if single_kind == "gauge":
                # Point gauges (coverage fractions, depths) are
                # per-process readings; aggregation sums them by
                # documented convention, so only the family shape is
                # topology-invariant — values are not.
                continue
            for key in ours:
                if single_kind == "histogram":
                    buckets_a, sum_a, count_a = ours[key]
                    buckets_b, sum_b, count_b = theirs[key]
                    assert buckets_a == buckets_b, (name, key)
                    assert count_a == count_b, (name, key)
                    assert sum_a == sum_b, (name, key)
                else:
                    assert ours[key] == theirs[key], (name, key)

    def test_expected_executor_families_present(self):
        fleet, text = make_run(workers=2)
        document = fleet.snapshot()
        # The engine/executor instrumentation ran inside the workers
        # and made it back through the snapshot pipe.
        assert "repro_engine_epochs_total" in document
        assert "repro_shard_worker_batches_total" in document
        assert "repro_shard_requests_total" in document
        # The Prometheus fleet text renders the merged families.
        assert "repro_engine_epochs_total" in text
        assert "repro_fleet_registries" in text

    def test_worker_batch_counters_cover_all_batches(self):
        fleet, _text = make_run(workers=2)
        _kind, samples = family_samples(
            fleet, "repro_shard_worker_batches_total"
        )
        total = sum(samples.values())
        assert total == 3  # 48 epochs / batch_size 16


class TestSnapshotRoundTrip:
    def test_registry_survives_snapshot_restore_aggregate(self):
        registry = MetricsRegistry()
        counter = registry.counter("demo_total", "d", labels=("kind",))
        counter.labels(kind="a").inc(3)
        counter.labels(kind="b").inc(2)
        histogram = registry.histogram(
            "demo_seconds", "d", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.5, 5.0, 50.0):
            histogram.labels().observe(value)
        restored = registry_from_snapshot(registry.snapshot())
        assert restored.snapshot() == registry.snapshot()
        # And the restored registry is a first-class aggregation input.
        doubled = aggregate_registries([registry, restored])
        _kind, samples = family_samples(doubled, "demo_total")
        assert samples[(("kind", "a"),)] == 6
        _kind, samples = family_samples(doubled, "demo_seconds")
        _buckets, total, count = samples[()]
        assert count == 8
        assert total == 2 * (0.05 + 0.5 + 5.0 + 50.0)
