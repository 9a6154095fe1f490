"""Supervisor fault injection: crashes, stalls, budgets, drains, leaks.

The shard's failure contract, pinned end to end with real worker
processes and real ``SIGKILL``-grade deaths (``os._exit`` mid-fill):

* a worker dying mid-batch never hangs or silently drops requests —
  every in-flight request resurfaces as a structured ``retryable``
  result;
* the torn-write seqlock decides salvage vs resurface, so a partially
  filled response slot is never read;
* the restart budget bounds churn, and past it the shard degrades to
  the remaining workers (or fails everything structurally once none
  remain);
* ``stop()`` drains queued work before teardown;
* no shared-memory slab ever leaks — across crash, restart, budget
  exhaustion, and shutdown the slab directory ends exactly where it
  began (enumerated by prefix).
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

import repro.service.shard as shard_module
from repro.api import SolverConfig
from repro.errors import ConfigurationError, ServiceError
from repro.service import (
    ServiceConfig,
    ShardConfig,
    ShardedPositioningService,
)
from repro.service.executor import BatchExecutor
from repro.service.shm import list_slabs
from repro.validation.scenarios import ScenarioConfig, ScenarioGenerator


def make_epochs(count=40):
    generator = ScenarioGenerator(
        ScenarioConfig(min_satellites=5, max_satellites=8)
    )
    return [generator.generate(seed).epoch for seed in range(count)]


def shard_config(**overrides) -> ShardConfig:
    settings = dict(
        service=ServiceConfig(
            solver=SolverConfig(algorithm="dlg"), max_batch_size=16
        ),
        workers=2,
        batch_size=16,
        heartbeat_interval_seconds=0.02,
        heartbeat_timeout_seconds=5.0,
        max_restarts=2,
        drain_timeout_seconds=5.0,
    )
    settings.update(overrides)
    return ShardConfig(**settings)


@pytest.fixture(autouse=True)
def no_leaked_slabs():
    """Every test starts and ends with a clean slab directory."""
    before = set(list_slabs())
    yield
    assert set(list_slabs()) == before


class TestCrashMidBatch:
    def test_inflight_resurfaces_as_retryable(self):
        epochs = make_epochs(48)
        with ShardedPositioningService(shard_config()) as shard:
            shard.inject_crash(0, after_rows=7)  # torn mid-fill
            started = time.monotonic()
            results = shard.solve_many(epochs)
            elapsed = time.monotonic() - started
        assert elapsed < 30.0  # never hangs
        assert len(results) == len(epochs)
        statuses = {result.status for result in results}
        assert statuses <= {"ok", "retryable"}
        retryable = [r for r in results if r.status == "retryable"]
        assert retryable  # the crashed batch resurfaced, not dropped
        for result in retryable:
            assert result.position is None
            assert "died mid-batch" in result.error
            assert "resubmit" in result.error
            assert result.retry_after_seconds is not None
        # Exactly batch-aligned: a torn batch resurfaces whole.
        assert len(retryable) % 16 == 0

    def test_restarted_worker_serves_again(self):
        epochs = make_epochs(32)
        with ShardedPositioningService(shard_config(workers=1)) as shard:
            shard.inject_crash(0, after_rows=0)
            first = shard.solve_many(epochs)
            assert any(r.status == "retryable" for r in first)
            # The supervisor restarted the worker against the same
            # slab; a clean resubmit now fully succeeds.
            second = shard.solve_many(epochs)
        assert all(r.status == "ok" for r in second)

    def test_tear_covering_every_row_still_resurfaces_the_batch(self):
        """A fill torn after its last row is still torn.

        The chaos hook writes every row of the batch and dies before
        sealing, so the whole batch resurfaces ``retryable``: the
        seqlock, not how many rows landed, decides.  (A worker that
        dies *after* sealing is salvaged; see :class:`TestSalvage`.)
        """
        epochs = make_epochs(16)
        with ShardedPositioningService(shard_config(workers=1)) as shard:
            shard.inject_crash(0, after_rows=16)
            results = shard.solve_many(epochs)
        assert all(r.status == "retryable" for r in results)


class TestSalvage:
    def test_sealed_slot_of_a_dead_worker_decodes_whole(self, monkeypatch):
        """A worker that dies right after sealing its response loses
        nothing: the router salvages the slot through the same decode
        as a collected one, error texts and monitor verdicts included,
        and the rows equal an inline run field by field."""
        from repro.integrity.monitors import MonitorConfig
        from repro.validation.faults import NonFiniteMeasurement
        from tests.service.test_monitor_integration import jammed_epochs
        from tests.service.test_shard_determinism import assert_identical

        original = shard_module.write_response

        def seal_then_die(*args, **kwargs):
            original(*args, **kwargs)
            os._exit(23)

        epochs = jammed_epochs()
        epochs[3] = NonFiniteMeasurement().apply(
            epochs[3], np.random.default_rng(3)
        )
        biases = [0.0] * len(epochs)
        config = shard_config(
            service=ServiceConfig(
                solver=SolverConfig(algorithm="dlg"),
                max_batch_size=32,
                monitors=MonitorConfig(
                    stationary=False, confirm_epochs=3, confirm_window=5
                ),
            ),
            workers=1,
            batch_size=32,
            max_restarts=0,
        )
        with ShardedPositioningService(replace(config, workers=0)) as shard:
            inline = shard.solve_many(epochs, bias_meters=biases)
        assert inline[3].status == "invalid" and inline[3].error
        assert {r.monitor.severity for r in inline if r.monitor} == {
            "suspect",
            "spoofed",
        }
        assert any(r.status == "failed" and r.monitor for r in inline)
        # Patched before the fork, so the worker inherits it.
        monkeypatch.setattr(shard_module, "write_response", seal_then_die)
        with ShardedPositioningService(config) as shard:
            salvaged = shard.solve_many(epochs, bias_meters=biases)
            assert shard.live_workers == 0  # it really died
        assert_identical(salvaged, inline)
        assert [r.batch_size for r in salvaged] == [r.batch_size for r in inline]


class TestExecutorException:
    def test_poison_batch_fails_its_rows_and_worker_stays_up(self, monkeypatch):
        """An executor exception answers its batch ``failed``, row by
        row, like the in-process dispatch loop; the worker neither dies
        nor spends a restart, and still exits cleanly at stop (the
        slab-backed block was released)."""

        def poison(self, packed, biases=None, epochs=None):
            raise RuntimeError("poison batch")

        # Patched before the fork, so the worker inherits it.
        monkeypatch.setattr(BatchExecutor, "execute_packed", poison)
        epochs = make_epochs(32)
        config = shard_config(workers=1, max_restarts=2)
        with ShardedPositioningService(config) as shard:
            results = shard.solve_many(epochs)
            assert shard.live_workers == 1
            worker = shard._workers[0]
            assert worker.restarts == 0
            process = worker.process
        assert len(results) == len(epochs)
        for result in results:
            assert result.status == "failed"
            assert result.error == "internal dispatch error: poison batch"
        assert process.exitcode == 0


class TestBiasOverrideLength:
    @pytest.mark.parametrize("workers", [0, 1], ids=["inline", "one-worker"])
    def test_short_list_is_rejected_without_leaking_a_slot(self, workers):
        """A ``bias_meters`` list shorter than the stream is refused up
        front; no slab slot is taken, so the next call is served."""
        epochs = make_epochs(8)
        config = shard_config(workers=workers, slots_per_worker=1)
        with ShardedPositioningService(config) as shard:
            for _attempt in range(2):
                with pytest.raises(ConfigurationError):
                    shard.solve_many(epochs, bias_meters=[None] * 4)
            assert all(worker.free_slots == [0] for worker in shard._workers)
            results = shard.solve_many(epochs)
        assert [r.status for r in results] == ["ok"] * len(epochs)

    def test_batch_that_does_not_fit_returns_its_slot(self):
        """A batch wider than the slab raises, and its slot is free
        again for the next call."""
        from repro.api import build_scene

        config = shard_config(workers=1, slots_per_worker=1, slot_satellites=8)
        wide = build_scene({"G": 10}, clock_bias_meters=0.0, seed=1)
        with ShardedPositioningService(config) as shard:
            with pytest.raises(ServiceError):
                shard.solve_many([wide])
            assert shard._workers[0].free_slots == [0]
            results = shard.solve_many(make_epochs(8))
        assert [r.status for r in results] == ["ok"] * 8


class TestRestartBudget:
    def test_exhaustion_degrades_to_remaining_workers(self):
        epochs = make_epochs(32)
        config = shard_config(workers=2, max_restarts=0)
        with ShardedPositioningService(config) as shard:
            assert shard.live_workers == 2
            shard.inject_crash(0, after_rows=3)
            first = shard.solve_many(epochs)
            assert any(r.status == "retryable" for r in first)
            # Budget is zero: worker 0 stays down, the shard degrades.
            assert shard.live_workers == 1
            second = shard.solve_many(epochs)
            assert all(r.status == "ok" for r in second)
            assert shard.live_workers == 1

    def test_all_workers_dead_fails_structurally_not_hangs(self):
        epochs = make_epochs(32)
        config = shard_config(workers=1, max_restarts=0)
        with ShardedPositioningService(config) as shard:
            shard.inject_crash(0, after_rows=1)
            started = time.monotonic()
            first = shard.solve_many(epochs)
            elapsed = time.monotonic() - started
            assert elapsed < 30.0
            assert shard.live_workers == 0
            # Subsequent calls answer immediately and structurally.
            second = shard.solve_many(epochs)
        for result in second:
            assert result.status == "retryable"
            assert "no live workers" in result.error


class TestHeartbeatReap:
    def test_stalled_worker_is_reaped_and_replaced(self):
        """A wedged worker (alive process, no heartbeats) is detected
        by heartbeat staleness, killed, and its batch resurfaced."""
        epochs = make_epochs(16)
        config = shard_config(
            workers=1,
            heartbeat_interval_seconds=0.02,
            heartbeat_timeout_seconds=0.4,
            max_restarts=1,
        )
        with ShardedPositioningService(config) as shard:
            shard.inject_stall(0)
            started = time.monotonic()
            results = shard.solve_many(epochs)
            elapsed = time.monotonic() - started
            assert all(r.status == "retryable" for r in results)
            assert elapsed < 15.0
            # Reaped, restarted, serving again.
            again = shard.solve_many(epochs)
        assert all(r.status == "ok" for r in again)


class TestGracefulDrain:
    def test_stop_completes_queued_work(self):
        epochs = make_epochs(64)
        with ShardedPositioningService(shard_config()) as shard:
            results = shard.solve_many(epochs)
            shard.stop()  # idempotent with __exit__
            assert not shard.running
        assert all(r.status == "ok" for r in results)

    def test_workers_exit_cleanly_after_serving(self):
        # A worker answers from zero-copy views of its slab; none may
        # outlive the batch, or unmapping the slab at stop fails.
        shard = ShardedPositioningService(shard_config())
        with shard:
            shard.solve_many(make_epochs(64))
            processes = [worker.process for worker in shard._workers]
        assert [process.exitcode for process in processes] == [0, 0]

    def test_not_running_raises(self):
        shard = ShardedPositioningService(shard_config())
        with pytest.raises(ServiceError):
            shard.solve_many(make_epochs(1))

    def test_double_start_rejected(self):
        with ShardedPositioningService(shard_config(workers=0)) as shard:
            with pytest.raises(ServiceError):
                shard.start()


class TestSlabLifecycle:
    def test_no_leak_across_restart_cycles(self):
        epochs = make_epochs(16)
        config = shard_config(workers=2, max_restarts=2)
        before = set(list_slabs())
        with ShardedPositioningService(config) as shard:
            during = set(list_slabs()) - before
            assert len(during) == 2  # one slab per worker
            for _round in range(2):
                shard.inject_crash(1, after_rows=2)
                shard.solve_many(epochs)
                # Restart reuses the same slab: nothing new appears.
                assert set(list_slabs()) - before == during
        assert set(list_slabs()) == before

    def test_start_failure_tears_down_cleanly(self, monkeypatch):
        """If the Nth worker fails to spawn, slabs 0..N-1 are freed."""
        config = shard_config(workers=3)
        shard = ShardedPositioningService(config)
        before = set(list_slabs())
        calls = []
        original = ShardedPositioningService._spawn

        def failing_spawn(self, worker):
            calls.append(worker.index)
            if worker.index == 2:
                raise RuntimeError("spawn blew up")
            return original(self, worker)

        monkeypatch.setattr(ShardedPositioningService, "_spawn", failing_spawn)
        with pytest.raises(RuntimeError):
            shard.start()
        assert calls == [0, 1, 2]
        assert not shard.running
        assert set(list_slabs()) == before
