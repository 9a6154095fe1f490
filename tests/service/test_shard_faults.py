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
from repro.service.shard import SLOT_SATELLITES, SLOTS_PER_WORKER
from repro.validation.scenarios import ScenarioConfig, ScenarioGenerator
from tests.service.slabs import list_slabs


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
    )
    settings.update(overrides)
    return ShardConfig(**settings)


@pytest.fixture(autouse=True)
def supervision(monkeypatch):
    """Fast heartbeats, a short drain and a restart budget of two.

    The supervision knobs are module constants: the router reads them
    at call time, and workers fork after the patch, so both sides see
    the patched values.  A test changes one with ``monkeypatch`` before
    it starts its shard.
    """
    monkeypatch.setattr(shard_module, "HEARTBEAT_INTERVAL_SECONDS", 0.02)
    monkeypatch.setattr(shard_module, "HEARTBEAT_TIMEOUT_SECONDS", 5.0)
    monkeypatch.setattr(shard_module, "MAX_RESTARTS", 2)
    monkeypatch.setattr(shard_module, "DRAIN_TIMEOUT_SECONDS", 5.0)


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
        as a collected one, error texts included, and the rows equal
        an inline run field by field."""
        from repro.validation.faults import NonFiniteMeasurement
        from tests.service.test_shard_determinism import assert_identical

        original = shard_module.write_response

        def seal_then_die(*args, **kwargs):
            original(*args, **kwargs)
            os._exit(23)

        epochs = make_epochs(32)
        epochs[3] = NonFiniteMeasurement().apply(
            epochs[3], np.random.default_rng(3)
        )
        biases = [None if index % 2 else 25.0 for index in range(len(epochs))]
        config = shard_config(
            service=ServiceConfig(
                solver=SolverConfig(algorithm="dlg"), max_batch_size=32
            ),
            workers=1,
            batch_size=32,
        )
        monkeypatch.setattr(shard_module, "MAX_RESTARTS", 0)
        with ShardedPositioningService(replace(config, workers=0)) as shard:
            inline = shard.solve_many(epochs, bias_meters=biases)
        assert inline[3].status == "invalid" and inline[3].error
        assert [r.status for r in inline].count("ok") == len(epochs) - 1
        # Patched before the fork, so the worker inherits it.
        monkeypatch.setattr(shard_module, "write_response", seal_then_die)
        with ShardedPositioningService(config) as shard:
            salvaged = shard.solve_many(epochs, bias_meters=biases)
            assert shard.live_workers == 0  # it really died
        assert_identical(salvaged, inline)
        assert [r.batch_size for r in salvaged] == [r.batch_size for r in inline]


class TestExecutorException:
    @pytest.mark.parametrize("workers", [0, 1], ids=["inline", "one-worker"])
    def test_poison_batch_fails_its_rows_and_worker_stays_up(
        self, monkeypatch, workers
    ):
        """An executor exception answers its batch ``failed``, row by
        row, like the in-process dispatch loop, whichever process
        solves it: inline, a worker, or the router taking a call's
        last batch.  A worker neither dies nor spends a restart, and
        still exits cleanly at stop (the slab-backed block was
        released)."""

        def poison(self, packed, biases=None, epochs=None):
            raise RuntimeError("poison batch")

        # Patched before the fork, so the worker inherits it.
        monkeypatch.setattr(BatchExecutor, "execute_packed", poison)
        epochs = make_epochs(32)
        config = shard_config(workers=workers)
        with ShardedPositioningService(config) as shard:
            results = shard.solve_many(epochs)
            assert shard.live_workers == workers
            processes = [worker.process for worker in shard._workers]
            assert all(worker.restarts == 0 for worker in shard._workers)
        assert len(results) == len(epochs)
        for result in results:
            assert result.status == "failed"
            assert result.error == "internal dispatch error: poison batch"
        assert [process.exitcode for process in processes] == [0] * workers


class TestBiasOverrideLength:
    @pytest.mark.parametrize("workers", [0, 1], ids=["inline", "one-worker"])
    def test_short_list_is_rejected_without_leaking_a_slot(self, workers):
        """A ``bias_meters`` list shorter than the stream is refused up
        front; no slab slot is taken, so the next call is served."""
        epochs = make_epochs(8)
        config = shard_config(workers=workers)
        with ShardedPositioningService(config) as shard:
            for _attempt in range(2):
                with pytest.raises(ConfigurationError):
                    shard.solve_many(epochs, bias_meters=[None] * 4)
            assert all(
                sorted(worker.free_slots) == list(range(SLOTS_PER_WORKER))
                for worker in shard._workers
            )
            results = shard.solve_many(epochs)
        assert [r.status for r in results] == ["ok"] * len(epochs)

    def test_batch_wider_than_a_slot_is_answered_without_a_slot(self):
        """A batch wider than a slab slot is answered by the router: it
        takes no slot, and the next call is served."""
        from repro.api import build_scene

        config = shard_config(workers=1)
        wide = build_scene({"G": SLOT_SATELLITES + 2}, clock_bias_meters=0.0, seed=1)
        with ShardedPositioningService(config) as shard:
            (result,) = shard.solve_many([wide])
            assert sorted(shard._workers[0].free_slots) == list(
                range(SLOTS_PER_WORKER)
            )
            results = shard.solve_many(make_epochs(8))
        local = BatchExecutor(config.service)
        (alone,) = local.execute([wide])[0].results(local.algorithm, 1)
        assert result.status == alone.status == "ok"
        np.testing.assert_array_equal(result.position, alone.position)
        assert [r.status for r in results] == ["ok"] * 8

    def test_wide_later_batch_leaks_no_stale_results(self):
        """A call whose *second* batch is too wide for a slot is answered
        whole while its first batch is in flight, and the next call
        answers exactly its own epochs."""
        from repro.api import build_scene

        config = shard_config(workers=1, batch_size=4)
        narrow = make_epochs(4)
        wide = build_scene({"G": SLOT_SATELLITES + 2}, clock_bias_meters=0.0, seed=1)
        follow_up = make_epochs(6)[4:]
        with ShardedPositioningService(config) as shard:
            first = shard.solve_many(narrow + [wide])
            assert not shard._workers[0].inflight
            results = shard.solve_many(follow_up)
        assert [r.status for r in first] == ["ok"] * 5
        assert len(results) == len(follow_up)
        local = BatchExecutor(config.service)
        for epoch, result in zip(narrow + [wide] + follow_up, first + results):
            (alone,) = local.execute([epoch])[0].results(local.algorithm, 1)
            assert result.status == alone.status == "ok"
            np.testing.assert_array_equal(result.position, alone.position)

    def test_failed_later_batch_leaks_no_stale_results(self, monkeypatch):
        """A call whose *second* batch fails to reach the slab raises
        after its first batch is already in flight; that batch is
        retired before the error surfaces, so the next call answers
        exactly its own epochs."""
        written = []
        write = shard_module.write_request

        def fail_second(arrays, slot, sequence, packed, biases):
            written.append(len(packed))
            if len(written) == 2:
                raise ServiceError("slab write failed")
            return write(arrays, slot, sequence, packed, biases)

        monkeypatch.setattr(shard_module, "write_request", fail_second)
        config = shard_config(workers=2, batch_size=4)
        follow_up = make_epochs(6)[4:]
        with ShardedPositioningService(config) as shard:
            with pytest.raises(ServiceError, match="slab write failed"):
                shard.solve_many(make_epochs(12))
            assert not any(worker.inflight for worker in shard._workers)
            results = shard.solve_many(follow_up)
        assert len(results) == len(follow_up)
        local = BatchExecutor(config.service)
        for epoch, result in zip(follow_up, results):
            (alone,) = local.execute([epoch])[0].results(local.algorithm, 1)
            assert result.status == alone.status == "ok"
            np.testing.assert_array_equal(result.position, alone.position)


class TestRestartBudget:
    def test_exhaustion_degrades_to_remaining_workers(self, monkeypatch):
        epochs = make_epochs(32)
        monkeypatch.setattr(shard_module, "MAX_RESTARTS", 0)
        config = shard_config(workers=2)
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

    def test_all_workers_dead_fails_structurally_not_hangs(self, monkeypatch):
        epochs = make_epochs(32)
        monkeypatch.setattr(shard_module, "MAX_RESTARTS", 0)
        config = shard_config(workers=1)
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
    def test_stalled_worker_is_reaped_and_replaced(self, monkeypatch):
        """A wedged worker (alive process, no heartbeats) is detected
        by heartbeat staleness, killed, and its batch resurfaced."""
        epochs = make_epochs(16)
        monkeypatch.setattr(shard_module, "HEARTBEAT_TIMEOUT_SECONDS", 0.4)
        monkeypatch.setattr(shard_module, "MAX_RESTARTS", 1)
        config = shard_config(workers=1)
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
        config = shard_config(workers=2)
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

    def test_failed_slab_write_unlinks_and_keeps_its_error(self, monkeypatch):
        """A write that fails after filling the slot leaves the error's
        traceback holding views of the slab.  Leaving the ``with``
        block still unlinks every slab, and the caller sees the
        write's own error, not a close-time ``BufferError``."""
        written = []
        write = shard_module.write_request

        def fail_second(arrays, slot, sequence, packed, biases):
            write(arrays, slot, sequence, packed, biases)
            written.append(len(packed))
            if len(written) == 2:
                raise ServiceError("slab write failed")

        monkeypatch.setattr(shard_module, "write_request", fail_second)
        config = shard_config(workers=2, batch_size=4)
        with pytest.raises(ServiceError, match="slab write failed"):
            with ShardedPositioningService(config) as shard:
                shard.solve_many(make_epochs(12))

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
