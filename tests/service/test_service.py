"""PositioningService behaviour under load, faults, and deadlines.

The ISSUE's four service edge cases live here: a request whose
deadline expires mid-batch, a client that cancels while queued, a
queue-full rejection with a retry hint, and a faulty epoch riding in
an otherwise healthy micro-batch.  Plus the degradation ladder: an
ill-conditioned (coplanar) geometry that defeats DLG falls through to
the Newton-Raphson rung while its batchmates still succeed.

All tests drive the real event loop via ``asyncio.run`` from
synchronous test functions (no asyncio pytest plugin in this repo).
"""

import asyncio
import time

import numpy as np
import pytest

from repro import telemetry
from repro.api import SolverConfig
from repro.core.selection import HighestElevationSelector
from repro.errors import ConfigurationError, ServiceError
from repro.observations import ObservationEpoch, SatelliteObservation
from repro.service import (
    AsyncPositioningClient,
    PositioningService,
    ServiceConfig,
    ServiceResult,
)
from repro.telemetry import MetricsRegistry, RecorderConfig
from repro.timebase import GpsTime


def fast_config(**overrides) -> ServiceConfig:
    """A DLG service tuned for test speed (short flush deadline)."""
    settings = dict(
        solver=SolverConfig(algorithm="dlg", clock_bias_meters=0.0),
        max_batch_size=64,
        max_wait_seconds=0.01,
    )
    settings.update(overrides)
    return ServiceConfig(**settings)


def coplanar_epoch(truth, time_):
    """Satellites in one plane: DLG/DLO degenerate, NR solvable."""
    rng = np.random.default_rng(3)
    observations = []
    for prn in range(1, 8):
        xy = truth[:2] + rng.uniform(-1.5e7, 1.5e7, size=2)
        position = np.array([xy[0], xy[1], truth[2] + 2.0e7])
        observations.append(
            SatelliteObservation(
                prn=prn,
                position=position,
                pseudorange=float(np.linalg.norm(position - truth)),
            )
        )
    return ObservationEpoch(time=time_, observations=tuple(observations))


class TestConfigValidation:
    def test_rejects_non_batchable_solver(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(solver=SolverConfig(algorithm="bancroft"))

    def test_rejects_nonpositive_queue_depth(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(max_queue_depth=0)

    @pytest.mark.parametrize(
        "solver",
        [
            SolverConfig(algorithm="dlg", elevation_weighted=True),
            SolverConfig(algorithm="dlg", base_selector=HighestElevationSelector()),
        ],
        ids=["elevation-weighted", "highest-elevation-base"],
    )
    def test_rejects_solver_options_that_read_elevations(self, solver):
        # Flushes are answered from packed blocks, which carry no
        # satellite elevations.
        with pytest.raises(ConfigurationError, match="elevation"):
            ServiceConfig(solver=solver)


class TestLifecycle:
    def test_submit_outside_running_service_raises(self, make_epoch):
        service = PositioningService(fast_config())

        async def scenario():
            await service.submit(make_epoch())

        with pytest.raises(ServiceError):
            asyncio.run(scenario())

    def test_double_start_raises(self):
        async def scenario():
            async with PositioningService(fast_config()) as service:
                with pytest.raises(ServiceError):
                    await service.start()

        asyncio.run(scenario())

    def test_stop_drains_pending_requests(self, make_stream):
        """Exiting the context resolves every queued future (no strands)."""
        epochs = make_stream(5)

        async def scenario():
            async with PositioningService(
                fast_config(max_wait_seconds=30.0)  # only close() can flush
            ) as service:
                tasks = [
                    asyncio.get_running_loop().create_task(service.submit(e))
                    for e in epochs
                ]
                await asyncio.sleep(0)  # let them enqueue
            return await asyncio.gather(*tasks)

        results = asyncio.run(scenario())
        assert all(r.ok for r in results)


class TestHappyPath:
    def test_concurrent_submits_coalesce_into_one_batch(self, make_stream):
        epochs = make_stream(8)

        async def scenario():
            async with PositioningService(fast_config()) as service:
                return await asyncio.gather(*(service.submit(e) for e in epochs))

        results = asyncio.run(scenario())
        assert all(r.status == "ok" for r in results)
        assert all(r.solver == "dlg" for r in results)  # rung 1, batched
        assert all(r.batch_size == len(epochs) for r in results)
        for epoch, result in zip(epochs, results):
            error = np.linalg.norm(result.position - epoch.truth.receiver_position)
            assert error < 1e-5

    def test_per_request_bias_override(self, make_epoch):
        epoch = make_epoch(bias_meters=35.0)

        async def scenario():
            async with PositioningService(fast_config()) as service:
                return await service.submit(epoch, bias_meters=35.0)

        result = asyncio.run(scenario())
        assert result.ok
        error = np.linalg.norm(result.position - epoch.truth.receiver_position)
        assert error < 1e-5

    def test_client_solve_returns_position_fix(self, make_epoch):
        epoch = make_epoch()

        async def scenario():
            async with PositioningService(fast_config()) as service:
                return await AsyncPositioningClient(service).solve(epoch)

        fix = asyncio.run(scenario())
        assert np.linalg.norm(fix.position - epoch.truth.receiver_position) < 1e-5

    def test_client_solve_many_preserves_order(self, make_stream):
        epochs = make_stream(6, count=[7, 8, 9, 7, 8, 9])

        async def scenario():
            async with PositioningService(fast_config()) as service:
                client = AsyncPositioningClient(service)
                return await client.solve_many(epochs, concurrency=3)

        results = asyncio.run(scenario())
        assert len(results) == len(epochs)
        for epoch, result in zip(epochs, results):
            assert result.ok
            assert (
                np.linalg.norm(result.position - epoch.truth.receiver_position)
                < 1e-5
            )


class TestEdgeCases:
    def test_timeout_expired_while_queued(self, make_epoch):
        """Deadline shorter than the flush wait: screened at dispatch."""
        epoch = make_epoch()

        async def scenario():
            async with PositioningService(
                fast_config(max_wait_seconds=0.05)
            ) as service:
                return await service.submit(epoch, timeout=0.01)

        result = asyncio.run(scenario())
        assert result.status == "timeout"
        assert "while queued" in result.error
        assert result.position is None

    def test_timeout_expired_during_batch_solve(self, make_epoch):
        """A slow solve past the deadline reports timeout, not a stale ok."""
        epoch = make_epoch()
        config = fast_config(max_wait_seconds=0.0)
        inner = PositioningService(config)._engine

        class SlowEngine:
            algorithm = inner.algorithm

            def solve_stream(self, epochs, biases, on_undersized):
                time.sleep(0.05)  # blocks the loop, like a real solve
                return inner.solve_stream(
                    epochs, biases, on_undersized=on_undersized
                )

        async def scenario():
            async with PositioningService(config, engine=SlowEngine()) as service:
                return await service.submit(epoch, timeout=0.02)

        result = asyncio.run(scenario())
        assert result.status == "timeout"
        assert "during batch solve" in result.error

    def test_cancelled_request_does_not_disturb_batchmates(self, make_stream):
        epochs = make_stream(3)

        async def scenario():
            async with PositioningService(fast_config()) as service:
                loop = asyncio.get_running_loop()
                doomed = loop.create_task(service.submit(epochs[0]))
                survivors = [
                    loop.create_task(service.submit(e)) for e in epochs[1:]
                ]
                await asyncio.sleep(0)  # all three enqueue
                doomed.cancel()
                results = await asyncio.gather(*survivors)
                cancelled = False
                try:
                    await doomed
                except asyncio.CancelledError:
                    cancelled = True
                return cancelled, results

        cancelled, results = asyncio.run(scenario())
        assert cancelled
        assert all(r.ok for r in results)

    def test_queue_full_rejected_with_retry_hint(self, make_stream):
        epochs = make_stream(2)

        async def scenario():
            async with PositioningService(
                fast_config(max_queue_depth=1, max_wait_seconds=0.05)
            ) as service:
                loop = asyncio.get_running_loop()
                first = loop.create_task(service.submit(epochs[0]))
                await asyncio.sleep(0)  # first now occupies the queue
                rejected = await service.submit(epochs[1])
                return rejected, await first

        rejected, first = asyncio.run(scenario())
        assert rejected.status == "rejected"
        assert rejected.retry_after_seconds == pytest.approx(0.05)
        assert "queue full" in rejected.error
        assert first.ok  # the queued request was unaffected

    def test_faulty_epoch_in_healthy_batch(self, make_stream, make_epoch):
        """An undersized epoch is screened per-row; batchmates stay on
        the batched rung (partial-batch completion, not the ladder)."""
        healthy = make_stream(4)
        faulty = make_epoch(count=8).subset(3)  # < 4 satellites

        async def scenario():
            async with PositioningService(fast_config()) as service:
                return await asyncio.gather(
                    *(service.submit(e) for e in healthy + [faulty])
                )

        results = asyncio.run(scenario())
        assert [r.status for r in results] == ["ok"] * 4 + ["invalid"]
        assert all(r.solver == "dlg" for r in results[:4])
        assert "satellites" in results[-1].error

    def test_ill_conditioned_epoch_falls_back_to_nr(self, make_stream, gps_t0):
        """Coplanar geometry defeats DLG; the NR rung rescues it while
        batchmates re-solve on the scalar rung."""
        healthy = make_stream(2)
        truth = np.array([3623420.0, -5214015.0, 602359.0])
        degenerate = coplanar_epoch(truth, gps_t0)

        async def scenario():
            async with PositioningService(fast_config()) as service:
                return await asyncio.gather(
                    *(service.submit(e) for e in healthy + [degenerate])
                )

        results = asyncio.run(scenario())
        assert all(r.status == "ok" for r in results)
        # The degenerate bucket poisons the whole-batch solve, so the
        # healthy epochs re-solve per-epoch (rung 2) and the coplanar
        # one lands on NR (rung 3).
        assert all(r.solver == "dlg/scalar" for r in results[:2])
        assert results[-1].solver == "dlg/nr-fallback"
        assert np.linalg.norm(results[-1].position - truth) < 1e-5

    def test_nr_fallback_disabled_reports_failed(self, gps_t0):
        truth = np.array([3623420.0, -5214015.0, 602359.0])
        degenerate = coplanar_epoch(truth, gps_t0)

        async def scenario():
            async with PositioningService(
                fast_config(nr_fallback=False)
            ) as service:
                return await service.submit(degenerate)

        result = asyncio.run(scenario())
        assert result.status == "failed"
        assert result.position is None
        assert result.error  # structured, not an escaped exception


class TestInternalDispatchError:
    def test_executor_exception_fails_its_flush_and_next_flush_is_served(
        self, make_stream, monkeypatch
    ):
        """An executor exception answers every request of its flush
        ``failed``, counts each once, and leaves the worker serving."""
        epochs = make_stream(6)
        service = PositioningService(fast_config(max_batch_size=3))
        execute = service.executor.execute
        calls = []

        def poison_first(epochs, biases=None):
            calls.append(len(epochs))
            if len(calls) == 1:
                raise RuntimeError("poison batch")
            return execute(epochs, biases)

        monkeypatch.setattr(service.executor, "execute", poison_first)

        async def scenario():
            async with service:
                first = await asyncio.gather(
                    *(service.submit(e) for e in epochs[:3])
                )
                second = await asyncio.gather(
                    *(service.submit(e) for e in epochs[3:])
                )
                return first, second

        registry = MetricsRegistry()
        with telemetry.capture(registry):
            first, second = asyncio.run(scenario())
        assert calls == [3, 3]
        for result in first:
            assert result.status == "failed"
            assert result.error == "internal dispatch error: poison batch"
            assert result.batch_size == 3
        assert [r.status for r in second] == ["ok"] * 3
        requests = registry.counter(
            "repro_service_requests_total",
            "Requests by final status.",
            labels=("status",),
        )
        assert requests.labels(status="failed").value == 3.0
        assert requests.labels(status="ok").value == 3.0

    def test_error_after_resolving_counts_each_request_once(
        self, make_stream, monkeypatch
    ):
        """A dispatch that raises after resolving its futures (here the
        flight-recorder step) leaves the answers standing and counts
        every request once."""
        epochs = make_stream(3)
        service = PositioningService(
            fast_config(max_batch_size=3, recorder=RecorderConfig())
        )

        def broken_recorder(entry):
            raise RuntimeError("recorder down")

        monkeypatch.setattr(service.recorder, "record_flush", broken_recorder)

        async def scenario():
            async with service:
                return await asyncio.gather(*(service.submit(e) for e in epochs))

        registry = MetricsRegistry()
        with telemetry.capture(registry):
            results = asyncio.run(scenario())
        assert [r.status for r in results] == ["ok"] * 3
        requests = registry.counter(
            "repro_service_requests_total",
            "Requests by final status.",
            labels=("status",),
        )
        assert requests.labels(status="ok").value == 3.0
        assert requests.labels(status="failed").value == 0.0


class TestResultShape:
    def test_to_dict_roundtrips_json_safely(self, make_epoch):
        import json

        epoch = make_epoch()

        async def scenario():
            async with PositioningService(fast_config()) as service:
                return await service.submit(epoch)

        result = asyncio.run(scenario())
        payload = json.dumps(result.to_dict())
        assert "ok" in payload

    def test_ok_property_matches_status(self):
        assert ServiceResult(status="ok").ok
        assert not ServiceResult(status="failed").ok
