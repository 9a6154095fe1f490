"""Signal-plausibility monitors through the serving tier.

Three contracts stack on top of the unit-tested monitor plane:

* **Verdicts ride results** — ``ServiceConfig(monitors=...)`` arms the
  suite inside ``BatchExecutor``; raised per-epoch verdicts come back
  on ``ServiceResult.monitor`` (nominal epochs carry ``None``),
  confirmed-``spoofed`` epochs are refused (``status="failed"``) when
  ``block_spoofed`` is on and served-but-tagged when it is off.
* **Strikes feed the breaker** — satellites a spoofed verdict names
  accrue health-tracker strikes exactly like FDE exclusions, one
  strike per epoch however many witnesses flag it.
* **Shard parity** — the shard and the in-process service produce
  identical verdict streams at any worker count: the suite's state is
  keyed on epoch order alone, and a monitor-armed shard keeps it in
  one process, its router, which answers every batch in stream order.
  Every comparison here is equality, not tolerance (the 2- and
  4-worker streams are in ``test_shard_stream_state.py``).
"""

import asyncio
import dataclasses

import numpy as np
import pytest

from repro.api import SolverConfig
from repro.integrity.health import HealthConfig
from repro.integrity.monitors import MonitorConfig
from repro.service import (
    AsyncPositioningClient,
    PositioningService,
    ServiceConfig,
    ShardConfig,
    ShardedPositioningService,
)
from repro.signals import SignalFeatureModel
from repro.telemetry.recorder import TRIGGER_MONITOR, RecorderConfig
from tests.integrity.test_monitors import build_epoch, shift_cn0

N_EPOCHS = 30
BATCH = 8
#: Epoch index where the attacks below switch on: past the stationary
#: monitors' learning window, mid-stream so batches straddle it.
ONSET = 12


def clean_epochs(count=N_EPOCHS):
    model = SignalFeatureModel(seed=42)
    return [model.attach(build_epoch(t)) for t in range(count)]


def jammed_epochs(count=N_EPOCHS, onset=ONSET, suppression_db=-12.0):
    """Common-mode C/N0 suppression from ``onset`` on (jamming ramp)."""
    return [
        shift_cn0(epoch, suppression_db) if t >= onset else epoch
        for t, epoch in enumerate(clean_epochs(count))
    ]


def degraded_satellite_epochs(count=N_EPOCHS, onset=ONSET, prns=(3, 5)):
    """Two satellites pushed below the absolute C/N0 floor from ``onset``."""
    return [
        shift_cn0(epoch, -25.0, prns=set(prns)) if t >= onset else epoch
        for t, epoch in enumerate(clean_epochs(count))
    ]


def mixed_cn0_epochs(count=N_EPOCHS):
    """The jammed stream with C/N0 stripped from every third epoch.

    Batch heads lose it too (epochs 0 and 24), so a flush whose first
    epoch reports no C/N0 must still carry the lane for the rest.
    """
    return [
        epoch.with_observations(
            dataclasses.replace(obs, cn0_dbhz=None) for obs in epoch.observations
        )
        if t % 3 == 0
        else epoch
        for t, epoch in enumerate(jammed_epochs(count))
    ]


def service_config(**monitor_overrides):
    defaults = dict(stationary=False, confirm_epochs=3, confirm_window=5)
    defaults.update(monitor_overrides)
    return ServiceConfig(
        solver=SolverConfig(algorithm="dlg"),
        max_batch_size=BATCH,
        max_wait_seconds=0.01,
        monitors=MonitorConfig(**defaults),
    )


def run_in_process(epochs, config):
    async def main():
        async with PositioningService(config) as service:
            client = AsyncPositioningClient(service)
            return await asyncio.gather(
                *(client.submit(epoch, bias_meters=0.0) for epoch in epochs)
            )

    return asyncio.run(main())


def run_shard(epochs, config, workers):
    shard_config = ShardConfig(
        service=config, workers=workers, batch_size=BATCH
    )
    with ShardedPositioningService(shard_config) as shard:
        return shard.solve_many(
            epochs, bias_meters=[0.0] * len(epochs)
        )


class TestVerdictsRideResults:
    def test_clean_stream_serves_without_verdicts(self):
        results = run_in_process(clean_epochs(), service_config())
        assert all(result.status == "ok" for result in results)
        assert all(result.monitor is None for result in results)

    def test_jamming_escalates_and_blocks(self):
        results = run_in_process(jammed_epochs(), service_config())
        # Pre-onset epochs are untouched.
        assert all(r.monitor is None for r in results[:ONSET])
        severities = [
            None if r.monitor is None else r.monitor.severity
            for r in results[ONSET:]
        ]
        # The attack raises immediately and confirms within the M-of-N
        # window; confirmed epochs are refused, not served.
        assert severities[0] == "suspect"
        assert "spoofed" in severities
        confirmed = [
            r for r in results if r.monitor is not None
            and r.monitor.severity == "spoofed"
        ]
        assert confirmed, "persistent jamming must confirm"
        for result in confirmed:
            assert result.status == "failed"
            assert result.position is None
            assert "monitor" in result.error
            tripped = {v.monitor for v in result.monitor.monitors}
            assert "cn0_agc" in tripped
        # to_dict carries the verdict for observability surfaces.
        payload = confirmed[0].to_dict()
        assert payload["monitor"]["severity"] == "spoofed"

    def test_block_spoofed_off_serves_tagged_fixes(self):
        results = run_in_process(
            jammed_epochs(), service_config(block_spoofed=False)
        )
        confirmed = [
            r for r in results if r.monitor is not None
            and r.monitor.severity == "spoofed"
        ]
        assert confirmed
        for result in confirmed:
            assert result.status == "ok"
            assert result.position is not None

    def test_monitor_alert_reaches_flight_recorder(self):
        config = service_config()
        config = ServiceConfig(
            solver=config.solver,
            max_batch_size=config.max_batch_size,
            max_wait_seconds=config.max_wait_seconds,
            monitors=config.monitors,
            recorder=RecorderConfig(capacity=64),
        )

        async def main():
            async with PositioningService(config) as service:
                client = AsyncPositioningClient(service)
                await asyncio.gather(
                    *(
                        client.submit(epoch, bias_meters=0.0)
                        for epoch in jammed_epochs()
                    )
                )
                return service.recorder.records()

        records = asyncio.run(main())
        alerts = [r for r in records if r.trigger == TRIGGER_MONITOR]
        assert alerts, "raised verdicts must build recorder entries"
        assert all(r.monitor is not None for r in alerts)
        assert any(r.monitor["severity"] == "spoofed" for r in alerts)
        # Every raised verdict riding a result also rides its record.
        assert {r.monitor["severity"] for r in alerts} <= {
            "suspect", "spoofed"
        }


class TestMonitorStrikesFeedBreaker:
    def test_flagged_satellites_accrue_strikes(self):
        """Confirmed per-satellite flags feed the health tracker."""
        config = ServiceConfig(
            solver=SolverConfig(algorithm="dlg"),
            max_batch_size=BATCH,
            max_wait_seconds=0.01,
            monitors=MonitorConfig(
                stationary=False, confirm_epochs=3, confirm_window=5
            ),
            health=HealthConfig(),
        )

        async def main():
            async with PositioningService(config) as service:
                client = AsyncPositioningClient(service)
                results = await asyncio.gather(
                    *(
                        client.submit(epoch, bias_meters=0.0)
                        for epoch in degraded_satellite_epochs()
                    )
                )
                tracker = service.executor.health_tracker
                return results, tracker.quarantined_prns()

        results, quarantined = asyncio.run(main())
        confirmed = [
            r for r in results if r.monitor is not None
            and r.monitor.severity == "spoofed"
        ]
        assert confirmed
        flagged = set()
        for result in confirmed:
            flagged.update(result.monitor.flagged)
        assert {"G03", "G05"} <= flagged
        # Persistent confirmed flags crossed the quarantine threshold.
        # The service's tracker names satellites by prn*4+system keys
        # (GPS is system 0).
        assert {3 * 4, 5 * 4} <= set(quarantined)


class TestShardParity:
    def assert_same_verdicts(self, ours, theirs):
        assert len(ours) == len(theirs)
        for index, (a, b) in enumerate(zip(ours, theirs)):
            context = f"epoch {index}"
            assert a.status == b.status, context
            if a.position is None or b.position is None:
                assert a.position is None and b.position is None, context
            else:
                assert np.array_equal(a.position, b.position), context
            if a.monitor is None or b.monitor is None:
                assert a.monitor is None and b.monitor is None, context
            else:
                # Dict equality pins severity, per-monitor statistics
                # (exact floats), thresholds, and flagged satellites.
                assert a.monitor.to_dict() == b.monitor.to_dict(), context

    @pytest.mark.parametrize(
        "make_stream",
        [jammed_epochs, degraded_satellite_epochs, clean_epochs, mixed_cn0_epochs],
    )
    def test_one_worker_matches_in_process(self, make_stream):
        epochs = make_stream()
        config = service_config()
        baseline = run_in_process(epochs, config)
        sharded = run_shard(epochs, config, workers=1)
        self.assert_same_verdicts(sharded, baseline)

    def test_inline_shard_matches_one_worker(self):
        epochs = jammed_epochs()
        config = service_config()
        inline = run_shard(epochs, config, workers=0)
        sharded = run_shard(epochs, config, workers=1)
        self.assert_same_verdicts(sharded, inline)

    def test_cn0_lane_survives_a_batch_head_without_it(self):
        """Epoch 24 heads its batch and reports no C/N0; the jammed
        epochs behind it in the same flush must still be judged."""
        epochs = mixed_cn0_epochs()
        config = service_config()
        for results in (run_in_process(epochs, config), run_shard(epochs, config, 1)):
            judged = [t for t in range(25, 30) if results[t].monitor is not None]
            assert judged == [t for t in range(25, 30) if t % 3], judged
