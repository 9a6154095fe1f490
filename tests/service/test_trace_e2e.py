"""Seeded end-to-end acceptance for the per-request trace plane.

One traced, recorded, SLO-graded service run carries two injected
anomalies — an FDE-repairable pseudorange spike riding an otherwise
healthy micro-batch, and a request whose deadline expires while
queued — and the run must leave: a span tree naming each request's
slowest stage, a replayable incident artifact for *both* anomalies,
a flight-recorder ring the CLI's ``inspect --request`` can search,
and an SLO rollup that graded every outcome.
"""

import asyncio
import dataclasses
import json

import pytest

from repro.api import SolverConfig
from repro.cli import main as cli_main
from repro.integrity import FdeConfig
from repro.service import PositioningService, ServiceConfig
from repro.telemetry import RecorderConfig, SloConfig, replay_incident

CLEAN_REQUESTS = 6
SPIKED_SATELLITE = 0
SPIKE_METERS = 2000.0


def spike(epoch):
    """One satellite's pseudorange off by a repairable fault."""
    observations = list(epoch.observations)
    observations[SPIKED_SATELLITE] = dataclasses.replace(
        observations[SPIKED_SATELLITE],
        pseudorange=observations[SPIKED_SATELLITE].pseudorange + SPIKE_METERS,
    )
    return dataclasses.replace(epoch, observations=tuple(observations))


@pytest.fixture
def anomaly_run(make_epoch, tmp_path):
    """Run the scenario once; tests assert over the collected state."""
    config = ServiceConfig(
        solver=SolverConfig(algorithm="dlg", clock_bias_meters=0.0),
        max_batch_size=64,
        max_wait_seconds=0.05,
        integrity=FdeConfig(),
        trace=True,
        recorder=RecorderConfig(dump_dir=tmp_path / "records"),
        slo=SloConfig(availability_target=0.5),
    )
    service = PositioningService(config)

    async def scenario():
        async with service:
            # One flush: the batcher waits out max_wait_seconds, by
            # which point the 5ms-deadline request has expired while
            # its batchmates (one spiked) solve normally.
            results = await asyncio.gather(
                *[
                    service.submit(make_epoch(seed=seed))
                    for seed in range(CLEAN_REQUESTS)
                ],
                service.submit(spike(make_epoch(seed=90))),
                service.submit(make_epoch(seed=91), timeout=0.005),
            )
            return results, service.recorder.snapshot(), service.slo.snapshot()

    results, ring, slo = asyncio.run(scenario())
    return {
        "clean": results[:CLEAN_REQUESTS],
        "spiked": results[CLEAN_REQUESTS],
        "missed": results[CLEAN_REQUESTS + 1],
        "ring": ring,
        "slo": slo,
        "dump_dir": tmp_path / "records",
    }


class TestAnomalyFlightRecords:
    def test_outcomes(self, anomaly_run):
        assert [r.status for r in anomaly_run["clean"]] == ["ok"] * CLEAN_REQUESTS
        spiked = anomaly_run["spiked"]
        assert spiked.status == "ok"
        assert spiked.integrity.status == "repaired"
        assert spiked.integrity.excluded_prn is not None
        assert anomaly_run["missed"].status == "timeout"

    def test_span_tree_names_slowest_stage(self, anomaly_run):
        for result in anomaly_run["clean"] + [anomaly_run["spiked"]]:
            trace = result.trace
            leaves = {
                span.name: span.duration_seconds
                for span in trace.root.walk()
                if span is not trace.root and not span.children
            }
            assert trace.slowest_stage == max(leaves, key=leaves.get)
            # The engine's stage split is under the solve span.
            assert trace.root.find("solve") is not None
            assert trace.root.find("fde") is not None
        # The missed request never dispatched: queue is all there is.
        missed = anomaly_run["missed"].trace
        assert [s.name for s in missed.root.children] == ["queue"]
        assert missed.slowest_stage == "queue"

    def test_batch_lineage_is_shared(self, anomaly_run):
        spiked = anomaly_run["spiked"].trace
        assert spiked.batch_sequence >= 0
        # Lineage: the request's row in the flush's padded block and
        # the satellites it carried into the kernel call.
        assert 0 <= spiked.flush_row < len(spiked.batch_peers)
        assert spiked.satellites >= 5
        peers = set(spiked.batch_peers)
        assert spiked.request_id in peers
        for result in anomaly_run["clean"]:
            assert result.trace.request_id in peers
        # The screened-out request was not a solve peer.
        assert anomaly_run["missed"].trace.request_id not in peers

    def test_both_anomalies_dump_replayable_artifacts(self, anomaly_run):
        dumps = {
            path.name.split("-")[1]: path
            for path in sorted(anomaly_run["dump_dir"].glob("*.json"))
        }
        assert set(dumps) == {"fde_exclusion", "deadline_miss"}
        for path in dumps.values():
            payload = json.loads(path.read_text())
            replayed = replay_incident(payload)
            assert replayed.status == payload["status"]
            assert list(replayed.detail) == payload["detail"]
        fde_payload = json.loads(dumps["fde_exclusion"].read_text())
        assert any("fde=repaired" in line for line in fde_payload["detail"])
        assert (
            fde_payload["record"]["request_id"]
            == anomaly_run["spiked"].trace.request_id
        )

    def test_ring_retains_every_fix_with_trigger_taxonomy(self, anomaly_run):
        records = {
            record["request_id"]: record
            for record in anomaly_run["ring"]["records"]
        }
        assert len(records) == CLEAN_REQUESTS + 2
        spiked_id = anomaly_run["spiked"].trace.request_id
        missed_id = anomaly_run["missed"].trace.request_id
        assert records[spiked_id]["trigger"] == "fde_exclusion"
        assert records[missed_id]["trigger"] == "deadline_miss"
        for result in anomaly_run["clean"]:
            record = records[result.trace.request_id]
            assert record["trigger"] is None
            assert record["trace"]["batch_sequence"] >= 0

    def test_inspect_cli_locates_the_request(self, anomaly_run, capsys):
        spiked_id = anomaly_run["spiked"].trace.request_id
        assert (
            cli_main(
                ["inspect", str(anomaly_run["dump_dir"]), "--request", spiked_id]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert f"request_id: {spiked_id}" in out
        assert "trigger: fde_exclusion" in out
        assert "replayable: yes" in out
        assert "request" in out and "queue" in out  # the span tree
        assert cli_main(
            ["inspect", str(anomaly_run["dump_dir"]), "--request", "r-nope"]
        ) != 0

    def test_slo_graded_every_outcome(self, anomaly_run):
        slo = anomaly_run["slo"]
        by_status = slo["requests_by_status"]
        assert by_status["ok"] == CLEAN_REQUESTS + 1
        assert by_status["timeout"] == 1
        assert slo["availability"] == pytest.approx(
            (CLEAN_REQUESTS + 1) / (CLEAN_REQUESTS + 2)
        )
        assert slo["window_samples"] == CLEAN_REQUESTS + 2


class TestUntracedRecordIds:
    def test_every_untraced_record_is_named_by_flush_row(self, make_epoch):
        """With tracing off, every record of a flush is
        ``fix-<sequence>-<row>`` (row: the request's place in the
        flush), triggered or not, screened or solved."""
        config = ServiceConfig(
            solver=SolverConfig(algorithm="dlg", clock_bias_meters=0.0),
            max_batch_size=64,
            max_wait_seconds=0.05,
            integrity=FdeConfig(),
            recorder=RecorderConfig(),
        )
        service = PositioningService(config)

        async def scenario():
            async with service:
                await asyncio.gather(
                    *[
                        service.submit(
                            spike(make_epoch(seed=row))
                            if row == 3
                            else make_epoch(seed=row)
                        )
                        for row in range(6)
                    ],
                    service.submit(make_epoch(seed=6), timeout=0.005),
                )

        asyncio.run(scenario())
        recorder = service.recorder
        records = {r.request_id: r for r in recorder.records()}
        assert sorted(records) == [f"fix-0-{row}" for row in range(7)]
        assert records["fix-0-3"].trigger == "fde_exclusion"
        assert records["fix-0-6"].trigger == "deadline_miss"
        assert recorder.find("fix-0-3").trigger == "fde_exclusion"

