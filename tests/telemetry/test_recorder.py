"""Tests for the anomaly flight recorder: ring, triggers, replayable
dumps, and the per-flush entries the serving path hands it."""

import asyncio
import dataclasses
import json

import numpy as np
import pytest

from repro import telemetry
from repro.api import SolverConfig
from repro.blocks import pack_stream
from repro.errors import ConfigurationError
from repro.integrity.fde import FdeConfig
from repro.integrity.fde import STATUS_REPAIRED
from repro.service import PositioningService, ServiceConfig
from repro.service.executor import BatchMeta
from repro.service.types import (
    ABSENT,
    SOLVER_BATCH,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    ResultBlock,
)
from repro.telemetry import (
    FixRecord,
    FlightRecorder,
    MetricsRegistry,
    FlushTrace,
    RecorderConfig,
    RequestTrace,
    TRIGGERS,
    format_request_id,
    replay_incident,
    reserve_request_numbers,
)
from repro.telemetry.recorder import (
    FlushEntry,
    RecordSpec,
    build_incident_payload,
    epoch_digest,
    epoch_payload,
    payload_epoch,
)
from repro.validation.faults import _unvalidated_epoch, _unvalidated_observation

SPEC = RecordSpec(
    algorithm="dlg",
    config_hash="cfg0",
    solver_spec={"algorithm": "dlg", "clock_bias_meters": 0.0},
)


def make_record(request_id="r-test-1", trigger=None, epoch=None, **overrides):
    kwargs = dict(
        request_id=request_id,
        status="ok",
        solver="dlg",
        recorded_at=1.0,
        config_hash="cfg0",
        trace_id="t-test-1",
        trigger=trigger,
        epoch=epoch,
        solver_spec={"algorithm": "dlg", "clock_bias_meters": 0.0},
    )
    kwargs.update(overrides)
    return FixRecord(**kwargs)


def make_entry(
    epochs, first=None, sequence=0, status=STATUS_OK, verdict=ABSENT, rows=None
):
    """One flush's recorder entry, one row per epoch, shaped like the
    service's: traced with request numbers from ``first`` when given,
    untraced otherwise.  ``status`` and ``verdict`` are codes, one for
    every row or one per row."""
    count = len(epochs)
    block = ResultBlock.empty(count)
    block.status[:] = status
    block.solver[block.status == STATUS_OK] = SOLVER_BATCH
    block.verdict[:] = verdict
    trace = FlushTrace(
        first,
        list(range(count)) if rows is None else rows,
        (0.0,) * count,
        (None,) * count,
        0.0,
        0.0,
        None,
        sequence,
        "full",
        "batch",
        "dlg",
    )
    return FlushEntry(
        block,
        BatchMeta(rung="batch", block=pack_stream(epochs).block),
        trace,
        [0.0] * count,
        SPEC,
    )


class TestRecorderConfig:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            RecorderConfig(capacity=0)

    def test_rejects_negative_max_dumps(self):
        with pytest.raises(ConfigurationError, match="max_dumps"):
            RecorderConfig(max_dumps=-1)

    def test_rejects_unknown_triggers(self):
        with pytest.raises(ConfigurationError, match="unknown recorder"):
            RecorderConfig(triggers=("fde_exclusion", "alien"))

    def test_defaults_to_all_triggers(self):
        assert RecorderConfig().triggers == TRIGGERS


class TestFixRecord:
    def test_record_digests_its_epoch(self, make_epoch):
        epoch = make_epoch()
        (record,) = make_entry([epoch]).records()
        assert record.inputs_digest == epoch_digest(epoch)
        assert len(record.inputs_digest) == 16

    def test_to_dict_serializes_trace_object(self, make_epoch):
        trace = RequestTrace(
            FlushTrace(
                reserve_request_numbers(1), [0], (0.0,), (None,), None, 0.1,
                None, 0, "full", "screened", "dlg",
            ),
            0,
        )
        record = make_record(trace=trace)
        payload = record.to_dict()
        assert payload["trace"]["root"]["name"] == "request"
        json.dumps(payload)  # JSON-ready all the way down


class TestRing:
    def test_ring_is_bounded_oldest_out(self, make_epoch):
        recorder = FlightRecorder(RecorderConfig(capacity=3))
        first = reserve_request_numbers(5)
        for i in range(5):
            recorder.record_flush(make_entry([make_epoch()], first=first + i))
        assert [r.request_id for r in recorder.records()] == [
            format_request_id(first + i) for i in (2, 3, 4)
        ]

    def test_ring_evicts_by_fix_count_across_flushes(self, make_epoch):
        recorder = FlightRecorder(RecorderConfig(capacity=5))
        for sequence in range(4):
            recorder.record_flush(
                make_entry([make_epoch()] * 3, sequence=sequence)
            )
        # 12 fixes in 3-row flushes: the oldest retained flush is cut
        # to its newest 2 rows, so exactly `capacity` fixes remain.
        assert [r.request_id for r in recorder.records()] == [
            "fix-2-1", "fix-2-2", "fix-3-0", "fix-3-1", "fix-3-2",
        ]
        assert recorder.snapshot()["retained"] == 5
        assert recorder.find("fix-2-0") is None
        assert recorder.find("fix-2-1").request_id == "fix-2-1"

    def test_flush_larger_than_capacity_keeps_its_newest_rows(self, make_epoch):
        recorder = FlightRecorder(RecorderConfig(capacity=2))
        recorder.record_flush(make_entry([make_epoch()] * 5, sequence=7))
        assert [r.request_id for r in recorder.records()] == ["fix-7-3", "fix-7-4"]

    def test_find_newest_wins(self, make_epoch):
        recorder = FlightRecorder()
        first = reserve_request_numbers(1)
        recorder.record_flush(make_entry([make_epoch()], first=first))
        recorder.record_flush(
            make_entry([make_epoch()], first=first, status=STATUS_FAILED)
        )
        assert recorder.find(format_request_id(first)).status == "failed"
        assert recorder.find("r-missing") is None

    def test_records_last_n(self, make_epoch):
        recorder = FlightRecorder()
        first = reserve_request_numbers(4)
        recorder.record_flush(make_entry([make_epoch()] * 4, first=first))
        assert [r.request_id for r in recorder.records(last=2)] == [
            format_request_id(first + 2),
            format_request_id(first + 3),
        ]


class TestDumps:
    def test_triggered_record_dumps_replayable_artifact(self, make_epoch, tmp_path):
        epoch = make_epoch()
        recorder = FlightRecorder(RecorderConfig(dump_dir=tmp_path))
        (path,) = recorder.record_flush(
            make_entry(
                [epoch], first=reserve_request_numbers(1), verdict=STATUS_REPAIRED
            )
        )
        payload = json.loads((tmp_path / path.split("/")[-1]).read_text())
        assert payload["format"] == "repro-flight-record-v1"
        assert payload["kind"] == "incident:fde_exclusion"
        assert payload["record"]["epoch"] == epoch_payload(epoch)
        # The replay guarantee: re-solving the captured epoch on the
        # current code reproduces the recorded status and detail.
        result = replay_incident(payload)
        assert result.status == payload["status"]
        assert list(result.detail) == payload["detail"]

    def test_untriggered_record_never_dumps(self, make_epoch, tmp_path):
        recorder = FlightRecorder(RecorderConfig(dump_dir=tmp_path))
        assert recorder.record_flush(make_entry([make_epoch()])) == []
        assert recorder.dump_paths == ()

    def test_max_dumps_caps_artifacts_ring_keeps_all(self, make_epoch, tmp_path):
        recorder = FlightRecorder(RecorderConfig(dump_dir=tmp_path, max_dumps=2))
        recorder.record_flush(
            make_entry([make_epoch()] * 4, status=STATUS_TIMEOUT)
        )
        assert len(recorder.dump_paths) == 2
        assert len(recorder.records()) == 4

    def test_trigger_filter_respected(self, make_epoch, tmp_path):
        recorder = FlightRecorder(
            RecorderConfig(dump_dir=tmp_path, triggers=("deadline_miss",))
        )
        assert recorder.record_flush(
            make_entry([make_epoch()], verdict=STATUS_REPAIRED)
        ) == []
        assert recorder.record_flush(
            make_entry([make_epoch()], status=STATUS_TIMEOUT)
        ) != []

    def test_incident_payload_requires_captured_epoch(self):
        with pytest.raises(ConfigurationError, match="captured epoch"):
            build_incident_payload(make_record(trigger="degraded"))


class TestEpochPayload:
    def test_payload_round_trip_is_bit_exact(self, make_epoch):
        epoch = make_epoch(count=7, noise_sigma=1.5, seed=3)
        clone = payload_epoch(epoch_payload(epoch))
        assert clone.time == epoch.time
        for a, b in zip(clone.observations, epoch.observations):
            assert a.prn == b.prn
            assert a.pseudorange == b.pseudorange
            assert (a.position == b.position).all()


class TestLazyFlushEntries:
    def test_find_materializes_lazy_entry(self, make_epoch):
        first = reserve_request_numbers(1)
        recorder = FlightRecorder()
        recorder.record_flush(make_entry([make_epoch()], first=first))
        record = recorder.find(format_request_id(first))
        assert isinstance(record, FixRecord)
        assert record.request_id == format_request_id(first)
        assert record.trace_id.startswith("t-")
        assert record.trace_id.endswith(record.request_id[-8:])
        assert record.trigger is None
        assert record.config_hash == "cfg0"

    def test_untraced_entry_gets_sequence_fallback_id(self, make_epoch):
        # Rows are flush positions: a row screened out of the entry
        # (here flush row 1) leaves a gap, never a reused id.
        recorder = FlightRecorder()
        recorder.record_flush(
            make_entry([make_epoch()] * 2, sequence=9, rows=[0, 2])
        )
        record = recorder.find("fix-9-2")
        assert record is not None
        assert record.request_id == "fix-9-2"

    def test_records_and_snapshot_materialize(self, make_epoch):
        first = reserve_request_numbers(1)
        recorder = FlightRecorder()
        recorder.record_flush(make_entry([make_epoch()], first=first))
        (record,) = recorder.records()
        assert record.status == "ok"
        assert len(record.inputs_digest) == 16
        snapshot = recorder.snapshot()
        assert snapshot["retained"] == 1
        assert snapshot["records"][0]["request_id"] == format_request_id(first)

    def test_triggered_row_names_its_trigger_and_captures_epoch(self, make_epoch):
        epochs = [make_epoch(seed=1), make_epoch(seed=2)]
        entry = make_entry(epochs, status=[STATUS_OK, STATUS_TIMEOUT])
        clean, missed = entry.records()
        assert (clean.trigger, clean.epoch) == (None, None)
        assert clean.solver_spec == SPEC.solver_spec
        assert missed.trigger == "deadline_miss"
        assert missed.epoch == epoch_payload(epochs[1])
        assert missed.solver_spec == {"algorithm": "dlg", "clock_bias_meters": 0.0}

    def test_counter_parity_with_per_fix_record(self, make_epoch):
        # One three-row entry counts what three one-row entries count.
        epochs = [make_epoch()] * 3
        statuses = [STATUS_OK, STATUS_TIMEOUT, STATUS_OK]
        flush_registry = MetricsRegistry()
        with telemetry.capture(flush_registry):
            FlightRecorder().record_flush(make_entry(epochs, status=statuses))
        per_fix_registry = MetricsRegistry()
        with telemetry.capture(per_fix_registry):
            recorder = FlightRecorder()
            for epoch, status in zip(epochs, statuses):
                recorder.record(make_entry([epoch], status=status))

        def counts(registry):
            counter = registry.counter(
                "repro_recorder_fixes_total",
                "Fixes captured by the flight recorder.",
                labels=("triggered",),
            )
            return (
                counter.labels(triggered="no").value,
                counter.labels(triggered="yes").value,
            )

        assert counts(flush_registry) == counts(per_fix_registry) == (2.0, 1.0)


class TestUnpackableRows:
    def test_flush_holding_an_unpackable_epoch_stays_readable(
        self, make_epoch, tmp_path
    ):
        """An epoch ``pack_stream`` cannot stack (a 2-vector satellite
        position) is recorded as the empty row its block holds: the
        ring still reads, every packable row digests as its epoch, and
        the flush's triggered row still dumps a replayable incident."""
        broken = make_epoch(seed=2)
        observations = list(broken.observations)
        observations[0] = _unvalidated_observation(
            observations[0], position=np.array([1.0, 2.0])
        )
        spiked = make_epoch(seed=3)
        observations_3 = list(spiked.observations)
        observations_3[0] = dataclasses.replace(
            observations_3[0], pseudorange=observations_3[0].pseudorange + 400.0
        )
        epochs = [
            make_epoch(seed=1),
            _unvalidated_epoch(broken, observations),
            spiked.with_observations(observations_3),
        ]
        config = ServiceConfig(
            solver=SolverConfig(algorithm="dlg", clock_bias_meters=0.0),
            max_batch_size=len(epochs),
            integrity=FdeConfig(),
            trace=True,
            recorder=RecorderConfig(dump_dir=tmp_path),
        )

        async def scenario():
            async with PositioningService(config) as service:
                results = await asyncio.gather(*(service.submit(e) for e in epochs))
                return results, service.recorder

        results, recorder = asyncio.run(scenario())
        assert [r.status for r in results] == ["ok", "invalid", "ok"]
        assert results[2].integrity.status == "repaired"
        snapshot = recorder.snapshot()
        assert snapshot["retained"] == 3
        assert snapshot["dump_failures"] == 0
        records = recorder.records()
        assert [r.status for r in records] == ["ok", "invalid", "ok"]
        for row in (0, 2):
            assert records[row].inputs_digest == epoch_digest(epochs[row])
        for result, record in zip(results, records):
            found = recorder.find(result.trace.context.request_id)
            assert found.to_dict() == record.to_dict()
        (path,) = recorder.dump_paths
        with open(path) as handle:
            payload = json.load(handle)
        replayed = replay_incident(payload)
        assert (replayed.status, list(replayed.detail)) == (
            payload["status"],
            payload["detail"],
        )
