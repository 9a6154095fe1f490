"""Pins the traced service's wire format, row by row.

One traced, recorded, SLO-graded :class:`PositioningService` run on a
steppable loop clock covers every way a request leaves a flush: solved
``ok``, timed out while queued (screened), cancelled while queued,
expired during the solve, and answered by the scalar ladder.  Each
row's ``RequestTrace.to_dict()`` and ``format()`` must match the
expected form with only the timing fields masked, ``from_dict`` must
round-trip, the flight recorder must name the same ids, and request
ids must run consecutively in submission order.
"""

import asyncio
import re

import numpy as np
import pytest

from repro.api import SolverConfig
from repro.service import PositioningService, ServiceConfig
from repro.telemetry import RecorderConfig, RequestTrace, SloConfig
from tests.service.test_service import coplanar_epoch

#: Where each request of the run lands (submission order).
OK_FIRST, QUEUED_TIMEOUT, CANCELLED, SOLVE_TIMEOUT, OK_LAST = range(5)
SCALAR_ROWS = range(5, 10)
BATCH = 5
STAGES = ["pack", "validate", "solve", "fde", "scatter"]

#: Fields of ``RequestTrace.to_dict()`` that read the loop clock.
TIMING = {
    "submitted_at",
    "completed_at",
    "dispatched_at",
    "solve_seconds",
    "start_seconds",
    "duration_seconds",
    "deadline",
}


class SteppedLoop(asyncio.SelectorEventLoop):
    """An event loop whose clock the test moves forward by hand."""

    offset = 0.0

    def time(self) -> float:
        return super().time() + self.offset


def masked(payload):
    """``payload`` with every timing field replaced by ``"t"``."""
    if isinstance(payload, dict):
        return {
            key: "t" if key in TIMING else masked(value)
            for key, value in payload.items()
        }
    if isinstance(payload, list):
        return [masked(value) for value in payload]
    return payload


def masked_format(text: str) -> str:
    return re.sub(r" +-?\d+\.\d+ ms", " <t> ms", text)


def span(name, attributes=None, children=()):
    return {
        "name": name,
        "start_seconds": "t",
        "duration_seconds": "t",
        "attributes": attributes or {},
        "children": list(children),
    }


def expected_trace(request_id, trace_id, *, solve=None, sequence=0, peers=(),
                   satellites=-1, flush_row=-1, stages=()):
    """The masked ``to_dict()`` a service trace must have."""
    children = [span("queue")]
    if solve is not None:
        children.append(span("solve", solve, [span(name) for name in stages]))
    return {
        "context": {
            "trace_id": trace_id,
            "request_id": request_id,
            "origin": "service.submit",
            "deadline": "t",
        },
        "root": span("request", {"origin": "service.submit"}, children),
        "submitted_at": "t",
        "completed_at": "t",
        "dispatched_at": "t",
        "solve_seconds": "t",
        "batch_sequence": sequence,
        "batch_peers": list(peers),
        "satellites": satellites,
        "flush_row": flush_row,
    }


@pytest.fixture
def traced_run(make_epoch, gps_t0):
    config = ServiceConfig(
        solver=SolverConfig(algorithm="dlg", clock_bias_meters=0.0),
        max_batch_size=BATCH,
        max_wait_seconds=1000.0,
        trace=True,
        recorder=RecorderConfig(),
        slo=SloConfig(),
    )
    service = PositioningService(config)
    loop = SteppedLoop()
    engine = service.executor.engine
    solve_stream = engine.solve_stream

    def slow_solve(*args, **kwargs):
        # The first flush's solve takes ten loop-clock seconds.
        if engine.calls == 0:
            loop.offset += 10.0
        engine.calls += 1
        return solve_stream(*args, **kwargs)

    engine.calls = 0
    engine.solve_stream = slow_solve

    async def scenario():
        async with service:
            tasks = [
                loop.create_task(service.submit(make_epoch(seed=0))),
                loop.create_task(service.submit(make_epoch(seed=1), timeout=1.0)),
                loop.create_task(service.submit(make_epoch(seed=2))),
            ]
            await asyncio.sleep(0)
            tasks[CANCELLED].cancel()
            # Queued past the second request's deadline.
            loop.offset += 2.0
            tasks.append(
                loop.create_task(service.submit(make_epoch(seed=3), timeout=5.0))
            )
            tasks.append(loop.create_task(service.submit(make_epoch(seed=4))))
            await asyncio.gather(*tasks, return_exceptions=True)
            truth = np.array([3623420.0, -5214015.0, 602359.0])
            scalar = await asyncio.gather(
                *(service.submit(make_epoch(seed=seed)) for seed in range(5, 9)),
                service.submit(coplanar_epoch(truth, gps_t0)),
            )
            first = [
                None if task.cancelled() else task.result() for task in tasks
            ]
            return first + list(scalar)

    try:
        results = loop.run_until_complete(scenario())
    finally:
        loop.close()
    return results, service


def ids(results):
    """Each row's request id, the cancelled row's inferred."""
    first = int(results[OK_FIRST].trace.request_id.rsplit("-", 1)[1], 16)
    prefix = results[OK_FIRST].trace.request_id.rsplit("-", 1)[0]
    tprefix = results[OK_FIRST].trace.context.trace_id.rsplit("-", 1)[0]
    return [
        (f"{prefix}-{first + row:08x}", f"{tprefix}-{first + row:08x}")
        for row in range(len(results))
    ]


class TestTracePin:
    def test_statuses(self, traced_run):
        results, _ = traced_run
        statuses = [None if r is None else r.status for r in results]
        assert statuses == ["ok", "timeout", None, "timeout", "ok"] + ["ok"] * 5
        assert results[SOLVE_TIMEOUT].error == "deadline expired during batch solve"
        assert [r.solver for r in results[5:9]] == ["dlg/scalar"] * 4
        assert results[9].solver == "dlg/nr-fallback"

    def test_ids_run_consecutively_in_submission_order(self, traced_run):
        results, _ = traced_run
        expected = ids(results)
        for row, result in enumerate(results):
            if result is None:
                continue
            assert result.trace.request_id == expected[row][0]
            assert result.trace.context.trace_id == expected[row][1]

    def test_to_dict_matches_with_timing_masked(self, traced_run):
        results, _ = traced_run
        names = ids(results)
        solved = [OK_FIRST, SOLVE_TIMEOUT, OK_LAST]
        peers = [names[row][0] for row in solved]
        solve = {"algorithm": "dlg", "rung": "batch", "batch": 3, "reason": "full"}
        for block_row, row in enumerate(solved):
            assert masked(results[row].trace.to_dict()) == expected_trace(
                *names[row], solve=solve, peers=peers, satellites=8,
                flush_row=block_row, stages=STAGES,
            )
        assert masked(results[QUEUED_TIMEOUT].trace.to_dict()) == expected_trace(
            *names[QUEUED_TIMEOUT]
        )
        scalar = {"algorithm": "dlg", "rung": "scalar", "batch": 5, "reason": "full"}
        scalar_peers = [names[row][0] for row in SCALAR_ROWS]
        for row in SCALAR_ROWS:
            assert masked(results[row].trace.to_dict()) == expected_trace(
                *names[row], solve=scalar, sequence=1, peers=scalar_peers
            )

    def test_timing_fields(self, traced_run):
        results, _ = traced_run
        ok, queued, expired = (
            results[OK_FIRST].trace, results[QUEUED_TIMEOUT].trace,
            results[SOLVE_TIMEOUT].trace,
        )
        assert queued.dispatched_at is None and queued.solve_seconds == 0.0
        assert queued.context.deadline == pytest.approx(queued.submitted_at + 1.0)
        assert expired.context.deadline == pytest.approx(expired.submitted_at + 5.0)
        assert ok.context.deadline is None
        assert ok.solve_seconds == pytest.approx(
            ok.completed_at - ok.dispatched_at
        )
        assert ok.solve_seconds >= 10.0
        assert ok.completed_at == results[OK_FIRST].completed_at
        assert ok.submitted_at == results[OK_FIRST].enqueued_at
        assert ok.root.find("solve").duration_seconds == ok.solve_seconds

    def test_format_structure(self, traced_run):
        results, _ = traced_run
        names = ids(results)
        rid, tid = names[OK_FIRST]
        assert masked_format(results[OK_FIRST].trace.format()).splitlines() == [
            f"request {rid} (trace {tid}, origin service.submit)",
            "  lineage: batch #0 (3 peers), row 0, m=8",
            "  request <t> ms  [origin=service.submit]",
            "    queue <t> ms",
            "    solve <t> ms  [algorithm=dlg batch=3 reason=full rung=batch]",
            "      pack <t> ms",
            "      validate <t> ms",
            "      solve <t> ms",
            "      fde <t> ms",
            "      scatter <t> ms",
        ]
        rid, tid = names[QUEUED_TIMEOUT]
        assert masked_format(
            results[QUEUED_TIMEOUT].trace.format()
        ).splitlines() == [
            f"request {rid} (trace {tid}, origin service.submit)",
            "  lineage: batch #0 (0 peers), row -1, m=-1",
            "  request <t> ms  [origin=service.submit]",
            "    queue <t> ms",
        ]
        rid, tid = names[SCALAR_ROWS[0]]
        assert masked_format(
            results[SCALAR_ROWS[0]].trace.format()
        ).splitlines() == [
            f"request {rid} (trace {tid}, origin service.submit)",
            "  lineage: batch #1 (5 peers), row -1, m=-1",
            "  request <t> ms  [origin=service.submit]",
            "    queue <t> ms",
            "    solve <t> ms  [algorithm=dlg batch=5 reason=full rung=scalar]",
        ]

    def test_from_dict_round_trips(self, traced_run):
        results, _ = traced_run
        for result in results:
            if result is None:
                continue
            payload = result.trace.to_dict()
            clone = RequestTrace.from_dict(payload)
            assert clone.to_dict() == payload
            assert clone.format() == result.trace.format()
            assert clone == result.trace
            assert clone.slowest_stage == result.trace.slowest_stage

    def test_fix_records_name_the_same_ids(self, traced_run):
        results, service = traced_run
        records = service.recorder.records()
        # The screened entry is retained before its flush's solve.
        order = [QUEUED_TIMEOUT, OK_FIRST, SOLVE_TIMEOUT, OK_LAST, *SCALAR_ROWS]
        assert [r.request_id for r in records] == [
            results[row].trace.request_id for row in order
        ]
        for record, row in zip(records, order):
            trace = results[row].trace
            assert record.trace_id == trace.context.trace_id
            assert record.to_dict()["trace"] == trace.to_dict()
            assert record.status == results[row].status
        attributes = [record.attributes for record in records]
        assert attributes[0] == {
            "batch_sequence": 0, "batch_size": 0,
            "flush_reason": "full", "rung": "screened",
        }
        assert attributes[1] == {
            "batch_sequence": 0, "batch_size": 3,
            "flush_reason": "full", "rung": "batch",
        }
        assert attributes[4] == {
            "batch_sequence": 1, "batch_size": 5,
            "flush_reason": "full", "rung": "scalar",
        }
        assert [r.trigger for r in records] == [
            "deadline_miss", None, "deadline_miss", None,
            "degraded", "degraded", "degraded", "degraded", "degraded",
        ]
        assert service.recorder.find(records[2].request_id) == records[2]

    def test_slo_grades_every_row(self, traced_run):
        _, service = traced_run
        assert service.slo.snapshot()["requests_by_status"] == {
            "ok": 7, "timeout": 2, "cancelled": 1,
        }
