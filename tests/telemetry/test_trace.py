"""Tests for per-request trace contexts, span trees and the per-flush
trace record they are read from."""

import numpy as np
import pytest

from repro.telemetry import (
    ENGINE_STAGES,
    FlushTrace,
    RequestTrace,
    TraceContext,
    TraceSpan,
    format_request_id,
    reserve_request_numbers,
)


class TestTraceContext:
    def test_new_mints_unique_paired_ids(self):
        a = TraceContext.new()
        b = TraceContext.new()
        assert a.request_id != b.request_id
        assert a.trace_id != b.trace_id
        # One request is one trace: the counter suffix is shared.
        assert a.trace_id.split("-")[-1] == a.request_id.split("-")[-1]

    def test_new_reserves_the_next_number(self):
        a = TraceContext.new(origin="test")
        b = TraceContext.new(origin="test")
        assert a.request_id.startswith("r-") and a.trace_id.startswith("t-")
        assert int(b.request_id[-8:], 16) == int(a.request_id[-8:], 16) + 1

    def test_new_joins_supplied_trace_id(self):
        context = TraceContext.new(trace_id="t-upstream-00000001")
        assert context.trace_id == "t-upstream-00000001"
        assert context.request_id.startswith("r-")

    def test_carries_origin_and_deadline(self):
        context = TraceContext.new(origin="station", deadline=12.5)
        assert context.origin == "station"
        assert context.deadline == 12.5

    def test_round_trip(self):
        context = TraceContext.new(origin="svc", deadline=3.0)
        clone = TraceContext.from_dict(context.to_dict())
        assert clone == context
        assert hash(clone) == hash(context)

    def test_equality_distinguishes_requests(self):
        assert TraceContext.new() != TraceContext.new()


class TestTraceSpan:
    def _tree(self):
        return TraceSpan(
            name="request",
            start_seconds=0.0,
            duration_seconds=1.0,
            children=(
                TraceSpan("queue", 0.0, 0.2),
                TraceSpan(
                    "solve",
                    0.2,
                    0.8,
                    attributes={"algorithm": "dlg"},
                    children=(TraceSpan("pack", 0.2, 0.3),),
                ),
            ),
        )

    def test_walk_is_depth_first(self):
        names = [span.name for span in self._tree().walk()]
        assert names == ["request", "queue", "solve", "pack"]

    def test_find_locates_nested_span(self):
        tree = self._tree()
        assert tree.find("pack").duration_seconds == 0.3
        assert tree.find("missing") is None

    def test_round_trip_preserves_tree(self):
        tree = self._tree()
        clone = TraceSpan.from_dict(tree.to_dict())
        assert clone == tree

    def test_format_tree_indents_children(self):
        lines = self._tree().format_tree().splitlines()
        assert lines[0].startswith("request")
        assert lines[1].startswith("  queue")
        assert lines[3].startswith("    pack")
        assert "[algorithm=dlg]" in lines[2]


def flush_trace(**overrides) -> FlushTrace:
    """A two-row solved flush record; ``overrides`` replace fields."""
    kwargs = dict(
        first_number=reserve_request_numbers(2),
        rows=[0, 1],
        enqueued=(100.0, 100.0),
        deadlines=(None, 123.5),
        dispatched_at=100.1,
        resolved_at=100.5,
        stage_seconds={"pack": 0.05, "solve": 0.3, "scatter": 0.05},
        sequence=7,
        reason="full",
        rung="batch",
        algorithm="dlg",
        counts=np.array([6, 8]),
    )
    kwargs.update(overrides)
    return FlushTrace(**kwargs)


def stage_names(stage_seconds, start=10.0):
    trace = RequestTrace(
        flush_trace(dispatched_at=start, stage_seconds=stage_seconds), 0
    )
    return trace.root.find("solve").children


class TestStageSpans:
    def test_stages_lay_out_back_to_back(self):
        spans = stage_names({"pack": 0.1, "validate": 0.2, "solve": 0.3})
        assert [span.name for span in spans] == ["pack", "validate", "solve"]
        assert [span.start_seconds for span in spans] == pytest.approx(
            [10.0, 10.1, 10.3]
        )
        assert spans[-1].start_seconds + spans[-1].duration_seconds == pytest.approx(
            10.6
        )

    def test_known_order_is_engine_order(self):
        stage_seconds = {name: 0.01 for name in reversed(ENGINE_STAGES)}
        spans = stage_names(stage_seconds)
        assert tuple(span.name for span in spans) == ENGINE_STAGES

    def test_unknown_stages_append_sorted(self):
        spans = stage_names({"solve": 0.1, "zeta": 0.2, "alpha": 0.3})
        assert [span.name for span in spans] == ["solve", "alpha", "zeta"]


class TestRequestTrace:
    def _trace(self, row=1, **overrides):
        return RequestTrace(flush_trace(**overrides), row)

    def test_root_tree_shape(self):
        trace = self._trace()
        root = trace.root
        assert root.name == "request"
        assert [child.name for child in root.children] == ["queue", "solve"]
        assert [s.name for s in root.find("solve").children] == [
            "pack",
            "solve",
            "scatter",
        ]
        assert root.find("solve").attributes == {
            "algorithm": "dlg", "rung": "batch", "batch": 2, "reason": "full",
        }
        # Cached: second read returns the same tree.
        assert trace.root is root

    def test_queue_only_tree_when_never_dispatched(self):
        trace = self._trace(dispatched_at=None, stage_seconds=None)
        assert [child.name for child in trace.root.children] == ["queue"]
        queue = trace.root.find("queue")
        assert queue.duration_seconds == pytest.approx(0.5)
        assert trace.solve_seconds == 0.0

    def test_slowest_stage_is_a_leaf(self):
        # queue 0.1s, pack 0.05, solve-stage 0.3, scatter 0.05: the
        # "solve" *leaf* (the engine stage) wins, not the parent span.
        assert self._trace().slowest_stage == "solve"
        queued = self._trace(dispatched_at=None, stage_seconds=None)
        assert queued.slowest_stage == "queue"

    def test_stage_seconds_flattens_every_span(self):
        stages = self._trace().stage_seconds()
        assert stages["queue"] == pytest.approx(0.1)
        assert stages["pack"] == pytest.approx(0.05)
        # "solve" counts the parent span plus the engine stage.
        assert stages["solve"] == pytest.approx(0.4 + 0.3)

    def test_fields_read_off_the_record(self):
        record = flush_trace()
        trace = RequestTrace(record, 1)
        assert trace._fields is None  # nothing built yet
        context = trace.context
        assert context.request_id == format_request_id(record.first_number + 1)
        assert context.trace_id.endswith(context.request_id[-8:])
        assert context.origin == "service.submit"
        assert context.deadline == 123.5
        # Cached: the second read returns the same object.
        assert trace.context is context
        assert trace.request_id == context.request_id
        assert (trace.submitted_at, trace.dispatched_at, trace.completed_at) == (
            100.0, 100.1, 100.5,
        )
        assert trace.solve_seconds == pytest.approx(0.4)
        assert (trace.batch_sequence, trace.satellites, trace.flush_row) == (7, 8, 1)

    def test_rows_name_their_flush_position(self):
        # A row screened out of the solve (flush row 1) keeps its id;
        # the record's rows skip it.
        record = flush_trace(rows=[0, 2])
        ids = [RequestTrace(record, row).request_id for row in range(2)]
        assert ids == [
            format_request_id(record.first_number),
            format_request_id(record.first_number + 2),
        ]

    def test_peers_are_formatted_once_per_record(self):
        record = flush_trace()
        first, second = RequestTrace(record, 0), RequestTrace(record, 1)
        assert first.batch_peers == tuple(
            format_request_id(record.first_number + row) for row in range(2)
        )
        assert second.batch_peers is first.batch_peers

    def test_screened_record_has_no_peers_or_block_row(self):
        trace = self._trace(
            dispatched_at=None, stage_seconds=None, counts=None, rung="screened"
        )
        assert trace.batch_peers == ()
        assert (trace.satellites, trace.flush_row) == (-1, -1)
        assert "batch #7 (0 peers), row -1, m=-1" in trace.format()

    def test_round_trip(self):
        trace = self._trace()
        clone = RequestTrace.from_dict(trace.to_dict())
        assert clone == trace
        assert clone.to_dict() == trace.to_dict()
        assert clone.format() == trace.format()
        assert clone.slowest_stage == trace.slowest_stage

    def test_format_names_lineage_and_stages(self):
        rendered = self._trace().format()
        assert "batch #7 (2 peers)" in rendered
        assert "row 1, m=8" in rendered
        assert "queue" in rendered and "scatter" in rendered
