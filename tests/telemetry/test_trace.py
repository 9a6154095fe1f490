"""Tests for per-request trace contexts and span trees."""

import pytest

from repro.errors import ConfigurationError
from repro.telemetry import (
    ENGINE_STAGES,
    RequestTrace,
    TraceContext,
    TraceSpan,
    assemble_request_trace,
    build_stage_spans,
    format_request_id,
    mint_request_number,
)


class TestTraceContext:
    def test_new_mints_unique_paired_ids(self):
        a = TraceContext.new()
        b = TraceContext.new()
        assert a.request_id != b.request_id
        assert a.trace_id != b.trace_id
        # One request is one trace: the counter suffix is shared.
        assert a.trace_id.split("-")[-1] == a.request_id.split("-")[-1]

    def test_ids_format_lazily_on_first_read(self):
        context = TraceContext.new(origin="test")
        assert context._trace_id is None
        assert context._request_id is None
        trace_id = context.trace_id
        request_id = context.request_id
        assert trace_id.startswith("t-")
        assert request_id.startswith("r-")
        # Cached after the first read — same object back.
        assert context.trace_id is trace_id
        assert context.request_id is request_id

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


class TestBuildStageSpans:
    def test_stages_lay_out_back_to_back(self):
        spans = build_stage_spans(
            10.0, {"pack": 0.1, "validate": 0.2, "solve": 0.3}
        )
        assert [span.name for span in spans] == ["pack", "validate", "solve"]
        assert [span.start_seconds for span in spans] == pytest.approx(
            [10.0, 10.1, 10.3]
        )
        assert spans[-1].start_seconds + spans[-1].duration_seconds == pytest.approx(
            10.6
        )

    def test_known_order_is_engine_order(self):
        stage_seconds = {name: 0.01 for name in reversed(ENGINE_STAGES)}
        spans = build_stage_spans(0.0, stage_seconds)
        assert tuple(span.name for span in spans) == ENGINE_STAGES

    def test_unknown_stages_append_sorted(self):
        spans = build_stage_spans(
            0.0, {"solve": 0.1, "zeta": 0.2, "alpha": 0.3}
        )
        assert [span.name for span in spans] == ["solve", "alpha", "zeta"]


class TestRequestTrace:
    def _trace(self, **overrides):
        kwargs = dict(
            context=TraceContext.new(origin="test"),
            submitted_at=100.0,
            completed_at=100.5,
            dispatched_at=100.1,
            solve_seconds=0.4,
            stage_seconds={"pack": 0.05, "solve": 0.3, "scatter": 0.05},
            solve_attributes={"algorithm": "dlg"},
            batch_sequence=7,
            batch_peers=("r-a-1", "r-a-2"),
            satellites=8,
            flush_row=1,
        )
        kwargs.update(overrides)
        return assemble_request_trace(**kwargs)

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
        # Cached: second read returns the same tree.
        assert trace.root is root

    def test_queue_only_tree_when_never_dispatched(self):
        trace = self._trace(
            dispatched_at=None, solve_seconds=0.0, stage_seconds=None,
            batch_sequence=-1, batch_peers=(),
        )
        assert [child.name for child in trace.root.children] == ["queue"]
        queue = trace.root.find("queue")
        assert queue.duration_seconds == pytest.approx(0.5)

    def test_slowest_stage_is_a_leaf(self):
        # queue 0.1s, pack 0.05, solve-stage 0.3, scatter 0.05: the
        # "solve" *leaf* (the engine stage) wins, not the parent span.
        assert self._trace().slowest_stage == "solve"
        queued = self._trace(
            dispatched_at=None, stage_seconds=None, solve_seconds=0.0
        )
        assert queued.slowest_stage == "queue"

    def test_stage_seconds_flattens_every_span(self):
        stages = self._trace().stage_seconds()
        assert stages["queue"] == pytest.approx(0.1)
        assert stages["pack"] == pytest.approx(0.05)
        # "solve" counts the parent span plus the engine stage.
        assert stages["solve"] == pytest.approx(0.4 + 0.3)

    def test_number_context_materializes_lazily(self):
        # The service's ingress path: submit stores one counter number,
        # and the TraceContext object only exists once something reads
        # it — with the request's deadline and the submit origin.
        number = mint_request_number()
        trace = self._trace(context=number, deadline=123.5)
        assert trace._context is number  # nothing allocated yet
        context = trace.context
        assert isinstance(context, TraceContext)
        assert context.request_id == format_request_id(number)
        assert context.origin == "service.submit"
        assert context.deadline == 123.5
        # Cached: the second read returns the same object.
        assert trace.context is context
        assert trace.request_id == context.request_id

    def test_number_context_round_trips_and_formats(self):
        trace = self._trace(context=mint_request_number())
        assert trace.request_id in trace.format()
        clone = RequestTrace.from_dict(trace.to_dict())
        assert clone.request_id == trace.request_id

    def test_batch_peers_materialize_lazily_from_numbers(self):
        numbers = tuple(mint_request_number() for _ in range(3))
        trace = self._trace(batch_peers=numbers)
        assert trace._peers is numbers
        ids = trace.batch_peers
        assert ids == tuple(format_request_id(n) for n in numbers)
        assert trace.batch_peers is ids  # cached back

    def test_batch_peers_materialize_lazily_from_contexts(self):
        peers = tuple(TraceContext.new() for _ in range(3))
        trace = self._trace(batch_peers=peers)
        assert trace._peers is peers
        ids = trace.batch_peers
        assert ids == tuple(context.request_id for context in peers)
        assert all(isinstance(peer, str) for peer in ids)
        # Cached back: the second read skips re-formatting.
        assert trace.batch_peers is ids

    def test_round_trip(self):
        trace = self._trace()
        clone = RequestTrace.from_dict(trace.to_dict())
        assert clone == trace
        assert clone.slowest_stage == trace.slowest_stage

    def test_format_names_lineage_and_stages(self):
        rendered = self._trace().format()
        assert "batch #7 (2 peers)" in rendered
        assert "row 1, m=8" in rendered
        assert "queue" in rendered and "scatter" in rendered

    def test_rejects_completion_before_submission(self):
        with pytest.raises(ConfigurationError, match="completed_at"):
            assemble_request_trace(
                TraceContext.new(), submitted_at=5.0, completed_at=4.0
            )
