"""``ResultBlock.results`` against the public ``ServiceResult`` constructor.

The block is validated once and its rows are built without the
constructor's per-row checks; here every row must come out the result
the public constructor builds from the same lanes — equal, with the
same ``repr``, ``to_dict()``, pickle bytes and ``dataclasses.replace``
— and a block the per-row checks would have refused is still refused
with a :class:`~repro.errors.ConfigurationError`.  The block's
flight-recorder triggers must name, row for row, what the per-result
trigger rule says of the rows it builds.
"""

import json
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.integrity.fde import STATUS_NAMES as VERDICT_NAMES
from repro.integrity.fde import EpochVerdict
from repro.integrity.monitors import SEVERITY_NAMES, MonitorRecord
from repro.service.types import (
    ABSENT,
    RESULT_STATUSES,
    SOLVER_BATCH,
    SOLVER_SUFFIXES,
    STATUS_FAILED,
    STATUS_OK,
    ResultBlock,
    ServiceResult,
)
from repro.telemetry.recorder import (
    TRIGGER_DEADLINE_MISS,
    TRIGGER_DEGRADED,
    TRIGGER_FDE_EXCLUSION,
    TRIGGER_FDE_UNREPAIRED,
    TRIGGER_MONITOR,
    TRIGGERS,
)
from repro.telemetry.trace import (
    FlushTrace,
    RequestTrace,
    reserve_request_numbers,
)

TEXTS = ("first failure", "second failure", "third failure")
MONITORS = ("cn0_drop", "clock_drift")
WIDTH = 3


def reference_results(
    block,
    algorithm,
    batch_size,
    *,
    solve_seconds=0.0,
    dispatched_at=None,
    completed_at=None,
    enqueued_at=None,
    trace=None,
):
    """The row builder as it stood before per-block validation: every
    row through the public, checking constructor."""
    solvers = [algorithm + suffix for suffix in SOLVER_SUFFIXES]
    monitors = [None] * len(block)
    if block.monitors is not None:
        for row in np.flatnonzero(block.monitors.severities).tolist():
            monitors[row] = block.monitors.verdict(row)
    status, solver, verdict, prns, errors = (
        lane.tolist()
        for lane in (
            block.status,
            block.solver,
            block.verdict,
            block.excluded_prns,
            block.errors,
        )
    )
    biases, statistics, thresholds = (
        lane.tolist() for lane in (block.biases, block.statistics, block.thresholds)
    )
    results = []
    for row, position in enumerate(block.positions):
        ok = status[row] == STATUS_OK
        code = verdict[row]
        enqueued = None if enqueued_at is None else enqueued_at[row]
        results.append(
            ServiceResult(
                RESULT_STATUSES[status[row]],
                position if ok else None,
                biases[row] if ok and math.isfinite(biases[row]) else None,
                solvers[solver[row]] if ok else None,
                block.error_texts[errors[row]] if errors[row] >= 0 else None,
                None,
                batch_size,
                0.0 if enqueued is None else max(0.0, dispatched_at - enqueued),
                solve_seconds,
                EpochVerdict(
                    VERDICT_NAMES[code],
                    statistics[row],
                    thresholds[row],
                    prns[row] if prns[row] >= 0 else None,
                )
                if code >= 0
                else None,
                enqueued,
                dispatched_at,
                completed_at,
                None if trace is None else RequestTrace(trace, row),
                monitors[row],
            )
        )
    return results


finite = st.floats(-1e7, 1e7, allow_nan=False)
statistic = st.one_of(finite, st.just(math.nan))
row_strategy = st.fixed_dictionaries(
    {
        "status": st.integers(0, len(RESULT_STATUSES) - 1),
        "solver": st.integers(ABSENT, len(SOLVER_SUFFIXES) - 1),
        "position": st.tuples(finite, finite, finite),
        "bias": st.one_of(finite, st.just(math.nan)),
        "verdict": st.integers(ABSENT, len(VERDICT_NAMES) - 1),
        "statistic": statistic,
        "threshold": statistic,
        "excluded": st.one_of(st.just(ABSENT), st.integers(1, 40)),
        "error": st.integers(ABSENT, len(TEXTS) - 1),
        "severities": st.lists(
            st.integers(0, len(SEVERITY_NAMES) - 1),
            min_size=len(MONITORS),
            max_size=len(MONITORS),
        ),
        "flagged": st.lists(
            st.booleans(), min_size=len(MONITORS) * WIDTH, max_size=len(MONITORS) * WIDTH
        ),
        "enqueued": st.one_of(st.none(), st.floats(0.0, 2.0)),
    }
)


def flush_trace(count):
    """A solved ``count``-row flush record."""
    return FlushTrace(
        reserve_request_numbers(count), list(range(count)), (0.0,) * count,
        (None,) * count, 0.5, 1.0, {"solve": 0.5}, 0, "full", "batch", "dlg",
    )


def build_block(rows, with_monitors):
    count = len(rows)
    block = ResultBlock.empty(count)
    for index, row in enumerate(rows):
        block.status[index] = row["status"]
        block.solver[index] = row["solver"]
        block.positions[index] = row["position"]
        block.biases[index] = row["bias"]
        block.verdict[index] = row["verdict"]
        block.statistics[index] = row["statistic"]
        block.thresholds[index] = row["threshold"]
        block.excluded_prns[index] = row["excluded"]
        block.errors[index] = row["error"]
    block = replace(block, error_texts=TEXTS)
    if with_monitors:
        severities = np.array([row["severities"] for row in rows], dtype=np.int8).T
        flagged = np.array([row["flagged"] for row in rows], dtype=bool)
        block = replace(
            block,
            monitors=MonitorRecord(
                names=MONITORS,
                severities=severities.max(axis=0),
                monitor_severities=severities,
                statistics=np.linspace(1.0, 2.0, severities.size).reshape(
                    severities.shape
                ),
                thresholds=np.full(severities.shape, 1.5),
                flagged=flagged.reshape(count, len(MONITORS), WIDTH).transpose(1, 0, 2),
                keys=np.tile(np.array([12, 9, -1]), (count, 1)),
            ),
        )
    return block


def assert_same_value(value, expected, name):
    assert type(value) is type(expected), name
    if isinstance(expected, np.ndarray):
        assert value.dtype == expected.dtype, name
        assert value.tobytes() == expected.tobytes(), name
    elif expected is None:
        assert value is expected, name
    elif isinstance(expected, RequestTrace):
        # Both views of the one flush record, at the same row.
        assert value._record is expected._record, name
        assert value.to_dict() == expected.to_dict(), name
    else:
        # repr, because an unchecked verdict's NaN statistic never
        # equals itself.
        assert repr(value) == repr(expected), name


def assert_same_rows(built, reference):
    assert len(built) == len(reference)
    for row, expected in zip(built, reference):
        assert type(row) is ServiceResult
        assert repr(row) == repr(expected)
        assert json.dumps(row.to_dict()) == json.dumps(expected.to_dict())
        assert pickle.dumps(row) == pickle.dumps(expected)
        assert repr(pickle.loads(pickle.dumps(row))) == repr(
            pickle.loads(pickle.dumps(expected))
        )
        # The same fields in declaration order, holding the same values:
        # a per-row field left at the flush's shared default shows here.
        assert list(vars(row)) == list(vars(expected))
        for name, value in vars(expected).items():
            assert_same_value(vars(row)[name], value, name)
        changed = replace(row, status="failed", error="changed")
        assert pickle.dumps(changed) == pickle.dumps(
            replace(expected, status="failed", error="changed")
        )
        if "nan" not in repr(expected):
            # NaN never equals itself, so rows carrying one (unchecked
            # verdicts) are compared through repr and pickle only.
            assert row == expected
            assert changed == replace(expected, status="failed", error="changed")


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(row_strategy, min_size=1, max_size=8),
    with_monitors=st.booleans(),
    expired=st.lists(st.integers(0, 7), max_size=3, unique=True),
    dispatched_at=st.floats(1.0, 3.0),
    stamped=st.booleans(),
    traced=st.booleans(),
)
def test_rows_match_the_public_constructor(
    rows, with_monitors, expired, dispatched_at, stamped, traced
):
    block = build_block(rows, with_monitors)
    expired = [row for row in expired if row < len(rows)]
    if expired:
        block = block.expire(expired, "deadline expired mid-batch")
    kwargs = (
        dict(
            solve_seconds=0.25,
            dispatched_at=dispatched_at,
            completed_at=dispatched_at + 0.5,
            enqueued_at=[row["enqueued"] for row in rows],
            trace=flush_trace(len(rows)) if traced else None,
        )
        if stamped
        else {}
    )
    if unnamed_ok_rows(block).any():
        with pytest.raises(ConfigurationError, match="solver"):
            block.results("dlg", len(rows), **kwargs)
        return
    assert_same_rows(
        block.results("dlg", len(rows), **kwargs),
        reference_results(block, "dlg", len(rows), **kwargs),
    )


def unnamed_ok_rows(block):
    """``ok`` rows whose solver lane names no solver (ABSENT)."""
    return (block.status == STATUS_OK) & (block.solver == ABSENT)


def reference_trigger(result):
    """The flight-recorder trigger one result raises, or ``None``: the
    per-result rule the block's lane pass replaces, in its order of
    precedence."""
    if result.status == "timeout":
        return TRIGGER_DEADLINE_MISS
    if result.solver is not None and "/" in result.solver:
        return TRIGGER_DEGRADED
    integrity = result.integrity
    if integrity is not None:
        if integrity.status == "repaired":
            return TRIGGER_FDE_EXCLUSION
        if integrity.status == "unusable":
            return TRIGGER_FDE_UNREPAIRED
    if result.monitor is not None:
        return TRIGGER_MONITOR
    return None


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(row_strategy, min_size=1, max_size=8),
    with_monitors=st.booleans(),
    expired=st.lists(st.integers(0, 7), max_size=3, unique=True),
)
def test_triggers_match_the_per_result_rule(rows, with_monitors, expired):
    block = build_block(rows, with_monitors)
    expired = [row for row in expired if row < len(rows)]
    if expired:
        block = block.expire(expired, "deadline expired mid-batch")
    codes = block.triggers().tolist()
    unnamed = unnamed_ok_rows(block)
    if unnamed.any():
        # Such a block builds no results; its rows trigger as the rows
        # the batched rung answered.
        with pytest.raises(ConfigurationError, match="solver"):
            block.results("dlg", len(rows))
        solver = block.solver.copy()
        solver[unnamed] = SOLVER_BATCH
        block = replace(block, solver=solver)
    assert [None if code < 0 else TRIGGERS[code] for code in codes] == [
        reference_trigger(result) for result in block.results("dlg", len(rows))
    ]


def test_every_per_row_field_reaches_its_row():
    # Row 0 sets every field a row owns; row 1 none of them.  Each of
    # row 0's fields must differ from row 1's, so a row left holding
    # the flush's shared default cannot match the constructor-built row.
    block = ResultBlock.empty(2)
    block.status[1] = STATUS_FAILED
    block.solver[0] = SOLVER_SUFFIXES.index("/scalar")
    block.positions[0] = (1.0, 2.0, 3.0)
    block.biases[0] = 4.0
    block.verdict[0] = VERDICT_NAMES.index("repaired")
    block.statistics[0], block.thresholds[0], block.excluded_prns[0] = 9.0, 5.0, 17
    block.errors[0] = 1
    block = replace(block, error_texts=TEXTS)
    severities = np.array([[2, 0], [1, 0]], dtype=np.int8)
    block = replace(
        block,
        monitors=MonitorRecord(
            names=MONITORS,
            severities=severities.max(axis=0),
            monitor_severities=severities,
            statistics=np.ones(severities.shape),
            thresholds=np.full(severities.shape, 0.5),
            flagged=np.zeros((len(MONITORS), 2, WIDTH), dtype=bool),
            keys=np.tile(np.array([12, 9, -1]), (2, 1)),
        ),
    )
    kwargs = dict(
        solve_seconds=0.25,
        dispatched_at=2.0,
        completed_at=2.5,
        enqueued_at=[1.5, None],
        trace=flush_trace(2),
    )
    built = block.results("dlg", 2, **kwargs)
    assert_same_rows(built, reference_results(block, "dlg", 2, **kwargs))
    shared = {"retry_after_seconds", "batch_size", "solve_seconds", "dispatched_at", "completed_at"}
    first, second = vars(built[0]), vars(built[1])
    for name in first.keys() - shared:
        assert repr(first[name]) != repr(second[name]), name
    assert first["wait_seconds"] == 0.5 and first["enqueued_at"] == 1.5


def test_every_status_and_solver_reaches_the_rows():
    count = len(RESULT_STATUSES) * len(SOLVER_SUFFIXES)
    block = ResultBlock.empty(count)
    block.status[:] = np.repeat(np.arange(len(RESULT_STATUSES)), len(SOLVER_SUFFIXES))
    block.solver[:] = np.tile(np.arange(len(SOLVER_SUFFIXES)), len(RESULT_STATUSES))
    block.positions[:] = np.arange(3.0 * count).reshape(count, 3)
    block.biases[:] = 7.0
    built = block.results("dlo", count)
    assert_same_rows(built, reference_results(block, "dlo", count))
    assert {row.status for row in built} == set(RESULT_STATUSES)
    assert {row.solver for row in built if row.ok} == {
        "dlo" + suffix for suffix in SOLVER_SUFFIXES
    }
    assert built[0].position.dtype == np.float64


def test_integer_position_lane_converts_to_float_once():
    block = replace(ResultBlock.empty(2), positions=np.arange(6).reshape(2, 3))
    block.solver[:] = 0
    (first, second) = block.results("dlg", 2)
    assert first.position.dtype == np.float64
    assert second.position.tolist() == [3.0, 4.0, 5.0]
    assert first == ServiceResult("ok", np.array([0, 1, 2]), solver="dlg", batch_size=2)


@pytest.mark.parametrize("code", [-1, -7, len(RESULT_STATUSES), 100])
def test_out_of_range_status_is_refused(code):
    block = ResultBlock.empty(3)
    block.status[1] = code
    with pytest.raises(ConfigurationError, match="status must be one of"):
        block.results("dlg", 3)


@pytest.mark.parametrize("code", [ABSENT, -7, len(SOLVER_SUFFIXES)])
def test_ok_row_without_a_solver_is_refused(code):
    block = ResultBlock.empty(1)
    block.positions[0] = (1.0, 2.0, 3.0)
    block.biases[0] = 4.0
    block.solver[0] = code
    with pytest.raises(ConfigurationError, match="solver"):
        block.results("dlg", 1)


def test_solver_lane_is_read_on_ok_rows_only():
    block = ResultBlock.empty(2, STATUS_FAILED)
    (first, second) = block.results("dlg", 2)
    assert first.solver is None and second.solver is None


@pytest.mark.parametrize("shape", [(3, 2), (2, 3), (3, 3, 1), (3,)])
def test_mis_shaped_position_lane_is_refused(shape):
    block = replace(ResultBlock.empty(3), positions=np.zeros(shape))
    with pytest.raises(ConfigurationError, match="3-vector"):
        block.results("dlg", 3)


def test_public_constructor_keeps_its_checks():
    with pytest.raises(ConfigurationError, match="status must be one of"):
        ServiceResult("bogus")
    with pytest.raises(ConfigurationError, match="3-vector"):
        ServiceResult("ok", np.zeros(4))
