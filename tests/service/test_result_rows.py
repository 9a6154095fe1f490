"""``ResultBlock.results`` against the public ``ServiceResult`` constructor.

The block is validated once and its rows are built without the
constructor's per-row checks; here every row must come out the result
the public constructor builds from the same lanes — equal, with the
same ``repr``, ``to_dict()``, pickle bytes and ``dataclasses.replace``
— and a block the per-row checks would have refused is still refused
with a :class:`~repro.errors.ConfigurationError`.
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
    SOLVER_SUFFIXES,
    STATUS_OK,
    ResultBlock,
    ServiceResult,
)
from repro.telemetry.trace import assemble_request_trace, mint_request_number

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
    traces=None,
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
                None if traces is None else traces[row],
                monitors[row],
            )
        )
    return results


finite = st.floats(-1e7, 1e7, allow_nan=False)
statistic = st.one_of(finite, st.just(math.nan))
row_strategy = st.fixed_dictionaries(
    {
        "status": st.integers(0, len(RESULT_STATUSES) - 1),
        "solver": st.integers(0, len(SOLVER_SUFFIXES) - 1),
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
        "traced": st.booleans(),
        "enqueued": st.one_of(st.none(), st.floats(0.0, 2.0)),
    }
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
        assert vars(row).keys() == vars(expected).keys()
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
)
def test_rows_match_the_public_constructor(
    rows, with_monitors, expired, dispatched_at, stamped
):
    block = build_block(rows, with_monitors)
    expired = [row for row in expired if row < len(rows)]
    if expired:
        block = block.expire(expired, "deadline expired mid-batch")
    traces = [
        assemble_request_trace(mint_request_number(), 0.0, 1.0)
        if row["traced"]
        else None
        for row in rows
    ]
    kwargs = (
        dict(
            solve_seconds=0.25,
            dispatched_at=dispatched_at,
            completed_at=dispatched_at + 0.5,
            enqueued_at=[
                0.0 if row["enqueued"] is None else row["enqueued"] for row in rows
            ],
            traces=traces,
        )
        if stamped
        else {}
    )
    assert_same_rows(
        block.results("dlg", len(rows), **kwargs),
        reference_results(block, "dlg", len(rows), **kwargs),
    )


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
