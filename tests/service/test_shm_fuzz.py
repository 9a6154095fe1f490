"""Fuzz tests: a corrupted slab must fail loudly, never serve garbage.

The shared-memory lanes are an input boundary like RINEX text: a
worker reads whatever the request slot holds, the router whatever the
response slot holds.  Corrupt counts, out-of-range system tags or
status codes, error-text offsets, monitor lanes, NaN lanes and stale
seqlock stamps must raise
:class:`~repro.service.shm.TornBatchError` /
:class:`~repro.errors.ServiceError` — or decode into rows the service
answers as invalid — and never escape as an ``IndexError`` or come
back as an ``ok`` result with a non-finite fix.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import SolverConfig, build_scene
from repro.blocks import pack_stream
from repro.errors import ReproError, ServiceError
from repro.integrity.monitors import MonitorConfig, MonitorRecord
from repro.service import ServiceConfig
from repro.service.executor import BatchExecutor
from repro.service.shard import (
    ShardConfig,
    monitor_names,
    read_request,
    read_response,
    slab_layout,
    write_request,
    write_response,
)
from repro.service.types import STATUS_INVALID, STATUS_OK, ResultBlock
from repro.service.shm import TornBatchError
from repro.signals.features import SignalFeatureModel

SLOT, SEQUENCE = 1, 7
BIAS = 25.0
CONFIG = ShardConfig(batch_size=8, slot_epochs=8, slot_satellites=12, slots_per_worker=2)
SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def flush():
    """A mixed-count G+E flush, C/N0 on some rows, packed once."""
    model = SignalFeatureModel(seed=3)
    epochs = []
    for seed, layout in enumerate(
        ({"G": 7}, {"G": 5, "E": 4}, {"G": 9}, {"E": 4, "G": 6}, {"G": 6})
    ):
        epoch = build_scene(layout, clock_bias_meters=BIAS, seed=seed, noise_sigma=0.5)
        epochs.append(model.attach(epoch) if seed % 2 else epoch)
    return pack_stream(epochs)


@pytest.fixture(scope="module")
def executor():
    return BatchExecutor(
        ServiceConfig(
            solver=SolverConfig(
                algorithm="dlg",
                constellations="per_constellation",
            )
        )
    )


def _request(flush):
    layout = slab_layout(CONFIG)
    arrays = layout.arrays(bytearray(layout.nbytes))
    write_request(arrays, SLOT, SEQUENCE, flush, None)
    return arrays


def _read_and_serve(arrays, executor):
    """The worker's half: read the slot, answer it; returns the
    :class:`ResultBlock` or ``None`` when the read refused the slot."""
    try:
        packed, biases = read_request(arrays, SLOT, SEQUENCE)
    except ServiceError:  # TornBatchError included
        return None
    try:
        block, _meta = executor.execute_packed(packed, biases)
    except ReproError:
        return None  # a typed, loud refusal (e.g. a bias override in
        # per-constellation mode)
    assert len(block) == len(packed)
    assert np.isfinite(block.positions[block.status == STATUS_OK]).all()
    return block


class TestRequestFuzz:
    @given(count=st.integers(min_value=-(2**40), max_value=2**40))
    @SETTINGS
    def test_corrupt_row_count(self, flush, executor, count):
        arrays = _request(flush)
        arrays["req_count"][SLOT] = count
        block = _read_and_serve(arrays, executor)
        if not 0 <= count <= CONFIG.slot_epochs:
            assert block is None

    @given(
        row=st.integers(min_value=0, max_value=4),
        value=st.integers(min_value=-(2**40), max_value=2**40),
    )
    @SETTINGS
    def test_corrupt_satellite_count(self, flush, executor, row, value):
        arrays = _request(flush)
        arrays["req_sats"][SLOT, row] = value
        block = _read_and_serve(arrays, executor)
        if not 0 <= value <= CONFIG.slot_satellites:
            assert block is None
        elif value > flush.block.counts[row]:
            # Padding exposed as satellites: NaN lanes, an invalid row.
            assert block.status[row] == STATUS_INVALID

    @given(
        row=st.integers(min_value=0, max_value=4),
        slot=st.integers(min_value=0, max_value=CONFIG.slot_satellites - 1),
        tag=st.integers(min_value=-128, max_value=127),
    )
    @SETTINGS
    def test_out_of_range_system_tags(self, flush, executor, row, slot, tag):
        arrays = _request(flush)
        arrays["req_systems"][SLOT, row, slot] = tag
        block = _read_and_serve(arrays, executor)
        if slot < flush.block.counts[row] and not 0 <= tag <= 3:
            assert block is None

    @given(
        lane=st.sampled_from(
            ["req_positions", "req_pseudoranges", "req_cn0", "req_sow", "req_biases"]
        ),
        cells=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=6),
        value=st.sampled_from([np.nan, np.inf, -np.inf, -1.0, 0.0, 1e300]),
    )
    @SETTINGS
    def test_non_finite_and_absurd_lanes(self, flush, executor, lane, cells, value):
        arrays = _request(flush)
        target = arrays[lane][SLOT].reshape(-1)
        for cell in cells:
            target[cell % target.size] = value
        with np.errstate(all="ignore"):
            _read_and_serve(arrays, executor)

    @given(
        begin=st.integers(min_value=-5, max_value=20),
        end=st.integers(min_value=-5, max_value=20),
    )
    @SETTINGS
    def test_stale_stamps_are_torn(self, flush, begin, end):
        arrays = _request(flush)
        arrays["req_begin"][SLOT] = begin
        arrays["req_end"][SLOT] = end
        if begin == end == SEQUENCE:
            read_request(arrays, SLOT, SEQUENCE)
        else:
            with pytest.raises(TornBatchError):
                read_request(arrays, SLOT, SEQUENCE)


MONITORED = ShardConfig(
    service=ServiceConfig(monitors=MonitorConfig()),
    batch_size=8,
    slot_epochs=8,
    slot_satellites=12,
    slots_per_worker=2,
)
NAMES = monitor_names(MONITORED)


def _block():
    """Three rows: served and passed, screened, served on the scalar
    rung and repaired with a suspect monitor verdict."""
    block = ResultBlock.empty(3)
    block.status[:] = [STATUS_OK, STATUS_INVALID, STATUS_OK]
    block.solver[:] = [0, -1, 1]
    block.positions[[0, 2]] = [[1.0, -2.0, 3.5], [7.0, 8.0, 9.0]]
    block.biases[[0, 2]] = [12.25, -3.5]
    block.verdict[:] = [0, -1, 1]
    block.statistics[[0, 2]] = [1.25, 3.0]
    block.thresholds[[0, 2]] = [9.5, 9.5]
    block.excluded_prns[2] = 17
    levels = np.zeros((len(NAMES), 3), dtype=np.int8)
    levels[0, 2] = 1
    flagged = np.zeros((len(NAMES), 3, 4), dtype=bool)
    flagged[0, 2, :2] = True
    keys = np.full((3, 4), -1, dtype=np.int64)
    keys[2] = [4 * 5, 4 * 11 + 2, 4 * 30, -1]
    record = MonitorRecord(
        names=NAMES,
        severities=levels.max(axis=0),
        monitor_severities=levels,
        statistics=np.full(levels.shape, 0.5),
        thresholds=np.full(levels.shape, 8.0),
        flagged=flagged,
        keys=keys,
    )
    errors = {1: "epoch failed batch screening"}
    return replace(block.with_errors(errors), monitors=record)


BLOCK = _block()
ROWS = len(BLOCK)


def _response():
    layout = slab_layout(MONITORED)
    arrays = layout.arrays(bytearray(layout.nbytes))
    write_response(arrays, SLOT, SEQUENCE, BLOCK)
    return arrays


def _decode(arrays, count=ROWS):
    """The router's half: ``None`` when the read refused the slot,
    else the results, each checked for a well-formed ``ok``."""
    try:
        block = read_response(arrays, SLOT, SEQUENCE, count, NAMES)
    except ServiceError:
        return None
    results = block.results("dlg", count)
    for result in results:
        if result.status == "ok":
            assert result.position is not None
            assert np.isfinite(result.position).all()
            assert result.solver is not None
    return results


class TestResponseFuzz:
    def test_intact_slot_decodes_to_its_block(self):
        results = _decode(_response())
        assert [repr(r) for r in results] == [
            repr(r) for r in BLOCK.results("dlg", ROWS)
        ]
        assert results[1].error == "epoch failed batch screening"
        assert results[2].monitor.severity == "suspect"
        assert results[2].monitor.flagged == ("E11", "G05")

    @given(count=st.integers(min_value=-(2**40), max_value=2**40))
    @SETTINGS
    def test_corrupt_row_count(self, count):
        results = _decode(_response(), count)
        if not 0 <= count <= MONITORED.slot_epochs:
            assert results is None

    @given(
        lane=st.sampled_from(["resp_status", "resp_solver", "resp_verdict"]),
        row=st.integers(min_value=0, max_value=ROWS - 1),
        code=st.integers(min_value=-128, max_value=127),
    )
    @SETTINGS
    def test_out_of_range_codes(self, lane, row, code):
        arrays = _response()
        arrays[lane][SLOT, row] = code
        limits = {
            "resp_status": (0, 2),
            "resp_solver": (-1, 2),
            "resp_verdict": (-1, 3),
        }
        low, high = limits[lane]
        results = _decode(arrays)
        if not low <= code <= high:
            assert results is None

    @given(
        row=st.integers(min_value=0, max_value=ROWS - 1),
        axis=st.integers(min_value=0, max_value=2),
        value=st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    @SETTINGS
    def test_non_finite_fix_is_never_served(self, row, axis, value):
        arrays = _response()
        arrays["resp_positions"][SLOT, row, axis] = value
        results = _decode(arrays)
        if BLOCK.status[row] == STATUS_OK:
            assert results is None

    @given(
        row=st.integers(min_value=0, max_value=ROWS - 1),
        code=st.integers(min_value=-(2**31), max_value=2**31 - 1),
    )
    @SETTINGS
    def test_corrupt_error_codes(self, row, code):
        arrays = _response()
        arrays["resp_errors"][SLOT, row] = code
        results = _decode(arrays)
        if not -1 <= code < len(BLOCK.error_texts):
            assert results is None
        else:
            expected = BLOCK.error_texts[code] if code >= 0 else None
            assert results[row].error == expected

    @given(value=st.integers(min_value=-(2**62), max_value=2**62))
    @SETTINGS
    def test_corrupt_text_length(self, value):
        arrays = _response()
        arrays["resp_text_length"][SLOT] = value
        results = _decode(arrays)
        if not 0 <= value <= arrays["resp_text"].shape[1]:
            assert results is None

    @given(
        cells=st.lists(st.integers(min_value=0, max_value=64), min_size=1, max_size=4),
        value=st.integers(min_value=0, max_value=255),
    )
    @SETTINGS
    def test_corrupt_text_bytes(self, cells, value):
        arrays = _response()
        for cell in cells:
            arrays["resp_text"][SLOT, cell] = value
        _decode(arrays)

    @given(value=st.integers(min_value=-(2**62), max_value=2**62))
    @SETTINGS
    def test_corrupt_monitor_width(self, value):
        arrays = _response()
        arrays["resp_monitor_width"][SLOT] = value
        results = _decode(arrays)
        if not -1 <= value <= MONITORED.slot_satellites:
            assert results is None
        elif value == -1:
            assert all(result.monitor is None for result in results)

    @given(
        monitor=st.integers(min_value=0, max_value=len(NAMES) - 1),
        row=st.integers(min_value=0, max_value=ROWS - 1),
        code=st.integers(min_value=-128, max_value=127),
    )
    @SETTINGS
    def test_corrupt_monitor_severities(self, monitor, row, code):
        arrays = _response()
        arrays["resp_monitor_monitor_severities"][SLOT, monitor, row] = code
        results = _decode(arrays)
        if not 0 <= code <= 2:
            assert results is None

    @given(
        row=st.integers(min_value=0, max_value=ROWS - 1),
        cell=st.integers(min_value=0, max_value=MONITORED.slot_satellites - 1),
        key=st.integers(min_value=-(2**62), max_value=2**62),
        flag=st.integers(min_value=0, max_value=255),
    )
    @SETTINGS
    def test_corrupt_monitor_keys_and_flags(self, row, cell, key, flag):
        arrays = _response()
        arrays["resp_monitor_keys"][SLOT, row, cell] = key
        arrays["resp_monitor_flagged"][SLOT, 0, row, cell] = flag
        assert _decode(arrays) is not None

    @given(
        begin=st.integers(min_value=-5, max_value=20),
        end=st.integers(min_value=-5, max_value=20),
    )
    @SETTINGS
    def test_stale_stamps_are_torn(self, begin, end):
        arrays = _response()
        arrays["resp_begin"][SLOT] = begin
        arrays["resp_end"][SLOT] = end
        if begin == end == SEQUENCE:
            assert _decode(arrays) is not None
        else:
            with pytest.raises(TornBatchError):
                read_response(arrays, SLOT, SEQUENCE, ROWS, NAMES)
