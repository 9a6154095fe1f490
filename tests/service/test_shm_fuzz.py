"""Fuzz tests: a corrupted slab must fail loudly, never serve garbage.

The shared-memory lanes are an input boundary like RINEX text: a
worker reads whatever the request slot holds, the router whatever the
response slot holds.  Corrupt counts, out-of-range system tags or
status codes, NaN lanes and stale seqlock stamps must raise
:class:`~repro.service.shm.TornBatchError` /
:class:`~repro.errors.ServiceError` — or decode into rows the service
answers as invalid — and never escape as an ``IndexError`` or come
back as an ``ok`` result with a non-finite fix.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import SolverConfig, build_scene
from repro.blocks import pack_stream
from repro.errors import ReproError, ServiceError
from repro.integrity.fde import EpochVerdict
from repro.service import ServiceConfig
from repro.service.executor import BatchExecutor
from repro.service.shard import (
    ShardConfig,
    read_request,
    read_response,
    slab_layout,
    write_request,
    write_response,
)
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
    """The worker's half: read the slot, answer it; returns outcomes
    or ``None`` when the read refused the slot."""
    try:
        packed, biases = read_request(arrays, SLOT, SEQUENCE)
    except ServiceError:  # TornBatchError included
        return None
    try:
        outcomes, _meta = executor.execute_packed(packed, biases)
    except ReproError:
        return None  # a typed, loud refusal (e.g. a bias override in
        # per-constellation mode)
    assert len(outcomes) == len(packed)
    for status, position, *_rest in outcomes:
        if status == "ok":
            assert np.isfinite(position).all()
    return outcomes


class TestRequestFuzz:
    @given(count=st.integers(min_value=-(2**40), max_value=2**40))
    @SETTINGS
    def test_corrupt_row_count(self, flush, executor, count):
        arrays = _request(flush)
        arrays["req_count"][SLOT] = count
        outcomes = _read_and_serve(arrays, executor)
        if not 0 <= count <= CONFIG.slot_epochs:
            assert outcomes is None

    @given(
        row=st.integers(min_value=0, max_value=4),
        value=st.integers(min_value=-(2**40), max_value=2**40),
    )
    @SETTINGS
    def test_corrupt_satellite_count(self, flush, executor, row, value):
        arrays = _request(flush)
        arrays["req_sats"][SLOT, row] = value
        outcomes = _read_and_serve(arrays, executor)
        if not 0 <= value <= CONFIG.slot_satellites:
            assert outcomes is None
        elif value > flush.block.counts[row]:
            # Padding exposed as satellites: NaN lanes, an invalid row.
            assert outcomes[row][0] == "invalid"

    @given(
        row=st.integers(min_value=0, max_value=4),
        slot=st.integers(min_value=0, max_value=CONFIG.slot_satellites - 1),
        tag=st.integers(min_value=-128, max_value=127),
    )
    @SETTINGS
    def test_out_of_range_system_tags(self, flush, executor, row, slot, tag):
        arrays = _request(flush)
        arrays["req_systems"][SLOT, row, slot] = tag
        outcomes = _read_and_serve(arrays, executor)
        if slot < flush.block.counts[row] and not 0 <= tag <= 3:
            assert outcomes is None

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


OUTCOMES = [
    ("ok", np.array([1.0, -2.0, 3.5]), 12.25, "dlg", None,
     EpochVerdict("passed", 1.25, 9.5), None),
    ("invalid", None, None, None, "epoch failed batch screening", None, None),
    ("ok", np.array([7.0, 8.0, 9.0]), -3.5, "dlg/scalar", None,
     EpochVerdict("repaired", 3.0, 9.5, excluded_prn=17), None),
]


def _response():
    layout = slab_layout(CONFIG)
    arrays = layout.arrays(bytearray(layout.nbytes))
    errors, monitors = write_response(arrays, SLOT, SEQUENCE, OUTCOMES)
    return arrays, errors, monitors


def _decode(arrays, errors, monitors, count=len(OUTCOMES)):
    try:
        results = read_response(
            arrays, SLOT, SEQUENCE, count, errors, "dlg", count, monitors
        )
    except ServiceError:
        return None
    for result in results:
        if result.status == "ok":
            assert result.position is not None
            assert np.isfinite(result.position).all()
            assert result.solver is not None
    return results


class TestResponseFuzz:
    @given(count=st.integers(min_value=-(2**40), max_value=2**40))
    @SETTINGS
    def test_corrupt_row_count(self, count):
        arrays, errors, monitors = _response()
        results = _decode(arrays, errors, monitors, count)
        if not 0 <= count <= CONFIG.slot_epochs:
            assert results is None

    @given(
        lane=st.sampled_from(["resp_status", "resp_solver", "resp_verdict_status"]),
        row=st.integers(min_value=0, max_value=len(OUTCOMES) - 1),
        code=st.integers(min_value=-128, max_value=127),
    )
    @SETTINGS
    def test_out_of_range_codes(self, lane, row, code):
        arrays, errors, monitors = _response()
        arrays[lane][SLOT, row] = code
        limits = {"resp_status": (0, 2), "resp_solver": (-1, 2), "resp_verdict_status": (-1, 3)}
        low, high = limits[lane]
        results = _decode(arrays, errors, monitors)
        if not low <= code <= high:
            assert results is None

    @given(
        row=st.integers(min_value=0, max_value=len(OUTCOMES) - 1),
        axis=st.integers(min_value=0, max_value=2),
        value=st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    @SETTINGS
    def test_non_finite_fix_is_never_served(self, row, axis, value):
        arrays, errors, monitors = _response()
        arrays["resp_positions"][SLOT, row, axis] = value
        results = _decode(arrays, errors, monitors)
        if OUTCOMES[row][0] == "ok":
            assert results is None

    @given(
        begin=st.integers(min_value=-5, max_value=20),
        end=st.integers(min_value=-5, max_value=20),
    )
    @SETTINGS
    def test_stale_stamps_are_torn(self, begin, end):
        arrays, errors, monitors = _response()
        arrays["resp_begin"][SLOT] = begin
        arrays["resp_end"][SLOT] = end
        if begin == end == SEQUENCE:
            assert _decode(arrays, errors, monitors) is not None
        else:
            with pytest.raises(TornBatchError):
                read_response(arrays, SLOT, SEQUENCE, 3, errors, "dlg", 3, monitors)
