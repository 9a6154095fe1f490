"""Shared-memory transport: layout, slab lifecycle, seqlock guards."""

import os

import numpy as np
import pytest

from repro.errors import ConfigurationError, ServiceError
from repro.service.shard import (
    ShardConfig,
    read_request,
    read_response,
    slab_layout,
    write_request,
    write_response,
)
from repro.service.shm import (
    SLAB_PREFIX,
    SharedSlab,
    SlabLayout,
    TornBatchError,
    check_sealed,
    list_slabs,
    shm_dir,
    stamp_begin,
    stamp_end,
)
from repro.blocks import pack_stream
from repro.validation.scenarios import ScenarioGenerator


# -- SlabLayout --------------------------------------------------------


class TestSlabLayout:
    def test_fields_are_aligned_and_disjoint(self):
        layout = (
            SlabLayout()
            .add("a", (3,), "<i1")
            .add("b", (2, 4), "<f8")
            .add("c", (5,), "<i8")
        )
        buffer = bytearray(layout.nbytes)
        arrays = layout.arrays(buffer)
        assert arrays["a"].shape == (3,)
        assert arrays["b"].shape == (2, 4)
        # Writing one field never bleeds into another.
        arrays["b"][:] = 7.5
        arrays["c"][:] = -1
        assert (arrays["a"] == 0).all()
        assert (arrays["b"] == 7.5).all()
        assert (arrays["c"] == -1).all()
        # 64-byte alignment: every offset is a multiple of 64.
        for _name, _shape, _dtype, offset in layout._fields:
            assert offset % 64 == 0

    def test_spec_round_trip(self):
        layout = SlabLayout().add("x", (4, 2), "<f8").add("y", (1,), "<i8")
        rebuilt = SlabLayout.from_spec(layout.spec())
        assert rebuilt.spec() == layout.spec()
        assert rebuilt.nbytes == layout.nbytes

    def test_duplicate_field_rejected(self):
        layout = SlabLayout().add("x", (1,), "<i8")
        with pytest.raises(ConfigurationError):
            layout.add("x", (2,), "<f8")


# -- SharedSlab lifecycle ----------------------------------------------


class TestSharedSlab:
    def test_create_attach_share_bytes_and_unlink(self):
        before = set(list_slabs())
        slab = SharedSlab.create(4096)
        assert slab.path.startswith(os.path.join(shm_dir(), SLAB_PREFIX))
        assert slab.path in list_slabs()
        view = np.frombuffer(slab.buffer, dtype=np.int64, count=8)
        attached = SharedSlab.attach(slab.path, 4096)
        other = np.frombuffer(attached.buffer, dtype=np.int64, count=8)
        view[3] = 42
        assert other[3] == 42
        del other
        attached.close()
        del view
        slab.close()
        slab.unlink()
        assert set(list_slabs()) == before

    def test_attacher_cannot_unlink(self):
        slab = SharedSlab.create(1024)
        try:
            attached = SharedSlab.attach(slab.path, 1024)
            with pytest.raises(ServiceError):
                attached.unlink()
            attached.close()
        finally:
            slab.close()
            slab.unlink()

    def test_context_manager_unlinks_owner(self):
        before = set(list_slabs())
        with SharedSlab.create(1024) as slab:
            assert slab.path in list_slabs()
        assert set(list_slabs()) == before

    def test_closed_slab_refuses_buffer(self):
        slab = SharedSlab.create(1024)
        slab.close()
        with pytest.raises(ServiceError):
            slab.buffer
        slab.unlink()


# -- seqlock -----------------------------------------------------------


class TestSeqlock:
    def test_sealed_write_passes(self):
        begin = np.zeros(4, dtype=np.int64)
        end = np.zeros(4, dtype=np.int64)
        stamp_begin(begin, 2, 7)
        stamp_end(end, 2, 7)
        check_sealed(begin, end, 2, 7)

    def test_open_window_is_torn(self):
        begin = np.zeros(4, dtype=np.int64)
        end = np.zeros(4, dtype=np.int64)
        stamp_begin(begin, 1, 9)  # writer died before stamp_end
        with pytest.raises(TornBatchError):
            check_sealed(begin, end, 1, 9)

    def test_stale_complete_fill_is_torn(self):
        # A fully sealed *older* batch must not satisfy a newer notify.
        begin = np.zeros(4, dtype=np.int64)
        end = np.zeros(4, dtype=np.int64)
        stamp_begin(begin, 0, 5)
        stamp_end(end, 0, 5)
        with pytest.raises(TornBatchError):
            check_sealed(begin, end, 0, 6)


# -- request/response lanes --------------------------------------------


def _arrays(config=None):
    config = config if config is not None else ShardConfig()
    layout = slab_layout(config)
    return layout.arrays(bytearray(layout.nbytes)), config


class TestRequestLane:
    def test_packed_stream_round_trips_bitwise(self):
        generator = ScenarioGenerator()
        epochs = [generator.generate(seed).epoch for seed in range(40)]
        packed = pack_stream(epochs)
        arrays, _config = _arrays()
        write_request(arrays, 1, 11, packed, None)
        rebuilt, biases = read_request(arrays, 1, 11)
        assert biases is None
        assert len(rebuilt) == len(packed)
        assert rebuilt.unpackable == packed.unpackable
        # A zero-copy view of the slab: the router's padded block,
        # padding included, bit for bit.
        for attr in ("counts", "positions", "pseudoranges", "prns", "systems",
                     "weeks", "seconds_of_week"):
            np.testing.assert_array_equal(
                getattr(rebuilt.block, attr), getattr(packed.block, attr), attr
            )
        assert np.shares_memory(rebuilt.block.positions, arrays["req_positions"])

    def test_bias_overrides_round_trip(self):
        generator = ScenarioGenerator()
        epochs = [generator.generate(seed).epoch for seed in range(5)]
        packed = pack_stream(epochs)
        arrays, _config = _arrays()
        overrides = np.array([1.5, np.nan, -2.25, np.nan, 0.0])
        write_request(arrays, 0, 3, packed, overrides)
        _rebuilt, biases = read_request(arrays, 0, 3)
        assert biases is not None
        assert np.array_equal(
            np.isfinite(biases), np.isfinite(overrides)
        )
        finite = np.isfinite(overrides)
        assert np.array_equal(biases[finite], overrides[finite])

    def test_torn_request_refused(self):
        generator = ScenarioGenerator()
        packed = pack_stream([generator.generate(0).epoch])
        arrays, _config = _arrays()
        # Simulate a writer that opened the window, wrote a partial
        # payload, and died before sealing.
        stamp_begin(arrays["req_begin"], 2, 9)
        arrays["req_count"][2] = 1
        with pytest.raises(TornBatchError):
            read_request(arrays, 2, 9)


def sample_block(names):
    """Five rows over every lane: served, screened, failed, repaired
    with a suspect monitor verdict, and unchecked on the scalar rung."""
    from dataclasses import replace

    from repro.integrity.monitors import MonitorRecord
    from repro.service.types import ResultBlock

    block = ResultBlock.empty(5)
    block.status[:] = [0, 1, 2, 0, 0]
    block.solver[:] = [0, -1, -1, 2, 1]
    block.positions[[0, 3, 4]] = [[1.0, -2.0, 3.5], [7.0, 8.0, 9.0], [0.5, 0.25, 0.125]]
    block.biases[[0, 3, 4]] = [12.25, -3.5, 0.0]
    block.verdict[:] = [0, -1, -1, 1, 3]
    block.statistics[[0, 3]] = [1.25, 30.0]
    block.thresholds[[0, 3]] = [9.5, 9.5]
    block.excluded_prns[3] = 17
    k, width = len(names), 3
    levels = np.zeros((k, 5), dtype=np.int8)
    levels[1, 3] = 1
    flagged = np.zeros((k, 5, width), dtype=bool)
    flagged[1, 3, 0] = True
    keys = np.full((5, width), -1, dtype=np.int64)
    keys[3] = [7 * 4, 9 * 4, 2 * 4 + 2]
    record = MonitorRecord(
        names=names,
        severities=levels.max(axis=0),
        monitor_severities=levels,
        statistics=np.full((k, 5), 0.5),
        thresholds=np.full((k, 5), 8.0),
        flagged=flagged,
        keys=keys,
    )
    errors = {1: "epoch failed batch screening", 2: "no convergence \u2014 twice"}
    return replace(block.with_errors(errors), monitors=record)


class TestResponseLane:
    def test_result_block_round_trips(self):
        from repro.integrity.fde import EpochVerdict
        from repro.integrity.monitors import (
            EpochMonitorVerdict,
            MonitorConfig,
            MonitorVerdict,
        )
        from repro.service import ServiceConfig
        from repro.service.shard import monitor_names

        config = ShardConfig(service=ServiceConfig(monitors=MonitorConfig()))
        names = monitor_names(config)
        arrays, _config = _arrays(config)
        block = sample_block(names)
        write_response(arrays, 3, 21, block)
        decoded = read_response(arrays, 3, 21, len(block), names)
        for lane in ("status", "solver", "positions", "biases", "verdict",
                     "statistics", "thresholds", "excluded_prns", "errors"):
            np.testing.assert_array_equal(
                getattr(decoded, lane), getattr(block, lane), lane
            )
        assert decoded.error_texts == block.error_texts
        for lane in ("severities", "monitor_severities", "statistics",
                     "thresholds", "flagged", "keys"):
            np.testing.assert_array_equal(
                getattr(decoded.monitors, lane), getattr(block.monitors, lane), lane
            )
        assert decoded.monitors.names == names
        results = decoded.results("dlg", 5)
        assert [repr(r) for r in results] == [repr(r) for r in block.results("dlg", 5)]
        assert [r.status for r in results] == [
            "ok", "invalid", "failed", "ok", "ok"
        ]
        assert results[3].monitor == EpochMonitorVerdict(
            severity="suspect",
            monitors=(MonitorVerdict(names[1], "suspect", 0.5, 8.0, ("G07",)),),
        )
        assert results[0].monitor is None
        assert np.array_equal(results[0].position, [1.0, -2.0, 3.5])
        assert results[1].position is None
        assert results[0].clock_bias_meters == 12.25
        assert results[1].clock_bias_meters is None
        assert results[0].solver == "dlg"
        assert results[1].solver is None
        assert results[0].integrity == EpochVerdict("passed", 1.25, 9.5)
        assert results[1].integrity is None
        assert results[1].error == "epoch failed batch screening"
        assert results[2].error == "no convergence \u2014 twice"
        assert results[0].error is None
        assert results[3].solver == "dlg/nr-fallback"
        assert results[3].integrity.excluded_prn == 17
        assert results[4].solver == "dlg/scalar"
        assert results[4].integrity.status == "unchecked"
        assert np.isnan(results[4].integrity.test_statistic)
        assert all(r.batch_size == 5 for r in results)

    def test_block_without_monitors_round_trips(self):
        from dataclasses import replace

        arrays, _config = _arrays()
        block = replace(sample_block(("a", "b")), monitors=None)
        write_response(arrays, 0, 2, block)
        decoded = read_response(arrays, 0, 2, len(block))
        assert decoded.monitors is None
        assert [repr(r) for r in decoded.results("dlg", 5)] == [
            repr(r) for r in block.results("dlg", 5)
        ]

    def test_long_error_text_is_cut_at_a_character_boundary(self):
        from repro.service.shard import TEXT_BYTES
        from repro.service.types import STATUS_FAILED, ResultBlock

        arrays, _config = _arrays()
        text = "\u00e9" * TEXT_BYTES  # two UTF-8 bytes each
        block = ResultBlock.empty(3, STATUS_FAILED).with_errors({0: text, 2: text})
        write_response(arrays, 1, 4, block)
        decoded = read_response(arrays, 1, 4, 3)
        assert decoded.error_texts == (text[: (TEXT_BYTES - 1) // 2],)
        assert decoded.errors.tolist() == [0, -1, 0]

    def test_torn_response_refused(self):
        arrays, _config = _arrays()
        # Writer crashed mid-fill: window open, partial rows, no seal.
        stamp_begin(arrays["resp_begin"], 0, 4)
        arrays["resp_positions"][0, 0] = 1.0
        with pytest.raises(TornBatchError):
            read_response(arrays, 0, 4, 3)


class TestMultiRequestLane:
    """System tags across the shm boundary.

    A mixed stream — pure GPS, G+R, and R+G (same count and totals,
    different slot pattern) — must come back from the slab with the
    same buckets in the same order, system lanes intact, so the
    worker's multi-constellation kernels see exactly the in-process
    blocks.
    """

    def mixed_epochs(self):
        from repro.api import build_scene

        biases = {"G": 120.0, "R": -45.0}
        return [
            build_scene({"G": 11}, clock_bias_meters={"G": 120.0}, seed=0),
            build_scene({"G": 6, "R": 5}, clock_bias_meters=biases, seed=1),
            build_scene({"R": 5, "G": 6}, clock_bias_meters=biases, seed=2),
            build_scene({"G": 6, "R": 5}, clock_bias_meters=biases, seed=3),
        ]

    def test_mixed_patterns_round_trip_bitwise(self):
        packed = pack_stream(self.mixed_epochs())
        arrays, _config = _arrays()
        write_request(arrays, 0, 5, packed, None)
        rebuilt, _biases = read_request(arrays, 0, 5)
        assert rebuilt.block.systems.dtype == packed.block.systems.dtype
        for attr in ("systems", "positions", "pseudoranges", "counts"):
            np.testing.assert_array_equal(
                getattr(rebuilt.block, attr), getattr(packed.block, attr), attr
            )

    def test_materialize_restores_system_codes(self):
        epochs = self.mixed_epochs()
        packed = pack_stream(epochs)
        arrays, _config = _arrays()
        write_request(arrays, 1, 7, packed, None)
        rebuilt, _biases = read_request(arrays, 1, 7)
        restored = rebuilt.block.to_epochs()
        assert len(restored) == len(epochs)
        for original, epoch in zip(epochs, restored):
            assert [obs.system for obs in epoch.observations] == [
                obs.system for obs in original.observations
            ]
            assert [obs.prn for obs in epoch.observations] == [
                obs.prn for obs in original.observations
            ]
