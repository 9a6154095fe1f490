"""A batch wider than a slab slot is answered by the shard's router.

A slab slot carries ``SLOT_SATELLITES`` satellites per epoch; two
constellations already exceed that (a G10+E8 sky is 18 wide).  The
router answers such a batch on its own executor through the flush body
a worker runs (:func:`repro.service.shard.answer_batch`), so a
stateless shard serves exactly what the in-process service serves, the
wide batch takes no slab slot, and the next call is served normally.
``write_request`` keeps its own guard (``check_fits``) for a direct
caller.
"""

import numpy as np
import pytest

import repro.service.shard as shard_module
from repro.api import SolverConfig, build_scene
from repro.blocks import pack_stream
from repro.errors import ServiceError
from repro.service import ServiceConfig, ShardConfig, ShardedPositioningService
from repro.service.shard import (
    SLOT_SATELLITES,
    SLOTS_PER_WORKER,
    slab_layout,
    write_request,
)
from tests.service.test_shard_determinism import assert_identical, run_in_process

BATCH = 4
BIASES = {"G": 30.0, "E": -12.0}
NARROW = ({"G": 7}, {"G": 5, "E": 4}, {"G": 9}, {"E": 5, "G": 6})
WIDE = {"G": 10, "E": 8}
#: Stream rows that hold a wide (18-satellite) epoch: two in the batch
#: at offset 4, one in the batch at offset 8.
WIDE_ROWS = (5, 6, 11)


def scene(layout, seed):
    return build_scene(
        layout,
        clock_bias_meters={system: BIASES[system] for system in layout},
        seed=seed,
        noise_sigma=0.5,
    )


def make_stream(count=14, wide_rows=WIDE_ROWS):
    return [
        scene(WIDE if row in wide_rows else NARROW[row % len(NARROW)], row)
        for row in range(count)
    ]


def service_config():
    return ServiceConfig(
        solver=SolverConfig(algorithm="dlg", constellations="per_constellation"),
        max_batch_size=BATCH,
        max_wait_seconds=0.01,
    )


@pytest.fixture
def routed(monkeypatch):
    """The width of every request written into a slab, and the offset
    of every batch the router answered itself."""
    seen = {"written": [], "router": []}
    write = shard_module.write_request
    solve_here = ShardedPositioningService._solve_here

    def spy_write(arrays, slot, sequence, packed, biases):
        seen["written"].append(packed.block.width)
        return write(arrays, slot, sequence, packed, biases)

    def spy_solve(self, results, offset, count, packed, biases):
        seen["router"].append(offset)
        return solve_here(self, results, offset, count, packed, biases)

    monkeypatch.setattr(shard_module, "write_request", spy_write)
    monkeypatch.setattr(ShardedPositioningService, "_solve_here", spy_solve)
    return seen


@pytest.mark.parametrize("workers", [1, 2])
def test_wide_batches_match_in_process(workers, routed):
    epochs = make_stream()
    assert max(len(epochs[row].observations) for row in WIDE_ROWS) > SLOT_SATELLITES
    follow_up = make_stream(count=6, wide_rows=())
    config = service_config()
    baseline = run_in_process(epochs, config)
    assert [r.status for r in baseline] == ["ok"] * len(epochs)
    shard_config = ShardConfig(service=config, workers=workers, batch_size=BATCH)
    with ShardedPositioningService(shard_config) as shard:
        sharded = shard.solve_many(epochs)
        # The wide batches took no slot: every slot is free again.
        for worker in shard._workers:
            assert not worker.inflight
            assert sorted(worker.free_slots) == list(range(SLOTS_PER_WORKER))
        again = shard.solve_many(follow_up)
        assert shard.live_workers == workers
    assert_identical(sharded, baseline)
    assert_identical(again, run_in_process(follow_up, config))
    assert {4, 8} <= set(routed["router"])
    assert routed["written"]
    assert max(routed["written"]) <= SLOT_SATELLITES


class TestWriteRequestGuard:
    def arrays(self):
        layout = slab_layout(ShardConfig(batch_size=BATCH))
        return layout.arrays(bytearray(layout.nbytes))

    def test_too_wide_a_batch_is_refused(self):
        arrays = self.arrays()
        with pytest.raises(ServiceError, match="does not fit a slab slot"):
            write_request(arrays, 0, 1, pack_stream([scene(WIDE, 0)]), None)
        # Refused before the slot's seqlock window opened.
        assert arrays["req_begin"][0] == 0

    def test_too_long_a_batch_is_refused(self):
        arrays = self.arrays()
        packed = pack_stream(make_stream(count=BATCH + 1, wide_rows=()))
        with pytest.raises(ServiceError, match=f"a {BATCH + 1}-epoch batch"):
            write_request(arrays, 0, 1, packed, np.zeros(BATCH + 1))
        assert arrays["req_begin"][0] == 0
