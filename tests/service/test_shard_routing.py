"""The shard router's two sizing rules, checked without spawning a worker.

Routing: each batch goes to the live worker with a free slot and the
fewest batches in flight, ties to the lowest index; with none such the
router waits (``_route`` answers ``None``).  Slab: one slot holds one
batch, so a worker's slab is sized by ``batch_size`` and the module
constants alone, never by the worker count.
"""

import pytest

from repro.service import ShardConfig, ShardedPositioningService
from repro.service.shard import (
    SLOT_SATELLITES,
    SLOTS_PER_WORKER,
    TEXT_BYTES,
    _Worker,
    slab_layout,
)


def fake_worker(index, load, alive=True):
    """Router-side bookkeeping for a worker holding ``load`` batches."""
    return _Worker(
        index=index,
        slab=None,
        arrays={},
        alive=alive,
        inflight={slot: (slot + 1, 1, 0) for slot in range(load)},
        free_slots=list(range(load, SLOTS_PER_WORKER)),
    )


@pytest.mark.parametrize(
    "loads, alive, chosen",
    [
        ((2, 0, 1), (True, True, True), 1),
        ((1, 1, 1), (True, True, True), 0),
        ((3, 0, 2), (True, False, True), 2),
        ((SLOTS_PER_WORKER, 3, SLOTS_PER_WORKER), (True, True, True), 1),
        ((SLOTS_PER_WORKER, SLOTS_PER_WORKER), (True, True), None),
        ((0, 0), (False, False), None),
    ],
    ids=[
        "fewest-in-flight",
        "tie-to-lowest-index",
        "dead-worker-skipped",
        "full-worker-skipped",
        "every-slot-busy",
        "no-live-worker",
    ],
)
def test_route_picks_the_least_loaded_live_worker(loads, alive, chosen):
    shard = ShardedPositioningService(ShardConfig(workers=len(loads)))
    shard._workers = [
        fake_worker(index, load, up)
        for index, (load, up) in enumerate(zip(loads, alive))
    ]
    worker = shard._route()
    assert (None if worker is None else worker.index) == chosen


@pytest.mark.parametrize("batch_size", [1, 5])
def test_slab_is_sized_by_the_batch(batch_size):
    layout = slab_layout(ShardConfig(batch_size=batch_size))
    arrays = layout.arrays(bytearray(layout.nbytes))
    slots, n, m = SLOTS_PER_WORKER, batch_size, SLOT_SATELLITES
    assert arrays["req_sats"].shape == (slots, n)
    assert arrays["req_positions"].shape == (slots, n, m, 3)
    assert arrays["req_pseudoranges"].shape == (slots, n, m)
    assert arrays["resp_text"].shape == (slots, n * TEXT_BYTES)
    # The worker count does not enter a worker's slab.
    for workers in (0, 1, 4):
        assert (
            slab_layout(ShardConfig(batch_size=batch_size, workers=workers)).nbytes
            == layout.nbytes
        )
    assert slab_layout(ShardConfig(batch_size=batch_size + 1)).nbytes > layout.nbytes
