"""The flush body's answers, pinned to the bit.

Seeded flushes go through :meth:`BatchExecutor.execute_packed`; the
:class:`~repro.service.types.ResultBlock` lanes it returns and the
positions and biases of the :class:`~repro.engine.EngineResult` it
read are hashed and compared with digests recorded before the flush
body and the front end were trimmed.  The flushes cover full-width
and padded blocks; invalid, undersized and unpackable rows; NaN and
mixed clock-bias overrides; FDE on and off; and the per-constellation
mode.  Every row must also answer exactly as the same epoch does in a
flush of its own (floats to rounding: a padded row sums in another
order), and the service's one enqueue stamp must be both
the flush's ``oldest_enqueued_at`` and its oldest result's
``enqueued_at``.
"""

import asyncio
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.api import SolverConfig, build_scene
from repro.blocks import pack_stream
from repro.integrity.fde import FdeConfig
from repro.service import PositioningService, ServiceConfig
from repro.service.executor import BatchExecutor, bias_lane
from repro.service.types import RESULT_LANES
from repro.validation.faults import _unvalidated_epoch, _unvalidated_observation

BIAS = 3_456.25
SPIKE_METERS = 200.0


def gps(count, seed):
    return build_scene(count, clock_bias_meters=BIAS, seed=seed, noise_sigma=1.0)


def multi(layout, seed):
    biases = {system: BIAS + 17.0 * index for index, system in enumerate(layout)}
    return build_scene(layout, clock_bias_meters=biases, seed=seed, noise_sigma=0.5)


def spiked(epoch, slot):
    observations = list(epoch.observations)
    observations[slot] = replace(
        observations[slot],
        pseudorange=observations[slot].pseudorange + SPIKE_METERS,
    )
    return replace(epoch, observations=tuple(observations))


def with_observation(epoch, slot, **fields):
    observations = list(epoch.observations)
    observations[slot] = _unvalidated_observation(observations[slot], **fields)
    return _unvalidated_epoch(epoch, observations)


def duplicated(epoch):
    observations = list(epoch.observations)
    observations[1] = observations[0]
    return _unvalidated_epoch(epoch, observations)


def screened_stream():
    """A padded GPS flush holding one row of every screened kind."""
    epochs = [gps(7 + seed % 5, seed) for seed in range(12)]
    epochs[2] = with_observation(epochs[2], 3, pseudorange=np.nan)
    epochs[4] = duplicated(epochs[4])
    epochs[6] = gps(3, 106)  # undersized
    epochs[8] = with_observation(epochs[8], 0, position=np.array([1.0, 2.0]))
    epochs[10] = with_observation(epochs[10], 5, position=np.array([np.inf, 0, 0]))
    return epochs


def gps_config(**fields):
    return ServiceConfig(
        solver=SolverConfig(algorithm="dlg", clock_bias_meters=BIAS), **fields
    )


def multi_config(**fields):
    return ServiceConfig(
        solver=SolverConfig(algorithm="dlg", constellations="per_constellation"),
        **fields,
    )


MULTI_LAYOUTS = (
    {"G": 6, "E": 5},
    {"G": 8, "E": 4},
    {"G": 5, "R": 4},
    {"E": 6, "G": 5, "C": 3},
    {"G": 9},
)

#: name -> (config, epochs, per-row bias overrides or None)
CASES = {
    "full-width": (gps_config(), lambda: [gps(9, seed) for seed in range(16)], None),
    "padded": (
        gps_config(),
        lambda: [gps(7 + seed % 5, seed) for seed in range(64)],
        None,
    ),
    "screened": (gps_config(), screened_stream, None),
    "nan-overrides": (
        gps_config(),
        lambda: [gps(7 + seed % 5, seed) for seed in range(10)],
        [None] * 10,
    ),
    "mixed-overrides": (
        gps_config(),
        screened_stream,
        [BIAS + 0.5 if row % 3 == 0 else None for row in range(12)],
    ),
    "fde": (
        gps_config(integrity=FdeConfig()),
        lambda: [
            spiked(gps(8 + seed % 4, 200 + seed), seed % 5) if seed % 4 == 1
            else gps(8 + seed % 4, 200 + seed)
            for seed in range(16)
        ],
        None,
    ),
    "fde-screened": (gps_config(integrity=FdeConfig()), screened_stream, None),
    "per-constellation": (
        multi_config(),
        lambda: [
            multi(MULTI_LAYOUTS[seed % len(MULTI_LAYOUTS)], 300 + seed)
            for seed in range(15)
        ],
        None,
    ),
    "per-constellation-fde": (
        multi_config(integrity=FdeConfig()),
        lambda: [
            spiked(multi(MULTI_LAYOUTS[seed % 2], 400 + seed), 2) if seed % 3 == 0
            else multi(MULTI_LAYOUTS[seed % 2], 400 + seed)
            for seed in range(12)
        ],
        None,
    ),
}

#: SHA-256 of each case's lanes, recorded before the trims.
DIGESTS = {
    "full-width": "18719be32e88c72d1fa50138772029bbcae0fb498ad330121ea693240806d634",
    "padded": "6964234bc8420c106870ab513e106b5992e5b6ecdf6aa454311f054f4db47367",
    "screened": "f58337aad1e9ea274263373e06ec48545f5032f2a3973599a232bc60d615e550",
    "nan-overrides": "5b8c63f7f86c163f412c0c129f7a873deb298f6ec9044f1a4917cee00d6cde85",
    "mixed-overrides": "920f647ed6c5f838253f9955db1b3defd18209a54035ffb2892d890b69c13e3a",
    "fde": "38399b953a242d595df9cfc1341efb68f8af0452537af772a3fb3c2218ed5315",
    "fde-screened": "174539fe98394fbb0645617c9a02f127d199183d00d7d98a9816ff7b37623dd2",
    "per-constellation": "ea4f31cd3c2d3e2adb6ca79363555fade1893992beeeb085a0b7c0ac8708f1fa",
    "per-constellation-fde": "12c7efbf2ec62bc15b59519f8d74e6503b760e38201b0b45254e26d7dd88c2b7",
}


def digest(arrays, texts=()):
    """SHA-256 over each array's dtype, shape and bytes, then ``texts``."""
    sha = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        sha.update(f"{array.dtype.str}{array.shape}".encode())
        sha.update(array.tobytes())
    for text in texts:
        sha.update(text.encode() + b"\0")
    return sha.hexdigest()


def answer(config, epochs, overrides):
    """``execute_packed``'s block and meta, and the engine result it read."""
    executor = BatchExecutor(config)
    seen = []
    solve_stream = executor.engine.solve_stream

    def spy(*args, **kwargs):
        seen.append(solve_stream(*args, **kwargs))
        return seen[-1]

    executor.engine.solve_stream = spy
    block, meta = executor.execute_packed(pack_stream(epochs), bias_lane(overrides))
    return block, meta, seen


def case_digest(name):
    config, epochs, overrides = CASES[name]
    block, meta, seen = answer(config, epochs(), overrides)
    lanes = [getattr(block, lane) for lane in RESULT_LANES]
    lanes.append(np.array([meta.rung == "batch"]))
    for engine_result in seen:
        lanes += [engine_result.positions, engine_result.clock_biases]
    if meta.counts is not None:
        lanes.append(meta.counts)
    if meta.resolved_biases is not None:
        lanes.append(meta.resolved_biases)
    return digest(lanes, block.error_texts)


@pytest.mark.parametrize("name", sorted(CASES))
def test_lanes_match_the_recorded_digest(name):
    assert case_digest(name) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_row_answers_as_a_flush_of_its_own(name):
    config, epochs, overrides = CASES[name]
    epochs = epochs()
    block, _meta, _seen = answer(config, epochs, overrides)
    for row, epoch in enumerate(epochs):
        alone, _meta, _seen = answer(
            config, [epoch], None if overrides is None else overrides[row : row + 1]
        )
        for lane, (dtype, _absent, _shape) in RESULT_LANES.items():
            mine, own = getattr(block, lane)[row], getattr(alone, lane)[0]
            if dtype == "<f8":
                # A padded row sums its zero-weight slots in another
                # order than its own narrower block: equal to rounding.
                np.testing.assert_allclose(
                    mine, own, rtol=1e-9, atol=1e-6, err_msg=f"{lane}, row {row}"
                )
            elif lane != "errors":  # codes into each flush's own texts
                assert mine.tolist() == own.tolist(), f"{lane}, row {row}"
        code, alone_code = block.errors[row], alone.errors[0]
        assert (code < 0) == (alone_code < 0)
        if code >= 0:
            assert block.error_texts[code] == alone.error_texts[alone_code]


def test_one_enqueue_stamp_per_request():
    """The stamp a flush's deadline runs from is its oldest request's
    ``enqueued_at``: one clock read per request, not one each for the
    queue and the result."""
    epochs = [gps(7 + seed % 5, seed) for seed in range(40)]
    flushes = []

    async def run():
        service = PositioningService(gps_config(max_batch_size=16))
        dispatch = service._dispatch

        def recording(flush):
            flushes.append(flush)
            return dispatch(flush)

        service._dispatch = recording
        async with service:
            return await asyncio.gather(*(service.submit(epoch) for epoch in epochs))

    results = asyncio.run(run())
    assert [len(flush) for flush in flushes] == [16, 16, 8]
    for index, flush in enumerate(flushes):
        mine = results[16 * index : 16 * index + len(flush)]
        assert all(result.ok for result in mine)
        assert flush.oldest_enqueued_at == min(result.enqueued_at for result in mine)
