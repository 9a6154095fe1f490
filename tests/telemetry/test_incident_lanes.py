"""Incident capture from a flush's lanes.

The flight recorder captures a solved row's epoch from the block the
batched kernel solved (:func:`~repro.telemetry.recorder.block_payload`)
instead of walking the epoch's observation objects.  The JSON must be
byte-identical to the per-element form the recorder always wrote —
all-GPS payloads without a ``systems`` key — for GPS-only and mixed
skies, for padded rows and for rows the circuit breaker trimmed (a
screened row included: it is captured as the trimmed row the solve
saw), and a dumped incident must still replay.
"""

import asyncio
import dataclasses
import json

import numpy as np
import pytest

from repro.api import SolverConfig, build_scene
from repro.blocks import pack_stream
from repro.constellation.systems import system_code
from repro.integrity import FdeConfig, HealthConfig
from repro.service import PositioningService, ServiceConfig
from repro.service.executor import BatchExecutor
from repro.telemetry import RecorderConfig, replay_incident
from repro.telemetry.recorder import (
    block_digest,
    block_payload,
    epoch_digest,
    epoch_payload,
    payload_epoch,
)
from repro.validation.faults import DuplicateSatellite, _unvalidated_epoch

GPS_SKY = {"G": 9}
MIXED_SKY = {"G": 8, "E": 7}
BIAS = 120.0


def reference_payload(epoch):
    """The per-element capture the recorder wrote before lanes."""
    positions, pseudoranges, prns, system_ids = epoch.dense()
    payload = {
        "week": int(epoch.time.week),
        "seconds_of_week": float(epoch.time.seconds_of_week),
        "prns": [int(p) for p in prns],
        "pseudoranges": [float(r) for r in pseudoranges],
        "positions": [[float(c) for c in row] for row in positions],
    }
    if any(int(s) for s in system_ids):
        payload["systems"] = [system_code(int(s)) for s in system_ids]
    return payload


def dumps(payload):
    return json.dumps(payload, indent=2, sort_keys=True)


def spiked(epoch, index=0, meters=400.0):
    observations = list(epoch.observations)
    observations[index] = dataclasses.replace(
        observations[index], pseudorange=observations[index].pseudorange + meters
    )
    return epoch.with_observations(observations)


def sky_stream(sky, count, drop_every=0):
    epochs = []
    for seed in range(count):
        epoch = build_scene(sky, clock_bias_meters=BIAS, seed=seed, noise_sigma=0.5)
        if drop_every and seed % drop_every == 0:
            # A narrower row pads the block.
            epoch = epoch.with_observations(epoch.observations[:-2])
        epochs.append(epoch)
    return epochs


@pytest.mark.parametrize("sky", [GPS_SKY, MIXED_SKY], ids=["gps", "mixed"])
def test_block_rows_capture_byte_identical_payloads(sky):
    epochs = sky_stream(sky, 6, drop_every=3)
    block = pack_stream(epochs).block
    assert block.padded
    for row, epoch in enumerate(epochs):
        expected = dumps(reference_payload(epoch))
        assert dumps(epoch_payload(epoch)) == expected
        assert dumps(block_payload(block, row)) == expected
        assert ("systems" in block_payload(block, row)) == (sky is MIXED_SKY)


@pytest.mark.parametrize("sky", [GPS_SKY, MIXED_SKY], ids=["gps", "mixed"])
def test_rows_of_quarantined_flushes_capture_the_admitted_row(sky):
    # The same satellite faulted in every epoch: it is excluded,
    # quarantined and then trimmed from later flushes at admission.
    config = ServiceConfig(
        solver=SolverConfig(algorithm="dlg", clock_bias_meters=120.0),
        integrity=FdeConfig(),
        health=HealthConfig(exclusion_threshold=2, window_epochs=20),
    )
    executor = BatchExecutor(config)
    trimmed = set()
    for flush in range(4):
        epochs = [spiked(epoch) for epoch in sky_stream(sky, 5)]
        # A duplicate satellite: screened out of the solve, yet trimmed
        # like its batchmates, so it is captured as the row the solve
        # saw, not as the epoch that was submitted.
        epochs[1] = DuplicateSatellite().apply(epochs[1], np.random.default_rng(flush))
        _block, meta = executor.execute(epochs)
        assert meta.rung == "batch"
        assert meta.counts[1] == -1
        for row, epoch in enumerate(epochs):
            faulty = (epoch.observations[0].system, epoch.observations[0].prn)
            admitted = epoch
            if meta.block.counts[row] < len(epoch.observations):
                admitted = _unvalidated_epoch(
                    epoch,
                    [obs for obs in epoch.observations if (obs.system, obs.prn) != faulty],
                )
                trimmed.add(row)
            assert dumps(block_payload(meta.block, row)) == dumps(reference_payload(admitted))
            assert block_digest(meta.block, row) == epoch_digest(admitted)
    assert {0, 1} <= trimmed


def test_captured_lanes_replay_bit_exactly():
    epochs = sky_stream(MIXED_SKY, 3)
    block = pack_stream(epochs).block
    for row, epoch in enumerate(epochs):
        clone = payload_epoch(json.loads(dumps(block_payload(block, row))))
        assert clone.time == epoch.time
        for a, b in zip(clone.observations, epoch.observations, strict=True):
            assert (a.prn, a.system, a.pseudorange) == (b.prn, b.system, b.pseudorange)
            assert (a.position == b.position).all()


def test_service_dumps_from_lanes_replay(tmp_path):
    config = ServiceConfig(
        solver=SolverConfig(algorithm="dlg", clock_bias_meters=120.0),
        max_batch_size=8,
        max_wait_seconds=0.05,
        integrity=FdeConfig(),
        recorder=RecorderConfig(dump_dir=tmp_path),
    )
    service = PositioningService(config)
    epochs = [spiked(epoch, index=2) for epoch in sky_stream(MIXED_SKY, 4)]

    async def scenario():
        async with service:
            return await asyncio.gather(*[service.submit(e) for e in epochs])

    results = asyncio.run(scenario())
    assert [r.integrity.status for r in results] == ["repaired"] * len(epochs)
    paths = service.recorder.dump_paths
    assert len(paths) == len(epochs)
    captured = []
    for path in paths:
        with open(path) as handle:
            payload = json.load(handle)
        replayed = replay_incident(payload)
        assert replayed.status == payload["status"]
        assert list(replayed.detail) == payload["detail"]
        captured.append(dumps(payload["record"]["epoch"]))
    assert sorted(captured) == sorted(dumps(reference_payload(e)) for e in epochs)
