"""Each integrity flush builds its per-flush quantities once.

A flush's fixed cost is the work done once per flush whatever its
size.  Two of those quantities used to be rebuilt by every consumer:

* the weighted-centered ``[A | b]`` stack of the DLG range equations,
  centered by the solve and then again for the FDE gate's flagged rows;
* the ``prn*4+system`` satellite-key lane, recomputed for validation,
  admission, health recording and the monitor context.

Here both are spied on through one flush with flagged rows: the
centering runs exactly once, and every reader gets the same key lane.
"""

import sys
from dataclasses import replace

import numpy as np
import pytest

import repro.estimation.structured
from repro.api import SolverConfig, build_scene
from repro.blocks import EpochBlock
from repro.integrity.fde import FdeConfig
from repro.integrity.health import HealthConfig
from repro.integrity.monitors import MonitorConfig
from repro.service import ServiceConfig
from repro.service.executor import BatchExecutor
from repro.service.types import VERDICT_REPAIRED
from repro.timebase import GpsTime

ROWS = 12
SPIKED = (2, 7)
SINGLE_BIAS = 2_500.0
LAYOUTS = {
    "single": (SolverConfig(algorithm="dlg", clock_bias_meters=SINGLE_BIAS), 11),
    "per_constellation": (
        SolverConfig(algorithm="dlg", constellations="per_constellation"),
        {"G": 8, "E": 7},
    ),
}


def flush(satellites):
    """One stationary receiver's 1 Hz epochs, two of them spiked."""
    epochs = []
    for row in range(ROWS):
        epoch = build_scene(
            satellites,
            clock_bias_meters=SINGLE_BIAS,
            seed=5,
            noise_sigma=0.3,
            time=GpsTime(week=2200, seconds_of_week=100.0 + row),
        )
        if row in SPIKED:
            observations = list(epoch.observations)
            observations[3] = replace(
                observations[3], pseudorange=observations[3].pseudorange + 150.0
            )
            epoch = epoch.with_observations(observations)
        epochs.append(epoch)
    return epochs


@pytest.fixture
def centerings(monkeypatch):
    """Count calls of ``center_segments`` under every name it is
    imported by."""
    original = repro.estimation.structured.center_segments
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        imported = getattr(module, "center_segments", None)
        if name.startswith("repro") and imported is original:
            monkeypatch.setattr(module, "center_segments", spy)
    return calls


@pytest.fixture
def key_reads(monkeypatch):
    """Every array ``EpochBlock.satellite_keys`` hands out."""
    original = EpochBlock.satellite_keys
    reads = []

    def spy(block):
        keys = original.fget(block)
        reads.append(keys)
        return keys

    monkeypatch.setattr(EpochBlock, "satellite_keys", property(spy))
    return reads


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_flagged_flush_centers_once_and_shares_one_key_lane(
    layout, centerings, key_reads
):
    solver, satellites = LAYOUTS[layout]
    executor = BatchExecutor(
        ServiceConfig(
            solver=solver,
            integrity=FdeConfig(),
            health=HealthConfig(),
            monitors=MonitorConfig(),
        )
    )
    block, meta = executor.execute(flush(satellites))

    assert meta.rung == "batch"
    # The spiked rows were flagged and repaired: the exclusion pass ran.
    assert np.flatnonzero(block.verdict == VERDICT_REPAIRED).tolist() == list(SPIKED)
    assert len(centerings) == 1
    assert key_reads, "nobody read the satellite keys"
    assert len({id(keys) for keys in key_reads}) == 1
