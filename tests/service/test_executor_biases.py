"""The executor's per-row clock-bias overrides, resolved per flush.

Rows without an override take the config predictor's bias for the
lane in one ``predict_block`` call.  A row that could not be packed
has no time to predict at: it is screened out of the solve, and it
must not take its batchmates down with it.
"""

import numpy as np

from repro.api import SolverConfig, build_scene
from repro.service import ServiceConfig
from repro.service.executor import BatchExecutor
from repro.validation.faults import _unvalidated_epoch, _unvalidated_observation

BIAS = 10.0


def executor():
    return BatchExecutor(
        ServiceConfig(solver=SolverConfig(algorithm="dlg", clock_bias_meters=BIAS))
    )


def unpackable(epoch):
    """``epoch`` with one satellite position that is not a 3-vector."""
    observations = list(epoch.observations)
    observations[0] = _unvalidated_observation(
        observations[0], position=np.array([1.0, 2.0])
    )
    return _unvalidated_epoch(epoch, observations)


def test_missing_overrides_take_the_predictor_bias():
    epochs = [build_scene(8, clock_bias_meters=BIAS, seed=seed) for seed in range(3)]
    block, meta = executor().execute(epochs, [BIAS + 1.0, None, None])
    assert meta.resolved_biases.tolist() == [BIAS + 1.0, BIAS, BIAS]
    assert block.status.tolist() == [0, 0, 0]


def test_unpackable_row_with_partial_overrides_fails_alone():
    good = build_scene(8, clock_bias_meters=BIAS, seed=1)
    block, _meta = executor().execute([good, unpackable(good), good], [BIAS, None, None])
    statuses = [result.status for result in block.results("dlg", 3)]
    assert statuses == ["ok", "invalid", "ok"]
