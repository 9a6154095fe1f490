"""Cross-process determinism: the shard's contract is bitwise parity.

The same 50-seed scenario stream must produce *identical* fixes —
statuses, positions (bitwise), clock biases, solver lineage, error
texts, FDE and monitor verdicts — whether it runs through the
in-process asyncio ``PositioningService``, the shard in inline mode
(``workers=0``), one worker, or four workers.  Batch boundaries are
fixed by ``batch_size``, each batch executes whole on one worker, and
the shared-memory transport round-trips float64/int64 exactly, so there
is no tolerance anywhere in this file: every comparison is ``==`` (of
``repr`` for floats) or ``np.array_equal``.
"""

import asyncio
import dataclasses

import numpy as np
import pytest

from repro.api import SolverConfig
from repro.blocks import UNPACKABLE_ERROR
from repro.integrity.fde import FdeConfig
from repro.observations import ObservationEpoch, SatelliteObservation
from repro.service import (
    AsyncPositioningClient,
    PositioningService,
    ServiceConfig,
    ShardConfig,
    ShardedPositioningService,
)
from repro.timebase import GpsTime
from repro.validation.faults import (
    DuplicateSatellite,
    NonFiniteMeasurement,
    _unvalidated_epoch,
    _unvalidated_observation,
)
from repro.validation.scenarios import ScenarioConfig, ScenarioGenerator

SEEDS = range(50)
BATCH = 16
#: Seeds whose epoch gets one pseudorange spiked by a repairable fault
#: (FDE variant): cross-process parity must hold for ``repaired``
#: verdicts too, not just clean passes.  Two spikes stay below the
#: health tracker's quarantine threshold (3 exclusions in-window):
#: quarantine is *stream-stateful* per process, so N-worker parity is
#: only promised while it does not engage — the stateful path itself
#: is pinned separately against the 1-worker shard, whose single
#: tracker sees the same ordered stream as the in-process service.
SPIKED_SEEDS = (7, 41)


def spike(epoch, meters=2000.0):
    observations = list(epoch.observations)
    observations[0] = dataclasses.replace(
        observations[0], pseudorange=observations[0].pseudorange + meters
    )
    return dataclasses.replace(epoch, observations=tuple(observations))


def make_epochs(with_fde: bool):
    """50 seeded epochs and their per-request bias overrides.

    DLG takes the receiver clock bias as an input, so the FDE variant
    hands each request its scenario's true bias (the oracle-predictor
    contract) — residuals then reflect faults, not the unmodeled
    bias — and spikes a few epochs to exercise the repair path.
    """
    generator = ScenarioGenerator(
        ScenarioConfig(min_satellites=5, max_satellites=9, max_flatness=0.5)
    )
    scenarios = [generator.generate(seed) for seed in SEEDS]
    epochs = [scenario.epoch for scenario in scenarios]
    if not with_fde:
        return epochs, None
    epochs = [
        spike(epoch) if seed in SPIKED_SEEDS else epoch
        for seed, epoch in zip(SEEDS, epochs)
    ]
    return epochs, [scenario.clock_bias_meters for scenario in scenarios]


def service_config(with_fde: bool) -> ServiceConfig:
    return ServiceConfig(
        solver=SolverConfig(algorithm="dlg"),
        max_batch_size=BATCH,
        max_wait_seconds=0.01,
        integrity=FdeConfig() if with_fde else None,
    )


def run_in_process(epochs, config, biases=None):
    """The asyncio service, submitted so flushes cut at BATCH epochs.

    ``gather`` submits in order and the batcher flushes on *full*, so
    a 50-request burst with ``max_batch_size=16`` solves as batches of
    16/16/16/2 — the same cuts the shard makes.
    """

    async def main():
        async with PositioningService(config) as service:
            client = AsyncPositioningClient(service)
            return await asyncio.gather(
                *(
                    client.submit(
                        epoch,
                        bias_meters=biases[i] if biases is not None else None,
                    )
                    for i, epoch in enumerate(epochs)
                )
            )

    return asyncio.run(main())


def run_shard(epochs, config, workers, policy="hash", biases=None):
    shard_config = ShardConfig(
        service=config, workers=workers, policy=policy, batch_size=BATCH
    )
    with ShardedPositioningService(shard_config) as shard:
        return shard.solve_many(epochs, bias_meters=biases)


def assert_identical(ours, theirs):
    """Every field a :class:`~repro.service.types.ResultBlock` carries,
    bitwise: status, solver, fix, clock bias, error text, FDE verdict
    and monitor verdict.  Floats compare by ``repr``, which is exact
    for float64 and keeps NaN (an ``unchecked`` statistic) comparable.
    """
    assert len(ours) == len(theirs)
    for index, (a, b) in enumerate(zip(ours, theirs)):
        context = f"epoch {index}"
        assert a.status == b.status, context
        assert a.solver == b.solver, context
        assert a.error == b.error, context
        if a.position is None or b.position is None:
            assert a.position is None and b.position is None, context
        else:
            assert np.array_equal(a.position, b.position), context
        assert repr(a.clock_bias_meters) == repr(b.clock_bias_meters), context
        assert repr(a.integrity) == repr(b.integrity), context
        assert repr(a.monitor) == repr(b.monitor), context


@pytest.mark.parametrize("with_fde", [False, True], ids=["plain", "fde"])
class TestCrossProcessDeterminism:
    def test_one_worker_matches_in_process(self, with_fde):
        epochs, biases = make_epochs(with_fde)
        config = service_config(with_fde)
        baseline = run_in_process(epochs, config, biases)
        assert any(result.status == "ok" for result in baseline)
        if with_fde:
            verdicts = {
                result.integrity.status
                for result in baseline
                if result.integrity is not None
            }
            # The stream exercises both clean and repaired verdicts.
            assert {"passed", "repaired"} <= verdicts
        sharded = run_shard(epochs, config, workers=1, biases=biases)
        assert_identical(sharded, baseline)

    def test_four_workers_match_in_process(self, with_fde):
        epochs, biases = make_epochs(with_fde)
        config = service_config(with_fde)
        baseline = run_in_process(epochs, config, biases)
        sharded = run_shard(epochs, config, workers=4, biases=biases)
        assert_identical(sharded, baseline)

    def test_inline_mode_matches_workers(self, with_fde):
        epochs, biases = make_epochs(with_fde)
        config = service_config(with_fde)
        inline = run_shard(epochs, config, workers=0, biases=biases)
        sharded = run_shard(epochs, config, workers=2, biases=biases)
        assert_identical(sharded, inline)


class TestStatefulQuarantineParity:
    def test_one_worker_matches_in_process_past_quarantine(self):
        """Enough same-PRN spikes to *engage* quarantine.

        A 1-worker shard has exactly one health tracker seeing the
        same ordered stream as the in-process service, so even the
        stateful quarantine/pre-exclusion path must stay bitwise
        identical.  (Across N>1 workers the tracker state is sharded
        and this parity is deliberately not promised.)

        Two epochs after quarantine engages are malformed, one with a
        NaN measurement and one with a duplicated (unquarantined)
        satellite: both must come back ``invalid`` while their
        batchmates are served, in-process and in the worker alike.
        """
        generator = ScenarioGenerator(
            ScenarioConfig(min_satellites=6, max_satellites=9, max_flatness=0.5)
        )
        scenarios = [generator.generate(seed) for seed in SEEDS]
        epochs = [
            spike(s.epoch) if i % 8 == 3 else s.epoch
            for i, s in enumerate(scenarios)
        ]
        epochs[45] = NonFiniteMeasurement().apply(
            epochs[45], np.random.default_rng(45)
        )
        epochs[46] = DuplicateSatellite().apply(
            epochs[46], np.random.default_rng(46)
        )
        biases = [s.clock_bias_meters for s in scenarios]
        config = service_config(with_fde=True)
        baseline = run_in_process(epochs, config, biases)
        assert baseline[45].status == "invalid"
        assert baseline[46].status == "invalid"
        # The stateful path really engaged: early spikes are repaired
        # by FDE, later ones come back "passed" because the offending
        # PRN was pre-excluded at admission (quarantined).
        spiked_verdicts = [
            baseline[i].integrity.status
            for i in range(len(baseline))
            if i % 8 == 3
        ]
        assert "repaired" in spiked_verdicts
        assert "passed" in spiked_verdicts
        sharded = run_shard(epochs, config, workers=1, biases=biases)
        assert_identical(sharded, baseline)


class TestRoutingInvariance:
    def test_policy_does_not_change_answers(self):
        epochs, biases = make_epochs(with_fde=True)
        config = service_config(with_fde=True)
        by_hash = run_shard(
            epochs, config, workers=3, policy="hash", biases=biases
        )
        by_load = run_shard(
            epochs, config, workers=3, policy="least_loaded", biases=biases
        )
        assert_identical(by_hash, by_load)

    def test_client_ids_do_not_change_answers(self):
        epochs, _biases = make_epochs(with_fde=False)
        config = service_config(with_fde=False)
        shard_config = ShardConfig(
            service=config, workers=2, policy="hash", batch_size=BATCH
        )
        with ShardedPositioningService(shard_config) as shard:
            anonymous = shard.solve_many(epochs)
            named = shard.solve_many(
                epochs,
                client_ids=[f"client-{i % 5}" for i in range(len(epochs))],
            )
        assert_identical(named, anonymous)

    def test_bias_overrides_round_trip_through_workers(self):
        epochs, _biases = make_epochs(with_fde=False)
        epochs = epochs[:BATCH]
        config = service_config(with_fde=False)
        overrides = [
            125.0 if index % 3 == 0 else None
            for index in range(len(epochs))
        ]
        inline = run_shard(epochs, config, workers=0)
        shard_config = ShardConfig(
            service=config, workers=2, batch_size=BATCH
        )
        with ShardedPositioningService(shard_config) as shard:
            plain = shard.solve_many(epochs)
            biased = shard.solve_many(epochs, bias_meters=overrides)
        assert_identical(plain, inline)
        # The override pins the reported bias on the rows that carry it.
        for index, result in enumerate(biased):
            if overrides[index] is not None and result.status == "ok":
                assert result.clock_bias_meters == 125.0


def coplanar_epoch():
    """Satellites in one plane: DLG degenerate (the whole batched solve
    is rejected), NR solvable."""
    truth = np.array([3623420.0, -5214015.0, 602359.0])
    rng = np.random.default_rng(3)
    observations = []
    for prn in range(1, 8):
        xy = truth[:2] + rng.uniform(-1.5e7, 1.5e7, size=2)
        position = np.array([xy[0], xy[1], truth[2] + 2.0e7])
        observations.append(
            SatelliteObservation(
                prn=prn,
                position=position,
                pseudorange=float(np.linalg.norm(position - truth)),
            )
        )
    return ObservationEpoch(
        time=GpsTime(week=1540, seconds_of_week=0.0), observations=tuple(observations)
    )


def unpackable(epoch):
    """``epoch`` with one satellite position that is not a 3-vector."""
    observations = list(epoch.observations)
    observations[0] = _unvalidated_observation(
        observations[0], position=np.array([1.0, 2.0])
    )
    return _unvalidated_epoch(epoch, observations)


class TestTransportParity:
    def test_scalar_ladder_reports_the_same_errors_on_every_transport(self):
        """One flush the batched solve rejects whole (a degenerate row)
        drops to the per-epoch ladder; its malformed rows must name
        their own fault whichever process serves them."""
        epochs, _biases = make_epochs(with_fde=False)
        epochs = epochs[:BATCH]
        rng = np.random.default_rng
        epochs[2] = coplanar_epoch()
        epochs[5] = DuplicateSatellite().apply(epochs[5], rng(5))
        epochs[7] = NonFiniteMeasurement().apply(epochs[7], rng(7))
        epochs[9] = unpackable(epochs[9])
        config = service_config(with_fde=False)
        baseline = run_in_process(epochs, config)
        assert baseline[2].solver == "dlg/nr-fallback"
        assert baseline[0].solver == "dlg/scalar"
        assert baseline[5].error.startswith("epoch contains duplicate PRNs")
        assert "non-finite" in baseline[7].error
        assert baseline[9].error == UNPACKABLE_ERROR
        assert [r.status for r in baseline].count("invalid") == 3
        assert_identical(run_shard(epochs, config, workers=0), baseline)
        assert_identical(run_shard(epochs, config, workers=1), baseline)
