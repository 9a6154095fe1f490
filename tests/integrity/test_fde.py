"""Unit tests for the batch FDE gate and its compact record type."""

from dataclasses import replace

import numpy as np
import pytest

from repro.engine import PositioningEngine
from repro.errors import ConfigurationError
from repro.integrity import (
    NO_EXCLUSION,
    BatchFde,
    FdeConfig,
    FdeRecord,
    STATUS_PASSED,
    STATUS_REPAIRED,
    STATUS_UNCHECKED,
    STATUS_UNUSABLE,
    chi_square_quantile,
)

SIGMA = 0.5


def spike(epoch, index, magnitude=200.0):
    """The epoch with ``magnitude`` meters added to one pseudorange."""
    observations = [
        replace(obs, pseudorange=obs.pseudorange + magnitude) if j == index else obs
        for j, obs in enumerate(epoch.observations)
    ]
    return epoch.with_observations(observations)


@pytest.fixture
def fde():
    return BatchFde(FdeConfig(sigma_meters=SIGMA, p_false_alarm=1e-3))


class TestDetection:
    def test_clean_stream_all_pass(self, make_stream, fde):
        epochs = make_stream(12, count=8, noise_sigma=SIGMA)
        solutions, record = fde.solve_batch(epochs, np.zeros(12))
        assert record.counts() == {
            "passed": 12, "repaired": 0, "unusable": 0, "unchecked": 0
        }
        assert record.usable.all()
        assert (record.excluded_prns == NO_EXCLUSION).all()
        # 0.5 m range noise amplified by dilution of precision: position
        # errors stay meter-scale, nowhere near a detectable fault.
        truth = np.stack([e.truth.receiver_position for e in epochs])
        assert np.linalg.norm(solutions - truth, axis=1).max() < 20.0
        # The stored gate is the m=8 detection threshold for every row.
        expected = chi_square_quantile(1.0 - 1e-3, 4)
        np.testing.assert_allclose(record.thresholds, expected)

    def test_noise_free_statistics_are_tiny(self, make_stream, fde):
        epochs = make_stream(4, count=8, noise_sigma=0.0)
        _, record = fde.solve_batch(epochs, np.zeros(4))
        assert (record.statuses == STATUS_PASSED).all()
        assert record.statistics.max() < 1e-6

    def test_four_satellites_are_unchecked(self, make_stream, fde):
        epochs = make_stream(3, count=4)
        solutions, record = fde.solve_batch(epochs, np.zeros(3))
        assert (record.statuses == STATUS_UNCHECKED).all()
        assert np.isnan(record.statistics).all()
        assert np.isnan(record.thresholds).all()
        assert not record.usable.any()
        # Positions still solve; only the integrity verdict is absent.
        truth = np.stack([e.truth.receiver_position for e in epochs])
        assert np.linalg.norm(solutions - truth, axis=1).max() < 1e-3


class TestExclusion:
    def test_spiked_epoch_repaired_with_correct_prn(self, make_stream, fde):
        epochs = make_stream(8, count=8, noise_sigma=SIGMA)
        victim = 2  # PRN 3
        epochs[3] = spike(epochs[3], victim)
        solutions, record = fde.solve_batch(epochs, np.zeros(8))
        verdict = record.verdict(3)
        assert verdict.status == "repaired"
        assert verdict.usable
        assert verdict.excluded_prn == epochs[3].observations[victim].prn
        assert verdict.test_statistic <= verdict.threshold
        # Repaired rows carry the post-exclusion threshold (one fewer
        # satellite, one fewer degree of freedom).
        assert verdict.threshold == pytest.approx(
            chi_square_quantile(1.0 - 1e-3, 3), rel=1e-12
        )
        # The repaired position is clean again.
        error = np.linalg.norm(
            solutions[3] - epochs[3].truth.receiver_position
        )
        assert error < 5.0
        # The batchmates are untouched.
        others = [i for i in range(8) if i != 3]
        assert (record.statuses[others] == STATUS_PASSED).all()

    def test_five_satellites_flag_but_cannot_exclude(self, make_stream, fde):
        epochs = make_stream(4, count=5, noise_sigma=SIGMA)
        epochs[1] = spike(epochs[1], 0)
        _, record = fde.solve_batch(epochs, np.zeros(4))
        assert record.statuses[1] == STATUS_UNUSABLE
        assert record.excluded_prns[1] == NO_EXCLUSION
        assert not record.verdict(1).usable

    def test_detect_only_mode_skips_exclusion(self, make_stream):
        gate = BatchFde(
            FdeConfig(sigma_meters=SIGMA, p_false_alarm=1e-3, exclude=False)
        )
        epochs = make_stream(4, count=8, noise_sigma=SIGMA)
        epochs[2] = spike(epochs[2], 4)
        _, record = gate.solve_batch(epochs, np.zeros(4))
        assert record.statuses[2] == STATUS_UNUSABLE
        assert record.excluded_prns[2] == NO_EXCLUSION

    def test_unusable_rows_keep_full_set_solution(self, make_stream):
        gate = BatchFde(
            FdeConfig(sigma_meters=SIGMA, p_false_alarm=1e-3, exclude=False)
        )
        plain = BatchFde(FdeConfig(sigma_meters=SIGMA, p_false_alarm=1e-3))
        epochs = make_stream(2, count=8, noise_sigma=SIGMA)
        epochs[0] = spike(epochs[0], 1)
        detect_only, _ = gate.solve_batch(epochs, np.zeros(2))
        with_repair, record = plain.solve_batch(epochs, np.zeros(2))
        # Detect-only keeps the contaminated full-set position; the
        # repairing gate replaces it.
        assert record.statuses[0] == STATUS_REPAIRED
        assert np.linalg.norm(detect_only[0] - with_repair[0]) > 1.0


class TestFdeRecord:
    def test_scatter_reassembles_stream_order(self):
        bucket_a = FdeRecord(
            statuses=np.array([STATUS_PASSED, STATUS_REPAIRED], dtype=np.int8),
            statistics=np.array([1.0, 2.0]),
            thresholds=np.array([9.0, 9.0]),
            excluded_prns=np.array([NO_EXCLUSION, 7], dtype=np.int32),
            excluded_systems=np.array([NO_EXCLUSION, 0], dtype=np.int8),
        )
        bucket_b = FdeRecord(
            statuses=np.array([STATUS_UNUSABLE], dtype=np.int8),
            statistics=np.array([30.0]),
            thresholds=np.array([9.0]),
            excluded_prns=np.array([NO_EXCLUSION], dtype=np.int32),
            excluded_systems=np.array([NO_EXCLUSION], dtype=np.int8),
        )
        merged = FdeRecord.scatter([((0, 3), bucket_a), ((1,), bucket_b)], total=4)
        assert len(merged) == 4
        assert merged.verdict(0).status == "passed"
        assert merged.verdict(1).status == "unusable"
        assert merged.verdict(2).status == "unchecked"  # unclaimed row
        assert merged.verdict(3).status == "repaired"
        assert merged.verdict(3).excluded_prn == 7
        assert merged.excluded_systems.tolist() == [NO_EXCLUSION] * 3 + [0]
        assert np.isnan(merged.statistics[2])

    def test_counts_and_to_dict(self):
        record = FdeRecord(
            statuses=np.array(
                [STATUS_PASSED, STATUS_REPAIRED, STATUS_REPAIRED], dtype=np.int8
            ),
            statistics=np.array([1.0, 2.0, 3.0]),
            thresholds=np.array([9.0, 7.0, 7.0]),
            excluded_prns=np.array([NO_EXCLUSION, 5, 5], dtype=np.int32),
            excluded_systems=np.array([NO_EXCLUSION, 0, 0], dtype=np.int8),
        )
        assert record.counts() == {
            "passed": 1, "repaired": 2, "unusable": 0, "unchecked": 0
        }
        document = record.to_dict()
        assert document["counts"]["repaired"] == 2
        assert document["excluded_prn_counts"] == {"5": 2}

    def test_unchecked_constructor(self):
        record = FdeRecord.unchecked(3)
        assert len(record) == 3
        assert (record.statuses == STATUS_UNCHECKED).all()
        assert not record.usable.any()

    def test_verdicts_materializes_all(self):
        record = FdeRecord.unchecked(2)
        assert [v.status for v in record.verdicts()] == ["unchecked", "unchecked"]


class TestConfig:
    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ConfigurationError):
            FdeConfig(sigma_meters=0.0)

    @pytest.mark.parametrize("pfa", [0.0, 1.0, -0.1])
    def test_rejects_false_alarm_outside_open_interval(self, pfa):
        with pytest.raises(ConfigurationError):
            FdeConfig(p_false_alarm=pfa)

    def test_to_dict_round_trips_fields(self):
        config = FdeConfig(sigma_meters=2.0, p_false_alarm=1e-2, exclude=False)
        assert config.to_dict() == {
            "sigma_meters": 2.0, "p_false_alarm": 1e-2, "exclude": False
        }


class TestEngineIntegration:
    def test_fde_requires_dlg(self):
        with pytest.raises(ConfigurationError):
            PositioningEngine(algorithm="dlo", fde_config=FdeConfig())

    def test_stream_verdicts_cover_drops_and_small_buckets(self, make_stream):
        # Mixed stream: full buckets are screened, the m=4 epoch has no
        # redundancy, and the undersized epoch is dropped — all three
        # must land in one stream-ordered record.
        epochs = make_stream(5, count=[8, 4, 8, 3, 8], noise_sigma=SIGMA)
        epochs[2] = spike(epochs[2], 5)
        engine = PositioningEngine(
            algorithm="dlg",
            fde_config=FdeConfig(sigma_meters=SIGMA, p_false_alarm=1e-3),
        )
        result = engine.solve_stream(
            epochs, biases=np.zeros(5), on_undersized="drop"
        )
        fde = result.diagnostics.fde
        assert fde is not None and len(fde) == 5
        assert fde.verdict(0).status == "passed"
        assert fde.verdict(1).status == "unchecked"  # m=4: no test
        assert fde.verdict(2).status == "repaired"
        assert fde.verdict(3).status == "unchecked"  # dropped epoch
        assert fde.verdict(4).status == "passed"
        assert fde.verdict(2).excluded_prn == epochs[2].observations[5].prn

    def test_plain_engine_reports_no_fde(self, make_stream):
        engine = PositioningEngine(algorithm="dlg")
        assert not engine.fde_enabled
        result = engine.solve_stream(
            make_stream(2, count=8), biases=np.zeros(2)
        )
        assert result.diagnostics.fde is None
