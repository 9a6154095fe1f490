"""Differential proof: the batch FDE gate equals its scalar reference.

Two independent implementations of the same integrity rule —
:class:`RaimMonitor` (per-epoch, re-solving every leave-one-out
subset) and :class:`BatchFde` (every candidate priced in closed form
from the parent solve) — are driven over the same seeded scenario
population, clean and spiked, and must agree on every verdict, every
excluded PRN, and the test statistics themselves.

A second layer checks the linear algebra the scalar reference runs:
each leave-one-out subset solved through the O(m) diag+rank-one
Sherman-Morrison whitening must match a dense Cholesky GLS re-solve of
the same subset at 1e-9 relative, and the position the batch gate
serves for a repaired epoch must be that subset's dense solution.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.clocks import ConstantClockBiasPredictor
from repro.estimation import gls_solve_diag_rank1, gls_solve_whitened
from repro.integrity import BatchFde, FdeConfig, RaimMonitor
from repro.solvers.direct_linear import (
    DLGSolver,
    build_difference_system,
    difference_covariance,
    difference_covariance_components,
)
from repro.validation.scenarios import ScenarioConfig, ScenarioGenerator

SIGMA = 3.0
PFA = 1e-2
SPIKE = 100.0


def scenario_population():
    """Seeded epochs (clean + spiked twin) with their oracle biases."""
    generator = ScenarioGenerator(
        ScenarioConfig(
            min_satellites=6,
            max_satellites=10,
            noise_sigma=SIGMA,
            max_flatness=0.5,
        )
    )
    population = []
    for seed in range(25):
        scenario = generator.generate(seed)
        epoch = scenario.epoch
        victim = seed % epoch.satellite_count
        spiked = epoch.with_observations(
            [
                replace(obs, pseudorange=obs.pseudorange + SPIKE)
                if index == victim
                else obs
                for index, obs in enumerate(epoch.observations)
            ]
        )
        population.append((seed, epoch, scenario.clock_bias_meters))
        population.append((seed, spiked, scenario.clock_bias_meters))
    return population


class TestBatchMatchesScalar:
    def test_identical_verdicts_prns_and_statistics(self):
        gate = BatchFde(FdeConfig(sigma_meters=SIGMA, p_false_alarm=PFA))
        statuses_seen = set()
        for seed, epoch, bias in scenario_population():
            monitor = RaimMonitor(
                solver=DLGSolver(
                    clock_predictor=ConstantClockBiasPredictor(bias)
                ),
                sigma_meters=SIGMA,
                p_false_alarm=PFA,
            )
            scalar = monitor.check(epoch)
            solutions, record = gate.solve_batch([epoch], [bias])
            verdict = record.verdict(0)

            if scalar.passed and scalar.excluded_prn is None:
                expected = "passed"
            elif scalar.passed:
                expected = "repaired"
            else:
                expected = "unusable"
            context = f"seed {seed}, m={epoch.satellite_count}"
            assert verdict.status == expected, context
            assert verdict.excluded_prn == scalar.excluded_prn, context
            statuses_seen.add(expected)

            # Same subset, same whitening — the statistics and gates
            # must agree to float round-off, not just the verdict.
            assert verdict.test_statistic == pytest.approx(
                scalar.test_statistic, rel=1e-9
            ), context
            assert verdict.threshold == pytest.approx(
                scalar.threshold, rel=1e-12
            ), context
            np.testing.assert_allclose(
                solutions[0], scalar.fix.position, rtol=0, atol=1e-4,
                err_msg=context,
            )
        # The population must actually exercise the interesting paths:
        # clean passes and repaired exclusions (100 m against 3 m noise
        # flags every spiked epoch).
        assert "passed" in statuses_seen
        assert "repaired" in statuses_seen


class TestShermanMorrisonAgainstDense:
    def test_loo_subsets_match_dense_gls_at_1e9(self, make_epoch):
        # Every leave-one-out subset of a spiked epoch, solved both
        # ways: the structured O(m) path the batch gate stacks, and a
        # dense Cholesky GLS on the materialized eq. 4-26 covariance.
        epoch = make_epoch(count=8, noise_sigma=1.0, seed=11)
        epoch = epoch.with_observations(
            [
                replace(obs, pseudorange=obs.pseudorange + SPIKE)
                if index == 3
                else obs
                for index, obs in enumerate(epoch.observations)
            ]
        )
        positions = epoch.satellite_positions()
        pseudoranges = epoch.pseudoranges()
        for drop in range(epoch.satellite_count):
            keep = [j for j in range(epoch.satellite_count) if j != drop]
            sub_positions = positions[keep]
            sub_ranges = pseudoranges[keep]
            design, rhs = build_difference_system(sub_positions, sub_ranges)
            diag, scale = difference_covariance_components(sub_ranges)
            sm_solution, sm_norm = gls_solve_diag_rank1(design, rhs, diag, scale)
            dense_solution, dense_norm = gls_solve_whitened(
                design, rhs, difference_covariance(sub_ranges)
            )
            np.testing.assert_allclose(
                sm_solution, dense_solution, rtol=1e-9,
                err_msg=f"drop index {drop}",
            )
            assert sm_norm == pytest.approx(dense_norm, rel=1e-9)

    def test_repaired_position_is_the_dense_subset_solution(self, make_epoch):
        # End to end: the position the batch gate serves for a repaired
        # epoch is exactly the dense GLS solution of the subset it
        # excluded.
        epoch = make_epoch(count=8, noise_sigma=1.0, seed=4)
        victim = 5
        epoch = epoch.with_observations(
            [
                replace(obs, pseudorange=obs.pseudorange + SPIKE)
                if index == victim
                else obs
                for index, obs in enumerate(epoch.observations)
            ]
        )
        gate = BatchFde(FdeConfig(sigma_meters=1.0, p_false_alarm=1e-3))
        solutions, record = gate.solve_batch([epoch], [0.0])
        verdict = record.verdict(0)
        assert verdict.status == "repaired"
        keep = [
            index
            for index, obs in enumerate(epoch.observations)
            if obs.prn != verdict.excluded_prn
        ]
        design, rhs = build_difference_system(
            epoch.satellite_positions()[keep], epoch.pseudoranges()[keep]
        )
        dense_solution, _ = gls_solve_whitened(
            design, rhs, difference_covariance(epoch.pseudoranges()[keep])
        )
        np.testing.assert_allclose(solutions[0], dense_solution, rtol=1e-9)
