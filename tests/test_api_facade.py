"""repro.api facade contract tests.

One frozen :class:`~repro.api.SolverConfig` must subsume every solver
constructor: these tests pin the validation rules (contradictory knobs
rejected, inapplicable knobs ignored), the solve paths' agreement with
the underlying solvers, and the deprecation story — old deep
``repro.core.<module>`` imports keep working but warn, while the
``repro.core`` package surface stays warning-free.
"""

import warnings

import numpy as np
import pytest

import repro.api as api
from repro.api import ALGORITHMS, BATCH_ALGORITHMS, SolverConfig, solve, solve_batch
from repro.clocks import LinearClockBiasPredictor
from repro.errors import ConfigurationError


class TestSolverConfigValidation:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError, match="algorithm"):
            SolverConfig(algorithm="kalman")

    def test_algorithm_names_normalized(self):
        assert SolverConfig(algorithm="DLG").algorithm == "dlg"

    def test_both_bias_sources_rejected(self):
        with pytest.raises(ConfigurationError, match="not both"):
            SolverConfig(
                clock_bias_meters=10.0,
                clock_predictor=LinearClockBiasPredictor(),
            )

    def test_non_finite_bias_rejected(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(clock_bias_meters=float("nan"))

    def test_bad_initial_state_rejected(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(initial_state=(1.0, 2.0, 3.0))  # needs 4

    def test_nr_validation_happens_at_construction(self):
        # Delegated to NewtonRaphsonSolver: bogus NR tuning fails the
        # config, not the first solve.
        with pytest.raises(ConfigurationError):
            SolverConfig(algorithm="nr", convergence="psychic")

    def test_nr_knobs_legal_on_every_algorithm(self):
        for algorithm in ALGORITHMS:
            config = SolverConfig(algorithm=algorithm, tolerance_meters=1e-6)
            assert config.tolerance_meters == 1e-6

    def test_frozen_and_hashable(self):
        config = SolverConfig()
        with pytest.raises(Exception):
            config.algorithm = "nr"
        assert len({config, SolverConfig()}) == 1  # value semantics

    def test_nr_fallback_strips_bias_sources(self):
        config = SolverConfig(algorithm="dlg", clock_bias_meters=35.0)
        fallback = config.nr_fallback()
        assert fallback.algorithm == "nr"
        assert fallback.clock_bias_meters is None
        assert fallback.clock_predictor is None
        assert fallback.tolerance_meters == config.tolerance_meters

    def test_nr_fallback_of_nr_is_itself(self):
        config = SolverConfig(algorithm="nr")
        assert config.nr_fallback() is config


class TestSolvePaths:
    def test_default_is_dlg(self, make_epoch):
        epoch = make_epoch()
        fix = solve(epoch)
        assert fix.algorithm.lower() == "dlg"
        assert np.linalg.norm(fix.position - epoch.truth.receiver_position) < 1e-5

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_algorithm_recovers_truth(self, make_epoch, algorithm):
        epoch = make_epoch()  # zero bias: every path applies
        fix = solve(epoch, algorithm)
        assert np.linalg.norm(fix.position - epoch.truth.receiver_position) < 1e-4

    def test_fixed_bias_config_recovers_biased_epoch(self, make_epoch):
        epoch = make_epoch(bias_meters=35.0)
        fix = solve(epoch, SolverConfig(algorithm="dlg", clock_bias_meters=35.0))
        assert np.linalg.norm(fix.position - epoch.truth.receiver_position) < 1e-5

    def test_invalid_config_type_rejected(self, make_epoch):
        with pytest.raises(ConfigurationError, match="SolverConfig"):
            solve(make_epoch(), config=42)

    def test_repeated_solves_reuse_cached_solver(self, make_epoch):
        config = SolverConfig(algorithm="dlg")
        solve(make_epoch(), config)
        cached_config, cached_solver = api._LAST_BUILT
        assert cached_config is config
        solve(make_epoch(seed=1), config)
        assert api._LAST_BUILT[1] is cached_solver  # same built instance

    def test_string_configs_are_not_cached(self, make_epoch):
        # Identity-keyed cache: transient configs must not pin solvers.
        solve(make_epoch(), "nr")
        cached_config, _ = api._LAST_BUILT
        assert cached_config is None or isinstance(cached_config, SolverConfig)


class TestBatchPaths:
    @pytest.mark.parametrize("algorithm", BATCH_ALGORITHMS)
    def test_batch_agrees_with_scalar(self, make_stream, algorithm):
        epochs = make_stream(5)
        positions = solve_batch(epochs, algorithm)
        assert positions.shape == (5, 3)
        for epoch, row in zip(epochs, positions):
            assert np.linalg.norm(row - epoch.truth.receiver_position) < 1e-4

    def test_bancroft_has_no_batch_path(self, make_stream):
        with pytest.raises(ConfigurationError, match="[Bb]ancroft"):
            solve_batch(make_stream(3), "bancroft")

    def test_explicit_biases_override_config(self, make_stream):
        epochs = make_stream(4, bias_meters=35.0)
        config = SolverConfig(algorithm="dlg", clock_bias_meters=-999.0)
        positions = solve_batch(epochs, config, biases=[35.0] * 4)
        for epoch, row in zip(epochs, positions):
            assert np.linalg.norm(row - epoch.truth.receiver_position) < 1e-5

    def test_wrong_length_biases_rejected(self, make_stream):
        with pytest.raises(ConfigurationError, match="one per epoch"):
            solve_batch(make_stream(3), "dlg", biases=[0.0, 0.0])

    def test_predictor_resolved_per_epoch(self, make_stream):
        epochs = make_stream(3, bias_meters=12.5, time_step=1.0)
        predictor = LinearClockBiasPredictor(warmup_samples=2)
        for epoch in epochs[:2]:
            predictor.observe(epoch.time, 12.5)
        config = SolverConfig(algorithm="dlg", clock_predictor=predictor)
        biases = config.batch_biases(epochs)
        assert biases == pytest.approx([12.5] * 3)


class TestDeprecationShims:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.core.newton_raphson",
            "repro.core.direct_linear",
            "repro.core.bancroft",
            "repro.core.batch",
            "repro.core.raim",
        ],
    )
    def test_deep_paths_are_gone(self, module_name):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module_name)

    def test_core_package_surface_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.core import (  # noqa: F401
                BancroftSolver,
                BatchDLGSolver,
                DLGSolver,
                DLOSolver,
                NewtonRaphsonSolver,
            )

    def test_root_package_surface_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro import DLGSolver, SolverConfig, solve  # noqa: F401


class TestEngineFromConfig:
    def test_engine_built_from_config_matches_facade(self, make_stream):
        from repro.engine import PositioningEngine

        epochs = make_stream(4, bias_meters=35.0)
        config = SolverConfig(algorithm="dlg", clock_bias_meters=35.0)
        engine = PositioningEngine.from_config(config)
        result = engine.solve_stream(epochs, None)
        scalar = config.build_solver()
        for epoch, row in zip(epochs, result.positions):
            assert np.linalg.norm(row - scalar.solve(epoch).position) < 1e-6
