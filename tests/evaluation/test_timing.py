"""Unit tests for the timing harness."""

import time

import pytest

from repro.core import PositionFix
from repro.core.base import PositioningAlgorithm
from repro.errors import ConfigurationError
from repro.evaluation import TimingStats, time_callable, time_solver, time_solver_stats
from repro.evaluation import timing
from repro.evaluation.timing import _percentile


class SleepySolver(PositioningAlgorithm):
    """A solver with a controllable, measurable cost."""

    name = "sleepy"
    min_satellites = 1

    def __init__(self, seconds):
        self.seconds = seconds
        self.calls = 0

    def solve(self, epoch):
        self.calls += 1
        deadline = time.perf_counter() + self.seconds
        while time.perf_counter() < deadline:
            pass
        return PositionFix(position=[0.0, 0.0, 0.0], algorithm=self.name)


class SteppedClock:
    """A stand-in for the ``time`` module whose ``perf_counter_ns``
    moves only when a :class:`ClockedSolver` advances it."""

    def __init__(self):
        self.now_ns = 0

    def perf_counter_ns(self):
        return self.now_ns


class ClockedSolver(PositioningAlgorithm):
    """A solver that costs exactly ``cost_ns`` per solve on a
    :class:`SteppedClock`."""

    name = "clocked"
    min_satellites = 1

    def __init__(self, clock, cost_ns):
        self.clock = clock
        # One cost for every solve, or a list of per-solve costs.
        self.cost_ns = cost_ns

    def solve(self, epoch):
        cost_ns = self.cost_ns
        self.clock.now_ns += cost_ns if isinstance(cost_ns, int) else cost_ns.pop(0)
        return PositionFix(position=[0.0, 0.0, 0.0], algorithm=self.name)


class TestTimeSolver:
    def test_measures_per_solve_time(self, make_epoch, monkeypatch):
        clock = SteppedClock()
        monkeypatch.setattr(timing, "time", clock)
        solver = ClockedSolver(clock, 1_000_000)
        per_solve_ns = time_solver(solver, [make_epoch()] * 5, repeats=2)
        assert per_solve_ns == 1e6

    def test_warmup_rounds_run(self, make_epoch):
        solver = SleepySolver(0.0)
        time_solver(solver, [make_epoch()] * 3, repeats=2, warmup_rounds=2)
        # 2 warmup rounds + 2 timed rounds over 3 epochs.
        assert solver.calls == 12

    def test_faster_solver_measures_faster(self, make_epoch):
        epochs = [make_epoch()] * 5
        fast = time_solver(SleepySolver(0.0002), epochs, repeats=2)
        slow = time_solver(SleepySolver(0.002), epochs, repeats=2)
        assert fast < slow

    def test_rejects_empty_epochs(self):
        with pytest.raises(ConfigurationError):
            time_solver(SleepySolver(0.0), [], repeats=1)

    def test_rejects_zero_repeats(self, make_epoch):
        with pytest.raises(ConfigurationError):
            time_solver(SleepySolver(0.0), [make_epoch()], repeats=0)


class TestTimeSolverStats:
    def test_returns_full_record(self, make_epoch, monkeypatch):
        # A clock the solver advances by exactly 1 ms per solve makes
        # the record exact, free of host jitter.
        clock = SteppedClock()
        monkeypatch.setattr(timing, "time", clock)
        stats = time_solver_stats(
            ClockedSolver(clock, 1_000_000), [make_epoch()] * 4, repeats=3
        )
        assert isinstance(stats, TimingStats)
        assert stats.repeats == 3
        assert stats.items == 4
        assert stats.mean_ns == 1e6
        assert stats.best_ns == stats.p50_ns == stats.p95_ns == 1e6
        # One warm-up pass and three timed passes over four epochs.
        assert clock.now_ns == 16 * 1_000_000

    def test_percentiles_ordered(self, make_epoch):
        stats = time_solver_stats(SleepySolver(0.0005), [make_epoch()] * 3, repeats=5)
        assert stats.best_ns <= stats.p50_ns <= stats.p95_ns

    def test_mean_covers_all_passes(self, make_epoch):
        stats = time_solver_stats(SleepySolver(0.0005), [make_epoch()] * 3, repeats=5)
        assert stats.best_ns <= stats.mean_ns

    def test_items_per_second_inverts_best(self, make_epoch):
        stats = time_solver_stats(SleepySolver(0.001), [make_epoch()] * 2, repeats=2)
        assert stats.items_per_second == pytest.approx(1e9 / stats.best_ns)

    def test_time_solver_returns_best_pass_mean(self, make_epoch, monkeypatch):
        clock = SteppedClock()
        monkeypatch.setattr(timing, "time", clock)
        # A warm-up pass, then a fast and a slow timed pass.
        costs = [900_000] * 3 + [500_000, 400_000, 600_000] + [700_000] * 3
        epochs = [make_epoch()] * 3
        best = time_solver(ClockedSolver(clock, costs), epochs, repeats=2)
        assert best == 5e5
        assert costs == []


class TestPercentile:
    """Nearest-rank regression anchors for repeats = 1, 2, and 20."""

    def test_single_value_every_fraction(self):
        for fraction in (0.0, 0.5, 0.95, 1.0):
            assert _percentile([7.0], fraction) == 7.0

    def test_two_values_median_is_upper_neighbor(self):
        # The old int(round(...)) used banker's rounding: round(0.5)
        # is 0, so the p50 of two passes silently reported the MINIMUM.
        assert _percentile([1.0, 2.0], 0.50) == 2.0

    def test_two_values_p95_is_max(self):
        assert _percentile([1.0, 2.0], 0.95) == 2.0

    def test_twenty_values_nearest_rank(self):
        values = [float(i) for i in range(20)]
        # fraction * 19 rounded half-up: 9.5 -> rank 10, 18.05 -> 18.
        assert _percentile(values, 0.50) == 10.0
        assert _percentile(values, 0.95) == 18.0

    def test_extreme_fractions_clamp_to_ends(self):
        values = [float(i) for i in range(20)]
        assert _percentile(values, 0.0) == 0.0
        assert _percentile(values, 1.0) == 19.0

    def test_stats_median_of_two_passes_uses_slower_pass(self):
        # End to end through time_callable: with exactly two timed
        # passes, p50 must not collapse onto best_ns.
        durations = iter([0.0, 0.004, 0.0])  # warm-up, then slow/fast passes

        def bulk():
            deadline = time.perf_counter() + next(durations, 0.0)
            while time.perf_counter() < deadline:
                pass

        stats = time_callable(bulk, items=1, repeats=2, warmup_rounds=1)
        assert stats.p50_ns > stats.best_ns


class TestTimeCallable:
    def test_times_bulk_operation_per_item(self, monkeypatch):
        clock = SteppedClock()
        monkeypatch.setattr(timing, "time", clock)

        def bulk():
            clock.now_ns += 4_000_000

        stats = time_callable(bulk, items=4, repeats=2)
        assert stats.best_ns == 1e6
        assert stats.items == 4

    def test_warmup_runs_before_timing(self):
        calls = {"n": 0}

        def bulk():
            calls["n"] += 1

        time_callable(bulk, items=1, repeats=2, warmup_rounds=3)
        assert calls["n"] == 5

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            time_callable(lambda: None, items=0)
        with pytest.raises(ConfigurationError):
            time_callable(lambda: None, items=1, repeats=0)
