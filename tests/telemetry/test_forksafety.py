"""Fork-safety: module-level mutable state resets in forked children.

The shard tier forks workers from a router that may already be
warm — registry installed, solver cache primed, request ids minted.
None of that state is meaningful across the fork boundary (and trace
ids would *collide* if inherited), so ``os.register_at_fork`` resets
it: the child starts with the no-op registry/tracer, a fresh trace
identity, and an empty solver cache, while the parent keeps
everything.

The real-fork tests run their assertions in the child and report back
through the exit code (pytest machinery does not cross ``fork``), so
a failure shows up as a nonzero child status.
"""

import os

import numpy as np
import pytest

from repro import telemetry
from repro.api import SolverConfig, solve
from repro.telemetry import trace as trace_module
from repro.telemetry.registry import NULL_REGISTRY
from repro.telemetry.trace import reserve_request_numbers, reset_trace_identity
from repro.validation.scenarios import ScenarioGenerator

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="fork is POSIX-only"
)


def run_in_fork(child_assertions) -> None:
    """Fork; run ``child_assertions()`` in the child; assert it passed."""
    pid = os.fork()
    if pid == 0:
        # Child: never return into pytest. Exit 0 only on clean pass.
        try:
            child_assertions()
        except BaseException:
            import traceback

            traceback.print_exc()
            os._exit(1)
        os._exit(0)
    _pid, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


@pytest.fixture
def warm_parent():
    """A parent with every piece of process state warmed up."""
    registry, tracer = telemetry.install()
    epoch = ScenarioGenerator().generate(3).epoch
    fix = solve(epoch, SolverConfig(algorithm="dlg"))  # primes _LAST_BUILT
    minted = [reserve_request_numbers(1) for _ in range(5)]
    yield {
        "registry": registry,
        "tracer": tracer,
        "epoch": epoch,
        "fix": fix,
        "minted": minted,
        "prefix": trace_module._ID_PREFIX,
    }
    telemetry.uninstall()
    reset_trace_identity()


class TestForkReset:
    def test_child_starts_clean_and_can_still_solve(self, warm_parent):
        import repro.api as api_module

        parent_prefix = warm_parent["prefix"]
        epoch = warm_parent["epoch"]
        parent_fix = warm_parent["fix"]

        def child():
            assert telemetry.get_registry() is NULL_REGISTRY
            assert not telemetry.is_enabled()
            # Fresh trace identity: new prefix, counter back at 1.
            assert trace_module._ID_PREFIX != parent_prefix
            assert reserve_request_numbers(1) == 1
            # The facade's one-slot solver cache was dropped...
            assert api_module._LAST_BUILT == (None, None)
            # ...and solving still works, bitwise equal to the parent.
            fix = solve(epoch, SolverConfig(algorithm="dlg"))
            assert np.array_equal(fix.position, parent_fix.position)

        run_in_fork(child)

    def test_parent_state_survives_the_fork(self, warm_parent):
        import repro.api as api_module

        run_in_fork(lambda: None)
        # Nothing about the parent moved.
        assert telemetry.get_registry() is warm_parent["registry"]
        assert trace_module._ID_PREFIX == warm_parent["prefix"]
        assert api_module._LAST_BUILT[0] is not None
        # The request counter continues where the parent left off.
        assert reserve_request_numbers(1) == warm_parent["minted"][-1] + 1

    def test_reserve_request_numbers_sees_reset(self):
        """The reset reaches importers holding the function's *name*,
        and restarts the numbering at 1."""
        before = reserve_request_numbers(3)
        reset_trace_identity()
        assert reserve_request_numbers(3) == 1
        assert reserve_request_numbers(1) == 4
        assert before >= 1

    def test_sibling_children_mint_distinct_prefixes(self, warm_parent):
        """Two forked siblings must not share a trace identity."""
        read_fd, write_fd = os.pipe()
        prefixes = []
        for _ in range(2):
            pid = os.fork()
            if pid == 0:
                try:
                    os.write(
                        write_fd, trace_module._ID_PREFIX.encode() + b"\n"
                    )
                finally:
                    os._exit(0)
            _pid, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
        os.close(write_fd)
        with os.fdopen(read_fd) as pipe:
            prefixes = [line.strip() for line in pipe.read().splitlines()]
        assert len(prefixes) == 2
        assert prefixes[0] != prefixes[1]
        assert warm_parent["prefix"] not in prefixes


def traced_ids(make_epoch, count: int = 12, batch: int = 4):
    """Request ids of one traced service run, in submission order."""
    import asyncio

    from repro.service import PositioningService, ServiceConfig

    config = ServiceConfig(
        solver=SolverConfig(algorithm="dlg", clock_bias_meters=0.0),
        max_batch_size=batch,
        max_wait_seconds=0.001,
        trace=True,
    )

    async def scenario():
        async with PositioningService(config) as service:
            return await asyncio.gather(
                *(service.submit(make_epoch(seed=seed)) for seed in range(count))
            )

    return [result.trace.request_id for result in asyncio.run(scenario())]


def number(request_id: str) -> int:
    return int(request_id.rsplit("-", 1)[1], 16)


class TestRequestIdsAcrossServices:
    def test_two_services_on_two_threads_never_share_an_id(self, make_epoch):
        import threading

        runs = {}
        barrier = threading.Barrier(2)

        def serve(name):
            barrier.wait()
            runs[name] = traced_ids(make_epoch, count=40)

        threads = [
            threading.Thread(target=serve, args=(name,)) for name in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ids = runs["a"] + runs["b"]
        assert len(set(ids)) == len(ids) == 80
        for run in runs.values():
            numbers = [number(request_id) for request_id in run]
            assert numbers == sorted(numbers)

    def test_forked_child_serves_fresh_ids(self, make_epoch):
        parent_ids = traced_ids(make_epoch)
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                ids = traced_ids(make_epoch)
                os.write(write_fd, "\n".join(ids).encode())
            finally:
                os._exit(0)
        os.close(write_fd)
        _pid, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        with os.fdopen(read_fd) as pipe:
            child_ids = pipe.read().split()
        assert len(child_ids) == 12
        assert not set(child_ids) & set(parent_ids)
        # The child's counter restarts under its own prefix.
        assert [number(request_id) for request_id in child_ids] == list(
            range(1, 13)
        )
        assert child_ids[0].rsplit("-", 1)[0] != parent_ids[0].rsplit("-", 1)[0]
        # The parent's counter runs on where it left off.
        assert number(traced_ids(make_epoch)[0]) == number(parent_ids[-1]) + 1

    def test_concurrent_reservations_never_overlap(self):
        """More reserving threads than cores, switching often: every
        reserved block is disjoint and together they leave no gap."""
        import sys
        import threading

        blocks = [[] for _ in range(6)]

        def reserve(out):
            for size in (1, 3, 7) * 200:
                out.append((reserve_request_numbers(size), size))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=reserve, args=(out,)) for out in blocks
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        numbers = sorted(
            first + offset
            for out in blocks
            for first, size in out
            for offset in range(size)
        )
        assert len(numbers) == 6 * 200 * 11
        assert numbers == list(range(numbers[0], numbers[0] + len(numbers)))
