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
from repro.telemetry.trace import mint_request_number, reset_trace_identity
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
    minted = [mint_request_number() for _ in range(5)]
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
            assert mint_request_number() == 1
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
        assert mint_request_number() == warm_parent["minted"][-1] + 1

    def test_mint_request_number_sees_reset(self):
        """The counter reset must reach importers holding the *name*.

        ``mint_request_number`` used to be a bound ``count.__next__``,
        which a fork reset could not swap out from under importers —
        it is a real function now, and this pins that.
        """
        before = mint_request_number()
        reset_trace_identity()
        assert mint_request_number() == 1
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
