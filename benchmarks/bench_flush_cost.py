"""Per-flush fixed cost versus per-row cost of the batch executor.

A flush of ``n`` rows costs about ``fixed + n * per_row``.  The fixed
part (one kernel call, one FDE screen, one monitor pass, one answer
block, whatever their size) is what a flush-level optimisation moves;
the per-row part is what the row count multiplies.  This benchmark runs
:meth:`~repro.service.executor.BatchExecutor.execute_packed` on
pre-packed flushes of 16, 64 and 256 rows, with the sizes interleaved
inside every repeat so slow host drift lands on all of them, and fits
both numbers per stage by least squares over the per-size medians.

Two flush shapes, built from the layerbench workload inputs
(``layerbench/inputs.py``) so the flushes are the ones those workloads
serve:

* ``serve-integrity`` -- the G+E stationary stream with C/N0, spikes
  and dropouts, answered per constellation with FDE, the health
  tracker and the monitor suite armed;
* ``serve-gps`` -- independent GPS-only epochs of 7-11 satellites,
  plain batched DLG with a fixed clock bias.

Stages (µs per flush): ``solve`` and ``fde`` from the engine's
``stage_seconds``; ``monitors`` is the wall time of the monitor
suite's ``observe_stream``; ``engine_other`` the rest of
``solve_stream`` (validation, scatter); ``assembly`` the rest of
``execute_packed`` (admission, the answer block, health recording);
``total`` the whole call.  The record is report-only: no gate reads it.

Run::

    PYTHONPATH=src python benchmarks/bench_flush_cost.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Dict, List

import numpy as np

from repro.api import SolverConfig
from repro.blocks import pack_stream
from repro.integrity.fde import FdeConfig
from repro.integrity.health import HealthConfig
from repro.integrity.monitors import MonitorConfig
from repro.service.executor import BatchExecutor
from repro.service.types import ServiceConfig

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "layerbench")
)
import inputs  # noqa: E402  (layerbench's workload inputs)

#: Flush sizes, in rows.
SIZES = (16, 64, 256)

#: Rows each size runs per repeat (whole flushes of every size).
ROWS_PER_SEGMENT = 1024

STAGES = ("solve", "fde", "engine_other", "monitors", "assembly", "total")

WORKLOADS = ("serve-integrity", "serve-gps")


def service_config(workload: str) -> ServiceConfig:
    """The executor configuration of the layerbench workload."""
    if workload == "serve-integrity":
        return ServiceConfig(
            solver=inputs.integrity_config(),
            max_batch_size=max(SIZES),
            integrity=FdeConfig(),
            health=HealthConfig(),
            monitors=MonitorConfig(),
        )
    return ServiceConfig(
        solver=SolverConfig(algorithm="dlg", clock_bias_meters=inputs.GPS_BIAS_METERS),
        max_batch_size=max(SIZES),
    )


class _Lane:
    """One flush size: its own executor over its own continuous stream,
    with the engine and monitor seams timed."""

    def __init__(self, workload: str, stream, size: int, flushes: int) -> None:
        self.size = size
        self.executor = BatchExecutor(service_config(workload))
        # Request k of the stream is stamped k seconds in, and no flush
        # is replayed, so every lane's monitors see time move forward.
        self.flushes = iter(
            [
                pack_stream([stream.epoch(k) for k in range(start, start + size)])
                for start in range(0, flushes * size, size)
            ]
        )
        self.seconds: Dict[str, float] = {}
        engine = self.executor.engine
        solve_stream = engine.solve_stream

        def timed_solve_stream(*args, **kwargs):
            started = time.perf_counter()
            result = solve_stream(*args, **kwargs)
            self._add("engine", time.perf_counter() - started)
            return result

        engine.solve_stream = timed_solve_stream
        suite = self.executor.monitor_suite
        if suite is not None:
            observe_stream = suite.observe_stream

            def timed_observe_stream(*args, **kwargs):
                started = time.perf_counter()
                record = observe_stream(*args, **kwargs)
                self._add("monitors", time.perf_counter() - started)
                return record

            suite.observe_stream = timed_observe_stream

    def _add(self, stage: str, seconds: float) -> None:
        self.seconds[stage] = self.seconds.get(stage, 0.0) + seconds

    def run(self, count: int) -> Dict[str, float]:
        """``count`` flushes; mean µs per flush of every stage."""
        self.seconds = {}
        for _ in range(count):
            packed = next(self.flushes)
            started = time.perf_counter()
            _block, meta = self.executor.execute_packed(packed)
            self._add("total", time.perf_counter() - started)
            if meta.stage_seconds is None:
                raise RuntimeError("a flush left the batched rung")
            self._add("solve", meta.stage_seconds["solve"])
            self._add("fde", meta.stage_seconds.get("fde", 0.0))
        seconds = self.seconds
        engine = seconds.get("engine", 0.0)
        monitors = seconds.get("monitors", 0.0)
        per_flush = {
            "solve": seconds["solve"],
            "fde": seconds["fde"],
            "engine_other": engine - seconds["solve"] - seconds["fde"],
            "monitors": monitors,
            "assembly": seconds["total"] - engine - monitors,
            "total": seconds["total"],
        }
        return {stage: value * 1e6 / count for stage, value in per_flush.items()}


def fit(sizes: List[int], values: List[float]) -> Dict[str, float]:
    """Least-squares ``value = fixed + rows * per_row``."""
    design = np.column_stack([np.ones(len(sizes)), np.asarray(sizes, dtype=float)])
    (fixed, per_row), *_ = np.linalg.lstsq(design, np.asarray(values), rcond=None)
    return {"fixed_us_per_flush": float(fixed), "per_row_us_per_fix": float(per_row)}


def run_workload(workload: str, seed: int, repeats: int) -> Dict:
    stream = inputs.build_stream(workload, seed)
    segments = {size: max(1, ROWS_PER_SEGMENT // size) for size in SIZES}
    lanes = [
        _Lane(workload, stream, size, segments[size] * (1 + repeats))
        for size in SIZES
    ]
    for lane in lanes:  # warm-up: monitor learning, threshold tables
        lane.run(segments[lane.size])
    order = np.random.default_rng(seed)
    samples: Dict[int, List[Dict[str, float]]] = {size: [] for size in SIZES}
    for _ in range(repeats):
        for index in order.permutation(len(lanes)):
            lane = lanes[index]
            samples[lane.size].append(lane.run(segments[lane.size]))
    medians = {
        size: {
            stage: float(np.median([sample[stage] for sample in samples[size]]))
            for stage in STAGES
        }
        for size in SIZES
    }
    fits = {
        stage: fit(list(SIZES), [medians[size][stage] for size in SIZES])
        for stage in STAGES
    }
    print(f"{workload}:")
    for stage in STAGES:
        print(
            f"  {stage:13s} fixed {fits[stage]['fixed_us_per_flush']:8.1f} us/flush"
            f"   per row {fits[stage]['per_row_us_per_fix']:6.2f} us/fix"
        )
    return {
        "median_us_per_flush": {str(size): medians[size] for size in SIZES},
        "fit": fits,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15, help="interleaved repeats")
    parser.add_argument("--seed", type=int, default=1, help="workload input seed")
    parser.add_argument(
        "--output", default="BENCH_flush_cost.json", help="JSON results path"
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke mode: 3 repeats"
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.repeats = min(args.repeats, 3)
    results = {
        "config": {
            "sizes": list(SIZES),
            "rows_per_segment": ROWS_PER_SEGMENT,
            "repeats": args.repeats,
            "seed": args.seed,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "workloads": {
            workload: run_workload(workload, args.seed, args.repeats)
            for workload in WORKLOADS
        },
    }
    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
