"""Overhead benchmark for the batch FDE gate: integrity is not free, but close.

Measures the FDE-armed :class:`repro.engine.PositioningEngine` against
the plain batched DLG path on the same mixed-satellite-count stream,
in three shapes:

* **plain** — batched DLG, no integrity (the PR 1 baseline);
* **fde-clean** — FDE armed, fault-free stream: detection rides the
  whitened norms the solver already computes, so this is the pure gate
  overhead every epoch pays;
* **fde-faulted** — FDE armed with a fraction of epochs spiked: flagged
  epochs additionally pay the closed-form leave-one-out exclusion,
  which is the worst-case integrity cost.

Results go to ``BENCH_integrity.json``; the run fails if the fault-free
FDE throughput drops below ``--min-clean-ratio`` (default 0.60) of the
plain path, or if the faulted pass does not repair every spiked epoch.

Run::

    PYTHONPATH=src python benchmarks/bench_integrity.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from dataclasses import replace
from typing import Dict, List

import numpy as np

from repro import FdeConfig, PositioningEngine
from repro.evaluation import TimingStats, time_callable
from repro.observations import ObservationEpoch

from bench_engine_throughput import BIAS_METERS, synthetic_stream

#: Spike magnitude for the faulted pass (meters) — far above the
#: stream's 1 m noise so every spiked epoch must flag and repair.
SPIKE_METERS = 120.0


def spike_stream(
    epochs: List[ObservationEpoch], fault_rate: float, seed: int = 7
) -> "tuple[List[ObservationEpoch], int]":
    """A copy of the stream with ``fault_rate`` of its epochs spiked.

    One satellite per chosen epoch gets ``SPIKE_METERS`` added to its
    pseudorange; returns the corrupted stream and the spike count.
    """
    rng = np.random.default_rng(seed)
    corrupted = list(epochs)
    spiked = 0
    for index, epoch in enumerate(epochs):
        if rng.random() >= fault_rate:
            continue
        victim = int(rng.integers(epoch.satellite_count))
        observations = [
            replace(obs, pseudorange=obs.pseudorange + SPIKE_METERS)
            if j == victim
            else obs
            for j, obs in enumerate(epoch.observations)
        ]
        corrupted[index] = epoch.with_observations(observations)
        spiked += 1
    return corrupted, spiked


def _record(stats: TimingStats) -> Dict:
    return {
        "per_fix_ns": {
            "best": stats.best_ns,
            "mean": stats.mean_ns,
            "p50": stats.p50_ns,
            "p95": stats.p95_ns,
        },
        "fixes_per_second": stats.items_per_second,
        "repeats": stats.repeats,
        "items": stats.items,
    }


def run(epoch_count: int, repeats: int, fault_rate: float, output: str) -> Dict:
    """Run the integrity benchmark matrix and return the results document."""
    print(f"generating {epoch_count}-epoch mixed-count stream ...", flush=True)
    epochs = synthetic_stream(epoch_count)
    biases = np.full(len(epochs), BIAS_METERS)
    faulted_epochs, spiked = spike_stream(epochs, fault_rate)
    fde_config = FdeConfig(sigma_meters=1.0, p_false_alarm=1e-3)

    results: Dict = {
        "config": {
            "epochs": epoch_count,
            "repeats": repeats,
            "fault_rate": fault_rate,
            "spiked_epochs": spiked,
            "spike_meters": SPIKE_METERS,
            "fde": fde_config.to_dict(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }

    plain = PositioningEngine(algorithm="dlg")
    armed = PositioningEngine(algorithm="dlg", fde_config=fde_config)

    matrix = (
        ("plain", plain, epochs),
        ("fde_clean", armed, epochs),
        ("fde_faulted", armed, faulted_epochs),
    )
    for name, engine, stream in matrix:
        stats = time_callable(
            lambda: engine.solve_stream(stream, biases=biases),
            items=len(stream),
            repeats=repeats,
            warmup_rounds=1,
        )
        results[name] = _record(stats)
        print(
            f"{name:12s}  {stats.best_ns / 1e3:9.1f} us/fix  "
            f"{stats.items_per_second:10.0f} fixes/s"
        )

    clean_ratio = (
        results["fde_clean"]["fixes_per_second"]
        / results["plain"]["fixes_per_second"]
    )
    faulted_ratio = (
        results["fde_faulted"]["fixes_per_second"]
        / results["plain"]["fixes_per_second"]
    )

    # Correctness alongside the timing: the clean pass must not flag,
    # the faulted pass must repair every spike (120 m against 1 m
    # noise leaves no statistical excuse).
    clean_counts = armed.solve_stream(
        epochs, biases=biases
    ).diagnostics.fde.counts()
    faulted_result = armed.solve_stream(faulted_epochs, biases=biases)
    faulted_counts = faulted_result.diagnostics.fde.counts()
    repaired_errors = np.linalg.norm(
        faulted_result.positions
        - np.stack([e.truth.receiver_position for e in faulted_epochs]),
        axis=1,
    )
    results["fde_overhead"] = {
        "clean_throughput_ratio": clean_ratio,
        "faulted_throughput_ratio": faulted_ratio,
        "clean_counts": clean_counts,
        "faulted_counts": faulted_counts,
        "faulted_max_position_error_m": float(repaired_errors.max()),
    }
    print(
        f"\nFDE throughput vs plain batched DLG: "
        f"{100 * clean_ratio:.1f}% clean, {100 * faulted_ratio:.1f}% with "
        f"{spiked} spiked epochs ({faulted_counts['repaired']} repaired)"
    )

    with open(output, "w") as handle:
        json.dump(results, handle, indent=2)
    print(f"wrote {output}")
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--epochs", type=int, default=2000, help="stream length (default 2000)"
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="timed passes per measurement"
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.02,
        help="fraction of epochs spiked in the faulted pass (default 0.02)",
    )
    parser.add_argument(
        "--output", default="BENCH_integrity.json", help="JSON results path"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: 400 epochs, two timed passes",
    )
    parser.add_argument(
        "--min-clean-ratio",
        type=float,
        default=0.60,
        help="fail if fault-free FDE throughput falls below this fraction "
        "of the plain batched path (default 0.60)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.epochs = min(args.epochs, 400)
        args.repeats = min(args.repeats, 2)

    results = run(args.epochs, args.repeats, args.fault_rate, args.output)
    overhead = results["fde_overhead"]
    failed = False
    if overhead["clean_throughput_ratio"] < args.min_clean_ratio:
        print(
            f"ERROR: fault-free FDE throughput is only "
            f"{100 * overhead['clean_throughput_ratio']:.1f}% of the plain "
            f"batched path (floor {100 * args.min_clean_ratio:.0f}%)",
            file=sys.stderr,
        )
        failed = True
    if overhead["clean_counts"]["repaired"] or overhead["clean_counts"]["unusable"]:
        print(
            f"ERROR: FDE flagged a fault-free stream: {overhead['clean_counts']}",
            file=sys.stderr,
        )
        failed = True
    spiked = results["config"]["spiked_epochs"]
    if overhead["faulted_counts"]["repaired"] < spiked:
        print(
            f"ERROR: only {overhead['faulted_counts']['repaired']} of "
            f"{spiked} spiked epochs were repaired",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
