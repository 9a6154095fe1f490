"""Multi-constellation solver benchmark: per-fix cost across n x K.

Measures the per-constellation clock-bias paths over a matrix of
epoch sizes (``n`` satellites per epoch) and constellation counts
(``K`` distinct systems), against the single-clock paths at ``K=1``:

* **scalar NR / DLG** — one ``solve`` call per epoch through the
  :mod:`repro.api` facade configs, recording the NR-vs-DLG per-fix
  ratio the paper's Section 5.3 comparison is about, now with
  ``3 + K`` unknowns;
* **batched DLG** — the whole stream through
  :meth:`~repro.solvers.BatchDLGSolver.solve_block` (``K=1``, one
  centered segment per row) or
  :meth:`~repro.solvers.BatchDLGSolver.solve_block_multi` (``K>1``,
  one segment per constellation) — both the centered weighted least
  squares — on a pre-built :class:`~repro.blocks.EpochBlock`, so the
  decode boundary stays off the measured hot path exactly as in
  ``bench_engine_throughput.py``.

Scenes come from :func:`repro.api.build_scene`; each (n, K) cell uses
one deterministic stream with known truth, and the batched-vs-scalar
DLG agreement is checked per cell — widening the state to per-
constellation biases must not change the answer.

Combos the differenced multi solvers cannot admit (``n < 3 + 2K``)
are recorded as skipped rather than silently dropped.

Results are written to ``BENCH_constellation.json``.  The
``--perf-baseline`` gate takes committed records and gates each batched
DLG cell one of them holds:

* a ``BENCH_engine.json`` gates the ``(8, 1)`` cell against its batched
  DLG number: adding constellation lanes must not tax the
  single-constellation fast path;
* a ``BENCH_constellation.json`` gates the ``(32, 4)`` cell against
  its own committed cell: the large four-constellation sky must not
  lose what the centered kernel won there.

Run::

    PYTHONPATH=src python benchmarks/bench_constellation.py [--quick]
    PYTHONPATH=src python benchmarks/bench_constellation.py --quick \
        --output smoke.json --perf-baseline BENCH_engine.json BENCH_constellation.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from typing import Dict, List, Optional

import numpy as np

from repro.api import SolverConfig, build_scene
from repro.blocks import EpochBlock
from repro.evaluation import TimingStats, time_callable, time_solver_stats

#: Clock bias (meters) for every constellation lane: constant so the
#: single-mode DLG arm can use a fixed-bias config and the multi arms
#: have a nonzero bias per system to estimate.
BIAS_METERS = 35.0

#: System codes assigned to constellation lanes, in lane order.
LANE_SYSTEMS = ("G", "R", "E", "C")

#: Benchmark matrix: satellites per epoch x distinct constellations.
SATELLITE_COUNTS = (8, 16, 32, 50)
CONSTELLATION_COUNTS = (1, 2, 4)

#: The stream's (n, K) cell whose batched DLG per-fix time is gated
#: against the committed single-constellation engine baseline; n=8
#: sits inside the engine benchmark's 7-11 satellite band.
GATE_CELL = (8, 1)

#: The large-sky cell gated against its own committed matrix cell.
LARGE_GATE_CELL = (32, 4)


def _lane_counts(satellites: int, constellations: int) -> Dict[str, int]:
    """Split ``satellites`` across ``constellations`` systems, every
    lane getting at least its floor share (remainder to the first)."""
    base, extra = divmod(satellites, constellations)
    return {
        LANE_SYSTEMS[lane]: base + (1 if lane < extra else 0)
        for lane in range(constellations)
    }


def synthetic_stream(count, satellites, constellations, noise_sigma=1.0, seed=2026):
    """``count`` deterministic epochs of one (n, K) cell.

    Every epoch shares the satellite split and per-system biases (all
    ``BIAS_METERS``) but draws its own receiver and sky from the seed,
    via :func:`repro.api.build_scene` — the constellation-aware scene
    entry point this benchmark exists to exercise.
    """
    if constellations == 1:
        return [
            build_scene(
                satellites,
                clock_bias_meters=BIAS_METERS,
                seed=seed + index,
                noise_sigma=noise_sigma,
            )
            for index in range(count)
        ]
    lanes = _lane_counts(satellites, constellations)
    biases = {system: BIAS_METERS for system in lanes}
    return [
        build_scene(
            lanes,
            clock_bias_meters=biases,
            seed=seed + index,
            noise_sigma=noise_sigma,
        )
        for index in range(count)
    ]


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


def _bench_cell(
    satellites: int,
    constellations: int,
    epoch_count: int,
    repeats: int,
) -> Optional[Dict]:
    """One (n, K) cell of the matrix, or ``None`` when inadmissible."""
    if satellites < 3 + 2 * constellations:
        return None
    epochs = synthetic_stream(epoch_count, satellites, constellations)
    if constellations == 1:
        nr_config = SolverConfig(algorithm="nr")
        dlg_config = SolverConfig(algorithm="dlg", clock_bias_meters=BIAS_METERS)
    else:
        nr_config = SolverConfig(algorithm="nr", constellations="per_constellation")
        dlg_config = SolverConfig(
            algorithm="dlg", constellations="per_constellation"
        )

    cell: Dict = {
        "satellites": satellites,
        "constellations": constellations,
        "scalar": {},
        "batched": {},
    }

    # ------------------------------------------------------------- scalar
    scalar_solvers = {
        "NR": nr_config.build_solver(),
        "DLG": dlg_config.build_solver(),
    }
    for name, solver in scalar_solvers.items():
        stats = time_solver_stats(solver, epochs, repeats=repeats, warmup_rounds=1)
        cell["scalar"][name] = _record(stats)
    cell["nr_over_dlg_ratio"] = (
        cell["scalar"]["NR"]["per_fix_ns"]["best"]
        / cell["scalar"]["DLG"]["per_fix_ns"]["best"]
    )

    # ------------------------------------------------------------ batched
    # The block is built once outside the timed region (the decode
    # boundary belongs to pack_stream's line in the engine benchmark),
    # and the mode-specific block entry point is timed directly so K=1
    # measures the one-segment path and K>1 the per-constellation
    # segments with zero dispatch in between.  Batched passes are
    # cheap, so best-of-many keeps the perf gate stable on noisy boxes.
    block = EpochBlock.from_epochs(epochs)
    batch_solver = dlg_config.build_batch_solver()
    batched_repeats = max(repeats, 9)
    if constellations == 1:
        biases = np.full(len(epochs), BIAS_METERS)
        run_batch = lambda: batch_solver.solve_block(block, biases)  # noqa: E731
        batched_positions = run_batch()
    else:
        run_batch = lambda: batch_solver.solve_block_multi(block)  # noqa: E731
        batched_positions = run_batch().positions
    stats = time_callable(
        run_batch, items=len(epochs), repeats=batched_repeats, warmup_rounds=1
    )
    cell["batched"]["DLG"] = _record(stats)
    cell["dlg_batched_over_scalar_speedup"] = (
        cell["scalar"]["DLG"]["per_fix_ns"]["best"] / stats.best_ns
    )

    # ---------------------------------------------------------- agreement
    scalar_positions = np.stack(
        [scalar_solvers["DLG"].solve(epoch).position for epoch in epochs]
    )
    truth = np.stack([epoch.truth.receiver_position for epoch in epochs])
    cell["dlg_batched_vs_scalar_max_disagreement_m"] = float(
        np.max(np.linalg.norm(batched_positions - scalar_positions, axis=1))
    )
    cell["dlg_batched_max_truth_error_m"] = float(
        np.max(np.linalg.norm(batched_positions - truth, axis=1))
    )
    return cell


def run(epoch_count: int, repeats: int, output: str) -> Dict:
    """Run the n x K matrix and return the results document."""
    results: Dict = {
        "config": {
            "epochs_per_cell": epoch_count,
            "repeats": repeats,
            "satellite_counts": list(SATELLITE_COUNTS),
            "constellation_counts": list(CONSTELLATION_COUNTS),
            "bias_meters": BIAS_METERS,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "matrix": [],
        "skipped": [],
    }
    for satellites in SATELLITE_COUNTS:
        for constellations in CONSTELLATION_COUNTS:
            cell = _bench_cell(satellites, constellations, epoch_count, repeats)
            if cell is None:
                results["skipped"].append(
                    {
                        "satellites": satellites,
                        "constellations": constellations,
                        "reason": "differenced multi solve needs n >= 3 + 2K",
                    }
                )
                print(
                    f"n={satellites:<3d} K={constellations}   skipped "
                    f"(needs n >= {3 + 2 * constellations})"
                )
                continue
            results["matrix"].append(cell)
            print(
                f"n={satellites:<3d} K={constellations}   "
                f"scalar NR {cell['scalar']['NR']['per_fix_ns']['best'] / 1e3:8.1f} us/fix   "
                f"scalar DLG {cell['scalar']['DLG']['per_fix_ns']['best'] / 1e3:8.1f} us/fix "
                f"(NR/DLG {cell['nr_over_dlg_ratio']:.2f}x)   "
                f"batched DLG {cell['batched']['DLG']['per_fix_ns']['best'] / 1e3:7.2f} us/fix   "
                f"agree {cell['dlg_batched_vs_scalar_max_disagreement_m']:.2e} m"
            )

    gate_cell = batched_dlg_best(results, GATE_CELL)
    if gate_cell is not None:
        results["gate"] = {
            "cell": {"satellites": GATE_CELL[0], "constellations": GATE_CELL[1]},
            "batched_dlg_per_fix_ns_best": gate_cell,
        }

    with open(output, "w") as handle:
        json.dump(results, handle, indent=2)
    print(f"wrote {output}")
    return results


def batched_dlg_best(results: Dict, cell) -> Optional[float]:
    """Best batched DLG per-fix ns of one (n, K) cell, or ``None``."""
    for entry in results.get("matrix", []):
        if (entry["satellites"], entry["constellations"]) == tuple(cell):
            return entry["batched"]["DLG"]["per_fix_ns"]["best"]
    return None


def perf_gates(results: Dict, baseline_paths: List[str]) -> List:
    """``(label, current_ns, baseline_ns, path)`` for every gated cell a
    baseline record holds: an engine record's batched DLG number gates
    ``GATE_CELL``, a constellation matrix gates ``LARGE_GATE_CELL``."""
    gates = []
    for path in baseline_paths:
        with open(path) as handle:
            baseline = json.load(handle)
        if "matrix" in baseline:
            cell = LARGE_GATE_CELL
            baseline_best = batched_dlg_best(baseline, cell)
        else:
            cell = GATE_CELL
            baseline_best = baseline["batched"]["DLG"]["per_fix_ns"]["best"]
        label = f"n={cell[0]} K={cell[1]} batched DLG"
        gates.append((label, batched_dlg_best(results, cell), baseline_best, path))
    return gates


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--epochs",
        type=int,
        default=256,
        help="stream length per (n, K) cell (default 256)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="timed passes per measurement"
    )
    parser.add_argument(
        "--output", default="BENCH_constellation.json", help="JSON results path"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: fewer timed passes on the standard per-cell "
        "stream (stream length is kept so per-fix numbers stay comparable "
        "with the committed full-run baseline)",
    )
    parser.add_argument(
        "--perf-baseline",
        nargs="+",
        default=None,
        help="committed records to gate against: a BENCH_engine.json "
        "gates the n=8 K=1 batched DLG per-fix time, a "
        "BENCH_constellation.json the n=32 K=4 one; fail if either "
        "regresses past --max-perf-regression",
    )
    parser.add_argument(
        "--max-perf-regression",
        type=float,
        default=0.25,
        help="allowed fractional slowdown of a gated cell's batched DLG "
        "best per-fix ns vs its --perf-baseline before failing "
        "(default 0.25)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.repeats = 2

    results = run(args.epochs, args.repeats, args.output)

    # The scalar path solves each epoch's whitened system on its own;
    # the batched path goes through stacked normal equations.  Near the
    # multi admissibility floor (n = 3 + 2K + 1) the difference system
    # is ill-conditioned enough that the two orderings disagree by a
    # micrometer or so — 1e-5 m still catches any real divergence while
    # tolerating that floating-point jitter.
    worst = max(
        cell["dlg_batched_vs_scalar_max_disagreement_m"]
        for cell in results["matrix"]
    )
    if worst > 1e-5:
        print(
            f"ERROR: batched DLG disagrees with scalar DLG by {worst:.2e} m",
            file=sys.stderr,
        )
        return 1
    failed = False
    for label, current_best, baseline_best, path in perf_gates(
        results, args.perf_baseline or []
    ):
        regression = current_best / baseline_best - 1.0
        print(
            f"perf gate: {label} {current_best / 1e3:.2f} us/fix vs "
            f"{path} {baseline_best / 1e3:.2f} us/fix "
            f"({regression:+.1%}, budget +{args.max_perf_regression * 100.0:.0f}%)"
        )
        if regression > args.max_perf_regression:
            print(
                f"ERROR: {label} per-fix time regressed {regression:+.1%} "
                f"vs {path}, over the "
                f"{args.max_perf_regression * 100.0:.0f}% budget",
                file=sys.stderr,
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
