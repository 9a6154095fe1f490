"""High-rate replay of a station dataset through the throughput engine.

The paper's headline is speed: DLO under 20% and DLG around 50% of
NR's per-fix time.  This example pushes that to service scale on a
simulated SRZN stream: the same epochs are positioned four ways —

1. epoch-at-a-time through ``GpsReceiver`` (the latency path),
2. the whole stream through ``PositioningEngine`` with batched DLG
   (one padded block, Sherman-Morrison-whitened, fully vectorized),
3. batched NR for the baseline at the same scale,
4. chunked parallel replay of the full receiver pipeline.

and the fixes/second of each route are printed side by side.

Run with::

    PYTHONPATH=src python examples/high_rate_replay.py
"""

import numpy as np

from repro import (
    DatasetConfig,
    GpsReceiver,
    ObservationDataset,
    ParallelReplay,
    PositioningEngine,
    get_station,
)
from repro.evaluation import time_callable

DURATION_SECONDS = 900.0
RECEIVER_KWARGS = {"algorithm": "dlg", "clock_mode": "steering", "warmup_epochs": 30}


def main() -> None:
    station = get_station("SRZN")
    dataset = ObservationDataset(station, DatasetConfig(duration_seconds=DURATION_SECONDS))
    epochs = list(dataset.epochs())
    counts = sorted({epoch.satellite_count for epoch in epochs})
    print(f"{station.site_id}: {len(epochs)} epochs, satellite counts {counts}\n")

    # Route 1: the serial receiver pipeline (fresh receiver per pass).
    serial = time_callable(
        lambda: GpsReceiver(**RECEIVER_KWARGS).process_many(epochs),
        items=len(epochs),
        repeats=2,
    )

    # Routes 2+3: one vectorized call for the whole mixed stream (one
    # padded block, one kernel call, whatever the satellite counts).  The
    # simulated pseudoranges still contain the receiver clock bias, so
    # feed the engine the per-epoch truth biases — the role a warmed-up
    # clock predictor plays in the receiver pipeline.
    biases = np.array([epoch.truth.clock_bias_meters for epoch in epochs])
    engine_dlg = PositioningEngine(algorithm="dlg")
    engine_nr = PositioningEngine(algorithm="nr")
    batched_dlg = time_callable(
        lambda: engine_dlg.solve_stream(epochs, biases=biases),
        items=len(epochs),
        repeats=2,
    )
    batched_nr = time_callable(
        lambda: engine_nr.solve_stream(epochs), items=len(epochs), repeats=2
    )

    # Route 4: chunked multi-core replay of the full pipeline.
    replay = ParallelReplay(RECEIVER_KWARGS, workers=4, backend="thread")
    parallel = time_callable(lambda: replay.replay(epochs), items=len(epochs), repeats=2)

    print(f"{'route':40s} {'us/fix':>10s} {'fixes/s':>12s}")
    for label, stats in (
        ("GpsReceiver, serial epoch loop", serial),
        ("PositioningEngine, batched DLG", batched_dlg),
        ("PositioningEngine, batched NR", batched_nr),
        ("ParallelReplay, 4 thread workers", parallel),
    ):
        print(
            f"{label:40s} {stats.best_ns / 1e3:10.1f} {stats.items_per_second:12.0f}"
        )

    result = engine_dlg.solve_stream(epochs, biases=biases)
    truth = np.stack([epoch.truth.receiver_position for epoch in epochs])
    errors = np.linalg.norm(result.positions - truth, axis=1)
    print(
        f"\nbatched DLG accuracy: mean {errors.mean():.2f} m, "
        f"p95 {np.percentile(errors, 95):.2f} m over {len(epochs)} fixes"
    )
    print(
        "stage split (us/fix):",
        {
            stage: round(seconds * 1e6 / len(epochs), 2)
            for stage, seconds in result.stage_seconds.items()
        },
    )


if __name__ == "__main__":
    main()
