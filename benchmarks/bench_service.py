"""Throughput benchmark for the async positioning service.

Answers the serving question the engine bench cannot: how much of the
batched solvers' ~18x advantage survives when requests arrive *one at
a time* from concurrent clients and must be coalesced on the fly?

Three arms over the same mixed-satellite-count stream:

* **serial_scalar** — the no-service baseline: one facade-built scalar
  solve per request, back to back (what a naive per-request server
  does per core).
* **service_unbatched** — the ablation: the full async service with
  ``max_batch_size=1``, isolating the event-loop and dispatch overhead
  from the batching win.
* **service_batched** — the tentpole: dynamic micro-batching
  (flush on size or deadline), telemetry capturing the batch-size and
  latency distributions.

All requests are fired concurrently (bounded in-flight window) and
per-request latencies are measured at the client.  Results go to
``BENCH_service.json``; the speedup of the batched service over
per-request serial solving under the same concurrent replay (the
unbatched service arm) is gated by ``--min-speedup`` (default 5).
The ratio against the raw serial scalar loop is recorded for context
but not gated — it bounds a different question (service versus no
service at all, where the event loop is pure overhead).

Run::

    PYTHONPATH=src python benchmarks/bench_service.py [--quick]
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from bench_engine_throughput import BIAS_METERS, synthetic_stream

from repro import telemetry
from repro.api import SolverConfig
from repro.service import AsyncPositioningClient, PositioningService, ServiceConfig
from repro.telemetry import MetricsRegistry, SpanTracer
from repro.telemetry.recorder import RecorderConfig
from repro.telemetry.slo import SloConfig


def _percentiles(samples: np.ndarray) -> Dict[str, float]:
    return {
        "p50": float(np.percentile(samples, 50)),
        "p90": float(np.percentile(samples, 90)),
        "p99": float(np.percentile(samples, 99)),
        "max": float(samples.max()),
    }


async def _drive(
    service_config: ServiceConfig,
    epochs,
    concurrency: int,
) -> Dict:
    """Fire every epoch as a concurrent request; measure at the client.

    The in-flight window is a pool of ``concurrency`` long-lived pump
    tasks sharing one index iterator, not a per-request semaphore: when
    a 64-request batch resolves, 64 semaphore releases would each
    rescan the woken-but-unresumed waiters at the head of the queue
    (quadratic in the burst), which at these request rates costs more
    than the solves being measured.
    """
    results = [None] * len(epochs)
    latencies = [0.0] * len(epochs)
    indices = iter(range(len(epochs)))
    async with PositioningService(service_config) as service:
        client = AsyncPositioningClient(service)
        loop = asyncio.get_running_loop()

        async def pump():
            for index in indices:
                epoch = epochs[index]
                started = loop.time()
                result = await client.submit(epoch, bias_meters=BIAS_METERS)
                while result.status == "rejected":
                    await asyncio.sleep(result.retry_after_seconds or 0.01)
                    result = await client.submit(epoch, bias_meters=BIAS_METERS)
                latencies[index] = loop.time() - started
                results[index] = result

        started = loop.time()
        await asyncio.gather(
            *(pump() for _ in range(min(concurrency, len(epochs))))
        )
        wall = loop.time() - started
        slo_snapshot = service.slo.snapshot() if service.slo is not None else None
    return {
        "results": results,
        "latencies": np.array(latencies),
        "wall": wall,
        "slo": slo_snapshot,
    }


def _service_arm(
    epochs,
    service_config: ServiceConfig,
    concurrency: int,
    repeats: int,
    capture_telemetry: bool,
) -> Dict:
    """Best-of-``repeats`` run of one service configuration."""
    best: Optional[Dict] = None
    snapshot: Optional[Dict] = None
    for _ in range(repeats):
        if capture_telemetry:
            with telemetry.capture() as (registry, tracer):
                run = asyncio.run(_drive(service_config, epochs, concurrency))
            run_snapshot = {
                name: family
                for name, family in registry.snapshot().items()
                if name.startswith("repro_service")
            }
        else:
            run = asyncio.run(_drive(service_config, epochs, concurrency))
            run_snapshot = None
        if best is None or run["wall"] < best["wall"]:
            best, snapshot = run, run_snapshot

    results = best["results"]
    statuses: Dict[str, int] = {}
    for result in results:
        statuses[result.status] = statuses.get(result.status, 0) + 1
    batch_sizes = np.array([r.batch_size for r in results if r.ok] or [0])
    record = {
        "wall_seconds": best["wall"],
        "requests_per_second": len(results) / best["wall"],
        "statuses": statuses,
        "latency_seconds": _percentiles(best["latencies"]),
        "batch_size": {
            "mean": float(batch_sizes.mean()),
            **{k: v for k, v in _percentiles(batch_sizes.astype(float)).items()},
        },
        "config": {
            "max_batch_size": service_config.max_batch_size,
            "max_wait_seconds": service_config.max_wait_seconds,
            "max_queue_depth": service_config.max_queue_depth,
            "concurrency": concurrency,
        },
    }
    if snapshot is not None:
        record["telemetry"] = snapshot
    record["_positions"] = [r.position for r in results]
    return record


def _trace_plane(
    epochs,
    concurrency: int,
    rounds: int,
    budgets: "tuple[float, float]" = (0.05, 0.15),
) -> Dict:
    """Measure the trace plane's cost and characterize a traced run.

    Mirrors the engine bench's telemetry gate, adapted to the serving
    path, with three interleaved arms:

    ``off``
        The shipping default — no registry, no trace plane.
    ``telemetry``
        A metrics registry installed process-wide (the "scraped fleet
        member" configuration) with the span tracer and trace plane
        *off*.  This is the **traced-off** gate: turning on scraping
        alone must stay within 5% of the plain service.
    ``full``
        Registry and span tracer installed plus the whole trace plane —
        per-request span trees, flight recorder, SLO engine.  This is
        the **traced-on** gate (15%).

    Passes are compared on CPU time (the service intentionally *waits*
    on flush deadlines, so wall time would measure the batcher's
    timers, not the trace plane), and the measurement is built for a
    shared, noisy box:

    * **Deterministic wave driver.**  The overhead arms submit exactly
      ``max_batch_size`` requests per wave and gather them, so every
      flush is size-triggered and every pass does bit-identical work —
      the timer-racing pump driver (which feeds the latency/SLO record
      below) flushes at whatever sizes the scheduler produced, which is
      exactly the run-to-run variance a gate cannot afford.
    * **CPU pinning** to one core while measuring, so migration does
      not add noise.
    * **GC fairness.**  ``gc.collect()`` before every timed pass (an
      arm must not collect its predecessor's garbage inside its own
      window) and ``gc.freeze()`` after warmup, so full collections
      scan each arm's own allocations, not the imported heap.
    * **Min-of-rounds estimator.**  Each overhead is the ratio of the
      arms' minimum pass times: the minimum is the least-contaminated
      observation of the fixed workload, so scheduler noise episodes
      drop out while a genuine regression lifts the floor itself.
    * **One re-measure on failure.**  A cache/bandwidth contention
      storm from a co-tenant can outlast an entire measurement phase,
      inflating every round's floor at once — something no
      within-phase estimator can reject.  If a budget in ``budgets``
      is exceeded, one more phase of ``rounds`` rounds runs and the
      floors pool across both phases; the budget itself never loosens,
      so a genuine regression fails twice and still fails.

    The final full-stack run is kept: its span trees supply the
    per-stage latency breakdown and its SLO tracker the latency
    quantiles recorded in ``BENCH_service.json``.
    """
    solver = SolverConfig(algorithm="dlg", clock_bias_meters=BIAS_METERS)
    base = dict(solver=solver, max_batch_size=128, max_wait_seconds=0.002)
    # Wave size for the overhead arms: every wave fills a batch exactly
    # (no timer flushes), and the epoch stream is trimmed to a whole
    # number of waves so every pass solves the same epochs.
    wave = 120
    epochs = epochs[: max(wave, len(epochs) // wave * wave)]
    # Each timed pass sweeps the trimmed stream ``loops`` times, sized
    # so a pass is thousands of requests (~0.1s of CPU), not a handful
    # of milliseconds: the ratio of two 4ms windows moves percents per
    # scheduler tick, the ratio of two 100ms windows does not.  Every
    # arm runs the same loop count, so passes stay bit-identical work.
    loops = max(1, -(-2400 // len(epochs)))
    wave_base = dict(solver=solver, max_batch_size=wave, max_wait_seconds=0.25)
    # One long-lived registry/tracer across every installed pass (the
    # fleet-member configuration a scraper sees): per-pass registries
    # would make allocation/first-touch costs part of the measurement.
    registry, tracer = MetricsRegistry(), SpanTracer()
    configs = {
        "off": (ServiceConfig(**wave_base), None),
        "telemetry": (ServiceConfig(**wave_base), telemetry.NULL_TRACER),
        "full": (
            ServiceConfig(
                **wave_base,
                trace=True,
                recorder=RecorderConfig(),
                slo=SloConfig(),
            ),
            tracer,
        ),
    }
    kept_config = ServiceConfig(
        **base, trace=True, recorder=RecorderConfig(), slo=SloConfig()
    )

    async def _wave_run(config: ServiceConfig) -> None:
        # Nothing is returned: asyncio.run() reprs the main task during
        # its signal-handling teardown, and a result payload full of
        # position arrays would put numpy pretty-printing — pure noise
        # — inside the measurement window.
        async with PositioningService(config) as service:
            client = AsyncPositioningClient(service)
            for _ in range(loops):
                for start in range(0, len(epochs), wave):
                    results = await asyncio.gather(
                        *(
                            client.submit(epoch, bias_meters=BIAS_METERS)
                            for epoch in epochs[start : start + wave]
                        )
                    )
                    bad = sum(1 for r in results if r.status != "ok")
                    if bad:
                        raise RuntimeError(
                            f"overhead wave had {bad} non-ok results; the "
                            "arms are no longer doing identical work"
                        )

    def _cpu_pass(name: str) -> float:
        config, arm_tracer = configs[name]
        gc.collect()
        if arm_tracer is not None:
            with telemetry.capture(registry, arm_tracer):
                start = time.process_time_ns()
                asyncio.run(_wave_run(config))
                return float(time.process_time_ns() - start)
        start = time.process_time_ns()
        asyncio.run(_wave_run(config))
        return float(time.process_time_ns() - start)

    samples: Dict[str, List[float]] = {name: [] for name in configs}
    order = list(configs)

    def _sample_phase() -> None:
        for round_index in range(rounds):
            # Rotate the in-round order so drift cannot systematically
            # favor one arm.
            for offset in range(len(order)):
                name = order[(round_index + offset) % len(order)]
                samples[name].append(_cpu_pass(name))

    def _overhead(name: str) -> float:
        return min(samples[name]) / min(samples["off"]) - 1.0

    affinity = None
    try:
        if hasattr(os, "sched_getaffinity"):
            affinity = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {next(iter(affinity))})
    except OSError:
        affinity = None
    frozen = False
    phases = 1
    try:
        for name in configs:  # warm every arm once
            _cpu_pass(name)
        gc.collect()
        gc.freeze()
        frozen = True
        _sample_phase()
        if rounds and (
            _overhead("telemetry") > budgets[0]
            or _overhead("full") > budgets[1]
        ):
            # Possible phase-long contention storm: re-measure once and
            # pool the floors (see the docstring).
            print(
                "trace plane over budget on phase 1; re-measuring once",
                flush=True,
            )
            _sample_phase()
            phases = 2
    finally:
        if frozen:
            gc.unfreeze()
        if affinity is not None:
            os.sched_setaffinity(0, affinity)

    traced_off = _overhead("telemetry") if rounds else float("nan")
    traced_on = _overhead("full") if rounds else float("nan")
    # Each arm's absolute cost per request (its fastest pass): a ratio
    # drifts whenever the plain path it divides by gets faster, these
    # do not.
    requests = len(epochs) * loops
    us_per_request = {
        name: min(values) / requests / 1e3 if values else float("nan")
        for name, values in samples.items()
    }

    # One kept full-stack run (pump driver, production batching knobs)
    # for the breakdown record.
    with telemetry.capture(registry, tracer):
        kept = asyncio.run(_drive(kept_config, epochs, concurrency))
    stage_samples: Dict[str, List[float]] = {}
    for result in kept["results"]:
        if result.trace is None:
            continue
        for stage, seconds in result.trace.stage_seconds().items():
            stage_samples.setdefault(stage, []).append(seconds)
    stage_latency = {
        stage: _percentiles(np.array(values))
        for stage, values in sorted(stage_samples.items())
    }
    return {
        # traced-off = registry installed, trace plane off; traced-on =
        # registry + trace + recorder + SLO.  Both relative to the
        # plain (no-registry) service.
        "traced_off_overhead_fraction": traced_off,
        "traced_on_overhead_fraction": traced_on,
        "us_per_request": us_per_request,
        "rounds": rounds,
        "phases": phases,
        "requests": requests,
        # Raw per-pass CPU times (ns), in measurement order per arm:
        # the evidence behind the ratios, kept so a flaky CI gate can
        # be diagnosed from the artifact instead of re-run blind.
        "samples_ns": {name: list(values) for name, values in samples.items()},
        "stage_latency_seconds": stage_latency,
        "slo": kept["slo"],
    }


def _print_trace_plane(trace: Dict) -> None:
    """The trace-plane gate's ratios, then each arm's absolute cost."""
    print(
        f"trace plane  off {trace['traced_off_overhead_fraction'] * 100.0:+.2f}%  "
        f"full {trace['traced_on_overhead_fraction'] * 100.0:+.2f}% "
        f"(min-of-rounds cpu-time ratio, {trace['rounds']} rounds x "
        f"{trace['phases']} phase(s))"
    )
    print(
        "trace plane  cpu us/request (min over rounds)  "
        + "  ".join(
            f"{name} {value:.2f}" for name, value in trace["us_per_request"].items()
        )
    )


def run(
    request_count: int,
    repeats: int,
    concurrency: int,
    output: str,
    trace_rounds: int = 9,
    overhead_only: bool = False,
    trace_budgets: "tuple[float, float]" = (0.05, 0.15),
) -> Dict:
    """Run the three arms and return the results document."""
    print(f"generating {request_count}-epoch mixed-count stream ...", flush=True)
    epochs = synthetic_stream(request_count)
    solver = SolverConfig(algorithm="dlg", clock_bias_meters=BIAS_METERS)

    results: Dict = {
        "config": {
            "requests": request_count,
            "repeats": repeats,
            "concurrency": concurrency,
            "algorithm": solver.algorithm,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    # The overhead gate compares ~microsecond per-request deltas, so a
    # pass needs enough requests for the paired CPU-time ratio to rise
    # above scheduler noise; small --quick streams are padded up.
    trace_epochs = (
        epochs if len(epochs) >= 600 else synthetic_stream(600)
    )
    if overhead_only:
        results["trace_plane"] = _trace_plane(
            trace_epochs, concurrency, trace_rounds, trace_budgets
        )
        _print_trace_plane(results["trace_plane"])
        with open(output, "w") as handle:
            json.dump(results, handle, indent=2)
        print(f"wrote {output}")
        return results

    # ------------------------------------------------------ serial scalar
    scalar = solver.build_solver()
    serial_best = float("inf")
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        serial_positions = [scalar.solve(epoch).position for epoch in epochs]
        serial_best = min(serial_best, time.perf_counter() - started)
    results["serial_scalar"] = {
        "wall_seconds": serial_best,
        "requests_per_second": len(epochs) / serial_best,
    }
    print(
        f"serial scalar    {len(epochs) / serial_best:10.0f} req/s "
        f"({serial_best:.3f}s wall)"
    )

    # -------------------------------------------------- service, no batch
    unbatched = _service_arm(
        epochs,
        ServiceConfig(solver=solver, max_batch_size=1, max_wait_seconds=0.0),
        concurrency,
        repeats,
        capture_telemetry=False,
    )
    unbatched.pop("_positions")
    results["service_unbatched"] = unbatched
    print(
        f"service nobatch  {unbatched['requests_per_second']:10.0f} req/s "
        f"(p99 {1e3 * unbatched['latency_seconds']['p99']:.1f}ms)"
    )

    # ----------------------------------------------------- service, batched
    # 128 (not the service's general-purpose default of 64) because the
    # replay holds ~512 requests in flight: bigger flushes amortize the
    # per-bucket solve overhead while the deadline keeps p99 bounded.
    batched = _service_arm(
        epochs,
        ServiceConfig(solver=solver, max_batch_size=128, max_wait_seconds=0.002),
        concurrency,
        repeats,
        capture_telemetry=True,
    )
    batched_positions = batched.pop("_positions")
    results["service_batched"] = batched
    print(
        f"service batched  {batched['requests_per_second']:10.0f} req/s "
        f"(p99 {1e3 * batched['latency_seconds']['p99']:.1f}ms, "
        f"mean batch {batched['batch_size']['mean']:.1f})"
    )

    # ------------------------------------------------- agreement + ratios
    # Micro-batching must not change the answer: compare the batched
    # service's positions to the serial scalar loop's, row for row.
    agreement = float(
        max(
            np.linalg.norm(service_pos - serial_pos)
            for service_pos, serial_pos in zip(batched_positions, serial_positions)
        )
    )
    results["speedups"] = {
        "batched_service_vs_serial_scalar": (
            batched["requests_per_second"]
            / results["serial_scalar"]["requests_per_second"]
        ),
        "batched_service_vs_unbatched_service": (
            batched["requests_per_second"] / unbatched["requests_per_second"]
        ),
        "max_position_disagreement_m": agreement,
    }
    print(
        f"\nbatched service vs serial scalar: "
        f"{results['speedups']['batched_service_vs_serial_scalar']:.1f}x "
        f"(vs unbatched service: "
        f"{results['speedups']['batched_service_vs_unbatched_service']:.1f}x), "
        f"max disagreement {agreement:.2e} m"
    )

    # -------------------------------------------------- trace-plane cost
    results["trace_plane"] = _trace_plane(
        trace_epochs, concurrency, trace_rounds, trace_budgets
    )
    _print_trace_plane(results["trace_plane"])

    with open(output, "w") as handle:
        json.dump(results, handle, indent=2)
    print(f"wrote {output}")
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--requests",
        type=int,
        default=1000,
        help="concurrent requests per arm (default 1000)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="passes per arm, best kept"
    )
    parser.add_argument(
        "--concurrency",
        type=int,
        default=512,
        help="client-side in-flight request bound",
    )
    parser.add_argument(
        "--output", default="BENCH_service.json", help="JSON results path"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: 200 requests, single pass",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="fail unless the batched service beats per-request serial "
        "solving under the same concurrent replay (the unbatched service "
        "arm) by this factor (default 5; CI smoke uses a lower gate for "
        "slow runners)",
    )
    parser.add_argument(
        "--trace-rounds",
        type=int,
        default=9,
        help="interleaved rounds for the trace-plane overhead gate",
    )
    parser.add_argument(
        "--max-traced-off-overhead",
        type=float,
        default=0.05,
        help="fail if the trace-plane-off service costs more than this "
        "fraction over the pre-trace-plane path (default 0.05)",
    )
    parser.add_argument(
        "--max-traced-on-overhead",
        type=float,
        default=0.15,
        help="fail if the full observability stack (trace + recorder + "
        "SLO) costs more than this fraction (default 0.15)",
    )
    parser.add_argument(
        "--overhead-only",
        action="store_true",
        help="skip the throughput arms; run and gate only the "
        "trace-plane overhead section (the CI telemetry-overhead job)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.requests = min(args.requests, 200)
        args.repeats = 1

    results = run(
        args.requests,
        args.repeats,
        args.concurrency,
        args.output,
        trace_rounds=args.trace_rounds,
        overhead_only=args.overhead_only,
        trace_budgets=(
            args.max_traced_off_overhead,
            args.max_traced_on_overhead,
        ),
    )

    failures = []
    if not args.overhead_only:
        speedup = results["speedups"]["batched_service_vs_unbatched_service"]
        if speedup < args.min_speedup:
            failures.append(
                f"batched service speedup {speedup:.2f}x over per-request "
                f"serial solving is below the {args.min_speedup:g}x gate"
            )
        disagreement = results["speedups"]["max_position_disagreement_m"]
        if disagreement > 1e-6:
            failures.append(
                f"batched service disagrees with serial scalar by {disagreement:.2e} m"
            )
        statuses = results["service_batched"]["statuses"]
        if set(statuses) != {"ok"}:
            failures.append(f"batched service had non-ok requests: {statuses}")
    traced_off = results["trace_plane"]["traced_off_overhead_fraction"]
    if traced_off > args.max_traced_off_overhead:
        failures.append(
            f"traced-off service overhead {traced_off * 100.0:.2f}% exceeds "
            f"the {args.max_traced_off_overhead * 100.0:.1f}% budget"
        )
    traced_on = results["trace_plane"]["traced_on_overhead_fraction"]
    if traced_on > args.max_traced_on_overhead:
        failures.append(
            f"traced-on service overhead {traced_on * 100.0:.2f}% exceeds "
            f"the {args.max_traced_on_overhead * 100.0:.1f}% budget"
        )
    for failure in failures:
        print(f"ERROR: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
