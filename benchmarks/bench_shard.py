"""Throughput and latency benchmark for the sharded serving tier.

Four phases over the same synthetic mixed-satellite-count stream:

* **capacity** — closed-loop max throughput at 1/2/4 workers, plus the
  inline (``workers=0``) single-process ceiling: what the shared-memory
  transport and supervision cost, and how throughput scales when the
  box actually has cores to scale onto.  Each arm also records the
  router's CPU seconds (``RUSAGE_SELF``), its workers' CPU seconds
  (``RUSAGE_CHILDREN``) and its wall seconds, start to stop, so a
  scaling shortfall can be put on the router (CPU close to wall while
  it waits) or on the host (router and workers together want more CPU
  than the box gives).
* **poisson** — open-loop replay with seeded exponential inter-arrival
  times at a fraction of measured capacity; per-request latency is
  completion minus *arrival* (queueing included), which is what the
  p99 gate is about.
* **burst** — alternating idle/burst phases: a parked shard absorbing
  a full burst, measuring drain time and in-burst latency.
* **slow_clients** — singleton requests trickling through the shard:
  the per-request shared-memory round-trip floor, no batching help.

Gates are *honest about the machine*: scaling gates only apply when
the effective core count can express them; on a smaller box they are
recorded as skipped (with the reason) in ``BENCH_shard.json``, never
silently passed.  The committed asyncio-service baseline
(``BENCH_service.json``) provides the cross-tier comparison targets.

Run::

    PYTHONPATH=src python benchmarks/bench_shard.py [--quick]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from bench_engine_throughput import BIAS_METERS, synthetic_stream

from repro.api import SolverConfig
from repro.service import ServiceConfig, ShardConfig, ShardedPositioningService

#: Shard batch cut for every phase (matches the service bench's
#: micro-batch flush size, so the comparison is batching-for-batching).
BATCH_SIZE = 64

#: Worker counts swept in the capacity phase.
WORKER_COUNTS = (1, 2, 4)


def effective_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _percentiles(samples: np.ndarray) -> Dict[str, float]:
    return {
        "p50": float(np.percentile(samples, 50)),
        "p90": float(np.percentile(samples, 90)),
        "p99": float(np.percentile(samples, 99)),
        "max": float(samples.max()),
    }


def _service_arm(workers: int) -> ServiceConfig:
    return ServiceConfig(
        solver=SolverConfig(algorithm="dlg", clock_bias_meters=BIAS_METERS),
        max_batch_size=BATCH_SIZE,
    )


def _shard(workers: int) -> ShardedPositioningService:
    return ShardedPositioningService(
        ShardConfig(
            service=_service_arm(workers),
            workers=workers,
            batch_size=BATCH_SIZE,
        )
    )


def _cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def capacity_phase(epochs, repeats: int) -> Dict:
    """Closed-loop best-of-``repeats`` throughput per worker count."""
    record: Dict = {}
    for workers in (0,) + WORKER_COUNTS:
        router_before = _cpu_seconds(resource.RUSAGE_SELF)
        workers_before = _cpu_seconds(resource.RUSAGE_CHILDREN)
        arm_started = time.monotonic()
        with _shard(workers) as shard:
            shard.solve_many(epochs[: 4 * BATCH_SIZE])  # warm
            best_wall = float("inf")
            ok = 0
            for _ in range(repeats):
                gc.collect()
                started = time.monotonic()
                results = shard.solve_many(epochs)
                wall = time.monotonic() - started
                if wall < best_wall:
                    best_wall = wall
                    ok = sum(1 for r in results if r.status == "ok")
        # A child's CPU time counts only once it is reaped, so the
        # arm's accounting closes after its shard has stopped.
        arm_wall = time.monotonic() - arm_started
        router_cpu = _cpu_seconds(resource.RUSAGE_SELF) - router_before
        workers_cpu = _cpu_seconds(resource.RUSAGE_CHILDREN) - workers_before
        key = "inline" if workers == 0 else str(workers)
        record[key] = {
            "workers": workers,
            "wall_seconds": best_wall,
            "requests_per_second": len(epochs) / best_wall,
            "ok": ok,
            "requests": len(epochs),
            "arm_wall_seconds": arm_wall,
            "router_cpu_seconds": router_cpu,
            "workers_cpu_seconds": workers_cpu,
        }
        print(
            f"capacity[{key}]: {len(epochs) / best_wall:,.0f} req/s "
            f"({ok}/{len(epochs)} ok); arm wall {arm_wall:.3f}s, CPU "
            f"router {router_cpu:.3f}s, workers {workers_cpu:.3f}s"
        )
    return record


def poisson_phase(epochs, workers: int, rate_rps: float, seed: int) -> Dict:
    """Open-loop Poisson replay; latency = completion − arrival.

    The driver is the shard's natural shape: whatever has *arrived* by
    the time the router is free forms the next submission (the shard
    re-cuts it into ``BATCH_SIZE`` batches internally), so queueing
    delay under the offered load is part of every latency sample.
    """
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / rate_rps, size=len(epochs)))
    latencies = np.zeros(len(epochs))
    statuses: Dict[str, int] = {}
    with _shard(workers) as shard:
        shard.solve_many(epochs[: 4 * BATCH_SIZE])  # warm
        gc.collect()
        started = time.monotonic()
        cursor = 0
        while cursor < len(epochs):
            now = time.monotonic() - started
            due = int(np.searchsorted(arrivals, now, side="right"))
            if due <= cursor:
                time.sleep(min(arrivals[cursor] - now, 0.001))
                continue
            chunk = epochs[cursor:due]
            results = shard.solve_many(chunk)
            completed = time.monotonic() - started
            for offset, result in enumerate(results):
                latencies[cursor + offset] = (
                    completed - arrivals[cursor + offset]
                )
                statuses[result.status] = statuses.get(result.status, 0) + 1
            cursor = due
        wall = time.monotonic() - started
    record = {
        "workers": workers,
        "offered_rps": rate_rps,
        "achieved_rps": len(epochs) / wall,
        "statuses": statuses,
        "latency_seconds": _percentiles(latencies),
    }
    print(
        f"poisson[{workers}w @ {rate_rps:,.0f} rps]: "
        f"p99 {1e3 * record['latency_seconds']['p99']:.2f}ms"
    )
    return record


def burst_phase(epochs, workers: int, bursts: int, idle_seconds: float) -> Dict:
    """Idle/burst alternation: drain time of a cold backlog."""
    burst_size = 8 * BATCH_SIZE
    needed = bursts * burst_size
    stream = [epochs[i % len(epochs)] for i in range(needed)]
    drains: List[float] = []
    latencies: List[float] = []
    with _shard(workers) as shard:
        shard.solve_many(epochs[: 4 * BATCH_SIZE])  # warm
        for burst in range(bursts):
            time.sleep(idle_seconds)
            chunk = stream[burst * burst_size : (burst + 1) * burst_size]
            started = time.monotonic()
            results = shard.solve_many(chunk)
            wall = time.monotonic() - started
            drains.append(wall)
            # Everything in the burst arrived at t=0; the whole-burst
            # drain bounds each request's latency.
            latencies.extend([wall] * len(results))
    record = {
        "workers": workers,
        "bursts": bursts,
        "burst_size": burst_size,
        "drain_seconds": _percentiles(np.array(drains)),
        "burst_rps": burst_size / float(np.median(drains)),
    }
    print(
        f"burst[{workers}w x {bursts}]: median drain "
        f"{1e3 * float(np.median(drains)):.2f}ms "
        f"({record['burst_rps']:,.0f} req/s inside a burst)"
    )
    return record


def slow_clients_phase(epochs, workers: int, requests: int) -> Dict:
    """Singleton round-trips: the per-request transport floor."""
    latencies = []
    with _shard(workers) as shard:
        shard.solve_many(epochs[: 4 * BATCH_SIZE])  # warm
        for index in range(requests):
            epoch = epochs[index % len(epochs)]
            started = time.monotonic()
            shard.solve_many([epoch])
            latencies.append(time.monotonic() - started)
            time.sleep(0.001)  # a trickling client, not a tight loop
    record = {
        "workers": workers,
        "requests": requests,
        "latency_seconds": _percentiles(np.array(latencies)),
    }
    print(
        f"slow_clients[{workers}w]: p50 "
        f"{1e3 * record['latency_seconds']['p50']:.3f}ms singleton round-trip"
    )
    return record


def load_service_baseline() -> Optional[Dict]:
    path = os.path.join(os.path.dirname(__file__), "..", "BENCH_service.json")
    try:
        with open(path) as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        return None
    arm = document.get("service_batched")
    if not isinstance(arm, dict):
        return None
    return {
        "requests_per_second": arm.get("requests_per_second"),
        "latency_p99_seconds": (arm.get("latency_seconds") or {}).get("p99"),
    }


def evaluate_gates(
    document: Dict,
    cores: int,
    min_transport_efficiency: float,
    min_two_worker_scaling: float,
    min_fleet_speedup: float,
    max_p99_ratio: float,
) -> List[Dict]:
    """Every gate, with machine-honest skips recorded, never elided."""
    gates: List[Dict] = []
    capacity = document["capacity"]
    baseline = document.get("service_baseline")

    one = capacity["1"]["requests_per_second"]
    inline = capacity["inline"]["requests_per_second"]
    gates.append(
        {
            "name": "transport_efficiency",
            "description": (
                "1-worker throughput vs the inline single-process "
                "ceiling: what the shm transport + supervision cost"
            ),
            "required_min": min_transport_efficiency,
            "actual": one / inline,
            "status": (
                "passed" if one / inline >= min_transport_efficiency else "failed"
            ),
        }
    )

    two_scaling = capacity["2"]["requests_per_second"] / one
    gate = {
        "name": "two_worker_scaling",
        "description": "2-worker vs 1-worker throughput",
        "required_min": min_two_worker_scaling,
        "actual": two_scaling,
    }
    if cores < 2:
        gate["status"] = "skipped"
        gate["reason"] = f"{cores} effective core(s); scaling needs >= 2"
    else:
        gate["status"] = (
            "passed" if two_scaling >= min_two_worker_scaling else "failed"
        )
    gates.append(gate)

    four = capacity["4"]["requests_per_second"]
    gate = {
        "name": "fleet_vs_asyncio_baseline",
        "description": (
            "4-worker aggregate throughput vs the committed asyncio "
            "service baseline (BENCH_service.json service_batched)"
        ),
        "required_min": min_fleet_speedup,
    }
    if baseline is None or not baseline.get("requests_per_second"):
        gate["status"] = "skipped"
        gate["reason"] = "no committed BENCH_service.json baseline"
    else:
        gate["actual"] = four / baseline["requests_per_second"]
        if cores < 4:
            gate["status"] = "skipped"
            gate["reason"] = f"{cores} effective core(s); fleet gate needs >= 4"
        else:
            gate["status"] = (
                "passed" if gate["actual"] >= min_fleet_speedup else "failed"
            )
    gates.append(gate)

    p99 = document["poisson"]["latency_seconds"]["p99"]
    gate = {
        "name": "poisson_p99_vs_baseline",
        "description": (
            "Poisson-load p99 latency vs the committed asyncio "
            "baseline p99, as a ratio"
        ),
        "required_max": max_p99_ratio,
    }
    if baseline is None or not baseline.get("latency_p99_seconds"):
        gate["status"] = "skipped"
        gate["reason"] = "no committed BENCH_service.json baseline"
    else:
        gate["actual"] = p99 / baseline["latency_p99_seconds"]
        gate["status"] = "passed" if gate["actual"] <= max_p99_ratio else "failed"
    gates.append(gate)
    return gates


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI mode: smaller stream, fewer repeats (~30s)",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(__file__), "..", "BENCH_shard.json"
        ),
        help="result JSON path",
    )
    parser.add_argument(
        "--min-transport-efficiency",
        type=float,
        default=0.5,
        help="gate: 1-worker rps / inline rps",
    )
    parser.add_argument(
        "--min-two-worker-scaling",
        type=float,
        default=1.6,
        help="gate (cores >= 2): 2-worker rps / 1-worker rps",
    )
    parser.add_argument(
        "--min-fleet-speedup",
        type=float,
        default=3.0,
        help="gate (cores >= 4): 4-worker rps / asyncio baseline rps",
    )
    parser.add_argument(
        "--max-p99-ratio",
        type=float,
        default=1.5,
        help="gate: poisson p99 / asyncio baseline p99",
    )
    args = parser.parse_args(argv)

    requests = 1000 if args.quick else 4000
    repeats = 2 if args.quick else 3
    bursts = 3 if args.quick else 6
    slow_requests = 30 if args.quick else 100
    epochs = synthetic_stream(requests)
    cores = effective_cores()
    print(
        f"bench_shard: {requests} requests, {cores} effective core(s), "
        f"batch {BATCH_SIZE}"
    )

    document: Dict = {
        "config": {
            "requests": requests,
            "repeats": repeats,
            "batch_size": BATCH_SIZE,
            "algorithm": "dlg",
            "effective_cores": cores,
            "cpu_count": os.cpu_count(),
            "quick": bool(args.quick),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "service_baseline": load_service_baseline(),
    }
    document["capacity"] = capacity_phase(epochs, repeats)
    # Offer half the measured 1-worker capacity: a loaded-but-stable
    # operating point where queueing is real and p99 is meaningful.
    offered = 0.5 * document["capacity"]["1"]["requests_per_second"]
    document["poisson"] = poisson_phase(
        epochs, workers=min(2, max(1, cores)), rate_rps=offered, seed=7
    )
    document["burst"] = burst_phase(
        epochs, workers=min(2, max(1, cores)), bursts=bursts, idle_seconds=0.05
    )
    document["slow_clients"] = slow_clients_phase(
        epochs, workers=1, requests=slow_requests
    )
    document["gates"] = evaluate_gates(
        document,
        cores,
        args.min_transport_efficiency,
        args.min_two_worker_scaling,
        args.min_fleet_speedup,
        args.max_p99_ratio,
    )

    out = os.path.abspath(args.out)
    with open(out, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out}")

    failed = [gate for gate in document["gates"] if gate["status"] == "failed"]
    for gate in document["gates"]:
        detail = (
            f"actual {gate['actual']:.3f}" if "actual" in gate else ""
        )
        reason = f" ({gate['reason']})" if "reason" in gate else ""
        print(f"gate {gate['name']}: {gate['status']} {detail}{reason}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
