#!/usr/bin/env python3
"""Layer-ledger benchmark: where a served fix's time goes.

Run from the repository root::

    python3 layerbench/run.py --workload serve-gps --seed 1 --seconds 30 --trace 0

Workloads (see ``layerbench/README.md`` for why each exists):

* ``serve-gps`` -- 128 closed-loop clients, plain GPS DLG, fixed bias;
* ``serve-integrity`` -- the same loop over one G+E receiver's 1 Hz
  stream with FDE, health, monitors, trace, recorder, SLO and metrics;
* ``replay-shard`` -- successive ``solve_many`` calls into a one-worker
  ``ShardedPositioningService`` over the simulated SRZN stream.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
same workload with alternating untraced and traced slices and reports
the per-layer ledger.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is a JSON report with the input digest, the p99 latency and
its sample count, the host-speed probe, the host factors the timings
were scaled by and the figures before that scaling, and the CPUs'
steal time.  End-to-end timings are scaled to a reference host speed
by a probe timed between ~1 s segments of the window (see
``layerbench/README.md``).  Exit codes: 0 ok, 1 a request was not
served correctly, 2 the program could not be imported, 3 the run was
too short for p99, 4 the program outran the request ledger (see
``TOP_RATE``).
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Closed-loop clients: twice the flush size keeps one flush queued
#: behind the one being solved, so every flush is full.
CLIENTS = 128
MAX_BATCH = 64
#: Epochs per replay request (two shard batches of 64).
CALL_EPOCHS = 128
#: Fresh service constructions per run; ``setup_s`` is their median.
SETUPS = 11
WARMUP_SECONDS = 2.0
#: Traced runs alternate untraced and traced slices of the window.
TRACE_SLICES = 8
#: Longest stretch of load between two host-speed probes.  The window
#: is cut into segments of about this length; the load pauses after
#: each one while the probe times the host.
SEGMENT_SECONDS = 1.0
#: Fixes per second the request ledger is sized for, about three times
#: the fastest unscaled rate seen (replay-shard, 45k fixes/s while the
#: host ran 2.5x faster than the reference).  A faster program stops
#: the run with exit code 4 instead of overrunning the ledger.
TOP_RATE = 150_000
#: A segment in which the hypervisor took more than this share of any
#: CPU's time measures the machine's other tenants, not the program;
#: the end-to-end medians leave such segments out.
STEAL_LIMIT = 0.10
#: Fewest segments those medians are taken over: with fewer clean ones,
#: every segment counts (the report gives how many were used).
MIN_CLEAN_SLICES = 8

PHASE_WARMUP, PHASE_UNTRACED, PHASE_TRACED = 0, 1, 2


def _import_program():
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        sys.stderr.write(f"layerbench: no program source under {source}\n")
        sys.exit(2)
    sys.path[:0] = [source, HERE]


class LedgerFull(RuntimeError):
    """The program served more requests than the ledger was sized for."""


class Book:
    """Per-request outcome columns, indexed by request number.

    Code 0 means "not set".  The ledger is sized once, for a run of the
    given length at :data:`TOP_RATE`, and written in full by
    :meth:`touch` once the measured service is running.  Its resident
    size is then fixed and known (:attr:`nbytes`), so ``peak_rss_mb``
    can leave it out, and a shard worker forked before then has none of
    it resident.  Columns are float32: ``done`` counts seconds since
    :attr:`origin`, and a fix is kept as its offset from the reference
    fix, which still tells apart two fixes one ulp apart.
    """

    COLUMNS = (
        ("phase", np.int8),
        ("status", np.int8),
        ("rung", np.int8),
        ("verdict", np.int8),
        ("excluded", np.int16),
        ("severity", np.int8),
        ("latency", np.float32),
        ("done", np.float32),
        ("wait", np.float32),
        ("offset", np.float32),
    )

    def __init__(self, seconds: float, reference: np.ndarray) -> None:
        from repro.integrity.monitors import SEVERITY_NAMES
        from repro.service.types import RESULT_STATUSES

        self.capacity = int((WARMUP_SECONDS + seconds + 2.0) * TOP_RATE)
        for name, dtype in self.COLUMNS:
            shape = (self.capacity, 3) if name == "offset" else (self.capacity,)
            setattr(self, name, np.zeros(shape, dtype))
        self.nbytes = sum(getattr(self, name).nbytes for name, _dtype in self.COLUMNS)
        self.reference = reference
        self.origin = time.perf_counter()
        self.status_codes = {name: i + 1 for i, name in enumerate(RESULT_STATUSES)}
        self.verdict_codes = {name: i + 1 for i, name in enumerate(("passed", "repaired", "unusable", "unchecked"))}
        self.severity_codes = {name: i for i, name in enumerate(SEVERITY_NAMES)}
        self.rung_codes: Dict[str, int] = {}

    def touch(self) -> None:
        for name, _dtype in self.COLUMNS:
            getattr(self, name).fill(np.nan if name == "offset" else 0)

    def note(self, k: int, done: float, latency: float, result, phase: int) -> None:
        if k >= self.capacity:
            raise LedgerFull(f"request {k} is beyond the ledger's {self.capacity} rows; raise TOP_RATE")
        self.phase[k] = phase
        self.done[k] = done - self.origin
        self.latency[k] = latency
        self.status[k] = self.status_codes[result.status]
        if result.position is not None:
            self.offset[k] = result.position - self.reference[k % len(self.reference)]
        solver = result.solver
        if solver is not None:
            code = self.rung_codes.get(solver)
            if code is None:
                code = 3 if solver.endswith("/nr-fallback") else 2 if solver.endswith("/scalar") else 1
                self.rung_codes[solver] = code
            self.rung[k] = code
        verdict = result.integrity
        if verdict is not None:
            self.verdict[k] = self.verdict_codes[verdict.status]
            if verdict.excluded_prn is not None:
                self.excluded[k] = verdict.excluded_prn
        if result.monitor is not None:
            self.severity[k] = self.severity_codes[result.monitor.severity]
        if result.dispatched_at is not None:
            self.wait[k] = result.dispatched_at - result.enqueued_at


def service_config(workload: str):
    from repro.api import SolverConfig
    from repro.integrity.fde import FdeConfig
    from repro.integrity.health import HealthConfig
    from repro.integrity.monitors import MonitorConfig
    from repro.service import ServiceConfig
    from repro.telemetry.recorder import RecorderConfig
    from repro.telemetry.slo import SloConfig

    import inputs

    if workload == "serve-gps":
        return ServiceConfig(
            solver=SolverConfig(algorithm="dlg", clock_bias_meters=inputs.GPS_BIAS_METERS),
            max_batch_size=MAX_BATCH,
        )
    if workload == "serve-integrity":
        return ServiceConfig(
            solver=inputs.integrity_config(),
            max_batch_size=MAX_BATCH,
            integrity=FdeConfig(),
            health=HealthConfig(),
            monitors=MonitorConfig(),
            trace=True,
            recorder=RecorderConfig(),
            slo=SloConfig(),
        )
    return ServiceConfig(solver=SolverConfig(algorithm="dlg"), max_batch_size=MAX_BATCH)


class TraceWindow:
    """Switches the ledger on for traced slices and sums their deltas."""

    def __init__(self, registry, patches: List, own_registry: bool) -> None:
        self.registry = registry
        self.patches = patches
        self.own_registry = own_registry
        self.wall = {PHASE_UNTRACED: 0.0, PHASE_TRACED: 0.0}
        self.deltas: Dict = {}
        self._before = None
        self._applied = None

    def begin(self) -> None:
        from repro import telemetry

        import ledger

        if self.own_registry:
            telemetry.install(self.registry, telemetry.NULL_TRACER)
        self._applied = ledger.applied(self.patches)
        ledger.StepClock.enabled = True
        self._before = flatten(self.registry.snapshot())

    def end(self) -> None:
        from repro import telemetry

        import ledger

        ledger.StepClock.enabled = False
        ledger.StepClock.flush()
        after = flatten(self.registry.snapshot())
        for key, value in after.items():
            self.deltas[key] = self.deltas.get(key, 0.0) + value - self._before.get(key, 0.0)
        self._applied.close()
        if self.own_registry:
            telemetry.uninstall()


def flatten(snapshot: Dict) -> Dict:
    """``{(metric, labels, field): value}`` for every sample."""
    flat = {}
    for name, metric in snapshot.items():
        for sample in metric["samples"]:
            labels = tuple(sorted(sample["labels"].items()))
            if metric["kind"] == "histogram":
                flat[(name, labels, "sum")] = float(sample["sum"])
                flat[(name, labels, "count")] = float(sample["count"])
            else:
                flat[(name, labels, "value")] = float(sample["value"])
    return flat


def metric_total(flat: Dict, name: str, field: str = "value", **labels) -> float:
    wanted = set(labels.items())
    return sum(v for (n, lab, f), v in flat.items() if n == name and f == field and wanted <= set(lab))


def tick() -> tuple:
    """``(wall, load-process CPU, per-CPU steal)`` at a segment boundary."""
    import stats

    return time.perf_counter(), time.process_time(), stats.host_steal_seconds()


def slice_plan(seconds: float, traced: bool) -> List[tuple]:
    if not traced:
        return [(PHASE_UNTRACED, seconds)]
    return [(PHASE_TRACED if i % 2 else PHASE_UNTRACED, seconds / TRACE_SLICES) for i in range(TRACE_SLICES)]


def segment_plan(length: float) -> List[float]:
    """``length`` seconds cut into equal segments of at most
    :data:`SEGMENT_SECONDS`."""
    count = max(1, int(np.ceil(length / SEGMENT_SECONDS - 1e-9)))
    return [length / count] * count


class HostProbe:
    """Times the host-speed probe on the load process's CPU and, with a
    helper process, on a second CPU at the same moment.  A call returns
    the probe times (ms), the load process's CPU first.  Build it before
    the workload's inputs."""

    def __init__(self, second_cpu: bool) -> None:
        import stats

        self.helper = stats.ProbeHelper() if second_cpu else None

    def __call__(self) -> tuple:
        import stats

        if self.helper is None:
            return (stats.probe_ms(),)
        self.helper.start()
        own = stats.probe_ms()
        return own, self.helper.result()

    def close(self) -> None:
        if self.helper is not None:
            self.helper.close()


# -- serve workloads ----------------------------------------------------


async def run_serve(workload: str, stream, book: Book, seconds: float, traced: bool, probe) -> Dict:
    from repro import telemetry
    from repro.service import PositioningService

    import ledger

    loop = asyncio.get_running_loop()
    if traced:
        # The service's worker task is created under the step-timing
        # factory and keeps it for life (a few steps per flush).  The
        # clients are re-created for every segment, under the factory
        # only in traced slices, so untraced slices carry no per-step
        # timing.
        loop.set_task_factory(ledger.task_factory)
    config = service_config(workload)
    registry = telemetry.MetricsRegistry()
    if workload == "serve-integrity":
        telemetry.install(registry, telemetry.NULL_TRACER)

    setups = []
    for index in range(SETUPS):
        started = time.perf_counter()
        service = PositioningService(config)
        await service.start()
        first = await service.submit(stream.epoch(0))
        setups.append(time.perf_counter() - started)
        if index < SETUPS - 1:
            await service.stop()
    book.touch()
    book.note(0, time.perf_counter(), setups[-1], first, PHASE_WARMUP)

    state = {"next": 1, "phase": PHASE_WARMUP, "stop": False}
    clients: List[asyncio.Task] = []

    async def client() -> None:
        perf = time.perf_counter
        while not state["stop"]:
            k = state["next"]
            state["next"] = k + 1
            phase = state["phase"]
            epoch = stream.epoch(k)
            started = perf()
            result = await service.submit(epoch)
            done = perf()
            book.note(k, done, done - started, result, phase)

    def start_clients(factory) -> None:
        loop.set_task_factory(factory)
        state["stop"] = False
        clients[:] = [loop.create_task(client()) for _ in range(CLIENTS)]

    async def stop_clients() -> None:
        """Let every client finish its request in flight, then end."""
        state["stop"] = True
        await asyncio.gather(*clients)

    window = TraceWindow(registry, ledger.serve_patches(service), workload != "serve-integrity")
    start_clients(None)
    await asyncio.sleep(WARMUP_SECONDS)
    await stop_clients()
    first_k = state["next"]
    segments = []
    for phase, length in slice_plan(seconds, traced):
        if phase == PHASE_TRACED:
            window.begin()
        state["phase"] = phase
        for part in segment_plan(length):
            before = tick()
            start_clients(ledger.task_factory if phase == PHASE_TRACED else None)
            await asyncio.sleep(part)
            await stop_clients()
            after = tick()
            window.wall[phase] += after[0] - before[0]
            # No request is in flight while the probe blocks the loop.
            segments.append((before, after, probe()))
        if phase == PHASE_TRACED:
            window.end()
    last_k = state["next"]
    await service.stop()
    telemetry.uninstall()
    loop.set_task_factory(None)
    return {
        "setups": setups,
        "first_k": first_k,
        "last_k": last_k,
        "segments": segments,
        "worker_cpu_seconds": 0.0,
        "latency_samples": None,
        "window": window,
    }


# -- replay workload ----------------------------------------------------


def pin_router_and_worker(probe: HostProbe) -> None:
    """Give the router and the shard worker a CPU each, when there are two.

    Left to the scheduler, the pair sometimes shares one CPU for a whole
    run, which costs a third of the throughput and splits the runs into
    two modes.  The probe's helper goes with the worker, so it times the
    worker's CPU.
    """
    import multiprocessing

    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return
    os.sched_setaffinity(0, {cpus[0]})
    for child in multiprocessing.active_children():
        os.sched_setaffinity(child.pid, {cpus[1]})
    if probe.helper is not None:
        os.sched_setaffinity(probe.helper.pid, {cpus[1]})


def run_replay(stream, book: Book, seconds: float, traced: bool, probe: HostProbe) -> Dict:
    from repro import telemetry
    from repro.service import ShardConfig, ShardedPositioningService

    import ledger

    config = ShardConfig(service=service_config("replay-shard"), workers=1, batch_size=MAX_BATCH)
    setups = []
    for index in range(SETUPS):
        children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
        started = time.perf_counter()
        shard = ShardedPositioningService(config)
        shard.start()
        first = shard.solve_many([stream.epoch(0)], bias_meters=[stream.bias(0)])[0]
        setups.append(time.perf_counter() - started)
        if index < SETUPS - 1:
            shard.stop()
    shards = {PHASE_UNTRACED: shard, PHASE_TRACED: shard}
    if traced:
        # Traced slices go to a second worker, forked with the
        # worker-side spans in place; the untraced slices' worker runs
        # without them.
        with ledger.applied(ledger.worker_patches()):
            shards[PHASE_TRACED] = ShardedPositioningService(config)
            shards[PHASE_TRACED].start()
    pin_router_and_worker(probe)
    book.touch()
    book.note(0, time.perf_counter(), setups[-1], first, PHASE_WARMUP)

    registry = telemetry.MetricsRegistry()
    window = TraceWindow(registry, ledger.router_patches(), True)
    call_latency: Dict[int, List[float]] = {PHASE_UNTRACED: [], PHASE_TRACED: []}
    traced_calls = {"wall": 0.0, "cpu": 0.0}
    biases = stream.biases
    pool = len(stream)
    k = 1

    def call(phase: int, target) -> None:
        nonlocal k
        epochs = [stream.epoch(k + i) for i in range(CALL_EPOCHS)]
        overrides = biases[np.arange(k, k + CALL_EPOCHS) % pool].tolist()
        cpu = time.thread_time()
        started = time.perf_counter()
        results = target.solve_many(epochs, bias_meters=overrides)
        done = time.perf_counter()
        elapsed = done - started
        if phase == PHASE_TRACED:
            traced_calls["wall"] += elapsed
            traced_calls["cpu"] += time.thread_time() - cpu
        if phase != PHASE_WARMUP:
            call_latency[phase].append(elapsed)
        for i, result in enumerate(results):
            book.note(k + i, done, elapsed, result, phase)
        k += CALL_EPOCHS

    try:
        deadline = time.perf_counter() + WARMUP_SECONDS
        while time.perf_counter() < deadline:
            for target in {id(s): s for s in shards.values()}.values():
                call(PHASE_WARMUP, target)
        first_k = k
        segments = []
        for phase, length in slice_plan(seconds, traced):
            if phase == PHASE_TRACED:
                window.begin()
            for part in segment_plan(length):
                before = tick()
                while time.perf_counter() - before[0] < part:
                    call(phase, shards[phase])
                after = tick()
                window.wall[phase] += after[0] - before[0]
                segments.append((before, after, probe()))
            if phase == PHASE_TRACED:
                window.end()
        last_k = k
        worker_flat = {}
        if traced:
            for worker_registry in shards[PHASE_TRACED].worker_registries():
                for key, value in flatten(worker_registry.snapshot()).items():
                    worker_flat[key] = worker_flat.get(key, 0.0) + value
    finally:
        for target in shards.values():
            if target.running:
                target.stop()
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    worker_cpu = (children_after.ru_utime + children_after.ru_stime) - (
        children_before.ru_utime + children_before.ru_stime
    )
    return {
        "setups": setups,
        "first_k": first_k,
        "last_k": last_k,
        "segments": segments,
        "worker_cpu_seconds": worker_cpu,
        "latency_samples": call_latency,
        "window": window,
        "worker_flat": worker_flat,
        "traced_calls": traced_calls,
    }


# -- accounting ---------------------------------------------------------


def check(stream, book: Book, last_k: int) -> np.ndarray:
    """Mask over requests ``0..last_k-1`` of those served correctly.

    Every workload's inputs are servable, so a request is correct only
    if it came back ``ok`` with a fix equal to the reference solve and,
    on serve-integrity, with the verdict its epoch calls for:
    ``repaired`` naming the spiked satellite on a spiked epoch,
    ``passed`` on every other.  Anything else is a correctness failure,
    a refused, failed or unrepaired request as much as a wrong fix.
    """
    import stats

    correct = book.status[:last_k] == book.status_codes["ok"]
    correct &= ~stats.wrong_offsets(book.offset[:last_k])
    if stream.name == "serve-integrity":
        spiked = stream.spiked_prn[np.arange(last_k) % len(stream)]
        repaired = (book.verdict[:last_k] == book.verdict_codes["repaired"]) & (book.excluded[:last_k] == spiked)
        passed = book.verdict[:last_k] == book.verdict_codes["passed"]
        correct &= np.where(spiked >= 0, repaired, passed)
    return correct


def per_segment(book: Book, run: Dict, ok) -> tuple:
    """``(throughput, p50_ms, cpu_ms_per_kfix)`` of each ~1 s segment of
    the window, the host factors of the probe that followed it (the load
    process's CPU, then the shard worker's; the same twice without a
    worker), and the largest share of the segment any CPU lost to steal.

    The host's speed drifts over seconds, so each end-to-end figure is
    the median over these segments rather than one average over the run.
    CPU here is the load process's own; a shard worker's CPU is added
    as its whole-life average by :func:`end_to_end`.
    """
    import stats

    first, last = run["first_k"], run["last_k"]
    done = book.done[first:last]
    good = ok[first:last]
    latency = book.latency[first:last]
    rows, factors, stolen = [], [], []
    for (t0, cpu0, steal0), (t1, cpu1, steal1), probe in run["segments"]:
        inside = (done >= t0 - book.origin) & (done <= t1 - book.origin)
        served = int((inside & good).sum())
        if served:
            rows.append((served / (t1 - t0), float(np.median(latency[inside])) * 1e3, (cpu1 - cpu0) * 1e6 / served))
            factors.append([stats.host_factor(probe[0]), stats.host_factor(probe[-1])])
            stolen.append(0.0 if steal0 is None else max(b - a for a, b in zip(steal0, steal1)) / (t1 - t0))
    return np.array(rows), np.array(factors), np.array(stolen)


def peak_rss_mb(book: Book) -> float:
    """Peak RSS (MiB) of the load process less the ledger, plus the
    largest shard worker's.  Taken as the run ends, before the
    benchmark's own checks allocate anything."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024.0 - book.nbytes
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024.0
    return (own + workers) / 2**20


def end_to_end(stream, book: Book, run: Dict, ok) -> tuple:
    """The gated end-to-end metrics, and for the report the p99 latency
    with its sample count and the figures before host scaling.

    Each segment's timings are scaled by the host factors of the probe
    that followed it, so a run made while the machine was slow reads
    like one made at the reference speed.  The load process's CPU time
    is scaled by its own CPU's factor and the shard worker's by the
    worker CPU's; a wall-clock figure by the mean of the two, weighted
    by the CPU time each process spent per fix.  ``setup_s`` is not
    scaled: the few milliseconds of a set-up did not follow the probe
    when the host's speed changed.  p99 is reported, not gated: on
    replay-shard it is the latency of the few calls a burst of the
    host's contention catches, and how many it catches varies from run
    to run far beyond any usable bound.
    """
    import stats

    first, last = run["first_k"], run["last_k"]
    if run["latency_samples"] is None:
        latencies = book.latency[first:last].astype(float)
    else:
        latencies = np.asarray(run["latency_samples"][PHASE_UNTRACED])
    rows, factors, stolen = per_segment(book, run, ok)
    clean = stolen <= STEAL_LIMIT
    if clean.sum() < MIN_CLEAN_SLICES:
        clean[:] = True
    rows, factors = rows[clean], factors[clean]
    raw = np.median(rows, axis=0)
    worker_ms_per_kfix = run["worker_cpu_seconds"] * 1e6 / int(ok[:last].sum())
    load_share = raw[2] / (raw[2] + worker_ms_per_kfix)
    weights = [load_share, 1.0 - load_share]
    wall_factor = factors @ weights
    worker_factor = float(np.median(factors[:, 1]))
    values = {
        "throughput_fix_per_s": (np.median(rows[:, 0] * wall_factor), "fix/s"),
        "latency_p50_ms": (np.median(rows[:, 1] / wall_factor), "ms"),
        "cpu_ms_per_kfix": (np.median(rows[:, 2] / factors[:, 0]) + worker_ms_per_kfix / worker_factor, "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(run["setups"]), "s"),
    }
    metrics = {name: {"value": float(value), "unit": unit} for name, (value, unit) in values.items()}
    tail = {
        "latency_p99_ms": stats.sliced_tail_percentile(latencies * 1e3, 99.0),
        "latency_samples": len(latencies),
        "slices_used": int(clean.sum()),
        "slices": int(clean.size),
        "host_factor": {"window": float(np.median(wall_factor)), "worker": worker_factor},
        "unscaled": {
            "throughput_fix_per_s": float(raw[0]),
            "latency_p50_ms": float(raw[1]),
            "cpu_ms_per_kfix": float(raw[2] + worker_ms_per_kfix),
        },
    }
    return metrics, tail


def per_layer(workload: str, book: Book, run: Dict, ok) -> Dict:
    import ledger

    window = run["window"]
    flat = window.deltas
    spans = ledger.spans(flat)
    # Shard workers run the engine and executor; their counters cover
    # the worker's life, which per-fix ratios do not mind.
    engine_flat = run["worker_flat"] if workload == "replay-shard" else flat
    worker_spans = ledger.spans(engine_flat)

    executor_fixes = max(1.0, worker_spans["executor.execute"]["fixes"])

    def worker_us(span):
        return worker_spans[span]["seconds"] * 1e6 / executor_fixes

    first, last = run["first_k"], run["last_k"]
    traced = book.phase[first:last] == PHASE_TRACED
    traced_ok = ok[first:last] & traced
    rung = book.rung[first:last][traced_ok]
    served_traced = max(1, int(traced_ok.sum()))
    verdicts = book.verdict[first:last][traced]
    severities = book.severity[first:last][traced]
    statuses = book.status[first:last]

    def verdict_count(name):
        return int((verdicts == book.verdict_codes[name]).sum())

    repaired, unusable = verdict_count("repaired"), verdict_count("unusable")
    wall = window.wall
    untraced_ok = ok[first:last] & (book.phase[first:last] == PHASE_UNTRACED)
    throughput_untraced = untraced_ok.sum() / max(wall[PHASE_UNTRACED], 1e-9)
    throughput_traced = traced_ok.sum() / max(wall[PHASE_TRACED], 1e-9)

    executor_us = worker_us("executor.execute")
    engine_us = worker_us("engine.solve_stream")
    monitors_us = worker_us("integrity.monitors")
    pack_router = workload == "replay-shard"
    pack_fixes = max(1.0, spans["blocks.pack"]["fixes"])
    pack_us = spans["blocks.pack"]["seconds"] * 1e6 / pack_fixes
    buckets = metric_total(engine_flat, "repro_engine_bucket_size", "count")
    streams = metric_total(engine_flat, "repro_engine_streams_total")
    bucket_rows = metric_total(engine_flat, "repro_engine_bucket_size", "sum")
    values = {}
    if workload == "replay-shard":
        calls = run["traced_calls"]
        fixes = max(1.0, spans["shard.read_response"]["fixes"])
        wait = calls["wall"] - calls["cpu"]
        bench = wall[PHASE_TRACED] - calls["wall"]
        covered = spans["blocks.pack"]["seconds"] + spans["shard.write_request"]["seconds"] + spans["shard.read_response"]["seconds"] + wait + bench
        values.update(
            {
                "shard.write_request_us_per_fix": (spans["shard.write_request"]["seconds"] * 1e6 / fixes, "us"),
                "shard.read_response_us_per_fix": (spans["shard.read_response"]["seconds"] * 1e6 / fixes, "us"),
                "shard.worker_execute_us_per_fix": (
                    worker_us("shard.read_request") + executor_us + worker_us("shard.write_response"),
                    "us",
                ),
                "shard.router_wait_share": (wait / max(calls["wall"], 1e-9), "share"),
                "bench.ledger_coverage_share": (covered / max(wall[PHASE_TRACED], 1e-9), "share"),
            }
        )
        front_end = 0.0
    else:
        fixes = executor_fixes
        layered = spans["executor.execute"]["seconds"] + spans["telemetry.recorder"]["seconds"] + spans["telemetry.slo"]["seconds"]
        front_end = spans["service.worker_task"]["seconds"] + spans["service.submit"]["seconds"] - layered
        covered = spans["service.worker_task"]["seconds"] + spans["bench.client_task"]["seconds"]
        values.update(
            {
                "shard.write_request_us_per_fix": (0.0, "us"),
                "shard.read_response_us_per_fix": (0.0, "us"),
                "shard.worker_execute_us_per_fix": (0.0, "us"),
                "shard.router_wait_share": (0.0, "share"),
                "bench.ledger_coverage_share": (covered / max(wall[PHASE_TRACED], 1e-9), "share"),
            }
        )
    waits = book.wait[first:last][traced_ok]
    serve = workload != "replay-shard"
    values.update(
        {
            "service.self_us_per_fix": (front_end * 1e6 / fixes, "us"),
            "service.queue_wait_ms_p50": (float(np.median(waits)) * 1e3 if serve and len(waits) else 0.0, "ms"),
            "service.batch_size_mean": (
                metric_total(flat, "repro_service_batch_size", "sum") / max(1.0, metric_total(flat, "repro_service_batch_size", "count")),
                "count",
            ),
            "service.flushes_full": (metric_total(flat, "repro_service_batches_total", reason="full"), "count"),
            "service.flushes_deadline": (metric_total(flat, "repro_service_batches_total", reason="deadline"), "count"),
            "service.rejected": (int((statuses == book.status_codes["rejected"]).sum()), "count"),
            "executor.us_per_fix": (executor_us, "us"),
            "executor.self_us_per_fix": (executor_us - engine_us - monitors_us - (0.0 if pack_router else pack_us), "us"),
            "executor.rung_batch_share": (float((rung == 1).sum()) / served_traced, "share"),
            "executor.rung_scalar_share": (float((rung == 2).sum()) / served_traced, "share"),
            "executor.rung_nr_share": (float((rung == 3).sum()) / served_traced, "share"),
            "blocks.pack_us_per_fix": (pack_us, "us"),
            "engine.us_per_fix": (engine_us, "us"),
            "engine.validate_us_per_fix": (worker_us("engine.stage.validate"), "us"),
            "engine.scatter_us_per_fix": (worker_us("engine.stage.scatter"), "us"),
            "engine.buckets_per_flush": (buckets / max(1.0, streams), "count"),
            "engine.rows_per_bucket_mean": (bucket_rows / max(1.0, buckets), "count"),
            "kernel.solve_us_per_fix": (worker_us("engine.stage.solve"), "us"),
            "integrity.fde_us_per_fix": (worker_us("engine.stage.fde"), "us"),
            "integrity.monitors_us_per_fix": (monitors_us, "us"),
            "integrity.passed": (verdict_count("passed"), "count"),
            "integrity.repaired": (repaired, "count"),
            "integrity.unusable": (unusable, "count"),
            "integrity.unchecked": (verdict_count("unchecked"), "count"),
            "integrity.monitor_suspect": (int((severities == book.severity_codes["suspect"]).sum()), "count"),
            "integrity.monitor_spoofed": (int((severities == book.severity_codes["spoofed"]).sum()), "count"),
            "integrity.preexclusions": (metric_total(flat, "repro_service_integrity_preexclusions_total"), "count"),
            "integrity.repaired_per_detection": (repaired / max(1, repaired + unusable), "share"),
            "telemetry.recorder_us_per_fix": (spans["telemetry.recorder"]["seconds"] * 1e6 / fixes, "us"),
            "telemetry.slo_us_per_fix": (spans["telemetry.slo"]["seconds"] * 1e6 / fixes, "us"),
            "shard.retryable": (int((statuses == book.status_codes["retryable"]).sum()), "count"),
            "bench.tracing_overhead_share": (1.0 - throughput_traced / max(throughput_untraced, 1e-9), "share"),
        }
    )
    return {name: {"value": float(value), "unit": unit} for name, (value, unit) in values.items()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("serve-gps", "serve-integrity", "replay-shard"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()

    import stats

    # replay-shard keeps two CPUs busy, so its probe times both.
    probe = HostProbe(second_cpu=args.workload == "replay-shard")
    try:
        probe_before = probe()
        steal_before = stats.host_steal_seconds()

        import inputs

        stream = inputs.build_stream(args.workload, args.seed)
        digest = stream.digest()
        book = Book(args.seconds, stream.reference)
        # The input pool is benchmark data the collector need never rescan.
        gc.collect()
        gc.freeze()
        traced = bool(args.trace)
        try:
            if args.workload == "replay-shard":
                run = run_replay(stream, book, args.seconds, traced, probe)
            else:
                run = asyncio.run(run_serve(args.workload, stream, book, args.seconds, traced, probe))
        except LedgerFull as error:
            sys.stderr.write(f"layerbench: {error}\n")
            return 4
        run["peak_rss_mb"] = peak_rss_mb(book)
        probe_after = probe()
        steal_after = stats.host_steal_seconds()
    finally:
        probe.close()
    steal = None if steal_before is None else [after - before for before, after in zip(steal_before, steal_after)]

    first, last = run["first_k"], run["last_k"]
    ok = check(stream, book, last)
    attempted = last - first
    failed = attempted - int(ok[first:last].sum())
    try:
        if traced:
            metrics, tail = per_layer(args.workload, book, run, ok), {}
        else:
            metrics, tail = end_to_end(stream, book, run, ok)
    except stats.TooFewSamples as error:
        sys.stderr.write(f"layerbench: {error}\n")
        return 3
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "input_digest": digest,
        **tail,
        "served_window": attempted - failed,
        "incorrect_requests": int((~ok).sum()),
        "host_probe_ms": {"before": probe_before, "after": probe_after},
        "host_steal_s": steal,
        "setup_samples_s": run["setups"],
    }
    print(json.dumps({"report": report}))
    correct = bool(ok.all())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
