"""Command-line interface: ``repro-gps``.

Subcommands:

* ``stations`` — print the Table 5.1 station catalog.
* ``solve`` — generate a short data set for a station and solve it with
  a chosen algorithm, printing per-epoch errors.
* ``experiment`` — run the Fig. 5.1/5.2 sweep for one or all stations
  and print the rate panels.
* ``export`` — write a station data set as RINEX observation +
  navigation files.
* ``telemetry`` — run an instrumented replay and print or write its
  metrics (Prometheus text or JSON snapshot).
* ``fuzz`` — run seeded differential/metamorphic validation scenarios
  under a time or count budget, persisting failures as replayable
  artifacts (``--replay`` reruns one; ``--fde`` switches to the
  integrity chaos loop that grades the batch FDE gate against
  injected pseudorange spikes).
* ``serve`` — run the async micro-batching positioning service against
  a station's simulated stream of concurrent requests and report
  throughput, batching, and latency percentiles.

``solve`` and ``experiment`` also accept ``--metrics-out PATH`` to
record their telemetry alongside the normal output; the format follows
the extension (``.prom``/``.txt`` for Prometheus text, anything else
for the JSON snapshot).

Exit codes are uniform across subcommands: :data:`EXIT_OK` (0) when
the requested work succeeded, :data:`EXIT_FAILURE` (1) for any
solver/validation/service failure (including :class:`ReproError`
raised anywhere in a handler), and argparse's conventional 2 for
usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import List, Optional

from repro import telemetry

from repro.errors import ConfigurationError, ReproError
from repro.evaluation import (
    ExperimentConfig,
    format_station_report,
    format_table_5_1,
    run_station_experiment,
)
from repro.core import GpsReceiver
from repro.rinex import ObservationHeader, write_navigation_file, write_observation_file
from repro.signals import HatchFilter
from repro.stations import DatasetConfig, ObservationDataset, all_stations, get_station

#: The work succeeded.
EXIT_OK = 0
#: A solver, validation, or service failure (anything a ReproError
#: signals, a fuzz run with unexplained failures, a changed replay
#: verdict, a serve run with failed requests).
EXIT_FAILURE = 1
#: Bad invocation — argparse's own convention, listed for completeness.
EXIT_USAGE = 2


def exit_code(success: bool) -> int:
    """The uniform success/failure mapping every subcommand returns."""
    return EXIT_OK if success else EXIT_FAILURE


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro-gps`` console script."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "stations": _cmd_stations,
        "solve": _cmd_solve,
        "experiment": _cmd_experiment,
        "export": _cmd_export,
        "skyplot": _cmd_skyplot,
        "telemetry": _cmd_telemetry,
        "fuzz": _cmd_fuzz,
        "serve": _cmd_serve,
        "inspect": _cmd_inspect,
    }[args.command]
    try:
        return handler(args)
    except ReproError as exc:
        print(f"repro-gps {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


@contextmanager
def _metrics_sink(path: Optional[str], ensure: bool = False):
    """Scoped telemetry for a subcommand: no-op unless a path is given.

    With a path, installs a fresh registry/tracer for the body and
    writes the snapshot on the way out (format by extension).
    ``ensure`` installs a registry even without a sink path — the
    serve command's status port scrapes the live registry, so arming
    the port must arm collection too or ``/metrics`` serves nothing.
    """
    if not path:
        if ensure:
            with telemetry.capture():
                yield
        else:
            yield
        return
    with telemetry.capture() as (registry, tracer):
        yield
        telemetry.write_snapshot(path, registry, tracer=tracer)
    print(f"wrote telemetry snapshot to {path}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gps",
        description="GPS direct-linearization positioning (ICDCS 2010 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("stations", help="print the Table 5.1 station catalog")

    solve = sub.add_parser("solve", help="solve a simulated data set")
    solve.add_argument("station", help="site id (SRZN, YYR1, FAI1, KYCP)")
    solve.add_argument(
        "--algorithm", default="dlg", choices=["nr", "dlo", "dlg", "bancroft"]
    )
    solve.add_argument("--duration", type=float, default=300.0, help="seconds of data")
    solve.add_argument("--warmup", type=int, default=60, help="NR warm-up epochs")
    solve.add_argument(
        "--smooth",
        action="store_true",
        help="track L1 carrier and Hatch-smooth pseudoranges before solving",
    )
    solve.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="record telemetry for the run (.prom/.txt or .json)",
    )

    experiment = sub.add_parser("experiment", help="run the Fig 5.1/5.2 sweep")
    experiment.add_argument(
        "station", nargs="?", default="all", help="site id or 'all'"
    )
    experiment.add_argument(
        "--duration", type=float, default=4200.0, help="data-set span in seconds"
    )
    experiment.add_argument(
        "--output", default=None, help="also write a markdown report to this path"
    )
    experiment.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="record telemetry for the sweep (.prom/.txt or .json)",
    )

    export = sub.add_parser("export", help="write a data set as RINEX files")
    export.add_argument("station", help="site id")
    export.add_argument("--duration", type=float, default=60.0)
    export.add_argument("--obs", default=None, help="observation file path")
    export.add_argument("--nav", default=None, help="navigation file path")
    export.add_argument(
        "--carrier",
        action="store_true",
        help="also write the L1 carrier phase observable",
    )

    skyplot = sub.add_parser("skyplot", help="show the sky above a station")
    skyplot.add_argument("station", help="site id")
    skyplot.add_argument(
        "--at", type=float, default=0.0, help="seconds into the data set"
    )

    tele = sub.add_parser(
        "telemetry",
        help="run an instrumented replay and export its metrics",
    )
    tele.add_argument("station", nargs="?", default="SRZN", help="site id")
    tele.add_argument(
        "--algorithm", default="dlg", choices=["nr", "dlo", "dlg"]
    )
    tele.add_argument(
        "--duration", type=float, default=120.0, help="seconds of data"
    )
    tele.add_argument(
        "--workers", type=int, default=2, help="replay worker threads"
    )
    tele.add_argument(
        "--format",
        default="prom",
        choices=["prom", "json"],
        help="stdout format when --output is not given",
    )
    tele.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the snapshot to a file instead of stdout",
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="run seeded validation scenarios until a budget runs out",
    )
    fuzz.add_argument(
        "--budget",
        default="60s",
        metavar="TIME",
        help="wall-clock budget, e.g. 45, 60s, 2m (default 60s)",
    )
    fuzz.add_argument(
        "--scenarios",
        type=int,
        default=None,
        metavar="N",
        help="also stop after N scenarios",
    )
    fuzz.add_argument(
        "--seed", type=int, default=0, help="first scenario seed (default 0)"
    )
    fuzz.add_argument(
        "--systems",
        default="G",
        metavar="CODES",
        help="comma-separated GNSS systems for the scenario population "
        "(e.g. G,R); more than one switches the oracles to "
        "per-constellation mode (default G)",
    )
    fuzz.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="probability of injecting a fault per scenario (default 0)",
    )
    fuzz.add_argument(
        "--inject",
        default=None,
        choices=sorted(_fault_registry()),
        help="inject this specific fault (implies --fault-rate 1.0 "
        "unless --fault-rate is given)",
    )
    fuzz.add_argument(
        "--fde",
        action="store_true",
        help="chaos-test the batch FDE gate instead of the oracle fuzz "
        "loop: seeded pseudorange spikes through the integrity-armed "
        "engine, graded on injected-PRN identification and false-alarm "
        "rate (use with --inject spike)",
    )
    fuzz.add_argument(
        "--spike-meters",
        type=float,
        default=75.0,
        metavar="M",
        help="injected spike magnitude for --fde (default 75)",
    )
    fuzz.add_argument(
        "--fde-out",
        default=None,
        metavar="PATH",
        help="write the --fde verdict JSON to this path",
    )
    fuzz.add_argument(
        "--spoof",
        action="store_true",
        help="chaos-test the signal-plausibility monitor suite instead "
        "of the oracle fuzz loop: seeded spoofing/interference streams "
        "(meaconing, slow drag, clock pull, jamming) through the "
        "monitor-armed executor, graded on in-time detection and "
        "clean-stream false-alarm rate",
    )
    fuzz.add_argument(
        "--spoof-out",
        default=None,
        metavar="PATH",
        help="write the --spoof verdict JSON to this path",
    )
    fuzz.add_argument(
        "--artifacts-dir",
        default="fuzz-artifacts",
        metavar="DIR",
        help="where failing/explained seeds are persisted",
    )
    fuzz.add_argument(
        "--replay",
        default=None,
        metavar="PATH",
        help="replay one persisted artifact instead of fuzzing",
    )
    fuzz.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="record telemetry for the run (.prom/.txt or .json)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the async micro-batching service under concurrent load",
    )
    serve.add_argument("station", nargs="?", default="SRZN", help="site id")
    serve.add_argument(
        "--algorithm",
        default="dlg",
        choices=["nr", "dlo", "dlg"],
        help="batchable solver the service runs",
    )
    serve.add_argument(
        "--requests", type=int, default=200, help="concurrent requests to fire"
    )
    serve.add_argument(
        "--warmup",
        type=int,
        default=30,
        help="NR epochs used to train the clock-bias predictor (dlo/dlg)",
    )
    serve.add_argument(
        "--batch-size", type=int, default=64, help="micro-batch flush size"
    )
    serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="micro-batch flush deadline in milliseconds",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=1024,
        help="admission limit before backpressure rejection",
    )
    serve.add_argument(
        "--timeout-ms",
        type=float,
        default=None,
        help="per-request deadline in milliseconds (default: none)",
    )
    serve.add_argument(
        "--concurrency",
        type=int,
        default=256,
        help="client-side in-flight submission bound",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help=(
            "run the sharded multi-process tier with N worker processes "
            "(0 = the in-process asyncio service)"
        ),
    )
    serve.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="record service telemetry (.prom/.txt or .json)",
    )
    serve.add_argument(
        "--trace",
        action="store_true",
        help="arm the per-request trace plane (span trees on every result)",
    )
    serve.add_argument(
        "--record-dir",
        default=None,
        metavar="DIR",
        help=(
            "arm the anomaly flight recorder; replayable incident "
            "artifacts and a flight-records.json snapshot land here"
        ),
    )
    serve.add_argument(
        "--status-port",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "serve /metrics, /metrics.json, /slo, /records, /healthz on "
            "127.0.0.1:PORT while running (0 picks a free port); also "
            "arms the SLO engine"
        ),
    )
    serve.add_argument(
        "--slo-target",
        type=float,
        default=0.999,
        help="availability objective for the SLO engine (with --status-port)",
    )

    inspect = sub.add_parser(
        "inspect",
        help="browse flight-recorder records and incident artifacts",
    )
    inspect.add_argument(
        "path",
        help=(
            "an incident artifact, a flight-records.json snapshot, or a "
            "directory holding either (e.g. a serve run's --record-dir)"
        ),
    )
    inspect.add_argument(
        "--request",
        default=None,
        metavar="ID",
        help="show one request's full record (and span tree, if traced)",
    )
    inspect.add_argument(
        "--last",
        type=int,
        default=None,
        metavar="N",
        help="only the most recent N records",
    )
    inspect.add_argument(
        "--triggered",
        action="store_true",
        help="only records that tripped an anomaly trigger",
    )
    return parser


def _cmd_stations(args: argparse.Namespace) -> int:
    counts = {station.site_id: DatasetConfig().epoch_count for station in all_stations()}
    print(format_table_5_1(all_stations(), counts))
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    station = get_station(args.station)
    dataset = ObservationDataset(
        station,
        DatasetConfig(duration_seconds=args.duration, track_carrier=args.smooth),
    )
    mode = "steering" if station.uses_steering_clock else "threshold"
    receiver = GpsReceiver(
        algorithm=args.algorithm, clock_mode=mode, warmup_epochs=args.warmup
    )
    hatch = HatchFilter() if args.smooth else None
    print(
        f"station {station.site_id}: {args.algorithm.upper()}, {mode} clock"
        + (", Hatch-smoothed" if args.smooth else "")
    )
    with _metrics_sink(args.metrics_out):
        for index, epoch in enumerate(dataset.epochs()):
            if hatch is not None:
                epoch = hatch.smooth_epoch(epoch)
            fix = receiver.process(epoch)
            error = fix.distance_to(station.position)
            if index % 30 == 0 or index == dataset.epoch_count - 1:
                print(
                    f"  epoch {index:5d}  sats={epoch.satellite_count:2d}  "
                    f"alg={fix.algorithm:<4} error={error:7.2f} m"
                )
        print(f"pipeline stats: {receiver.stats}")
    return EXIT_OK


def _cmd_experiment(args: argparse.Namespace) -> int:
    stations = (
        all_stations() if args.station == "all" else [get_station(args.station)]
    )
    config = ExperimentConfig(
        dataset=DatasetConfig(duration_seconds=args.duration)
    )
    results = {}
    with _metrics_sink(args.metrics_out):
        for station in stations:
            result = run_station_experiment(station, config)
            results[station.site_id] = result
            print(format_station_report(result))
            print()
    if args.output:
        from repro.evaluation import write_markdown_report

        path = write_markdown_report(
            args.output,
            results,
            notes=(
                f"Sampled {args.duration:.0f} s span per station; see "
                "EXPERIMENTS.md for methodology."
            ),
        )
        print(f"wrote markdown report to {path}")
    return EXIT_OK


def _cmd_export(args: argparse.Namespace) -> int:
    station = get_station(args.station)
    dataset = ObservationDataset(
        station,
        DatasetConfig(duration_seconds=args.duration, track_carrier=args.carrier),
    )
    epochs = dataset.realize()
    obs_path = args.obs or f"{station.site_id.lower()}.obs"
    nav_path = args.nav or f"{station.site_id.lower()}.nav"
    header = ObservationHeader(
        marker_name=station.site_id,
        approx_position=station.ecef,
        interval=dataset.config.interval_seconds,
        observation_types=("C1", "L1") if args.carrier else ("C1",),
    )
    n_obs = write_observation_file(obs_path, header, epochs)
    n_nav = write_navigation_file(nav_path, dataset.navigation_records())
    print(f"wrote {n_obs} epochs to {obs_path} and {n_nav} ephemerides to {nav_path}")
    return EXIT_OK


def _cmd_skyplot(args: argparse.Namespace) -> int:
    from repro.core import compute_dop
    from repro.evaluation import skyplot_for_epoch

    station = get_station(args.station)
    duration = max(args.at + 1.0, 1.0)
    dataset = ObservationDataset(station, DatasetConfig(duration_seconds=duration))
    epoch = dataset.epoch_at(int(args.at))
    print(f"sky above {station.site_id} at t+{args.at:.0f}s "
          f"({epoch.satellite_count} satellites):")
    print(skyplot_for_epoch(epoch))
    dop = compute_dop(epoch.satellite_positions(), station.position)
    print(f"GDOP {dop.gdop:.2f}  PDOP {dop.pdop:.2f}  "
          f"HDOP {dop.hdop:.2f}  VDOP {dop.vdop:.2f}")
    return EXIT_OK


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.engine import ParallelReplay, PositioningEngine

    station = get_station(args.station)
    dataset = ObservationDataset(
        station, DatasetConfig(duration_seconds=args.duration)
    )
    epochs = dataset.realize()
    mode = "steering" if station.uses_steering_clock else "threshold"
    with telemetry.capture() as (registry, tracer):
        # Thread backend so worker receivers share the installed
        # registry: one replay lights up receiver, solver, and replay
        # metrics together.
        replay = ParallelReplay(
            receiver_kwargs={"algorithm": args.algorithm, "clock_mode": mode},
            workers=max(1, args.workers),
            backend="thread",
        )
        replay.replay(epochs)
        engine = PositioningEngine(algorithm=args.algorithm)
        result = engine.solve_stream(epochs)
        extra = {"engine_diagnostics": result.diagnostics.to_dict()}
        if args.output:
            telemetry.write_snapshot(
                args.output, registry, tracer=tracer, extra=extra
            )
            print(f"wrote telemetry snapshot to {args.output}", file=sys.stderr)
        elif args.format == "prom":
            sys.stdout.write(telemetry.to_prometheus_text(registry))
        else:
            json.dump(
                telemetry.to_json_snapshot(registry, tracer, extra=extra),
                sys.stdout,
                indent=2,
                sort_keys=True,
            )
            sys.stdout.write("\n")
    return EXIT_OK


def _fault_registry():
    """Injectable fault names (lazy import keeps CLI startup light)."""
    from repro.validation import FAULT_REGISTRY

    return FAULT_REGISTRY


def _parse_budget(text: str) -> float:
    """Seconds from a ``45`` / ``60s`` / ``2m`` / ``1h`` spelling."""
    text = text.strip().lower()
    scale = 1.0
    if text.endswith(("s", "m", "h")):
        scale = {"s": 1.0, "m": 60.0, "h": 3600.0}[text[-1]]
        text = text[:-1]
    try:
        seconds = float(text) * scale
    except ValueError:
        raise ConfigurationError(
            f"invalid --budget {text!r}: use e.g. 45, 60s, or 2m"
        )
    if seconds <= 0:
        raise ConfigurationError("--budget must be positive")
    return seconds


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.validation import (
        FuzzConfig,
        FuzzHarness,
        ScenarioConfig,
        fault_from_spec,
        replay_artifact,
    )

    if args.fde and args.spoof:
        raise ConfigurationError("--fde and --spoof are mutually exclusive")
    if args.fde or args.spoof:
        return _cmd_fuzz_chaos(args)

    if args.replay:
        with open(args.replay) as handle:
            recorded = json.load(handle)
        result = replay_artifact(args.replay)
        reproduced = (
            result.status == recorded.get("status")
            and result.kind == recorded.get("kind")
            and list(result.detail) == recorded.get("detail", [])
        )
        print(f"replayed seed {result.seed}: status={result.status}", end="")
        if result.kind:
            print(f" kind={result.kind}", end="")
        print()
        for line in result.detail:
            print(f"  {line}")
        print("verdict reproduced" if reproduced else "VERDICT CHANGED since recording")
        return exit_code(reproduced)

    fault = None
    fault_rate = args.fault_rate
    if args.inject is not None:
        fault = fault_from_spec({"name": args.inject})
        if fault_rate == 0.0:
            fault_rate = 1.0
    systems = tuple(
        code.strip() for code in args.systems.split(",") if code.strip()
    )
    config = FuzzConfig(
        budget_seconds=_parse_budget(args.budget),
        max_scenarios=args.scenarios,
        start_seed=args.seed,
        fault_rate=fault_rate,
        fault=fault,
        scenario=ScenarioConfig(systems=systems),
        artifacts_dir=args.artifacts_dir,
    )
    with _metrics_sink(args.metrics_out):
        report = FuzzHarness(config).run()
        print(
            f"fuzzed {report.scenarios} scenarios in "
            f"{report.elapsed_seconds:.1f}s from seed {args.seed}: "
            f"{report.passes} passed, {report.rejected} rejected, "
            f"{report.explained} fault-explained, "
            f"{len(report.failures)} unexplained failures "
            f"({report.stream_checks} stream checks)"
        )
        for failure in report.failures:
            print(f"  FAILED seed {failure.seed} [{failure.kind}]")
            for line in failure.detail[:4]:
                print(f"    {line}")
        for path in report.artifact_paths:
            print(f"  artifact: {path}")
    return exit_code(report.ok)


def _cmd_fuzz_chaos(args: argparse.Namespace) -> int:
    """``fuzz --fde`` / ``fuzz --spoof``: one seeded chaos campaign."""
    from dataclasses import asdict

    from repro.validation import (
        FdeChaosConfig,
        MonitorChaosConfig,
        run_fde_chaos,
        run_monitor_chaos,
    )

    scenarios = args.scenarios if args.scenarios is not None else 400
    if args.fde:
        if args.inject not in (None, "spike"):
            raise ConfigurationError(
                "--fde chaos mode injects pseudorange spikes; drop --inject "
                "or use --inject spike"
            )
        config = FdeChaosConfig(
            scenarios=scenarios,
            start_seed=args.seed,
            spike_meters=args.spike_meters,
            fault_rate=args.fault_rate if args.fault_rate > 0 else 0.5,
        )
        output = args.fde_out
    else:
        if args.inject is not None:
            raise ConfigurationError(
                "--spoof chaos mode draws its own attack population "
                "(meaconing, slow_drag, clock_pull, jamming_ramp); drop "
                "--inject"
            )
        config = MonitorChaosConfig(scenarios=scenarios, start_seed=args.seed)
        output = args.spoof_out
    with _metrics_sink(args.metrics_out):
        if args.fde:
            report = run_fde_chaos(config)
        else:
            report = run_monitor_chaos(config)
    print(report.headline())
    for name, gate in report.gates.items():
        print(f"  {name}: {gate}")
    for case in report.mistakes[:8]:
        fields = asdict(case).items()
        print("    " + ", ".join(f"{k} {v}" for k, v in fields if v is not None))
    if output:
        with open(output, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print(f"wrote chaos verdict to {output}")
    return exit_code(report.ok)


def _load_flight_records(path: str) -> List[dict]:
    """Every flight record reachable from ``path``, oldest first.

    Understands both artifact shapes the recorder writes: a replayable
    incident payload (``format: repro-flight-record-v1``, one embedded
    record) and a ``FlightRecorder.snapshot()`` dump (a ``records``
    list).  A directory is scanned for ``*.json`` holding either.
    """
    import json
    from pathlib import Path

    from repro.telemetry.recorder import INCIDENT_FORMAT

    target = Path(path)
    if not target.exists():
        raise ConfigurationError(f"no such file or directory: {path}")
    files = sorted(target.glob("*.json")) if target.is_dir() else [target]
    records: List[dict] = []
    for file in files:
        try:
            payload = json.loads(file.read_text())
        except (OSError, ValueError):
            continue  # unreadable / not JSON: not ours to judge
        if not isinstance(payload, dict):
            continue
        if payload.get("format") == INCIDENT_FORMAT:
            record = payload.get("record")
            if isinstance(record, dict):
                records.append(record)
        elif isinstance(payload.get("records"), list):
            records.extend(
                r for r in payload["records"] if isinstance(r, dict)
            )
    records.sort(key=lambda r: r.get("recorded_at") or 0.0)
    return records


def _print_flight_record(record: dict) -> None:
    """Full single-record rendering for ``inspect --request``."""
    from repro.telemetry.trace import RequestTrace

    for key in ("request_id", "trace_id", "status", "solver", "trigger",
                "inputs_digest", "config_hash", "error"):
        value = record.get(key)
        if value not in (None, ""):
            print(f"{key}: {value}")
    stage_seconds = record.get("stage_seconds") or {}
    if stage_seconds:
        stages = " ".join(
            f"{name}={1e3 * float(sec):.3f}ms"
            for name, sec in stage_seconds.items()
        )
        print(f"stages: {stages}")
    verdict = record.get("verdict")
    if verdict:
        print(f"verdict: {verdict}")
    attributes = record.get("attributes") or {}
    if attributes:
        print(f"attributes: {attributes}")
    print(f"replayable: {'yes' if record.get('epoch') else 'no'}")
    trace = record.get("trace")
    if trace:
        print(RequestTrace.from_dict(trace).format())


def _load_metrics_snapshot(path: str) -> Optional[dict]:
    """The metrics document if ``path`` is a telemetry snapshot file.

    Recognizes both the ``write_snapshot`` JSON shape (top-level
    ``metrics`` dict) and a bare ``MetricsRegistry.snapshot()``
    document (families keyed by name, each with ``kind``/``samples``).
    Returns ``None`` when the file is not a metrics snapshot — the
    caller falls through to flight-record handling.
    """
    import json
    from pathlib import Path

    target = Path(path)
    if not target.is_file():
        return None
    try:
        payload = json.loads(target.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    metrics = payload.get("metrics")
    if isinstance(metrics, dict) and metrics:
        return metrics
    if payload and all(
        isinstance(family, dict) and {"kind", "samples"} <= set(family)
        for family in payload.values()
    ):
        return payload
    return None


def _print_metrics_snapshot(metrics: dict) -> None:
    """Render one metrics snapshot as a table (fleet or single scrape)."""
    rows = 0
    for name in sorted(metrics):
        family = metrics[name]
        kind = family.get("kind", "?")
        for sample in family.get("samples", ()):
            labels = sample.get("labels") or {}
            rendered = (
                "{" + ",".join(f'{k}="{v}"' for k, v in sorted(labels.items())) + "}"
                if labels
                else ""
            )
            if kind == "histogram":
                value = (
                    f"count={sample.get('count', 0):g} "
                    f"sum={sample.get('sum', 0.0):g}"
                )
            else:
                value = f"{sample.get('value', 0.0):g}"
            print(f"{kind:<9} {name}{rendered} {value}")
            rows += 1
    print(f"{len(metrics)} metric families, {rows} series")


def _cmd_inspect(args: argparse.Namespace) -> int:
    metrics = _load_metrics_snapshot(args.path)
    if metrics is not None:
        if args.request is not None or args.triggered:
            raise ConfigurationError(
                f"{args.path} is a telemetry snapshot; --request/"
                "--triggered apply to flight records"
            )
        _print_metrics_snapshot(metrics)
        return EXIT_OK
    records = _load_flight_records(args.path)
    if args.request is not None:
        matches = [
            r for r in records if r.get("request_id") == args.request
        ]
        if not matches:
            print(
                f"repro-gps inspect: no record for request "
                f"{args.request!r} under {args.path}",
                file=sys.stderr,
            )
            return EXIT_FAILURE
        _print_flight_record(matches[-1])  # newest wins, like find()
        return EXIT_OK
    if args.triggered:
        records = [r for r in records if r.get("trigger")]
    if args.last is not None:
        records = records[-args.last:]
    if not records:
        print(f"no flight records under {args.path}")
        return EXIT_OK
    print(f"{'recorded_at':>14}  {'status':<8} {'trigger':<16} "
          f"{'solver':<16} request_id")
    for record in records:
        print(
            f"{record.get('recorded_at') or 0.0:>14.3f}  "
            f"{record.get('status') or '-':<8} "
            f"{record.get('trigger') or '-':<16} "
            f"{record.get('solver') or '-':<16} "
            f"{record.get('request_id') or '-'}"
        )
    triggered = sum(1 for r in records if r.get("trigger"))
    print(f"{len(records)} records ({triggered} triggered)")
    return EXIT_OK


def _serve_sharded(args, station, service_config, serve_epochs) -> int:
    """The ``serve --workers N`` path: the multi-process shard tier.

    Synchronous by design — the shard router owns its own dispatch
    loop — so the asyncio-tier-only flags are rejected rather than
    silently ignored: ``ShardConfig`` refuses the service fields
    ``--trace`` and ``--record-dir`` set, and ``--status-port`` is
    refused here.
    """
    import time as _time

    import numpy as np

    from repro.service import ShardConfig, ShardedPositioningService
    from repro.telemetry import aggregate_registries
    from repro.telemetry.exporters import (
        to_json_snapshot,
        to_prometheus_fleet_text,
    )

    if args.status_port:
        raise ConfigurationError(
            "--status-port rides the asyncio tier; it is not available "
            "with --workers (the shard's telemetry is the fleet "
            "scrape, --metrics-out)"
        )
    shard_config = ShardConfig(
        service=service_config,
        workers=args.workers,
        batch_size=args.batch_size,
    )
    with telemetry.capture() as (router_registry, _tracer):
        with ShardedPositioningService(shard_config) as shard:
            started = _time.monotonic()
            results = shard.solve_many(serve_epochs)
            wall = _time.monotonic() - started
            registries = [router_registry] + shard.worker_registries()
            live = shard.live_workers
    if args.metrics_out:
        lowered = args.metrics_out.lower()
        if lowered.endswith((".prom", ".txt")):
            payload = to_prometheus_fleet_text(registries)
            with open(args.metrics_out, "w") as handle:
                handle.write(payload)
        else:
            import json as _json

            merged = aggregate_registries(registries)
            merged.gauge(
                "repro_fleet_registries",
                "Member registries merged into this scrape.",
            ).set(len(registries))
            with open(args.metrics_out, "w") as handle:
                _json.dump(
                    to_json_snapshot(merged), handle, indent=2, sort_keys=True
                )
                handle.write("\n")
        print(f"wrote fleet telemetry snapshot to {args.metrics_out}")

    statuses = {}
    for result in results:
        statuses[result.status] = statuses.get(result.status, 0) + 1
    ok_results = [r for r in results if r.ok]
    print(
        f"served {len(results)} requests in {wall:.3f}s "
        f"({len(results) / wall:,.0f} req/s) across {args.workers} workers "
        f"({live} live, batches of {args.batch_size})"
    )
    print(f"statuses: {statuses}")
    if ok_results:
        errors = np.array(
            [
                float(np.linalg.norm(r.position - station.position))
                for r in ok_results
            ]
        )
        print(
            f"position error vs station: mean {errors.mean():.2f}m, "
            f"max {errors.max():.2f}m"
        )
    return exit_code(len(ok_results) == len(results))


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    import numpy as np

    from repro.api import SolverConfig
    from repro.clocks import LinearClockBiasPredictor
    from repro.service import AsyncPositioningClient, PositioningService, ServiceConfig
    from repro.solvers import NewtonRaphsonSolver

    if args.requests < 1:
        raise ConfigurationError("--requests must be >= 1")
    station = get_station(args.station)
    needs_predictor = args.algorithm in ("dlo", "dlg")
    warmup_count = max(2, args.warmup) if needs_predictor else 0
    total = warmup_count + args.requests
    dataset = ObservationDataset(
        station, DatasetConfig(duration_seconds=float(total))
    )
    epochs = dataset.realize()[:total]

    if needs_predictor:
        # The receiver pipeline's calibration step, inlined: solve the
        # warm-up epochs with NR and train the linear bias model the
        # closed-form service path will predict from.
        mode = "steering" if station.uses_steering_clock else "threshold"
        predictor = LinearClockBiasPredictor(
            mode=mode, warmup_samples=warmup_count
        )
        nr = NewtonRaphsonSolver()
        for epoch in epochs[:warmup_count]:
            fix = nr.solve(epoch)
            predictor.observe(epoch.time, fix.clock_bias_meters)
        solver = SolverConfig(algorithm=args.algorithm, clock_predictor=predictor)
    else:
        solver = SolverConfig(algorithm="nr")
    from repro.telemetry.recorder import RecorderConfig
    from repro.telemetry.slo import SloConfig

    service_config = ServiceConfig(
        solver=solver,
        max_batch_size=args.batch_size,
        max_wait_seconds=args.max_wait_ms / 1000.0,
        max_queue_depth=args.queue_depth,
        default_timeout_seconds=(
            None if args.timeout_ms is None else args.timeout_ms / 1000.0
        ),
        trace=args.trace,
        recorder=(
            RecorderConfig(dump_dir=args.record_dir)
            if args.record_dir is not None
            else None
        ),
        slo=(
            SloConfig(availability_target=args.slo_target)
            if args.status_port is not None
            else None
        ),
    )
    serve_epochs = epochs[warmup_count:]

    if args.workers:
        return _serve_sharded(args, station, service_config, serve_epochs)

    async def run():
        results = [None] * len(serve_epochs)
        latencies = [0.0] * len(serve_epochs)
        # Bounded in-flight window as a pool of pump tasks over a shared
        # iterator (a per-request semaphore rescans its waiter queue
        # quadratically when a whole batch resolves at once).
        indices = iter(range(len(serve_epochs)))
        async with PositioningService(service_config) as service:
            status_server = None
            if args.status_port is not None:
                from repro.telemetry import get_registry
                from repro.telemetry.statusd import StatusServer

                status_server = StatusServer(
                    registries=lambda: [get_registry()],
                    slo=service.slo,
                    recorder=service.recorder,
                    port=args.status_port,
                )
                await status_server.start()
                print(
                    f"status endpoint: http://127.0.0.1:{status_server.port}"
                    "/metrics (.json, /slo, /records, /healthz)"
                )
            client = AsyncPositioningClient(service)
            loop = asyncio.get_running_loop()

            async def pump():
                for index in indices:
                    epoch = serve_epochs[index]
                    started = loop.time()
                    result = await client.submit(epoch)
                    for _ in range(3):  # polite backpressure retry
                        if result.status != "rejected":
                            break
                        await asyncio.sleep(result.retry_after_seconds or 0.05)
                        result = await client.submit(epoch)
                    latencies[index] = loop.time() - started
                    results[index] = result

            pumps = min(max(1, args.concurrency), max(1, len(serve_epochs)))
            started = loop.time()
            try:
                await asyncio.gather(*(pump() for _ in range(pumps)))
            finally:
                if status_server is not None:
                    await status_server.stop()
            wall = loop.time() - started
            slo_snapshot = (
                service.slo.snapshot() if service.slo is not None else None
            )
            recorder_snapshot = (
                service.recorder.snapshot()
                if service.recorder is not None
                else None
            )
        return results, latencies, wall, slo_snapshot, recorder_snapshot

    with _metrics_sink(args.metrics_out, ensure=args.status_port is not None):
        results, latencies, wall, slo_snapshot, recorder_snapshot = (
            asyncio.run(run())
        )

    if recorder_snapshot is not None:
        # Persist the full ring alongside any incident dumps so
        # `repro-gps inspect <dir> [--request <id>]` works offline.
        import json as _json
        from pathlib import Path

        snapshot_path = Path(args.record_dir) / "flight-records.json"
        snapshot_path.parent.mkdir(parents=True, exist_ok=True)
        snapshot_path.write_text(
            _json.dumps(recorder_snapshot, indent=2, sort_keys=True)
        )
        print(
            f"flight recorder: {recorder_snapshot['retained']} records, "
            f"{len(recorder_snapshot['dumps'])} incident dumps -> "
            f"{snapshot_path}"
        )
    if slo_snapshot is not None:
        quantiles = slo_snapshot["latency_seconds"]
        rendered = " ".join(
            f"{name}={1e3 * value:.2f}ms"
            for name, value in quantiles.items()
            if value == value  # skip NaN (empty window)
        )
        print(
            f"slo: availability {slo_snapshot['availability']:.6f} "
            f"(budget remaining {slo_snapshot['error_budget_remaining']:+.3f}) "
            f"latency {rendered}"
        )

    statuses = {}
    for result in results:
        statuses[result.status] = statuses.get(result.status, 0) + 1
    ok_results = [r for r in results if r.ok]
    batch_sizes = np.array([r.batch_size for r in ok_results]) if ok_results else np.array([0])
    latency = np.array(latencies)
    print(
        f"served {len(results)} requests in {wall:.3f}s "
        f"({len(results) / wall:,.0f} req/s) with {args.algorithm.upper()} "
        f"batches<={args.batch_size}, wait<={args.max_wait_ms:g}ms"
    )
    print(f"statuses: {statuses}")
    print(
        f"batch size: mean {batch_sizes.mean():.1f}, "
        f"p50 {np.percentile(batch_sizes, 50):.0f}, "
        f"max {batch_sizes.max()}"
    )
    print(
        f"latency: p50 {1e3 * np.percentile(latency, 50):.2f}ms, "
        f"p99 {1e3 * np.percentile(latency, 99):.2f}ms, "
        f"max {1e3 * latency.max():.2f}ms"
    )
    if ok_results:
        errors = np.array(
            [
                float(np.linalg.norm(r.position - station.position))
                for r in ok_results
            ]
        )
        print(
            f"position error vs station: mean {errors.mean():.2f}m, "
            f"max {errors.max():.2f}m"
        )
    return exit_code(len(ok_results) == len(results))


if __name__ == "__main__":
    sys.exit(main())
