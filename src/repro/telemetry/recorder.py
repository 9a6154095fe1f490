"""The anomaly flight recorder: bounded capture, replayable dumps.

A :class:`FlightRecorder` keeps the last N fixes in a ring buffer and,
when a fix carries a **trigger** — an FDE exclusion or unrepaired
fault, a degradation-ladder fallback, a deadline miss, a monitor
alert — dumps a self-contained JSON **incident artifact** to disk.

The ring holds one :class:`FlushEntry` per flush: the flush's answers
as the service already has them (its result block, batch metadata and
per-flush trace record), with each row's trigger read off the block's
lanes in one pass.  A compact :class:`FixRecord` (inputs digest, config hash,
stage timings, verdicts) is built from an entry's row only when
something reads the ring or a triggered row is dumped.

The artifact speaks the validation subsystem's replay protocol: it
records a ``status``/``kind``/``detail`` verdict computed by
re-solving the captured epoch through :func:`solve_captured`, the same
pure function :func:`replay_incident` runs later.  So
``repro-gps fuzz --replay incident-….json`` reproduces the solver-level
facts of a captured production anomaly exactly the way it reproduces a
failing fuzz seed — and a mismatch localizes what a code change
altered.  (Wall-clock circumstances — the queue wait that missed a
deadline — are recorded as context but are not part of the replayed
verdict; physics and verdict logic are.)
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.constellation.systems import SYSTEM_CODES
from repro.errors import ConfigurationError
from repro.telemetry.trace import FlushTrace

#: The incident artifact format marker dispatched on by
#: :func:`repro.validation.fuzzer.replay_artifact`.
INCIDENT_FORMAT = "repro-flight-record-v1"

#: Trigger taxonomy — the anomalies worth a dump.
TRIGGER_FDE_EXCLUSION = "fde_exclusion"
TRIGGER_FDE_UNREPAIRED = "fde_unrepaired"
TRIGGER_DEADLINE_MISS = "deadline_miss"
TRIGGER_DEGRADED = "degraded"
TRIGGER_MONITOR = "monitor_alert"
TRIGGERS: Tuple[str, ...] = (
    TRIGGER_FDE_EXCLUSION,
    TRIGGER_FDE_UNREPAIRED,
    TRIGGER_DEADLINE_MISS,
    TRIGGER_DEGRADED,
    TRIGGER_MONITOR,
)


def _get_registry():
    """``repro.telemetry.get_registry``, bound on first use.

    The package imports this module, so a top-level import would be
    circular; the self-replacing indirection keeps the per-record call
    a plain global lookup after the first.
    """
    global _get_registry
    from repro.telemetry import get_registry

    _get_registry = get_registry
    return get_registry()


@dataclass(frozen=True)
class RecorderConfig:
    """Capacity and dump policy for one :class:`FlightRecorder`.

    Attributes
    ----------
    capacity:
        Ring-buffer depth (fixes retained for ``inspect``).
    dump_dir:
        Where incident artifacts go; ``None`` keeps the ring but
        disables dumping.
    triggers:
        Which trigger kinds dump (defaults to all of them).
    max_dumps:
        Artifact-count ceiling per recorder lifetime — an anomaly
        storm (every epoch tripping FDE) must not fill the disk; the
        ring still records everything.
    """

    capacity: int = 256
    dump_dir: Optional[Union[str, Path]] = None
    triggers: Tuple[str, ...] = TRIGGERS
    max_dumps: int = 64

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ConfigurationError("capacity must be at least 1")
        if self.max_dumps < 0:
            raise ConfigurationError("max_dumps must be >= 0")
        unknown = set(self.triggers) - set(TRIGGERS)
        if unknown:
            raise ConfigurationError(
                f"unknown recorder triggers {sorted(unknown)}; "
                f"valid triggers are {list(TRIGGERS)}"
            )
        object.__setattr__(self, "triggers", tuple(self.triggers))


# -- capture helpers ----------------------------------------------------
def epoch_payload(epoch) -> Dict:
    """One epoch's observations as a JSON-ready dict (exact floats).

    ``repr``-roundtrip-exact: json serializes Python floats at full
    precision, so the replayed epoch is bit-identical to the captured
    one.  Each lane of the epoch's dense arrays converts with one
    ``tolist()``.
    """
    positions, pseudoranges, prns, system_ids = epoch.dense()
    return _payload(
        int(epoch.time.week),
        float(epoch.time.seconds_of_week),
        prns,
        pseudoranges,
        positions,
        system_ids,
    )


def block_payload(block, row: int) -> Dict:
    """:func:`epoch_payload` of the epoch packed into ``block`` row
    ``row``, read straight off the block's lanes (the same dict, so the
    same JSON bytes), without walking any observation objects."""
    count = int(block.counts[row])
    return _payload(
        int(block.weeks[row]),
        float(block.seconds_of_week[row]),
        block.prns[row, :count],
        block.pseudoranges[row, :count],
        block.positions[row, :count],
        block.systems[row, :count],
    )


def _payload(week, seconds_of_week, prns, pseudoranges, positions, system_ids):
    payload = {
        "week": week,
        "seconds_of_week": seconds_of_week,
        "prns": prns.tolist(),
        "pseudoranges": pseudoranges.tolist(),
        "positions": positions.tolist(),
    }
    # The systems lane is recorded only when a non-GPS satellite is
    # present: all-GPS payloads (and their digests) stay byte-identical
    # to what earlier recorder versions captured.
    if system_ids.any():
        payload["systems"] = [SYSTEM_CODES[s] for s in system_ids.tolist()]
    return payload


def payload_epoch(payload: Mapping):
    """Rebuild the :class:`~repro.observations.ObservationEpoch`."""
    from repro.observations import ObservationEpoch, SatelliteObservation
    from repro.timebase import GpsTime

    return ObservationEpoch(
        time=GpsTime(
            week=int(payload["week"]),
            seconds_of_week=float(payload["seconds_of_week"]),
        ),
        observations=tuple(
            SatelliteObservation(
                prn=int(prn),
                position=np.asarray(position, dtype=float),
                pseudorange=float(pseudorange),
                system=str(system),
            )
            for prn, position, pseudorange, system in zip(
                payload["prns"],
                payload["positions"],
                payload["pseudoranges"],
                payload.get("systems", ["G"] * len(payload["prns"])),
            )
        ),
    )


def _digest(payload) -> str:
    """16-hex-char sha256 over a canonical JSON rendering."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def inputs_digest(epoch_dict: Mapping) -> str:
    """Stable digest of one captured epoch's inputs."""
    return _digest(epoch_dict)


def epoch_digest(epoch) -> str:
    """16-hex-char digest straight off an epoch's dense arrays.

    The hot-path variant of :func:`inputs_digest`: hashing array bytes
    skips the JSON rendering, so the flight recorder can digest every
    fix it retains, not just the ones it dumps.  (The two digests use
    different encodings and are not interchangeable.)  The recorder
    reads the same digest off the flush's block
    (:func:`block_digest`).
    """
    positions, pseudoranges, prns, system_ids = epoch.dense()
    return _lanes_digest(
        epoch.time.week,
        epoch.time.seconds_of_week,
        prns,
        pseudoranges,
        positions,
        system_ids,
    )


def block_digest(block, row: int) -> str:
    """:func:`epoch_digest` of the epoch packed into ``block`` row
    ``row``, read off the block's lanes (the dtypes of
    ``epoch.dense()``, so the same bytes).  A row
    :func:`~repro.blocks.pack_stream` could not pack digests as the
    empty row it holds."""
    count = int(block.counts[row])
    return _lanes_digest(
        block.weeks[row],
        block.seconds_of_week[row],
        block.prns[row, :count],
        block.pseudoranges[row, :count],
        block.positions[row, :count],
        block.systems[row, :count],
    )


def _lanes_digest(week, seconds_of_week, prns, pseudoranges, positions, system_ids):
    digest = hashlib.sha256()
    digest.update(np.asarray([week], dtype=np.int64).tobytes())
    digest.update(np.asarray([seconds_of_week], dtype=float).tobytes())
    digest.update(np.ascontiguousarray(prns).tobytes())
    digest.update(np.ascontiguousarray(pseudoranges).tobytes())
    digest.update(np.ascontiguousarray(positions).tobytes())
    if system_ids.any():
        # Mixed-constellation epochs fold the system lane into the
        # digest; all-GPS epochs keep their historical digests.
        digest.update(np.ascontiguousarray(system_ids).tobytes())
    return digest.hexdigest()[:16]


def config_hash(
    solver_spec: Mapping, fde_spec: Optional[Mapping] = None, **extra
) -> str:
    """Stable digest of the solve configuration a fix ran under."""
    return _digest({"solver": dict(solver_spec), "fde": fde_spec, **extra})


@dataclass(frozen=True)
class FixRecord:
    """One fix's compact flight-record entry.

    ``status``/``solver`` are the *service-level* outcome; ``trigger``
    is ``None`` for uneventful fixes and one of :data:`TRIGGERS` for
    anomalies.  ``epoch`` is the captured observation payload
    (:func:`epoch_payload`) — the one part big enough to matter, and
    the part that makes the record replayable; only triggered records
    carry it.  ``trace`` is a dict, or any object with ``to_dict()``
    (a :class:`~repro.telemetry.trace.RequestTrace`).
    """

    request_id: str
    status: str
    solver: str
    recorded_at: float
    config_hash: str
    inputs_digest: str = ""
    trace_id: str = ""
    trigger: Optional[str] = None
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    verdict: Optional[Dict] = None
    error: Optional[str] = None
    epoch: Optional[Dict] = None
    solver_spec: Dict = field(default_factory=dict)
    fde_spec: Optional[Dict] = None
    trace: Optional[object] = None
    attributes: Dict = field(default_factory=dict)
    monitor: Optional[Dict] = None

    def to_dict(self) -> Dict:
        return {
            "request_id": self.request_id,
            "trace_id": self.trace_id,
            "status": self.status,
            "solver": self.solver,
            "trigger": self.trigger,
            "recorded_at": self.recorded_at,
            "inputs_digest": self.inputs_digest,
            "config_hash": self.config_hash,
            "stage_seconds": dict(self.stage_seconds),
            "verdict": self.verdict,
            "error": self.error,
            "epoch": self.epoch,
            "solver_spec": dict(self.solver_spec),
            "fde_spec": self.fde_spec,
            "trace": (
                self.trace.to_dict()
                if hasattr(self.trace, "to_dict")
                else self.trace
            ),
            "attributes": dict(self.attributes),
            "monitor": self.monitor,
        }


@dataclass(frozen=True)
class RecordSpec:
    """The half of every record that is fixed per service.

    ``solver_spec`` is what an uneventful record names; a triggered,
    replayable record names ``algorithm`` (the engine's) with the clock
    bias its solve consumed.
    """

    algorithm: str
    config_hash: str
    solver_spec: Dict
    fde_spec: Optional[Dict] = None


class FlushEntry:
    """One flush's fixes as the flight recorder's ring holds them.

    Everything here exists once the flush is answered: its
    :class:`~repro.service.types.ResultBlock` and
    :class:`~repro.service.executor.BatchMeta` (neither changes after
    the flush), its :class:`~repro.telemetry.trace.FlushTrace` (the
    rows' place in the flush, which names untraced records
    ``fix-<sequence>-<row>``, their lineage and, when the trace plane
    is on, their request ids) and each row's clock-bias override.
    Serving builds nothing per row: :meth:`records` is the one place a
    :class:`FixRecord` is built, when the ring is read or a triggered
    row is dumped.
    """

    __slots__ = ("block", "meta", "trace", "biases", "spec", "recorded_at", "_triggers")

    def __init__(
        self,
        block,
        meta,
        trace: FlushTrace,
        biases: Sequence[Optional[float]],
        spec: RecordSpec,
    ) -> None:
        self.block = block
        self.meta = meta
        self.trace = trace
        self.biases = biases
        self.spec = spec
        self.recorded_at = now_seconds()
        self._triggers: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.trace)

    @property
    def triggers(self) -> np.ndarray:
        """Each row's trigger as an index into :data:`TRIGGERS`
        (negative: none), read off the block's lanes on first use."""
        if self._triggers is None:
            self._triggers = self.block.triggers()
        return self._triggers

    def request_id(self, row: int) -> str:
        """Row ``row``'s record id, without building the record."""
        trace = self.trace
        if trace.first_number is not None:
            return trace.request_id(row)
        return f"fix-{trace.sequence}-{trace.rows[row]}"

    def records(self, start: int = 0) -> List[FixRecord]:
        """The records of rows ``start`` onward, in row order.

        A triggered row's record captures the row the solve saw, off
        the flush block's lanes, and names the clock bias its solve
        consumed — the one the batched solve resolved, else the fix's
        own, else the request's override.
        """
        meta, spec, trace = self.meta, self.spec, self.trace
        results = self.block.results(
            spec.algorithm,
            len(self),
            trace=trace if trace.first_number is not None else None,
        )
        triggers = self.triggers.tolist()
        stages = trace.stage_seconds or {}
        attributes = {
            "batch_sequence": trace.sequence,
            "batch_size": trace.batch_size,
            "flush_reason": trace.reason,
            "rung": trace.rung,
        }
        records = []
        for row in range(start, len(self)):
            result = results[row]
            if triggers[row] < 0:
                trigger, epoch, solver_spec = None, None, spec.solver_spec
            else:
                bias = meta.bias(row)
                if bias is None:
                    bias = (
                        result.clock_bias_meters
                        if result.clock_bias_meters is not None
                        else self.biases[row]
                    )
                trigger, epoch = TRIGGERS[triggers[row]], block_payload(meta.block, row)
                solver_spec = {"algorithm": spec.algorithm, "clock_bias_meters": bias}
            records.append(
                FixRecord(
                    request_id=self.request_id(row),
                    status=result.status,
                    solver=result.solver or "",
                    recorded_at=self.recorded_at,
                    config_hash=spec.config_hash,
                    inputs_digest=block_digest(meta.block, row),
                    trace_id=(
                        "" if result.trace is None else result.trace.context.trace_id
                    ),
                    trigger=trigger,
                    stage_seconds=stages,
                    verdict=(
                        None if result.integrity is None else result.integrity.to_dict()
                    ),
                    error=result.error,
                    epoch=epoch,
                    solver_spec=solver_spec,
                    fde_spec=spec.fde_spec,
                    trace=result.trace,
                    attributes=attributes,
                    monitor=None if result.monitor is None else result.monitor.to_dict(),
                )
            )
        return records


# -- deterministic replay ----------------------------------------------
def solve_captured(
    epoch_dict: Mapping,
    solver_spec: Mapping,
    fde_spec: Optional[Mapping] = None,
) -> Tuple[str, Tuple[str, ...]]:
    """Re-solve a captured epoch; the ``(status, detail)`` it earns.

    A pure function of the payload: the engine solves the rebuilt
    epoch with the recorded algorithm, resolved clock bias, and FDE
    config, and the outcome is rendered as deterministic detail lines.
    Called once at dump time (to stamp the artifact) and again by
    :func:`replay_incident` — equality of the two runs is the replay
    guarantee.
    """
    # Imported lazily: the engine (and integrity) import repro.telemetry.
    from repro.engine.pipeline import PositioningEngine
    from repro.errors import ReproError
    from repro.integrity.fde import FdeConfig

    algorithm = str(solver_spec.get("algorithm", "dlg"))
    bias = solver_spec.get("clock_bias_meters")
    engine = PositioningEngine(
        algorithm=algorithm,
        fde_config=FdeConfig(**fde_spec) if fde_spec else None,
    )
    epoch = payload_epoch(epoch_dict)
    try:
        result = engine.solve_stream(
            [epoch],
            biases=None if bias is None else [float(bias)],
            on_undersized="drop",
        )
    except ReproError as exc:
        return "failed", (f"{type(exc).__name__}: {exc}",)

    position = result.positions[0]
    solved = bool(np.all(np.isfinite(position)))
    detail: List[str] = [f"solver={algorithm}"]
    if solved:
        detail.append(
            "position="
            + ",".join(f"{float(c):.3f}" for c in position)
        )
        detail.append(f"clock_bias={float(result.clock_biases[0]):.3f}")
    else:
        detail.append("position=unsolved")
    fde = result.diagnostics.fde
    if fde is None:
        detail.append("fde=disabled")
    else:
        verdict = fde.verdict(0)
        detail.append(f"fde={verdict.status}")
        if verdict.excluded_prn is not None:
            detail.append(f"excluded_prn={int(verdict.excluded_prn)}")
        if verdict.test_statistic is not None:
            detail.append(
                f"statistic={float(verdict.test_statistic):.6e}"
                f" threshold={float(verdict.threshold):.6e}"
            )
    return ("ok" if solved else "failed"), tuple(detail)


def build_incident_payload(record: FixRecord) -> Dict:
    """The self-contained replayable artifact for one triggered fix."""
    if record.epoch is None:
        raise ConfigurationError(
            "cannot build an incident artifact without a captured epoch"
        )
    status, detail = solve_captured(
        record.epoch, record.solver_spec, record.fde_spec
    )
    return {
        "format": INCIDENT_FORMAT,
        # Replay-protocol fields (compared by `repro-gps fuzz --replay`):
        "seed": int((record.inputs_digest or "0")[:8], 16),
        "status": status,
        "kind": f"incident:{record.trigger}",
        "detail": list(detail),
        "fault": None,
        # Incident context (not replayed, kept for humans and inspect):
        "record": record.to_dict(),
    }


def replay_incident(payload: Mapping):
    """Re-run a flight-recorder incident artifact, deterministically.

    Returns a :class:`~repro.validation.fuzzer.FuzzCaseResult` whose
    ``status``/``detail`` re-derive from the captured epoch via
    :func:`solve_captured`; ``seed`` and ``kind`` identify the case.
    A field-for-field match with the recorded payload means the
    incident's solver-level behavior reproduces on the current code.
    """
    from repro.validation.fuzzer import FuzzCaseResult

    record = payload.get("record", {})
    status, detail = solve_captured(
        record["epoch"], record.get("solver_spec", {}), record.get("fde_spec")
    )
    return FuzzCaseResult(
        seed=int(payload.get("seed", 0)),
        status=status,
        kind=str(payload.get("kind", "incident:unknown")),
        detail=detail,
    )


# -- the recorder -------------------------------------------------------
class FlightRecorder:
    """Bounded per-flush capture with triggered incident dumps.

    The ring holds :class:`FlushEntry`\\ s but is bounded by *fixes*:
    it keeps the newest ``capacity`` rows, so its oldest entry may be
    partly evicted.
    """

    def __init__(self, config: Optional[RecorderConfig] = None) -> None:
        self._config = config if config is not None else RecorderConfig()
        self._ring: Deque[FlushEntry] = deque()
        # Rows of the entries in the ring, evicted rows of the oldest
        # included.
        self._held = 0
        self._dump_paths: List[str] = []
        self._dump_failures = 0
        self._lock = threading.Lock()
        # Per-registry cached counter children (rebound when the
        # installed registry changes, e.g. across tests).
        self._handles_registry: Optional[object] = None
        self._fixes_untriggered = None
        self._fixes_triggered = None

    def _bind_fix_counters(self, registry) -> None:
        counter = registry.counter(
            "repro_recorder_fixes_total",
            "Fixes captured by the flight recorder.",
            labels=("triggered",),
        )
        self._fixes_untriggered = counter.labels(triggered="no")
        self._fixes_triggered = counter.labels(triggered="yes")
        self._handles_registry = registry

    @property
    def config(self) -> RecorderConfig:
        """The capacity/dump policy."""
        return self._config

    @property
    def dump_paths(self) -> Tuple[str, ...]:
        """Incident artifacts written so far, in order."""
        with self._lock:
            return tuple(self._dump_paths)

    def record_flush(self, entry: FlushEntry) -> List[str]:
        """Retain one flush; dump its triggered rows the dump policy
        allows.  Returns the artifact paths written, in row order."""
        with self._lock:
            self._ring.append(entry)
            self._held += len(entry)
            while self._held - len(self._ring[0]) >= self._config.capacity:
                self._held -= len(self._ring.popleft())
        codes = entry.triggers
        triggered = np.flatnonzero(codes >= 0).tolist()
        registry = _get_registry()
        if registry.enabled:
            if registry is not self._handles_registry:
                self._bind_fix_counters(registry)
            if triggered:
                self._fixes_triggered.inc(len(triggered))
            if len(entry) > len(triggered):
                self._fixes_untriggered.inc(len(entry) - len(triggered))
        if self._config.dump_dir is None:
            return []
        dumping = [
            row for row in triggered if TRIGGERS[codes[row]] in self._config.triggers
        ]
        if not dumping:
            return []
        records = entry.records()
        paths = []
        for row in dumping:
            with self._lock:
                if len(self._dump_paths) >= self._config.max_dumps:
                    break
            path = self._dump(records[row])
            if path is None:
                continue
            paths.append(path)
            if registry.enabled:
                registry.counter(
                    "repro_recorder_dumps_total",
                    "Incident artifacts written, by trigger.",
                    labels=("trigger",),
                ).labels(trigger=records[row].trigger).inc()
        return paths

    #: Alias of :meth:`record_flush`.
    record = record_flush

    def _dump(self, record: FixRecord) -> Optional[str]:
        try:
            payload = build_incident_payload(record)
            directory = Path(self._config.dump_dir)
            directory.mkdir(parents=True, exist_ok=True)
            name = f"incident-{record.trigger}-{record.request_id or record.inputs_digest}.json"
            path = directory / name
            path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        except Exception:
            # A broken disk must not take the serving path down with
            # it; the ring entry survives either way.
            with self._lock:
                self._dump_failures += 1
            return None
        with self._lock:
            self._dump_paths.append(str(path))
        return str(path)

    # -- inspection ----------------------------------------------------
    def _retained(self) -> Tuple[List[FlushEntry], int]:
        """The ring's entries, oldest first, and how many leading rows
        of the oldest were evicted."""
        with self._lock:
            return list(self._ring), max(0, self._held - self._config.capacity)

    def records(self, last: Optional[int] = None) -> List[FixRecord]:
        """The most recent ``last`` records (all, oldest-first, when
        ``None``)."""
        entries, evicted = self._retained()
        records: List[FixRecord] = []
        for entry in entries:
            records.extend(entry.records(evicted))
            evicted = 0
        return records if last is None else records[-last:]

    def find(self, request_id: str) -> Optional[FixRecord]:
        """The retained record for ``request_id`` (newest wins)."""
        entries, evicted = self._retained()
        for index in range(len(entries) - 1, -1, -1):
            entry = entries[index]
            first = evicted if index == 0 else 0
            for row in range(len(entry) - 1, first - 1, -1):
                if entry.request_id(row) == request_id:
                    return entry.records(row)[0]
        return None

    def snapshot(self) -> Dict:
        """JSON-ready view (the ``/records`` endpoint, inspect)."""
        records = [record.to_dict() for record in self.records()]
        with self._lock:
            dumps = list(self._dump_paths)
            failures = self._dump_failures
        return {
            "capacity": self._config.capacity,
            "retained": len(records),
            "dump_dir": (
                str(self._config.dump_dir)
                if self._config.dump_dir is not None
                else None
            ),
            "dumps": dumps,
            "dump_failures": failures,
            "records": records,
        }


def now_seconds() -> float:
    """Wall-clock stamp for records (monotonic stays for spans)."""
    return time.time()
