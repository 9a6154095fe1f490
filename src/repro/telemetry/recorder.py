"""The anomaly flight recorder: bounded capture, replayable dumps.

A :class:`FlightRecorder` keeps the last N fixes as compact
:class:`FixRecord` entries (inputs digest, config hash, stage timings,
verdicts — no arrays beyond one epoch's observations) in a ring
buffer, and when a fix carries a **trigger** — an FDE exclusion or
unrepaired fault, a degradation-ladder fallback, a deadline miss, a
monitor alert — it dumps a self-contained JSON **incident artifact**
to disk.

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

Like the registry and tracer, the recorder has an installed-state
seam for library-level hooks: :func:`get_recorder` returns the active
recorder and defaults to a shared no-op — an unarmed hook pays one
attribute check.  The service builds and owns its own
instance instead (per-service ring, no global state).
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.constellation.systems import SYSTEM_CODES
from repro.errors import ConfigurationError
from repro.telemetry.trace import TraceContext, format_request_id

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
    different encodings and are not interchangeable; records carry
    whichever function produced them.)
    """
    positions, pseudoranges, prns, system_ids = epoch.dense()
    digest = hashlib.sha256()
    digest.update(np.asarray([epoch.time.week], dtype=np.int64).tobytes())
    digest.update(np.asarray([epoch.time.seconds_of_week]).tobytes())
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


class FixRecord:
    """One fix's compact flight-record entry.

    ``status``/``solver`` are the *service-level* outcome; ``trigger``
    is ``None`` for uneventful fixes and one of :data:`TRIGGERS` for
    anomalies.  ``epoch`` is the captured observation payload
    (:func:`epoch_payload`) — the one part big enough to matter, and
    the part that makes the record replayable.

    Hot-path construction happens once per served fix, so this is a
    plain ``__slots__`` class (dataclass construction is measurable at
    the service's per-request budget) and the inputs digest is lazy:
    pass the live epoch object as ``epoch_ref`` and :attr:`digest`
    hashes it on first read (snapshot, dump, inspect) instead of on
    the serving path.  Treat instances as immutable.
    """

    __slots__ = (
        "_request_id",
        "status",
        "solver",
        "recorded_at",
        "config_hash",
        "inputs_digest",
        "_trace_id",
        "trigger",
        "stage_seconds",
        "verdict",
        "error",
        "epoch",
        "solver_spec",
        "fde_spec",
        "trace",
        "attributes",
        "epoch_ref",
        "context",
        "monitor",
    )

    def __init__(
        self,
        request_id: Optional[str],
        status: str,
        solver: str,
        recorded_at: float,
        config_hash: str,
        inputs_digest: str = "",
        trace_id: Optional[str] = "",
        trigger: Optional[str] = None,
        stage_seconds: Optional[Dict[str, float]] = None,
        verdict: Optional[Dict] = None,
        error: Optional[str] = None,
        epoch: Optional[Dict] = None,
        solver_spec: Optional[Dict] = None,
        fde_spec: Optional[Dict] = None,
        trace: Optional[object] = None,
        attributes: Optional[Dict] = None,
        epoch_ref: Optional[object] = None,
        context: Optional[object] = None,
        monitor: Optional[Dict] = None,
    ) -> None:
        self._request_id = request_id
        self.status = status
        self.solver = solver
        self.recorded_at = recorded_at
        self.config_hash = config_hash
        self.inputs_digest = inputs_digest
        self._trace_id = trace_id
        self.trigger = trigger
        self.stage_seconds = {} if stage_seconds is None else stage_seconds
        self.verdict = verdict
        self.error = error
        self.epoch = epoch
        self.solver_spec = {} if solver_spec is None else solver_spec
        self.fde_spec = fde_spec
        # A dict, or any object with to_dict() (e.g. a RequestTrace) —
        # serialized lazily so the serving path never renders span
        # trees.
        self.trace = trace
        self.attributes = {} if attributes is None else attributes
        # Live epoch for lazy digesting; never serialized (the
        # replayable form is `epoch`, captured only for triggered
        # records).
        self.epoch_ref = epoch_ref
        # TraceContext for lazy id resolution; when request_id/trace_id
        # are None the strings format here on first read instead of on
        # the serving path.
        self.context = context
        # The signal-plausibility verdict dict, set only when a monitor
        # raised on this fix (nominal epochs carry None).
        self.monitor = monitor

    @property
    def request_id(self) -> str:
        value = self._request_id
        if value is None:
            context = self.context
            value = context.request_id if context is not None else ""
            self._request_id = value
        return value

    @property
    def trace_id(self) -> str:
        value = self._trace_id
        if value is None:
            context = self.context
            value = context.trace_id if context is not None else ""
            self._trace_id = value
        return value

    def __repr__(self) -> str:
        return (
            f"FixRecord(request_id={self.request_id!r}, "
            f"status={self.status!r}, solver={self.solver!r}, "
            f"trigger={self.trigger!r})"
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FixRecord)
            and self.to_dict() == other.to_dict()
        )

    __hash__ = None  # mutable digest cache inside; not hashable

    @property
    def digest(self) -> str:
        """The inputs digest, hashed from ``epoch_ref`` on first read."""
        if self.inputs_digest:
            return self.inputs_digest
        if self.epoch_ref is not None:
            value = epoch_digest(self.epoch_ref)
            self.inputs_digest = value
            return value
        return ""

    def to_dict(self) -> Dict:
        return {
            "request_id": self.request_id,
            "trace_id": self.trace_id,
            "status": self.status,
            "solver": self.solver,
            "trigger": self.trigger,
            "recorded_at": self.recorded_at,
            "inputs_digest": self.digest,
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
        "seed": int((record.digest or "0")[:8], 16),
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


def _entry_request_id(entry) -> str:
    """A lazy flush entry's request id, without materializing it."""
    shared = entry[0]
    context = entry[1]
    if context is not None:
        # The service stores a bare request number per entry; format
        # the id directly rather than materializing a context for it.
        if type(context) is int:
            return format_request_id(context)
        return context.request_id
    return f"fix-{shared[2].get('batch_sequence', 0)}-{entry[8]}"


def _materialize_entry(entry) -> FixRecord:
    """Build the :class:`FixRecord` a lazy flush entry stands for."""
    if type(entry) is FixRecord:
        return entry
    (
        shared,
        context,
        status,
        solver,
        error,
        integrity,
        trace,
        epoch,
        index,
    ) = entry
    recorded_at, cfg_hash, attributes, stages, solver_spec, fde_spec = shared
    if type(context) is int:
        # Materialize the number the service stored: through the
        # request's trace when one rode along (it carries the
        # deadline), directly otherwise.
        context = (
            trace.context
            if trace is not None
            else TraceContext.from_number(context)
        )
    return FixRecord(
        (
            None
            if context is not None
            else f"fix-{attributes.get('batch_sequence', 0)}-{index}"
        ),
        status,
        solver or "",
        recorded_at,
        cfg_hash,
        "",  # inputs_digest: lazy, via epoch_ref
        None if context is not None else "",
        None,  # lazy entries are untriggered by construction
        stages,
        integrity.to_dict() if integrity is not None else None,
        error,
        None,  # no captured epoch payload for uneventful fixes
        solver_spec,
        fde_spec,
        trace,
        attributes,
        epoch,  # epoch_ref
        context,
    )


# -- the recorder -------------------------------------------------------
class FlightRecorder:
    """Bounded per-fix capture with triggered incident dumps."""

    enabled = True

    def __init__(self, config: Optional[RecorderConfig] = None) -> None:
        self._config = config if config is not None else RecorderConfig()
        self._ring: Deque[FixRecord] = deque(maxlen=self._config.capacity)
        self._dump_paths: List[str] = []
        self._dump_failures = 0
        self._lock = threading.Lock()
        # Per-registry cached counter children; record() runs once per
        # served fix, so the name->metric->child lookups are hoisted
        # out of the hot path (invalidated when the installed registry
        # changes, e.g. across tests).
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

    def record(self, record: FixRecord) -> Optional[str]:
        """Retain one fix; dump it if triggered.  Returns the artifact
        path when a dump was written."""
        # Lock-free hot path: deque.append is atomic under the GIL and
        # the config fields are immutable, so the only state needing
        # the lock (dump bookkeeping) lives on the triggered branch.
        self._ring.append(record)
        registry = _get_registry()
        if registry.enabled:
            if registry is not self._handles_registry:
                self._bind_fix_counters(registry)
            if record.trigger is not None:
                self._fixes_triggered.inc()
            else:
                self._fixes_untriggered.inc()
        if record.trigger is None:
            return None
        return self._maybe_dump(record, registry)

    def record_batch(self, records: Sequence[FixRecord]) -> List[str]:
        """Retain one flush's fixes; dump the triggered ones.

        The serving path resolves a whole batch at once, so the counter
        arithmetic runs once per flush (two increments) instead of once
        per fix.  Returns the artifact paths written, in record order.
        """
        ring_append = self._ring.append
        triggered: Optional[List[FixRecord]] = None
        for record in records:
            ring_append(record)
            if record.trigger is not None:
                if triggered is None:
                    triggered = [record]
                else:
                    triggered.append(record)
        registry = _get_registry()
        if registry.enabled:
            if registry is not self._handles_registry:
                self._bind_fix_counters(registry)
            n_triggered = 0 if triggered is None else len(triggered)
            if n_triggered:
                self._fixes_triggered.inc(n_triggered)
            if len(records) > n_triggered:
                self._fixes_untriggered.inc(len(records) - n_triggered)
        if triggered is None:
            return []
        paths = []
        for record in triggered:
            path = self._maybe_dump(record, registry)
            if path is not None:
                paths.append(path)
        return paths

    def record_flush(
        self, entries: Sequence, triggered: Sequence[FixRecord]
    ) -> List[str]:
        """Retain one flush, mostly as *lazy* entries.

        ``entries`` is the flush in request order: uneventful fixes as
        ``(shared, context, status, solver, error, integrity, trace,
        epoch, index)`` tuples over values the dispatch loop already
        holds (``context`` may be a bare request *number* — the
        service's cheapest identity — a :class:`TraceContext`, or
        ``None``), anomalies as eager :class:`FixRecord` instances
        (``triggered`` lists exactly those).  A lazy entry materializes
        into a record on first read (:meth:`find`, :meth:`records`,
        :meth:`snapshot`), so the serving path pays one tuple per fix
        and one C-level ring extend per flush.  Deliberately *not*
        retained: the ``ServiceResult`` itself.  An entry holds the
        five scalar-ish fields a record needs, so the bulky result
        graph (position array, per-request timing) dies with the
        caller while still cache-hot — a ring that pins the last N
        result graphs pays their deallocation a few flushes later,
        against cold memory, which measures as the recorder's largest
        hot-path cost.
        """
        self._ring.extend(entries)
        registry = _get_registry()
        if registry.enabled:
            if registry is not self._handles_registry:
                self._bind_fix_counters(registry)
            if triggered:
                self._fixes_triggered.inc(len(triggered))
            if len(entries) > len(triggered):
                self._fixes_untriggered.inc(len(entries) - len(triggered))
        if not triggered:
            return []
        paths = []
        for record in triggered:
            path = self._maybe_dump(record, registry)
            if path is not None:
                paths.append(path)
        return paths

    def _maybe_dump(self, record: FixRecord, registry) -> Optional[str]:
        """Write the incident artifact for a triggered record, if the
        dump policy allows one."""
        if (
            record.trigger not in self._config.triggers
            or record.epoch is None
            or self._config.dump_dir is None
        ):
            return None
        with self._lock:
            if len(self._dump_paths) >= self._config.max_dumps:
                return None
        path = self._dump(record)
        if path is not None and registry.enabled:
            registry.counter(
                "repro_recorder_dumps_total",
                "Incident artifacts written, by trigger.",
                labels=("trigger",),
            ).labels(trigger=record.trigger).inc()
        return path

    def _dump(self, record: FixRecord) -> Optional[str]:
        try:
            payload = build_incident_payload(record)
            directory = Path(self._config.dump_dir)
            directory.mkdir(parents=True, exist_ok=True)
            name = f"incident-{record.trigger}-{record.request_id or record.digest}.json"
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
    def records(self, last: Optional[int] = None) -> List[FixRecord]:
        """The most recent ``last`` records (all, oldest-first, when
        ``None``)."""
        with self._lock:
            items = list(self._ring)
        if last is not None:
            items = items[-last:]
        return [_materialize_entry(entry) for entry in items]

    def find(self, request_id: str) -> Optional[FixRecord]:
        """The retained record for ``request_id`` (newest wins)."""
        with self._lock:
            for entry in reversed(self._ring):
                if type(entry) is FixRecord:
                    if entry.request_id == request_id:
                        return entry
                elif _entry_request_id(entry) == request_id:
                    return _materialize_entry(entry)
        return None

    def snapshot(self) -> Dict:
        """JSON-ready view (the ``/records`` endpoint, inspect)."""
        with self._lock:
            records = [
                _materialize_entry(entry).to_dict() for entry in self._ring
            ]
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


class NullRecorder:
    """The no-op recorder installed by default: one attribute check."""

    enabled = False

    def record(self, record) -> None:
        return None

    def records(self, last: Optional[int] = None) -> List:
        return []

    def find(self, request_id: str) -> None:
        return None

    def snapshot(self) -> Dict:
        return {"capacity": 0, "retained": 0, "dump_dir": None,
                "dumps": [], "dump_failures": 0, "records": []}


NULL_RECORDER = NullRecorder()

_active_recorder = NULL_RECORDER


def get_recorder():
    """The process-wide recorder library hooks report to (no-op by
    default)."""
    return _active_recorder


def install_recorder(recorder: Optional[FlightRecorder] = None) -> FlightRecorder:
    """Install a recorder process-wide and return it."""
    global _active_recorder
    _active_recorder = recorder if recorder is not None else FlightRecorder()
    return _active_recorder


def uninstall_recorder() -> None:
    """Back to the no-op recorder."""
    global _active_recorder
    _active_recorder = NULL_RECORDER


def now_seconds() -> float:
    """Wall-clock stamp for records (monotonic stays for spans)."""
    return time.time()
