"""The SLO engine: streaming quantiles, availability, error budgets.

Three layers, each usable alone:

* :class:`QuantileSketch` — a dependency-free DDSketch-style streaming
  quantile estimator: log-spaced buckets with a configurable *relative*
  accuracy guarantee, **mergeable** (merging two sketches is exact bin
  addition), serializable, and cheap to feed (one ``log`` and one dict
  increment per observation).  Mergeability is the property the
  sharded tier needs: per-worker sketches combine into fleet
  percentiles without holding raw samples anywhere.
* :class:`WindowedQuantiles` — a ring of sub-sketches rotated on a
  monotonic clock, so queries answer "the last ``window_seconds ×
  windows`` seconds", not "since process start".  Old traffic ages out
  instead of pinning the percentiles forever.
* :class:`SloTracker` — the service-facing rollup: feed it
  ``(status, latency)`` per finished request and it maintains windowed
  p50/p90/p99/p999, availability by status class, and the remaining
  error budget against a configured availability target; it publishes
  everything as gauges/counters into a
  :class:`~repro.telemetry.registry.MetricsRegistry` on demand (a
  scrape), not per observation, so the request hot path never pays for
  a quantile query.

Status classes: ``ok`` counts as **success**; ``failed``, ``timeout``
and ``rejected`` count as **error** (the service failed its caller);
``invalid`` and ``cancelled`` count as **client** (the caller's own
doing) and are excluded from availability.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import ConfigurationError

#: Service statuses that count against availability.  ``retryable``
#: (a shard worker died mid-batch) is explicitly an error: the caller
#: did nothing wrong and the fleet failed to answer.
ERROR_STATUSES: Tuple[str, ...] = ("failed", "timeout", "rejected", "retryable")
#: Caller-attributable statuses, excluded from availability.
CLIENT_STATUSES: Tuple[str, ...] = ("invalid", "cancelled")


#: status -> class, precomputed: the tracker classifies per request.
#: Unknown statuses fail safe (error): they hurt availability.
_STATUS_CLASSES: Dict[str, str] = {
    "ok": "success",
    **{status: "error" for status in ERROR_STATUSES},
    **{status: "client" for status in CLIENT_STATUSES},
}


class QuantileSketch:
    """Mergeable log-bucket quantile sketch with relative-error bounds.

    Values are assigned to geometric buckets ``gamma^i`` with
    ``gamma = (1 + alpha) / (1 - alpha)``; any quantile estimate is
    within ``alpha`` *relative* error of a true sample value.  Values
    ``<= 0`` land in a dedicated zero bucket (latencies are never
    negative; a clock hiccup should not corrupt the sketch).
    """

    __slots__ = ("_alpha", "_gamma", "_log_gamma", "_bins", "zero_count",
                 "count", "sum", "min", "max")

    def __init__(self, relative_accuracy: float = 0.01) -> None:
        if not 0.0 < relative_accuracy < 1.0:
            raise ConfigurationError("relative_accuracy must be in (0, 1)")
        self._alpha = float(relative_accuracy)
        self._gamma = (1.0 + self._alpha) / (1.0 - self._alpha)
        self._log_gamma = math.log(self._gamma)
        self._bins: Dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    @property
    def relative_accuracy(self) -> float:
        """The configured relative error bound alpha."""
        return self._alpha

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        if math.isnan(value):
            return
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self.zero_count += 1
            return
        index = math.ceil(math.log(value) / self._log_gamma)
        self._bins[index] = self._bins.get(index, 0) + 1

    def observe_many(self, values: Sequence[float]) -> None:
        """Record a batch of samples in vectorized bucket arithmetic.

        Equivalent to ``observe`` per value (NaNs skipped, values
        ``<= 0`` to the zero bucket), but the log-bucket indices for
        the whole batch come from one numpy pass and collapse to one
        dict increment per *distinct* bucket — a flush of similar
        latencies touches a handful of bins, not one per request.
        """
        array = np.asarray(values, dtype=float)
        if array.size:
            array = array[~np.isnan(array)]
        if not array.size:
            return
        self.count += int(array.size)
        self.sum += float(array.sum())
        low = float(array.min())
        high = float(array.max())
        if low < self.min:
            self.min = low
        if high > self.max:
            self.max = high
        positive = array[array > 0.0]
        zeros = int(array.size - positive.size)
        if zeros:
            self.zero_count += zeros
        if positive.size:
            indices = np.ceil(np.log(positive) / self._log_gamma)
            unique, counts = np.unique(indices.astype(np.int64), return_counts=True)
            bins = self._bins
            for index, count in zip(unique.tolist(), counts.tolist()):
                bins[index] = bins.get(index, 0) + count

    def quantile(self, q: float) -> float:
        """The estimated ``q``-quantile (``0 <= q <= 1``); NaN if empty."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        rank = q * (self.count - 1)
        seen = self.zero_count
        if rank < seen:
            return 0.0
        for index in sorted(self._bins):
            seen += self._bins[index]
            if rank < seen:
                # Bucket midpoint: 2*gamma^i / (gamma + 1) keeps the
                # estimate within alpha of the bucket's edges.
                return 2.0 * self._gamma**index / (self._gamma + 1.0)
        return self.max

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` into this sketch (exact: bin addition)."""
        if not isinstance(other, QuantileSketch):
            raise ConfigurationError("can only merge QuantileSketch instances")
        if other._gamma != self._gamma:
            raise ConfigurationError(
                "cannot merge sketches with different relative accuracies: "
                f"{self._alpha} vs {other._alpha}"
            )
        for index, count in other._bins.items():
            self._bins[index] = self._bins.get(index, 0) + count
        self.zero_count += other.zero_count
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @classmethod
    def merged(cls, sketches: Iterable["QuantileSketch"]) -> "QuantileSketch":
        """A fresh sketch holding the union of ``sketches``."""
        sketches = list(sketches)
        result = cls(
            relative_accuracy=(
                sketches[0]._alpha if sketches else 0.01
            )
        )
        for sketch in sketches:
            result.merge(sketch)
        return result

    def to_dict(self) -> Dict:
        """Serializable form (cross-process merge, snapshots)."""
        return {
            "relative_accuracy": self._alpha,
            "bins": {str(k): v for k, v in self._bins.items()},
            "zero_count": self.zero_count,
            "count": self.count,
            "sum": self.sum,
            "min": None if math.isinf(self.min) else self.min,
            "max": None if math.isinf(self.max) else self.max,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "QuantileSketch":
        sketch = cls(relative_accuracy=float(payload["relative_accuracy"]))
        sketch._bins = {int(k): int(v) for k, v in payload["bins"].items()}
        sketch.zero_count = int(payload["zero_count"])
        sketch.count = int(payload["count"])
        sketch.sum = float(payload["sum"])
        sketch.min = math.inf if payload["min"] is None else float(payload["min"])
        sketch.max = -math.inf if payload["max"] is None else float(payload["max"])
        return sketch


class WindowedQuantiles:
    """A ring of :class:`QuantileSketch` windows rotated on a clock.

    Observations land in the current window; queries merge the live
    windows, so the answer covers at most ``windows × window_seconds``
    of history and traffic older than that ages out one window at a
    time.  A rotation is O(1); it just retires the oldest sub-sketch.
    """

    def __init__(
        self,
        window_seconds: float = 60.0,
        windows: int = 5,
        relative_accuracy: float = 0.01,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if window_seconds <= 0:
            raise ConfigurationError("window_seconds must be positive")
        if windows < 1:
            raise ConfigurationError("windows must be >= 1")
        self._window_seconds = float(window_seconds)
        self._windows = int(windows)
        self._alpha = float(relative_accuracy)
        self._clock = clock
        self._ring: List[QuantileSketch] = [QuantileSketch(self._alpha)]
        self._rotated_at = clock()

    def _rotate_if_due(self) -> None:
        now = self._clock()
        elapsed = now - self._rotated_at
        if elapsed < self._window_seconds:
            return
        # A long quiet gap can span several windows; retire them all.
        steps = min(self._windows, int(elapsed / self._window_seconds))
        for _ in range(steps):
            self._ring.append(QuantileSketch(self._alpha))
        del self._ring[: max(0, len(self._ring) - self._windows)]
        self._rotated_at = now

    def observe(self, value: float) -> None:
        """Record one sample into the current window."""
        self._rotate_if_due()
        self._ring[-1].observe(value)

    def merged(self) -> QuantileSketch:
        """One sketch over every live window."""
        self._rotate_if_due()
        return QuantileSketch.merged(self._ring)

    def quantile(self, q: float) -> float:
        """The windowed ``q``-quantile."""
        return self.merged().quantile(q)

    @property
    def count(self) -> int:
        """Samples across the live windows."""
        return sum(sketch.count for sketch in self._ring)


@dataclass(frozen=True)
class SloConfig:
    """Objectives and windowing for one :class:`SloTracker`.

    Attributes
    ----------
    availability_target:
        The fraction of non-client requests that must succeed; the
        error budget is ``1 - availability_target``.
    latency_objectives:
        ``{quantile_label: seconds}`` targets (e.g. ``{"p99": 0.05}``);
        purely informational gauges — the tracker reports compliance,
        callers decide what to do about it.
    quantiles:
        Which quantiles to publish, as ``(label, q)`` pairs.
    window_seconds / windows:
        The sliding window the quantiles and availability cover.
    relative_accuracy:
        Sketch accuracy (see :class:`QuantileSketch`).
    """

    availability_target: float = 0.999
    latency_objectives: Tuple[Tuple[str, float], ...] = (("p99", 0.05),)
    quantiles: Tuple[Tuple[str, float], ...] = (
        ("p50", 0.50),
        ("p90", 0.90),
        ("p99", 0.99),
        ("p999", 0.999),
    )
    window_seconds: float = 60.0
    windows: int = 5
    relative_accuracy: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 < self.availability_target < 1.0:
            raise ConfigurationError("availability_target must be in (0, 1)")
        labels = {label for label, _ in self.quantiles}
        for label, seconds in self.latency_objectives:
            if label not in labels:
                raise ConfigurationError(
                    f"latency objective {label!r} is not a published "
                    f"quantile {sorted(labels)}"
                )
            if seconds <= 0:
                raise ConfigurationError("latency objectives must be positive")


class SloTracker:
    """Windowed SLO rollup fed per request, published per scrape.

    ``observe`` is the hot-path half (one sketch insert and two dict
    increments); ``publish``/``snapshot`` are the scrape-time half,
    where quantile queries and budget arithmetic happen.
    """

    def __init__(
        self,
        config: Optional[SloConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._config = config if config is not None else SloConfig()
        self._latency = WindowedQuantiles(
            window_seconds=self._config.window_seconds,
            windows=self._config.windows,
            relative_accuracy=self._config.relative_accuracy,
            clock=clock,
        )
        self._by_status: Dict[str, int] = {}
        self._by_class: Dict[str, int] = {"success": 0, "error": 0, "client": 0}

    @property
    def config(self) -> SloConfig:
        """The objectives this tracker grades against."""
        return self._config

    def observe(self, status: str, latency_seconds: float) -> None:
        """Record one finished request.

        Runs once per request on the serving path, so the window
        rotation check and sketch insert are inlined here rather than
        layered through :class:`WindowedQuantiles` method calls.
        """
        by_status = self._by_status
        by_status[status] = by_status.get(status, 0) + 1
        cls = _STATUS_CLASSES.get(status, "error")
        self._by_class[cls] += 1
        if cls != "client":
            window = self._latency
            if window._clock() - window._rotated_at >= window._window_seconds:
                window._rotate_if_due()
            window._ring[-1].observe(latency_seconds)

    def observe_batch(
        self,
        statuses: Sequence[str],
        latencies: Sequence[float],
    ) -> None:
        """Record one flush's worth of finished requests.

        Same accounting as :meth:`observe`, but the window-rotation
        check runs once for the whole batch and the sketch inserts
        collapse into one vectorized :meth:`QuantileSketch.observe_many`
        (or a bound-method loop below the numpy break-even size) — the
        serving path resolves whole batches at once, so per-request
        layering would be pure overhead.
        """
        by_status = self._by_status
        by_class = self._by_class
        classes = _STATUS_CLASSES
        # One C-level pass over the statuses, then per *distinct* status
        # bookkeeping: a healthy flush is a single "ok" entry, not one
        # dict update per request.
        client = 0
        for status, count in Counter(statuses).items():
            by_status[status] = by_status.get(status, 0) + count
            cls = classes.get(status, "error")
            by_class[cls] += count
            if cls == "client":
                client += count
        if client:
            graded = [
                latency
                for status, latency in zip(statuses, latencies)
                if classes.get(status, "error") != "client"
            ]
        else:
            graded = latencies
        if not graded:
            return
        window = self._latency
        if window._clock() - window._rotated_at >= window._window_seconds:
            window._rotate_if_due()
        sketch = window._ring[-1]
        # list -> ndarray conversion makes the vectorized insert a wash
        # below ~100 samples; small flushes keep the bound-method loop.
        if len(graded) >= 96:
            sketch.observe_many(graded)
        else:
            observe = sketch.observe
            for latency in graded:
                observe(latency)

    # -- scrape-time rollups -------------------------------------------
    @property
    def availability(self) -> float:
        """Fraction of non-client requests that succeeded (1.0 if none)."""
        success = self._by_class.get("success", 0)
        error = self._by_class.get("error", 0)
        total = success + error
        return 1.0 if total == 0 else success / total

    @property
    def error_budget_remaining(self) -> float:
        """Remaining fraction of the error budget (can go negative).

        1.0 = untouched, 0.0 = exactly spent, negative = blown: the
        overshoot is proportional, so ``-1.0`` means errors ran at
        twice the budget.
        """
        budget = 1.0 - self._config.availability_target
        consumed = 1.0 - self.availability
        return 1.0 - consumed / budget

    def latency_quantiles(self) -> Dict[str, float]:
        """The configured quantiles over the live window."""
        merged = self._latency.merged()
        return {label: merged.quantile(q) for label, q in self._config.quantiles}

    def snapshot(self) -> Dict:
        """JSON-ready rollup (the ``/slo`` endpoint, bench records)."""
        quantiles = self.latency_quantiles()
        objectives = {
            label: {
                "target_seconds": target,
                "actual_seconds": quantiles.get(label, math.nan),
                "met": bool(
                    not math.isnan(quantiles.get(label, math.nan))
                    and quantiles[label] <= target
                ),
            }
            for label, target in self._config.latency_objectives
        }
        return {
            "availability": self.availability,
            "availability_target": self._config.availability_target,
            "error_budget_remaining": self.error_budget_remaining,
            "latency_seconds": quantiles,
            "latency_objectives": objectives,
            "requests_by_status": dict(sorted(self._by_status.items())),
            "requests_by_class": dict(sorted(self._by_class.items())),
            "window_seconds": self._config.window_seconds * self._config.windows,
            "window_samples": self._latency.count,
        }

    def publish(self, registry) -> None:
        """Write the rollup into a metrics registry (scrape-time)."""
        if not getattr(registry, "enabled", False):
            return
        quantile_gauge = registry.gauge(
            "repro_slo_latency_seconds",
            "Windowed request-latency quantiles.",
            labels=("quantile",),
        )
        for label, value in self.latency_quantiles().items():
            quantile_gauge.labels(quantile=label).set(
                0.0 if math.isnan(value) else value
            )
        registry.gauge(
            "repro_slo_availability",
            "Windowed fraction of non-client requests served ok.",
        ).set(self.availability)
        registry.gauge(
            "repro_slo_error_budget_remaining",
            "Remaining error budget fraction (negative = blown).",
        ).set(self.error_budget_remaining)
        class_counter = registry.counter(
            "repro_slo_requests_total",
            "Requests graded by the SLO engine, by status class.",
            labels=("status_class",),
        )
        published = getattr(self, "_published_classes", None)
        if published is None:
            published = {}
            self._published_classes = published
        for cls, count in self._by_class.items():
            delta = count - published.get(cls, 0)
            if delta > 0:
                class_counter.labels(status_class=cls).inc(delta)
                published[cls] = count
