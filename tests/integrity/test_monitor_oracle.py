"""The monitor suite against a per-monitor reference, bit for bit.

:class:`~repro.integrity.monitors.MonitorSuite` shares its reductions
over one :class:`~repro.integrity.monitors.StreamContext` (C/N0 masks,
counts, sums, extremes; the key alignment; the per-system clock
residuals as one bincount) and fills preallocated ``(K, N)`` lanes.
:class:`ReferenceSuite` below keeps the formulas the suite had before
that: each monitor builds its own masks and masked reductions and its
own ``np.full`` threshold lane, the clock-drift monitor takes one
masked mean per system, and the suite stacks the lanes.

Over seeded G+E streams with dropout-padded rows, NaN rows from failed
solves, C/N0 attacks and clock pulls, cut at random into several
``observe_stream`` calls, severities, flags, statistics and thresholds
must agree bit for bit.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import build_scene
from repro.blocks import pack_stream
from repro.constellation.systems import SYSTEM_CODES
from repro.integrity.monitors import (
    SEVERITY_SPOOFED,
    MonitorConfig,
    StationaryPositionMonitor,
    StationaryVelocityMonitor,
    StreamContext,
)
from repro.observations import ObservationEpoch
from repro.signals import SignalFeatureModel
from repro.timebase import GpsTime

SECONDS_PER_WEEK = 604800.0


def masked_min(values):
    mask = np.isfinite(values)
    filled = np.where(mask, values, np.inf)
    empty = np.full(values.shape[:-1], np.inf)
    result = filled.min(axis=-1) if values.shape[-1] else empty
    return np.where(mask.any(axis=-1), result, np.nan)


def masked_max(values):
    mask = np.isfinite(values)
    filled = np.where(mask, values, -np.inf)
    empty = np.full(values.shape[:-1], -np.inf)
    result = filled.max(axis=-1) if values.shape[-1] else empty
    return np.where(mask.any(axis=-1), result, np.nan)


def masked_mean(values):
    mask = np.isfinite(values)
    counts = mask.sum(axis=-1)
    sums = np.where(mask, values, 0.0).sum(axis=-1)
    return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


def masked_std(values, min_count):
    mask = np.isfinite(values)
    counts = mask.sum(axis=-1)
    safe = np.maximum(counts, 1)
    means = np.where(mask, values, 0.0).sum(axis=-1) / safe
    centered = np.where(mask, values - means[..., np.newaxis], 0.0)
    variance = (centered**2).sum(axis=-1) / safe
    return np.where(counts >= min_count, np.sqrt(variance), np.nan)


def reference_context(packed, positions, zenith, horizon):
    block = packed.block
    n, width = len(block), block.width
    occupied = block.occupied
    keys = np.where(occupied, block.prns * 4 + block.systems.astype(np.int64), -1)
    systems = np.where(occupied, block.systems, -1).astype(np.int8)
    satellites = np.where(occupied[:, :, np.newaxis], block.positions, np.nan)
    pseudoranges = np.where(occupied, block.pseudoranges, np.nan)
    cn0 = np.full((n, width), np.nan)
    if block.cn0 is not None:
        cn0 = np.where(occupied, block.cn0, np.nan)
    receiver = np.asarray(positions, dtype=float).reshape(n, 3)
    delta = satellites - receiver[:, np.newaxis, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        ranges = np.sqrt(np.einsum("ijk,ijk->ij", delta, delta))
        norms = np.sqrt(np.einsum("ij,ij->i", receiver, receiver))
        up = receiver / norms[:, np.newaxis]
        sin_el = np.einsum("ijk,ik->ij", delta, up) / ranges
    nominal = horizon + (zenith - horizon) * np.clip(sin_el, 0.0, 1.0)
    return StreamContext(
        times=block.weeks * SECONDS_PER_WEEK + block.seconds_of_week,
        receiver_positions=receiver,
        cn0=cn0,
        nominal_cn0=nominal,
        keys=keys,
        system_ids=systems,
        sat_positions=satellites,
        pseudoranges=pseudoranges,
        ranges=ranges,
    )


class ReferenceSuite:
    """The default suite, one monitor at a time, each on its own."""

    def __init__(self, config: MonitorConfig) -> None:
        self.config = config
        self.last_keys = self.last_cn0 = None
        self.carry_times = np.empty(0)
        self.carry_biases = np.empty((0, len(SYSTEM_CODES)))
        self.position = StationaryPositionMonitor(
            config.learn_epochs,
            config.position_floor_meters,
            config.position_sigma_multiplier,
        )
        self.velocity = StationaryVelocityMonitor(
            config.learn_epochs,
            config.velocity_floor_mps,
            config.velocity_sigma_multiplier,
            config.max_gap_seconds,
        )
        self.history = np.zeros((7, 0), dtype=bool)

    def drops(self, ctx):
        """Row by row, by key: the previous epoch's C/N0 minus this one's."""
        n, width = len(ctx), ctx.width
        drops = np.full((n, width), np.nan)
        for row in range(n):
            if row:
                previous_keys, previous_cn0 = ctx.keys[row - 1], ctx.cn0[row - 1]
            elif self.last_keys is not None:
                previous_keys, previous_cn0 = self.last_keys, self.last_cn0
            else:
                continue
            keys = ctx.keys[row]
            if previous_keys.shape[0] == width and (previous_keys == keys).all():
                drops[row] = previous_cn0 - ctx.cn0[row]
                continue
            lookup = {
                int(k): c for k, c in zip(previous_keys, previous_cn0) if k >= 0
            }
            for slot, key in enumerate(keys):
                if key >= 0 and int(key) in lookup:
                    drops[row, slot] = lookup[int(key)] - ctx.cn0[row, slot]
        if n and width:
            self.last_keys, self.last_cn0 = ctx.keys[-1].copy(), ctx.cn0[-1].copy()
        return drops

    def drift(self, ctx):
        config = self.config
        n, k = len(ctx), len(SYSTEM_CODES)
        biases = np.full((n, k), np.nan)
        residuals = ctx.pseudoranges - ctx.ranges
        for system in range(k):
            members = ctx.system_ids == system
            if members.any():
                biases[:, system] = masked_mean(np.where(members, residuals, np.nan))
        times = np.concatenate([self.carry_times, ctx.times])
        series = np.concatenate([self.carry_biases, biases])
        offset = len(self.carry_times)
        rates = np.full((n, k), np.nan)
        window = config.clock_drift_window
        for row in range(n):
            ref = row + offset - window
            if ref < 0:
                continue
            dt = ctx.times[row] - times[ref]
            if np.isfinite(dt) and 0 < dt <= config.max_gap_seconds * window:
                rates[row] = (series[row + offset] - series[ref]) / dt
        keep = min(len(times), window)
        self.carry_times = times[len(times) - keep :].copy()
        self.carry_biases = series[len(series) - keep :].copy()
        return masked_max(np.abs(rates))

    def observe(self, packed, positions):
        config = self.config
        ctx = reference_context(
            packed, positions, config.zenith_dbhz, config.horizon_dbhz
        )
        n = len(ctx)
        deviation = ctx.cn0 - ctx.nominal_cn0
        weak = ctx.cn0 < config.cn0_threshold_dbhz
        drops = self.drops(ctx)
        dropped = drops > config.cn0_drop_db
        spread = masked_std(deviation, 4)
        suppression = masked_mean(deviation)
        rate = self.drift(ctx)
        position = self.position.observe(ctx)
        velocity = self.velocity.observe(ctx)
        # (breach, statistic, threshold lane, per-satellite flags)
        outputs = [
            (
                weak.sum(axis=1) >= config.cn0_min_flagged,
                masked_min(ctx.cn0),
                np.full(n, config.cn0_threshold_dbhz),
                weak,
            ),
            (
                dropped.any(axis=1),
                masked_max(drops),
                np.full(n, config.cn0_drop_db),
                dropped,
            ),
            (
                spread > config.cn0_spread_db,
                spread,
                np.full(n, config.cn0_spread_db),
                None,
            ),
            (
                suppression < -config.agc_suppression_db,
                suppression,
                np.full(n, -config.agc_suppression_db),
                None,
            ),
            (
                rate > config.clock_drift_max_mps,
                rate,
                np.full(n, config.clock_drift_max_mps),
                None,
            ),
            (position.breach, position.statistic, position.threshold, None),
            (velocity.breach, velocity.statistic, velocity.threshold, None),
        ]
        breaches = np.stack([output[0] for output in outputs])
        extended = np.concatenate([self.history, breaches], axis=1)
        offset = self.history.shape[1]
        window, required = config.confirm_window, config.confirm_epochs
        confirmed = np.zeros_like(breaches)
        for row in range(n):
            end = offset + row + 1
            counts = extended[:, max(end - window, 0) : end].sum(axis=1)
            confirmed[:, row] = breaches[:, row] & (counts >= required)
        keep = min(extended.shape[1], window - 1)
        self.history = extended[:, extended.shape[1] - keep :]
        severities = breaches.astype(np.int8)
        severities[confirmed] = SEVERITY_SPOOFED
        flagged = np.zeros((7, n, ctx.width), dtype=bool)
        for index, output in enumerate(outputs):
            if output[3] is not None:
                flagged[index] = output[3] & output[0][:, np.newaxis]
        return {
            "severities": severities.max(axis=0),
            "monitor_severities": severities,
            "statistics": np.stack([output[1] for output in outputs]),
            "thresholds": np.stack([output[2] for output in outputs]),
            "flagged": flagged,
            "keys": ctx.keys,
        }


def assert_bits_equal(name, fused, reference):
    fused, reference = np.asarray(fused), np.asarray(reference)
    assert fused.shape == reference.shape, name
    if fused.dtype.kind == "f":
        same = (fused.view(np.uint64) == reference.view(np.uint64)) | (
            np.isnan(fused) & np.isnan(reference)
        )
        assert same.all(), f"{name}: {fused[~same]} != {reference[~same]}"
    else:
        np.testing.assert_array_equal(fused, reference, err_msg=name)


@st.composite
def streams(draw):
    """A stationary G+E receiver's stream with faults, and its cuts."""
    layout = {"G": draw(st.integers(4, 8)), "E": draw(st.integers(4, 7))}
    seed = draw(st.integers(0, 2**16))
    n = draw(st.integers(12, 48))
    rng = np.random.default_rng(seed)
    template = build_scene(
        layout, clock_bias_meters={"G": 120.0, "E": -80.0}, seed=seed
    )
    truth = template.truth.receiver_position
    features = SignalFeatureModel(seed=seed)
    attack = draw(st.sampled_from(["none", "jam", "fade", "pull", "flat"]))
    onset = draw(st.integers(0, n - 1))
    epochs = []
    for t in range(n):
        pull = 30.0 * (t - onset) if attack == "pull" and t >= onset else 0.0
        observations = [
            replace(obs, pseudorange=obs.pseudorange + rng.normal(0.0, 0.5) + pull)
            for obs in template.observations
        ]
        epoch = features.attach(
            ObservationEpoch(template.time, tuple(observations), template.truth)
        )
        observations = list(epoch.observations)
        if t >= onset and attack in ("jam", "fade", "flat"):
            for index, obs in enumerate(observations):
                if attack == "jam":
                    cn0 = obs.cn0_dbhz - 14.0
                elif attack == "fade":
                    cn0 = obs.cn0_dbhz - 20.0 if index % 3 == 0 else obs.cn0_dbhz
                else:
                    cn0 = 44.0
                observations[index] = replace(obs, cn0_dbhz=cn0)
        if rng.random() < 0.2:  # a dropout: this row is padded
            del observations[int(rng.integers(len(observations)))]
        if rng.random() < 0.1:  # a channel reports no C/N0
            index = int(rng.integers(len(observations)))
            observations[index] = replace(observations[index], cn0_dbhz=None)
        epochs.append(
            ObservationEpoch(
                GpsTime(week=2200, seconds_of_week=1000.0 + t),
                tuple(observations),
                epoch.truth,
            )
        )
    positions = truth + rng.normal(0.0, 2.0, size=(n, 3))
    positions[rng.random(n) < 0.15] = np.nan  # failed solves
    cuts = sorted(set(draw(st.lists(st.integers(1, n - 1), max_size=5))))
    return epochs, positions, [0, *cuts, n]


@given(streams())
@settings(max_examples=30, deadline=None)
def test_fused_suite_matches_the_per_monitor_reference_bit_for_bit(stream):
    epochs, positions, cuts = stream
    config = MonitorConfig()
    suite, reference = config.build(), ReferenceSuite(config)
    for low, high in zip(cuts[:-1], cuts[1:]):
        packed = pack_stream(epochs[low:high])
        record = suite.observe_stream(packed, positions[low:high])
        expected = reference.observe(packed, positions[low:high])
        for name, value in expected.items():
            assert_bits_equal(name, getattr(record, name), value)
