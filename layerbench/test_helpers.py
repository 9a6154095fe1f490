"""Self-tests of the benchmark's helpers.

Run from the repository root::

    python3 -m pytest layerbench/test_helpers.py -q
"""

from __future__ import annotations

import asyncio
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import inputs  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
from repro.integrity.fde import EpochVerdict  # noqa: E402
from repro.service.types import ServiceResult  # noqa: E402


def test_p99_refuses_fewer_than_ten_samples_beyond_it():
    with pytest.raises(stats.TooFewSamples):
        stats.tail_percentile(np.arange(999.0), 99.0)
    assert stats.tail_percentile(np.arange(1000.0), 99.0) == pytest.approx(989.01)
    with pytest.raises(stats.TooFewSamples):
        stats.sliced_tail_percentile(np.arange(999.0), 99.0)
    stalled = np.ones(5000)
    stalled[:50] = 100.0  # one stall delays the first slice's tail
    assert stats.sliced_tail_percentile(stalled, 99.0) == 1.0


def test_correctness_check_catches_a_fix_perturbed_by_one_meter():
    offsets = np.zeros((3, 3), dtype=np.float32)
    assert not stats.wrong_offsets(offsets).any()
    offsets[1, 2] = 1.0
    offsets[2] = np.nan  # no fix at all
    assert stats.wrong_offsets(offsets).tolist() == [False, True, True]


@pytest.fixture
def short_runs(monkeypatch):
    monkeypatch.setattr(run, "WARMUP_SECONDS", 0.2)
    monkeypatch.setattr(run, "SETUPS", 2)
    monkeypatch.setattr(inputs, "GPS_POOL", 300)
    monkeypatch.setattr(inputs, "INTEGRITY_BLOCKS", 30)
    monkeypatch.setattr(inputs, "REPLAY_SECONDS", 150.0)


def _served(workload: str, stream, traced: bool):
    book = run.Book(0.8, stream.reference)
    probe = run.HostProbe(second_cpu=workload == "replay-shard")
    try:
        if workload == "replay-shard":
            result = run.run_replay(stream, book, 0.8, traced, probe)
        else:
            result = asyncio.run(run.run_serve(workload, stream, book, 0.8, traced, probe))
    finally:
        probe.close()
    ok = run.check(stream, book, result["last_k"])
    assert ok.all()
    return book, result["last_k"]


def test_check_flags_a_fix_one_meter_off_its_reference(short_runs):
    stream = inputs.build_stream("serve-gps", 5)
    book = run.Book(0.1, stream.reference)
    book.touch()
    for k in range(4):
        position = stream.reference[k] + (np.array([1.0, 0.0, 0.0]) if k == 3 else 0.0)
        book.note(k, 0.0, 0.0, ServiceResult(status="ok", position=position, solver="dlg"), run.PHASE_UNTRACED)
    assert np.flatnonzero(~run.check(stream, book, 4)).tolist() == [3]


def test_check_flags_an_unrepaired_spike_and_any_unserved_request(short_runs):
    stream = inputs.build_stream("serve-integrity", 3)
    book = run.Book(0.1, stream.reference)
    book.touch()
    spiked = np.flatnonzero(stream.spiked_prn >= 0)[:2].tolist()
    clean = [k for k in range(len(stream)) if k not in spiked][:3]
    results = {}
    for k in spiked + clean:
        prn = int(stream.spiked_prn[k])
        verdict = EpochVerdict("repaired", 1.0, 2.0, prn) if prn >= 0 else EpochVerdict("passed", 1.0, 2.0)
        results[k] = ServiceResult(status="ok", position=stream.reference[k], solver="dlg", integrity=verdict)
    # FDE failed to repair the first spike; a clean epoch was blocked.
    results[spiked[0]] = ServiceResult(status="failed", integrity=EpochVerdict("unusable", 9.0, 2.0))
    results[clean[0]] = ServiceResult(status="failed", error="blocked as spoofed")
    for k, result in results.items():
        book.note(k, 0.0, 0.0, result, run.PHASE_UNTRACED)
    last = max(results) + 1
    flagged = set(np.flatnonzero(~run.check(stream, book, last)).tolist())
    assert flagged == {spiked[0], clean[0]} | (set(range(last)) - set(results))


def _sliced_run(stolen_slices: int, clean_slices: int, slow_host: float = 1.0):
    """A fake 100-request-per-second run: 10 ms latency in clean
    segments, 50 ms in segments that lost half of one CPU to steal.
    With ``slow_host`` > 1 the host ran that much slower than the
    reference, and every timing with it."""
    reference = np.zeros((1, 3))
    book = run.Book(0.1, reference)
    book.touch()
    probe = stats.PROBE_REFERENCE_MS * slow_host
    segments, steal = [], 0.0
    for second in range(stolen_slices + clean_slices):
        stolen = second < stolen_slices
        for i in range(100):
            k = second * 100 + i
            result = ServiceResult(status="ok", position=reference[0], solver="dlg")
            latency = (0.05 if stolen else 0.01) * slow_host
            book.note(k, book.origin + (second + 0.5) * slow_host, latency, result, run.PHASE_UNTRACED)
        before = (book.origin + second * slow_host, 0.01 * second * slow_host, [steal, 0.0])
        steal += (0.5 if stolen else 0.01) * slow_host
        after = (book.origin + (second + 1) * slow_host, 0.01 * (second + 1) * slow_host, [steal, 0.0])
        segments.append((before, after, (probe,)))
    last = 100 * len(segments)
    fake = {
        "first_k": 0,
        "last_k": last,
        "segments": segments,
        "latency_samples": None,
        "worker_cpu_seconds": 0.0,
        "peak_rss_mb": 1.0,
        "setups": [0.1],
    }
    return run.end_to_end(None, book, fake, np.ones(last, dtype=bool))


def test_end_to_end_medians_leave_out_slices_lost_to_steal():
    metrics, tail = _sliced_run(stolen_slices=12, clean_slices=run.MIN_CLEAN_SLICES)
    assert metrics["latency_p50_ms"]["value"] == pytest.approx(10.0)
    assert (tail["slices_used"], tail["slices"]) == (run.MIN_CLEAN_SLICES, 12 + run.MIN_CLEAN_SLICES)
    # Too few clean slices: every slice counts.
    metrics, tail = _sliced_run(stolen_slices=12, clean_slices=run.MIN_CLEAN_SLICES - 1)
    assert metrics["latency_p50_ms"]["value"] == pytest.approx(50.0)
    assert tail["slices_used"] == tail["slices"]


def test_end_to_end_timings_are_scaled_to_the_reference_host_speed():
    at_reference, _ = _sliced_run(stolen_slices=0, clean_slices=10)
    slow, tail = _sliced_run(stolen_slices=0, clean_slices=10, slow_host=1.7)
    for name in ("throughput_fix_per_s", "latency_p50_ms", "cpu_ms_per_kfix"):
        assert slow[name]["value"] == pytest.approx(at_reference[name]["value"], rel=1e-5)
    assert tail["host_factor"]["window"] == pytest.approx(1.7)
    assert tail["unscaled"]["throughput_fix_per_s"] == pytest.approx(100.0 / 1.7, rel=1e-5)


def test_probe_helper_times_a_second_cpu_and_is_reaped():
    probe = run.HostProbe(second_cpu=True)
    pid = probe.helper.pid
    try:
        times = probe()
        assert len(times) == 2 and min(times) > 0.0
    finally:
        probe.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, 0)


@pytest.mark.parametrize("workload", ["serve-gps", "serve-integrity", "replay-shard"])
def test_traced_and_untraced_runs_serve_identical_fixes(short_runs, workload):
    stream = inputs.build_stream(workload, 7)
    untraced, last_untraced = _served(workload, stream, traced=False)
    traced, last_traced = _served(workload, stream, traced=True)
    common = min(last_untraced, last_traced)
    np.testing.assert_array_equal(untraced.offset[:common], traced.offset[:common])
