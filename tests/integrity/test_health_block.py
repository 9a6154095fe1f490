"""The health tracker's block passes against row-by-row driving.

:meth:`SatelliteHealthTracker.admit_block` and
:meth:`SatelliteHealthTracker.record_block` replace one ``admit`` call
per row and one ``record_exclusion`` / ``record_clean`` pair per row.
A seeded stream of flushes — faulty satellites that get excluded,
quarantined, released on probation and re-quarantined with backoff,
rows narrow enough for the admission floor to trim, duplicate keys,
padding, and monitor strikes landing on the satellites FDE excludes —
is fed to one tracker through the block passes and to a reference
tracker row by row, as the service's executor used to.  After every
flush both must hold the same admissions, states and bookkeeping.
"""

import numpy as np
import pytest

from repro.integrity import HealthConfig, SatelliteHealthTracker
from repro.integrity.health import CLEAN, UNJUDGED

#: ``prn*4+system`` keys of a G+E sky; the first three are faulty.
POOL = np.array([1 * 4, 1 * 4 + 2, 7 * 4] + [prn * 4 for prn in range(2, 7)] + [
    prn * 4 + 2 for prn in range(2, 8)
])
FAULTY = POOL[:3]
PADDING = -5  # satellite_keys of a padded slot: -1*4 + -1

PASSED, REPAIRED, UNUSABLE, UNCHECKED, SCREENED = range(5)


def config():
    return HealthConfig(
        window_epochs=12,
        exclusion_threshold=2,
        quarantine_epochs=6,
        probation_epochs=4,
        backoff_factor=2.0,
        max_quarantine_epochs=40,
        min_satellites=5,
    )


def random_flush(rng):
    """``(keys, counts)`` of one padded flush."""
    rows = int(rng.integers(1, 14))
    counts = rng.integers(5, 10, size=rows)
    width = int(counts.max()) + int(rng.integers(0, 3))
    keys = np.full((rows, width), PADDING, dtype=np.int64)
    for row, count in enumerate(counts):
        # Faulty satellites are nearly always in view; a few rows
        # repeat a key (an epoch the screen would reject).
        chosen = list(rng.permutation(POOL[3:])[: count - 3]) + list(FAULTY)
        rng.shuffle(chosen)
        if rng.random() < 0.05:
            chosen[-1] = chosen[0]
        keys[row, :count] = chosen[:count]
    return keys, counts


def verdict_lane(rng, keys, counts):
    """The per-row ``excluded`` lane and the kinds behind it."""
    kinds = rng.choice(5, size=len(counts), p=[0.45, 0.3, 0.1, 0.05, 0.1])
    excluded = np.full(len(counts), UNJUDGED, dtype=np.int64)
    excluded[kinds == PASSED] = CLEAN
    for row in np.flatnonzero(kinds == REPAIRED):
        row_keys = keys[row, : counts[row]]
        faulty = row_keys[np.isin(row_keys, FAULTY)]
        pick = faulty if faulty.size and rng.random() < 0.9 else row_keys
        excluded[row] = pick[rng.integers(len(pick))]
    return excluded


def compact(keys, counts, banned_rows):
    """The keys with each row's bans dropped, left-packed."""
    keys, counts = keys.copy(), counts.copy()
    for row, banned in banned_rows.items():
        kept = [key for key in keys[row, : counts[row]] if key not in banned]
        keys[row] = PADDING
        keys[row, : len(kept)] = kept
        counts[row] = len(kept)
    return keys, counts


def row_by_row_admit(tracker, keys, counts):
    banned_rows = {}
    for row, (row_keys, count) in enumerate(zip(keys.tolist(), counts.tolist())):
        banned = tracker.admit(row_keys[:count])
        if banned:
            banned_rows[row] = banned
    return banned_rows


def row_by_row_record(tracker, keys, counts, excluded):
    for row_keys, count, prn in zip(keys.tolist(), counts.tolist(), excluded.tolist()):
        if prn >= 0:
            tracker.record_exclusion(prn)
            tracker.record_clean(key for key in row_keys[:count] if key != prn)
        elif prn == CLEAN:
            tracker.record_clean(row_keys[:count])


def snapshot(tracker):
    """Everything the tracker holds, per key."""
    return {
        "epoch": tracker.epoch,
        "summary": tracker.to_dict(),
        "states": {int(key): tracker.state(int(key)) for key in POOL},
        "records": {
            key: (
                tuple(record.exclusion_epochs),
                record.quarantined,
                record.quarantine_until,
                record.strikes,
                record.probation_left,
                record.last_strike_epoch,
                record.last_monitor_epoch,
            )
            for key, record in tracker._records.items()
        },
    }


@pytest.mark.parametrize("seed", range(8))
def test_block_passes_match_row_by_row_driving(seed):
    rng = np.random.default_rng(seed)
    block, reference = (SatelliteHealthTracker(config()) for _ in range(2))
    seen = {"quarantine": 0, "expiry": 0, "probation": 0, "trim": 0, "backoff": 0}
    for _ in range(150):
        keys, counts = random_flush(rng)
        states_before = {int(k): reference.state(int(k)) for k in FAULTY}
        banned_rows = block.admit_block(keys, counts)
        assert banned_rows == row_by_row_admit(reference, keys, counts)
        assert snapshot(block) == snapshot(reference)
        for row, banned in banned_rows.items():
            quarantined = np.isin(keys[row, : counts[row]], reference.quarantined_prns())
            seen["trim"] += len(banned) < int(quarantined.sum())
        keys, counts = compact(keys, counts, banned_rows)
        # Monitor strikes land at the flush's epoch before its FDE
        # verdicts, often on the satellite FDE goes on to exclude.
        excluded = verdict_lane(rng, keys, counts)
        strikes = [int(key) for key in excluded[excluded >= 0] if rng.random() < 0.3]
        strikes += [int(key) for key in rng.choice(POOL, size=rng.integers(0, 2))]
        for key in strikes:
            assert block.record_monitor_strike(key) == reference.record_monitor_strike(
                key
            )
        block.record_block(keys, counts, excluded)
        row_by_row_record(reference, keys, counts, excluded)
        assert snapshot(block) == snapshot(reference)
        for key in FAULTY.tolist():
            before, after = states_before[key], reference.state(key)
            seen["quarantine"] += after == "quarantined" and before != after
            seen["expiry"] += before == "quarantined" and after == "probation"
            seen["probation"] += before == "probation" and after == "healthy"
            seen["backoff"] += before == "probation" and after == "quarantined"
    # The stream exercised every transition the block passes shortcut.
    assert all(seen.values()), seen


def test_admission_without_quarantine_only_advances_the_clock(monkeypatch):
    tracker = SatelliteHealthTracker(config())
    tracker.record_exclusion(int(POOL[0]))  # suspect, not quarantined
    monkeypatch.setattr(tracker, "_ban", lambda *args: pytest.fail("row visited"))
    keys = np.tile(POOL[:6], (5, 1))
    assert tracker.admit_block(keys, np.full(5, 6)) == {}
    assert tracker.epoch == 5


def test_clean_pass_without_probation_visits_only_repaired_rows(monkeypatch):
    tracker = SatelliteHealthTracker(config())
    visited = []
    monkeypatch.setattr(tracker, "record_clean", lambda keys: visited.append(keys))
    keys = np.tile(POOL[:6], (3, 1))
    tracker.record_block(keys, np.full(3, 6), np.array([CLEAN, int(POOL[2]), UNJUDGED]))
    assert visited == []
    assert tracker.state(int(POOL[2])) == "suspect"


def test_padding_and_slots_past_the_count_are_never_admitted():
    tracker = SatelliteHealthTracker(config())
    key = int(POOL[0])
    for _ in range(2):
        tracker.record_exclusion(key)
    assert tracker.state(key) == "quarantined"
    keys = np.array([[int(k) for k in POOL[1:7]] + [key]])
    assert tracker.admit_block(keys, np.array([6])) == {}
    assert tracker.admit_block(keys, np.array([7])) == {0: (key,)}
    assert tracker.epoch == 2
