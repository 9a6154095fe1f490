"""The C/N0 drop monitor's vectorized keyed match against a per-row dict.

Rows whose satellite set changed since the previous epoch are matched
to it by key in one ``(R, m, m')`` equality cube.  The reference here
is the per-row dictionary match it replaced; over streams with
reorders, rising and setting satellites, repeated keys, padding, NaN
C/N0, width changes and the carried first row of every call, the
drops must agree bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.integrity.monitors import Cn0DropMonitor, StreamContext

KEYS = st.sampled_from([-1, -1, 4, 6, 8, 13, 22, 30])
CN0 = st.one_of(
    st.floats(10.0, 55.0, allow_nan=False), st.just(np.nan), st.just(-0.0)
)


def context(keys, cn0):
    n, width = keys.shape
    nan = np.full((n, width), np.nan)
    return StreamContext(
        times=np.arange(float(n)),
        receiver_positions=np.full((n, 3), np.nan),
        cn0=cn0,
        nominal_cn0=nan,
        keys=keys,
        system_ids=np.zeros((n, width), dtype=np.int8),
        sat_positions=np.full((n, width, 3), np.nan),
        pseudoranges=nan,
        ranges=nan,
    )


class DictReference:
    """The drops as the per-row dictionary match computed them."""

    def __init__(self):
        self.last = None

    @staticmethod
    def keyed(drops, row, keys, cn0, prev_keys, prev_cn0):
        lookup = {
            int(k): float(prev_cn0[j]) for j, k in enumerate(prev_keys) if k >= 0
        }
        for j, k in enumerate(keys[row]):
            if k >= 0 and int(k) in lookup:
                drops[row, j] = lookup[int(k)] - cn0[row, j]

    def drops(self, keys, cn0):
        n, width = keys.shape
        drops = np.full((n, width), np.nan)
        if not (n and width):
            return drops
        if self.last is not None:
            last_keys, last_cn0 = self.last
            if last_keys.shape[0] == width and (last_keys == keys[0]).all():
                drops[0] = last_cn0 - cn0[0]
            else:
                self.keyed(drops, 0, keys, cn0, last_keys, last_cn0)
        for row in range(1, n):
            if (keys[row] == keys[row - 1]).all():
                drops[row] = cn0[row - 1] - cn0[row]
            else:
                self.keyed(drops, row, keys, cn0, keys[row - 1], cn0[row - 1])
        self.last = (keys[-1].copy(), cn0[-1].copy())
        return drops


@st.composite
def chunk(draw):
    n = draw(st.integers(1, 6))
    width = draw(st.integers(0, 5))
    base_keys = draw(st.lists(KEYS, min_size=width, max_size=width))
    rows_keys, rows_cn0 = [], []
    for _ in range(n):
        # Mostly a stable sky; sometimes a reorder, a rise/set or a
        # fresh draw (which may repeat keys).
        change = draw(st.sampled_from(["same", "same", "shuffle", "swap", "fresh"]))
        if change == "shuffle":
            base_keys = list(draw(st.permutations(base_keys)))
        elif change == "swap" and width:
            base_keys[draw(st.integers(0, width - 1))] = draw(KEYS)
        elif change == "fresh":
            base_keys = draw(st.lists(KEYS, min_size=width, max_size=width))
        rows_keys.append(list(base_keys))
        rows_cn0.append(draw(st.lists(CN0, min_size=width, max_size=width)))
    keys = np.array(rows_keys, dtype=np.int64).reshape(n, width)
    cn0 = np.array(rows_cn0, dtype=float).reshape(n, width)
    return keys, cn0


@settings(max_examples=300, deadline=None)
@given(chunks=st.lists(chunk(), min_size=1, max_size=4))
def test_vectorized_match_equals_the_dict_match_bit_for_bit(chunks):
    monitor, reference = Cn0DropMonitor(), DictReference()
    for keys, cn0 in chunks:
        got = monitor.drops(context(keys, cn0))
        expected = reference.drops(keys, cn0)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_last_duplicate_wins_and_padding_never_matches():
    monitor = Cn0DropMonitor()
    keys = np.array([[4, 4, -1], [-1, 4, 8]])
    cn0 = np.array([[40.0, 30.0, 50.0], [45.0, 20.0, 1.0]])
    drops = monitor.drops(context(keys, cn0))
    assert np.isnan(drops[0]).all()  # nothing carried yet
    assert np.isnan(drops[1, 0]) and np.isnan(drops[1, 2])
    assert drops[1, 1] == 30.0 - 20.0  # the later of the two 4s


def test_first_row_matches_the_carried_epoch_across_widths():
    monitor = Cn0DropMonitor()
    monitor.drops(context(np.array([[8, 4, 6]]), np.array([[30.0, 35.0, 40.0]])))
    drops = monitor.drops(context(np.array([[4, 13]]), np.array([[20.0, 44.0]])))
    assert drops[0, 0] == 15.0 and np.isnan(drops[0, 1])
