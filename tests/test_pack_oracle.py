"""``pack_stream``'s gather against the one it replaced.

:func:`reference_flat_lanes` is the flat-lane gather as it stood before
the position lane was joined from the observations' own buffers: a
``len`` check and one ``np.concatenate`` for every flush, and the system
tags mapped through an int8 table.  It is kept here verbatim as the
oracle.  Every flush must pack to the same
:class:`~repro.blocks.PackedStream` through the gather and through the
oracle — each lane's dtype, shape and bytes, the counts and the
unpackable rows — and the two gathers must agree on which flushes they
refuse:

* hypothesis flushes with ragged satellite counts (empty epochs
  included), mixed systems, C/N0 present, absent or partial, and truth
  on some epochs;
* observations that bypassed the validating constructor with a
  position that is not a contiguous native float64 3-vector: int64,
  big-endian and float32 arrays, a strided float64 view, shapes
  ``(3, 1)``, ``(1, 3)`` and ``(2,)``, a ``(2,)``/``(4,)`` and a
  ``(3, 0)``/``(3, 2)`` pair whose bytes add up to whole 3-vectors, a
  list and a bare float — on one observation, on every observation of
  one epoch, or on the whole flush.
"""

from itertools import chain
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import blocks
from repro.constellation.systems import SYSTEM_CODES
from repro.observations import EpochTruth, SatelliteObservation
from repro.timebase import GpsTime
from repro.validation.faults import _unvalidated_epoch

#: The oracle's byte -> system id table (``-1``: no system).
REFERENCE_SYSTEM_IDS = np.full(256, -1, dtype=np.int8)
for _index, _code in enumerate(SYSTEM_CODES):
    REFERENCE_SYSTEM_IDS[ord(_code)] = REFERENCE_SYSTEM_IDS[ord(_code.lower())] = _index


def reference_flat_lanes(epochs):
    """The flat-lane gather before the joined position lane."""
    observation_lists = [epoch.observations for epoch in epochs]
    counts = np.fromiter(
        map(len, observation_lists), dtype=np.int64, count=len(epochs)
    )
    flat = list(chain.from_iterable(observation_lists))
    total = len(flat)
    position_list = [obs.position for obs in flat]
    if total and not (
        np.fromiter(map(len, position_list), dtype=np.intp, count=total) == 3
    ).all():
        raise ValueError("satellite positions must be 3-vectors")
    positions = (
        np.concatenate(position_list).astype(float, copy=False).reshape(total, 3)
        if total
        else np.empty((0, 3))
    )
    pseudoranges = np.fromiter(
        [obs.pseudorange for obs in flat], dtype=float, count=total
    )
    prns = np.fromiter([obs.prn for obs in flat], dtype=np.int64, count=total)
    tags = [obs.system for obs in flat]
    letters = "".join(tags)
    if len(letters) != total or "" in tags:
        raise ValueError("system tags must be single letters")
    systems = REFERENCE_SYSTEM_IDS[
        np.frombuffer(letters.encode("ascii"), dtype=np.uint8)
    ]
    if total and systems.min() < 0:
        raise ValueError("unknown system tag")
    cn0_values = [obs.cn0_dbhz for obs in flat]
    cn0 = None
    if cn0_values.count(None) != total:
        cn0 = np.array(cn0_values, dtype=float)
    return counts, positions, pseudoranges, prns, systems, cn0


BLOCK_LANES = (
    "positions",
    "pseudoranges",
    "prns",
    "systems",
    "cn0",
    "weeks",
    "seconds_of_week",
    "truth_positions",
    "truth_biases",
    "counts",
    "occupied",
    "satellite_keys",
)


def assert_same_lane(lane, expected, name):
    if expected is None:
        assert lane is None, name
        return
    assert lane is not None, name
    assert lane.dtype == expected.dtype, name
    assert lane.shape == expected.shape, name
    assert lane.tobytes() == expected.tobytes(), name


def assert_same_gather(epochs):
    """Both gathers refuse the flush, or return the same lanes."""
    try:
        expected = reference_flat_lanes(epochs)
    except blocks._PACK_ERRORS:
        with pytest.raises(blocks._PACK_ERRORS):
            blocks._flat_lanes(epochs)
        return
    lanes = blocks._flat_lanes(epochs)
    names = ("counts", "positions", "pseudoranges", "prns", "systems", "cn0")
    for name, lane, reference in zip(names, lanes, expected):
        assert_same_lane(lane, reference, name)


def assert_same_packed_stream(epochs):
    assert_same_gather(epochs)
    packed = blocks.pack_stream(epochs)
    with mock.patch.object(blocks, "_flat_lanes", reference_flat_lanes):
        expected = blocks.pack_stream(epochs)
    assert packed.unpackable == expected.unpackable
    for name in BLOCK_LANES:
        assert_same_lane(
            getattr(packed.block, name), getattr(expected.block, name), name
        )
    return packed


def make_flush(counts, systems, cn0_mode, truth, seed):
    """Epochs of the given satellite counts, built without the epoch
    checks so that empty epochs are allowed."""
    rng = np.random.default_rng(seed)
    tags = iter(systems)
    epochs = []
    for index, count in enumerate(counts):
        observations = []
        for slot in range(count):
            reports = cn0_mode == "present" or (
                cn0_mode == "partial" and rng.random() < 0.5
            )
            observations.append(
                SatelliteObservation(
                    prn=slot + 1,
                    position=rng.uniform(-2.6e7, 2.6e7, size=3),
                    pseudorange=float(rng.uniform(2.0e7, 2.6e7)),
                    system=next(tags),
                    cn0_dbhz=float(rng.uniform(25.0, 50.0)) if reports else None,
                )
            )
        template = SimpleNamespace(
            time=GpsTime(week=2200 + index, seconds_of_week=float(seed % 604800)),
            truth=EpochTruth(
                receiver_position=rng.uniform(-6.4e6, 6.4e6, size=3),
                clock_bias_meters=float(rng.normal()),
            )
            if truth[index % len(truth)]
            else None,
        )
        epochs.append(_unvalidated_epoch(template, observations))
    return epochs


flushes = st.lists(st.integers(0, 12), min_size=1, max_size=10).flatmap(
    lambda counts: st.tuples(
        st.just(counts),
        st.lists(
            st.sampled_from(SYSTEM_CODES),
            min_size=sum(counts),
            max_size=sum(counts),
        ),
        st.sampled_from(("present", "absent", "partial")),
        st.lists(st.booleans(), min_size=1, max_size=4),
        st.integers(0, 2**31 - 1),
    )
)


@settings(max_examples=200, deadline=None)
@given(flush=flushes)
def test_valid_flushes_pack_identically(flush):
    epochs = make_flush(*flush)
    packed = assert_same_packed_stream(epochs)
    assert packed.unpackable == ()


def strided(position):
    return np.repeat(position, 2)[::2]


#: Positions a decoder that bypassed the constructor could hand over,
#: each made from a valid position.  ``strided`` is a float64 (3,) view
#: that is not contiguous; the pairs put their first shape on the chosen
#: observations and their second on the one after, so the flush's bytes
#: still add up to whole 3-vectors.
BYPASSED = {
    "int64": lambda p: np.round(p).astype(np.int64),
    "big-endian": lambda p: p.astype(">f8"),
    "float32": lambda p: p.astype(np.float32),
    "strided": strided,
    "(3, 1)": lambda p: p.reshape(3, 1),
    "(1, 3)": lambda p: p.reshape(1, 3),
    "(2,)": lambda p: p[:2].copy(),
    "list": lambda p: p.tolist(),
    "float": lambda p: float(p[0]),
}
PAIRS = {
    "(2,)/(4,)": (lambda p: p[:2].copy(), lambda p: np.append(p, p[0])),
    "(3, 0)/(3, 2)": (
        lambda p: np.empty((3, 0)),
        lambda p: np.stack([p, p], axis=1),
    ),
}


def bypass(observation, position):
    object.__setattr__(observation, "position", position)


def corrupt(epochs, kind, scope, row):
    """Apply ``kind`` to one observation of epoch ``row``, to every
    observation of that epoch, or to every observation of the flush."""
    if scope == "flush":
        targets = list(chain.from_iterable(epoch.observations for epoch in epochs))
    elif scope == "epoch":
        targets = list(epochs[row].observations)
    else:
        targets = list(epochs[row].observations[:1])
    if kind in PAIRS:
        first, second = PAIRS[kind]
        flat = list(chain.from_iterable(epoch.observations for epoch in epochs))
        chosen = {id(observation) for observation in targets}
        for index, observation in enumerate(flat):
            partner = flat[(index + 1) % len(flat)]
            if id(observation) in chosen:
                bypass(observation, first(observation.position))
                if id(partner) not in chosen:
                    bypass(partner, second(partner.position))
        return
    for observation in targets:
        bypass(observation, BYPASSED[kind](observation.position))


@pytest.mark.parametrize("kind", sorted(BYPASSED) + sorted(PAIRS))
@pytest.mark.parametrize("scope", ["observation", "epoch", "flush"])
def test_bypassed_positions_pack_identically(kind, scope):
    epochs = make_flush([8, 6, 9, 7], "GREC" * 8, "partial", [True, False], seed=7)
    corrupt(epochs, kind, scope, row=1)
    assert_same_packed_stream(epochs)


@settings(max_examples=150, deadline=None)
@given(
    flush=flushes,
    kind=st.sampled_from(sorted(BYPASSED) + sorted(PAIRS)),
    scope=st.sampled_from(["observation", "epoch", "flush"]),
    row=st.integers(0, 9),
)
def test_bypassed_positions_in_drawn_flushes_pack_identically(flush, kind, scope, row):
    epochs = make_flush(*flush)
    row %= len(epochs)
    if not epochs[row].observations:
        return
    corrupt(epochs, kind, scope, row)
    assert_same_packed_stream(epochs)


def test_a_malformed_row_still_reaches_the_fallback():
    # One int64 position among valid ones: the join is refused, the
    # concatenate path packs it as float, exactly as before.
    epochs = make_flush([5, 5], "G" * 10, "absent", [False], seed=3)
    position = epochs[0].observations[2].position
    bypass(epochs[0].observations[2], np.round(position).astype(np.int64))
    packed = assert_same_packed_stream(epochs)
    assert packed.unpackable == ()
    assert packed.block.positions[0, 2].tolist() == np.round(position).tolist()
    # A (1, 3) position next to 3-vectors makes its epoch unpackable.
    bypass(epochs[1].observations[0], epochs[1].observations[0].position.reshape(1, 3))
    packed = assert_same_packed_stream(epochs)
    assert packed.unpackable == (1,)
    assert packed.block.counts.tolist() == [5, 0]
