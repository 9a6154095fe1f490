"""Shared-memory struct-of-arrays transport for the shard tier.

The sharded service (:mod:`repro.service.shard`) moves batches between
the router process and its workers.  Pickling epoch payloads or
answers across a pipe would reintroduce exactly the object/array
boundary cost the columnar store (:mod:`repro.blocks`) was built to
eliminate, so the bulk arrays — requests one way, every
:class:`~repro.service.types.ResultBlock` lane (error texts and
monitor records included) the other — travel through a **slab**: one
flat shared-memory mapping whose layout both sides compute identically
from the same :class:`SlabLayout` spec.  Only tiny control messages
(slot and sequence numbers) ride the pipe.

Three pieces:

* :class:`SlabLayout` — named, 64-byte-aligned array fields over a flat
  buffer; JSON-able spec so a spawned worker can rebuild the exact
  layout without pickling numpy metadata.
* :class:`SharedSlab` — the mapping itself.  A plain file in
  ``/dev/shm`` (tmpfs) + ``mmap``, **not**
  :mod:`multiprocessing.shared_memory`: the stdlib resource tracker
  unlinks attached segments when any attaching process exits (see
  cpython bpo-38119), which is exactly wrong for a supervisor that
  restarts crashed workers against a live slab.  Ownership is explicit:
  the creator unlinks, attachers only close.
* The **seqlock** protocol — per-slot ``begin``/``end`` sequence
  stamps bracketing every payload fill.  A reader that was notified of
  sequence ``s`` accepts the payload only if ``end[slot] == s`` (and
  the writer stamps ``end`` strictly after the payload), so a writer
  crash mid-fill can never yield a partially-read batch: the stale
  ``end`` stamp fails the check and the read raises
  :class:`TornBatchError` instead.

CPython-level stores to an ``mmap``-backed numpy array are plain
stores; on the architectures this repo targets store order is
preserved and each stamp is a single aligned int64 write, which is all
the one-writer-one-reader-per-slot discipline here needs.
"""

from __future__ import annotations

import mmap
import os
import secrets
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, ServiceError

#: Field offsets are rounded up to this many bytes so every array is
#: cache-line aligned (and safely aligned for any dtype).
_ALIGNMENT = 64

#: Slab file name prefix — the lifecycle tests enumerate ``shm_dir()``
#: for leaks by this prefix, so keep it stable.
SLAB_PREFIX = "repro-shard-"


class TornBatchError(ServiceError):
    """A seqlock-guarded payload failed its completion check.

    The writer died (or is still writing) between the ``begin`` and
    ``end`` stamps; the payload must be treated as absent, never
    partially read.
    """


def shm_dir() -> str:
    """The directory slabs live in: tmpfs when the OS offers it.

    ``/dev/shm`` is memory-backed on Linux; elsewhere (or in mount
    namespaces without it) a regular temp file still works — ``mmap``
    sharing is what matters, the backing store is an optimization.
    """
    if os.path.isdir("/dev/shm"):
        return "/dev/shm"
    return tempfile.gettempdir()


class SlabLayout:
    """Named, aligned array fields over one flat buffer.

    Build by repeated :meth:`add` (order is part of the layout), then
    map any writable buffer with :meth:`arrays`.  Both sides of the
    transport must construct the layout from the same spec —
    :meth:`spec`/:meth:`from_spec` round-trip it through plain JSON
    types for spawn-safe handoff.
    """

    def __init__(self) -> None:
        self._fields: List[Tuple[str, Tuple[int, ...], str, int]] = []
        self._names: set = set()
        self._size = 0

    def add(self, name: str, shape: Sequence[int], dtype: str) -> "SlabLayout":
        """Append one field; returns ``self`` for chaining."""
        if name in self._names:
            raise ConfigurationError(f"duplicate slab field {name!r}")
        shape = tuple(int(dim) for dim in shape)
        if any(dim < 0 for dim in shape):
            raise ConfigurationError(
                f"slab field {name!r} has negative dimensions {shape}"
            )
        offset = -(-self._size // _ALIGNMENT) * _ALIGNMENT
        nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        self._fields.append((name, shape, np.dtype(dtype).str, offset))
        self._names.add(name)
        self._size = offset + nbytes
        return self

    @property
    def nbytes(self) -> int:
        """Total slab size the layout needs (bytes)."""
        return self._size

    def spec(self) -> list:
        """A JSON-able description of the layout (order preserved)."""
        return [
            [name, list(shape), dtype]
            for name, shape, dtype, _offset in self._fields
        ]

    @classmethod
    def from_spec(cls, spec: Sequence) -> "SlabLayout":
        """Rebuild a layout from :meth:`spec` output."""
        layout = cls()
        for name, shape, dtype in spec:
            layout.add(name, shape, dtype)
        return layout

    def arrays(self, buffer) -> Dict[str, np.ndarray]:
        """Map every field as a numpy view over ``buffer``."""
        views: Dict[str, np.ndarray] = {}
        for name, shape, dtype, offset in self._fields:
            count = int(np.prod(shape, dtype=np.int64))
            views[name] = np.frombuffer(
                buffer, dtype=dtype, count=count, offset=offset
            ).reshape(shape)
        return views


class SharedSlab:
    """One shared mapping: a ``/dev/shm`` file the router owns.

    The creating process (:meth:`create`) is the owner and the only
    side that :meth:`unlink`\\ s; workers :meth:`attach` and only ever
    :meth:`close`.  Mapping length is fixed at creation.
    """

    def __init__(
        self, path: str, mapping: mmap.mmap, size: int, owner: bool
    ) -> None:
        self.path = path
        self.size = size
        self._mmap: Optional[mmap.mmap] = mapping
        self._owner = owner

    @classmethod
    def create(cls, size: int, directory: Optional[str] = None) -> "SharedSlab":
        """Allocate a fresh zero-filled slab of ``size`` bytes."""
        if size <= 0:
            raise ConfigurationError(f"slab size must be positive, got {size}")
        directory = directory if directory is not None else shm_dir()
        path = os.path.join(
            directory, f"{SLAB_PREFIX}{os.getpid()}-{secrets.token_hex(4)}"
        )
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
        try:
            os.ftruncate(fd, size)
            mapping = mmap.mmap(fd, size)
        except BaseException:
            os.close(fd)
            os.unlink(path)
            raise
        os.close(fd)
        return cls(path, mapping, size, owner=True)

    @classmethod
    def attach(cls, path: str, size: int) -> "SharedSlab":
        """Map an existing slab (worker side)."""
        fd = os.open(path, os.O_RDWR)
        try:
            mapping = mmap.mmap(fd, size)
        finally:
            os.close(fd)
        return cls(path, mapping, size, owner=False)

    @property
    def buffer(self) -> mmap.mmap:
        """The live mapping (raises once closed)."""
        if self._mmap is None:
            raise ServiceError(f"slab {self.path} is closed")
        return self._mmap

    @property
    def closed(self) -> bool:
        return self._mmap is None

    def close(self) -> None:
        """Drop this process's mapping (idempotent).

        Callers must drop their numpy views first — a view over a
        closed mmap is a crash, and ``mmap.close`` refuses while
        exported buffers exist.
        """
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None

    def unlink(self) -> None:
        """Remove the backing file (owner only, idempotent)."""
        if not self._owner:
            raise ServiceError(
                f"slab {self.path} is attached, not owned; only the creator unlinks"
            )
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SharedSlab":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
        if self._owner:
            self.unlink()


# -- the seqlock protocol ----------------------------------------------
#
# One int64 pair per slot: ``begin[slot]`` stamps before the payload
# fill, ``end[slot]`` strictly after.  Sequence numbers increase
# monotonically per slot and never repeat, so a reader comparing
# ``end[slot]`` against the sequence it was *notified* of cannot be
# fooled by a stale complete fill either.


def stamp_begin(begin: np.ndarray, slot: int, sequence: int) -> None:
    """Writer: open the fill window for ``sequence``."""
    begin[slot] = sequence


def stamp_end(end: np.ndarray, slot: int, sequence: int) -> None:
    """Writer: commit the fill — call strictly after the payload."""
    end[slot] = sequence


def check_sealed(
    begin: np.ndarray, end: np.ndarray, slot: int, sequence: int
) -> None:
    """Reader: accept slot ``slot`` for ``sequence`` or raise.

    Raises :class:`TornBatchError` unless both stamps match the
    notified sequence — i.e. the writer opened *and* committed exactly
    this fill.
    """
    begin_seen = int(begin[slot])
    end_seen = int(end[slot])
    if begin_seen != sequence or end_seen != sequence:
        raise TornBatchError(
            f"slot {slot} torn for sequence {sequence}: "
            f"begin={begin_seen} end={end_seen} — writer died or is "
            "still writing; payload must not be used"
        )
