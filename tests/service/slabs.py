"""Slab-directory enumeration for the shard's leak checks."""

import os
from typing import List

from repro.service.shm import SLAB_PREFIX, shm_dir


def list_slabs() -> List[str]:
    """Paths of every shard slab file currently present."""
    directory = shm_dir()
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    return sorted(
        os.path.join(directory, name)
        for name in names
        if name.startswith(SLAB_PREFIX)
    )
