"""Argument validation helpers.

These raise :class:`repro.errors.ConfigurationError` with messages that
name the offending parameter, so misuse is caught at the API boundary
instead of surfacing as a numpy broadcasting error deep inside a solver.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError


def require_finite_array(name: str, value: object) -> np.ndarray:
    """Return ``value`` as a float ndarray after checking all entries are finite."""
    array = np.asarray(value, dtype=float)
    if array.size == 0:
        raise ConfigurationError(f"{name} must not be empty")
    if not np.all(np.isfinite(array)):
        raise ConfigurationError(f"{name} must contain only finite values")
    return array


def require_shape(name: str, value: object, shape: Sequence[int]) -> np.ndarray:
    """Return ``value`` as a finite float ndarray with exactly ``shape``.

    A dimension given as ``-1`` matches any size, mirroring the reshape
    convention.
    """
    array = require_finite_array(name, value)
    expected = tuple(shape)
    if array.ndim != len(expected):
        raise ConfigurationError(
            f"{name} must have {len(expected)} dimensions, got {array.ndim}"
        )
    for axis, (actual, wanted) in enumerate(zip(array.shape, expected)):
        if wanted != -1 and actual != wanted:
            raise ConfigurationError(
                f"{name} has shape {array.shape}, expected {expected} (axis {axis})"
            )
    return array
