"""Numeric helpers used across the geometry and orbit code."""

from __future__ import annotations

import math


def wrap_angle(angle: float) -> float:
    """Wrap an angle in radians into the interval ``(-pi, pi]``.

    Keeping anomalies and longitudes wrapped avoids precision loss when
    orbital angles accumulate over a 24-hour simulated span.
    """
    wrapped = math.fmod(angle, 2.0 * math.pi)
    if wrapped > math.pi:
        wrapped -= 2.0 * math.pi
    elif wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped
