"""Small shared helpers: argument validation and angle wrapping."""

from repro.utils.validation import (
    require_finite_array,
    require_shape,
)
from repro.utils.mathutil import (
    wrap_angle,
)

__all__ = [
    "require_finite_array",
    "require_shape",
    "wrap_angle",
]
