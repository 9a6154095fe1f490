"""Unit tests for repro.utils.validation."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.utils.validation import require_finite_array, require_shape


class TestRequireFiniteArray:
    def test_accepts_list(self):
        result = require_finite_array("v", [1, 2, 3])
        assert result.dtype == float
        np.testing.assert_array_equal(result, [1.0, 2.0, 3.0])

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError, match="empty"):
            require_finite_array("v", [])

    def test_rejects_nan_entry(self):
        with pytest.raises(ConfigurationError, match="finite"):
            require_finite_array("v", [1.0, math.nan])


class TestRequireShape:
    def test_exact_shape(self):
        result = require_shape("v", [1.0, 2.0, 3.0], (3,))
        assert result.shape == (3,)

    def test_wildcard_dimension(self):
        result = require_shape("m", [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], (-1, 2))
        assert result.shape == (3, 2)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ConfigurationError, match="dimensions"):
            require_shape("v", [1.0, 2.0], (2, 1))

    def test_rejects_wrong_size(self):
        with pytest.raises(ConfigurationError, match="shape"):
            require_shape("v", [1.0, 2.0], (3,))

    def test_error_message_names_parameter(self):
        with pytest.raises(ConfigurationError, match="receiver_ecef"):
            require_shape("receiver_ecef", [1.0], (3,))
