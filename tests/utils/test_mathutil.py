"""Unit + property tests for repro.utils.mathutil."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.utils.mathutil import wrap_angle


class TestWrapAngle:
    def test_zero(self):
        assert wrap_angle(0.0) == 0.0

    def test_pi_stays_pi(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)

    def test_wraps_beyond_pi(self):
        assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)

    def test_wraps_negative(self):
        assert wrap_angle(-3 * math.pi / 2) == pytest.approx(math.pi / 2)

    def test_many_turns(self):
        assert wrap_angle(100 * math.pi + 0.25) == pytest.approx(0.25)

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_result_always_in_interval(self, angle):
        wrapped = wrap_angle(angle)
        assert -math.pi < wrapped <= math.pi

    @given(st.floats(min_value=-1e4, max_value=1e4))
    def test_preserves_angle_modulo_two_pi(self, angle):
        wrapped = wrap_angle(angle)
        # sin/cos must agree with the original angle.
        assert math.sin(wrapped) == pytest.approx(math.sin(angle), abs=1e-9)
        assert math.cos(wrapped) == pytest.approx(math.cos(angle), abs=1e-9)
