"""Unit tests for the nominal GPS almanac generator."""

import math

import numpy as np
import pytest

from repro.constants import GPS_ORBIT_SEMI_MAJOR_AXIS
from repro.errors import ConfigurationError
from repro.orbits import nominal_almanac
from repro.orbits.almanac import _slot_assignments
from repro.timebase import GpsTime


@pytest.fixture
def epoch():
    return GpsTime(week=1540, seconds_of_week=0.0)


class TestAlmanacShape:
    def test_default_satellite_count(self, epoch):
        assert len(nominal_almanac(epoch)) == 31

    def test_prns_unique_and_sequential(self, epoch):
        prns = [eph.prn for eph in nominal_almanac(epoch)]
        assert prns == list(range(1, 32))

    def test_custom_count(self, epoch):
        assert len(nominal_almanac(epoch, satellite_count=24)) == 24

    def test_rejects_bad_count(self, epoch):
        with pytest.raises(ConfigurationError):
            nominal_almanac(epoch, satellite_count=0)
        with pytest.raises(ConfigurationError):
            nominal_almanac(epoch, satellite_count=64)


class TestGeometry:
    def test_six_distinct_planes(self, epoch):
        ephemerides = nominal_almanac(epoch)
        nodes = {round(eph.omega0, 6) for eph in ephemerides}
        assert len(nodes) == 6

    def test_nominal_inclination(self, epoch):
        for eph in nominal_almanac(epoch):
            assert eph.i0 == pytest.approx(math.radians(55.0))

    def test_nominal_altitude(self, epoch):
        for eph in nominal_almanac(epoch):
            assert eph.sqrt_a**2 == pytest.approx(GPS_ORBIT_SEMI_MAJOR_AXIS)

    def test_deterministic_without_rng(self, epoch):
        a = nominal_almanac(epoch)
        b = nominal_almanac(epoch)
        assert all(x == y for x, y in zip(a, b))

    def test_rng_adds_eccentricity_and_clock(self, epoch):
        rng = np.random.default_rng(1)
        ephemerides = nominal_almanac(epoch, rng=rng)
        assert any(eph.eccentricity > 0 for eph in ephemerides)
        assert any(eph.af0 != 0.0 for eph in ephemerides)
        # Eccentricities stay in the realistic GPS band.
        for eph in ephemerides:
            assert 0.0 <= eph.eccentricity <= 0.03

    def test_rng_reproducible_by_seed(self, epoch):
        a = nominal_almanac(epoch, rng=np.random.default_rng(5))
        b = nominal_almanac(epoch, rng=np.random.default_rng(5))
        assert all(x == y for x, y in zip(a, b))


class TestMultiSystem:
    def test_system_codes_accepted(self, epoch):
        for system in ("G", "R", "E", "C"):
            ephemerides = nominal_almanac(epoch, satellite_count=8, system=system)
            assert len(ephemerides) == 8

    def test_systems_differ(self, epoch):
        gps = nominal_almanac(epoch, satellite_count=8, system="G")
        glonass = nominal_almanac(epoch, satellite_count=8, system="R")
        assert any(a != b for a, b in zip(gps, glonass))

    def test_rejects_unknown_system(self, epoch):
        with pytest.raises(ConfigurationError):
            nominal_almanac(epoch, system="X")


class TestDeprecatedSpelling:
    @pytest.mark.parametrize("module", ["repro.orbits", "repro.orbits.almanac"])
    def test_gps_only_spelling_is_gone(self, module):
        import importlib

        assert not hasattr(importlib.import_module(module), "nominal_gps_almanac")

    def test_canonical_name_does_not_warn(self, epoch):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            nominal_almanac(epoch, satellite_count=4)


class TestSlotAssignments:
    def test_canonical_31(self):
        assert _slot_assignments(31, 6) == [6, 5, 5, 5, 5, 5]

    def test_even_split(self):
        assert _slot_assignments(24, 6) == [4, 4, 4, 4, 4, 4]

    def test_remainder_spread(self):
        assert _slot_assignments(26, 6) == [5, 5, 4, 4, 4, 4]

    def test_total_preserved(self):
        for count in range(1, 40):
            assert sum(_slot_assignments(count, 6)) == count
