"""Unit tests for the GNSS system registry."""

import numpy as np
import pytest

from repro.constellation.systems import (
    DEFAULT_SYSTEM,
    ORBIT_SHELLS,
    SYSTEM_CODES,
    SYSTEM_NAMES,
    constellation_signature,
    group_layout,
    normalize_system,
    system_code,
    system_index,
)
from repro.errors import ConfigurationError


class TestRegistry:
    def test_canonical_codes(self):
        assert SYSTEM_CODES == ("G", "R", "E", "C")
        assert DEFAULT_SYSTEM == "G"

    def test_every_code_named_and_shelled(self):
        for code in SYSTEM_CODES:
            assert code in SYSTEM_NAMES
            assert code in ORBIT_SHELLS
            assert ORBIT_SHELLS[code].semi_major_axis > 2.0e7

    def test_index_code_roundtrip(self):
        for index, code in enumerate(SYSTEM_CODES):
            assert system_index(code) == index
            assert system_code(index) == code

    def test_normalize_accepts_lowercase(self):
        assert normalize_system("g") == "G"
        assert normalize_system("r") == "R"

    def test_normalize_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            normalize_system("X")
        with pytest.raises(ConfigurationError):
            normalize_system(3)

    def test_code_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            system_code(-1)
        with pytest.raises(ConfigurationError):
            system_code(len(SYSTEM_CODES))


class TestSignature:
    def test_counts_in_canonical_order(self):
        assert constellation_signature([1, 0, 0, 1, 3]) == "G2R2C1"

    def test_skips_absent_systems(self):
        assert constellation_signature([0, 0, 0]) == "G3"

    def test_empty(self):
        assert constellation_signature([]) == ""

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            constellation_signature([0, 9])


class TestGroupLayout:
    def test_first_appearance_order(self):
        groups, codes = group_layout([1, 1, 0, 0, 1])
        assert codes.tolist() == [1, 0]
        assert groups.tolist() == [0, 0, 1, 1, 0]

    def test_single_system(self):
        groups, codes = group_layout([0, 0, 0])
        assert codes.tolist() == [0]
        assert groups.tolist() == [0, 0, 0]

    def test_interleaved(self):
        groups, codes = group_layout([2, 0, 2, 3, 0])
        assert codes.tolist() == [2, 0, 3]
        assert groups.tolist() == [0, 1, 0, 2, 1]

    def test_relabeling_preserves_group_structure(self):
        # Swapping which code each group carries must not change the
        # group indices — the invariant the relabeling metamorphic
        # property relies on.
        ids = np.array([1, 0, 1, 0, 0])
        swapped = np.array([0, 1, 0, 1, 1])
        groups_a, _ = group_layout(ids)
        groups_b, _ = group_layout(swapped)
        assert groups_a.tolist() == groups_b.tolist()
