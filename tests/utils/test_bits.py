"""Unit tests for repro.utils.bits."""

import pytest

from repro.utils.bits import is_power_of_two, log2_exact, mask_of


class TestBitBasics:
    def test_mask_of(self):
        assert mask_of(0) == 0
        assert mask_of(3) == 0b111
        assert mask_of(10) == 1023

    def test_mask_of_negative_raises(self):
        with pytest.raises(ValueError):
            mask_of(-1)


class TestPowersOfTwo:
    @pytest.mark.parametrize("value", [1, 2, 4, 1024, 2**40])
    def test_powers_accepted(self, value):
        assert is_power_of_two(value)
        assert log2_exact(value) == value.bit_length() - 1

    @pytest.mark.parametrize("value", [0, -2, 3, 6, 1023])
    def test_non_powers_rejected(self, value):
        assert not is_power_of_two(value)
        with pytest.raises(ValueError):
            log2_exact(value)
