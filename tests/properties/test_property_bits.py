"""Property-based tests for the bit/index helpers."""

from hypothesis import given
from hypothesis import strategies as st

from repro.utils.bits import is_power_of_two, log2_exact


@given(st.integers(min_value=0, max_value=60))
def test_log2_of_powers(exponent):
    assert is_power_of_two(1 << exponent)
    assert log2_exact(1 << exponent) == exponent


@given(st.integers(min_value=2, max_value=2**40))
def test_power_of_two_characterisation(value):
    assert is_power_of_two(value) == (bin(value).count("1") == 1)
