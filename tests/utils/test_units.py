"""Unit tests for repro.utils.units."""

import pytest

from repro.utils.units import (
    GB,
    GIB,
    KIB,
    MIB,
    TB,
    format_bytes,
    format_energy,
    format_time,
)


class TestConstants:
    def test_binary_vs_decimal(self):
        assert GIB == 2**30
        assert GB == 10**9
        assert GIB > GB

    def test_paper_local_statevector(self):
        # 2**32 amplitudes at 16 B = 64 GiB per node.
        assert 16 * 2**32 == 64 * GIB

    def test_terabyte_constant(self):
        assert TB == 10**12


class TestFormatBytes:
    def test_gib(self):
        assert format_bytes(64 * GIB) == "64 GiB"

    def test_kib(self):
        assert format_bytes(2 * KIB) == "2 KiB"

    def test_small(self):
        assert format_bytes(100) == "100 B"

    def test_mib(self):
        assert format_bytes(3 * MIB) == "3 MiB"


class TestFormatTime:
    def test_seconds(self):
        assert format_time(9.63) == "9.63 s"

    def test_milliseconds(self):
        assert format_time(0.0021) == "2.1 ms"

    def test_microseconds(self):
        assert format_time(20e-6) == "20 us"

    def test_hours(self):
        assert format_time(3725) == "1:02:05"


class TestFormatEnergy:
    def test_kilojoules(self):
        assert format_energy(15.3e3) == "15.3 kJ"

    def test_megajoules(self):
        assert format_energy(664e6) == "664 MJ"

    def test_joules(self):
        assert format_energy(12) == "12 J"
