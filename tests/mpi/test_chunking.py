"""Tests for message chunking under the 2 GiB MPI cap."""

import pytest

from repro.errors import CommError, ValidationError
from repro.mpi import (
    MAX_MESSAGE_BYTES,
    element_chunk_bytes,
    num_chunks,
    split_message,
)
from repro.utils.units import GIB


class TestNumChunks:
    def test_paper_32_messages(self):
        """64 GiB at a 2 GiB cap -> 32 messages (paper §2.1)."""
        assert num_chunks(64 * GIB, MAX_MESSAGE_BYTES) == 32

    def test_exact_fit(self):
        assert num_chunks(4 * GIB, 2 * GIB) == 2

    def test_remainder(self):
        assert num_chunks(5 * GIB, 2 * GIB) == 3

    def test_small_message(self):
        assert num_chunks(10, MAX_MESSAGE_BYTES) == 1

    def test_zero_bytes(self):
        assert num_chunks(0) == 1

    def test_negative_raises(self):
        with pytest.raises(CommError):
            num_chunks(-1)

    def test_bad_cap_raises(self):
        with pytest.raises(CommError):
            num_chunks(10, 0)


class TestSplitMessage:
    def test_sizes_sum(self):
        sizes = split_message(5 * GIB, 2 * GIB)
        assert sizes == [2 * GIB, 2 * GIB, GIB]

    def test_zero(self):
        assert split_message(0) == [0]

    def test_all_full_when_divisible(self):
        assert split_message(64 * GIB) == [2 * GIB] * 32


class TestElementChunkBytes:
    def test_reassembles(self):
        # 10 amplitudes at 3 per 48-byte message.
        assert element_chunk_bytes(10, 16, 48) == [48, 48, 48, 16]

    def test_single_chunk(self):
        assert element_chunk_bytes(4, 16, MAX_MESSAGE_BYTES) == [64]

    def test_empty_array(self):
        assert element_chunk_bytes(0, 16, 64) == [0]

    def test_partial_item_capacity_rounds_down(self):
        # 40 bytes hold two whole 16-byte amplitudes, never a fraction.
        assert element_chunk_bytes(5, 16, 40) == [32, 32, 16]

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError, match="num_elements"):
            element_chunk_bytes(-1, 16, 64)

    def test_cap_below_itemsize_rejected(self):
        # A cap below one amplitude is an argument error, not a comm
        # failure: it raises the typed ValidationError (a ValueError).
        with pytest.raises(ValidationError, match="amplitude"):
            element_chunk_bytes(4, 16, 8)

    def test_zero_cap_rejected(self):
        with pytest.raises(ValidationError, match="max_message"):
            element_chunk_bytes(4, 16, 0)

    def test_negative_cap_rejected(self):
        with pytest.raises(ValidationError, match="max_message"):
            element_chunk_bytes(4, 16, -16)
