"""Tests for the simulated communicator's message ledger."""

import pytest

from repro.errors import CommError
from repro.mpi import SimComm


class TestAccounting:
    def test_stats(self):
        comm = SimComm(4)
        comm.record_only(2, 3, 0, 4 * 16)
        comm.record_only(2, 1, 0, 2 * 16)
        assert comm.stats.messages_sent == 2
        assert comm.stats.bytes_sent == 6 * 16
        assert comm.stats.per_rank_bytes[2] == 6 * 16
        assert comm.stats.per_rank_messages[2] == 2

    def test_message_log(self):
        comm = SimComm(2)
        comm.record_only(0, 1, 9, 16)
        assert comm.message_log[0].tag == 9

    def test_log_keeps_record_order(self):
        comm = SimComm(2)
        comm.record_only(1, 0, 4, 32)
        comm.record_only(0, 1, 3, 16)
        assert [(m.source, m.tag, m.nbytes) for m in comm.message_log] == [
            (1, 4, 32),
            (0, 3, 16),
        ]

    def test_reset(self):
        comm = SimComm(2)
        comm.record_only(0, 1, 0, 16)
        comm.reset_stats()
        assert comm.stats.messages_sent == 0
        assert comm.message_log == []

    def test_bad_rank_raises(self):
        with pytest.raises(CommError):
            SimComm(2).record_only(0, 2, 0, 16)

    def test_negative_size_raises(self):
        with pytest.raises(CommError):
            SimComm(2).record_only(0, 1, 0, -1)

    def test_bad_size_raises(self):
        with pytest.raises(CommError):
            SimComm(0)
