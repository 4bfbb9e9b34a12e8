"""Tests for the recorded pairwise-exchange schedule."""

import pytest

from repro.errors import CommError, ValidationError
from repro.mpi import CommMode, SimComm, log_exchange_schedule


@pytest.mark.parametrize("mode", [CommMode.BLOCKING, CommMode.NONBLOCKING])
class TestExchange:
    def test_chunked(self, mode):
        comm = SimComm(2)
        log_exchange_schedule(comm, 0, 1, 8, mode=mode, max_message=32)
        # 4 chunks each direction.
        assert comm.stats.messages_sent == 8
        assert {m.nbytes for m in comm.message_log} == {32}

    def test_remainder_chunk(self, mode):
        comm = SimComm(2)
        log_exchange_schedule(comm, 0, 1, 5, mode=mode, max_message=32)
        sizes = [m.nbytes for m in comm.message_log if m.source == 0]
        assert sizes == [32, 32, 16]


class TestExchangeErrors:
    def test_same_rank_raises(self):
        with pytest.raises(CommError):
            log_exchange_schedule(SimComm(2), 0, 0, 2)

    def test_max_message_below_one_amplitude_raises(self):
        with pytest.raises(ValidationError, match="amplitude"):
            log_exchange_schedule(SimComm(2), 0, 1, 4, max_message=8)


class TestScheduleDifferences:
    def test_blocking_interleaves_tags(self):
        comm = SimComm(2)
        log_exchange_schedule(
            comm, 0, 1, 4, mode=CommMode.BLOCKING, max_message=32
        )
        tags = [m.tag for m in comm.message_log]
        # Sendrecv pairs proceed tag by tag: 0,0,1,1.
        assert tags == [0, 0, 1, 1]

    def test_nonblocking_posts_all_sends_per_side(self):
        comm = SimComm(2)
        log_exchange_schedule(
            comm, 0, 1, 4, mode=CommMode.NONBLOCKING, max_message=32
        )
        order = [(m.source, m.tag) for m in comm.message_log]
        # All of rank 0's chunks posted before rank 1's.
        assert order == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_tag_base_offsets_every_chunk(self):
        comm = SimComm(2)
        log_exchange_schedule(comm, 0, 1, 4, max_message=32, tag_base=7 << 8)
        assert [m.tag for m in comm.message_log] == [1792, 1792, 1793, 1793]
