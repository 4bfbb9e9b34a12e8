"""Tests for the collective algorithms over SimComm."""

import math

import numpy as np
import pytest

from repro.errors import CommError
from repro.mpi import SimComm
from repro.mpi.collectives import allgather, allreduce, bcast, gather


@pytest.mark.parametrize("size", [2, 4, 8, 16])
class TestAllreduce:
    def test_sum(self, size):
        comm = SimComm(size)
        payloads = [np.array([float(r + 1)]) for r in range(size)]
        out = allreduce(comm, payloads)
        expected = size * (size + 1) / 2
        assert all(np.isclose(o[0], expected) for o in out)

    def test_message_schedule(self, size):
        """Recursive doubling: P * log2(P) messages."""
        comm = SimComm(size)
        allreduce(comm, [np.zeros(1) for _ in range(size)])
        assert comm.stats.messages_sent == size * int(math.log2(size))

    def test_vector_payloads(self, size):
        comm = SimComm(size)
        payloads = [np.arange(3.0) * (r + 1) for r in range(size)]
        out = allreduce(comm, payloads)
        expected = np.arange(3.0) * size * (size + 1) / 2
        assert all(np.allclose(o, expected) for o in out)

    def test_custom_op(self, size):
        comm = SimComm(size)
        payloads = [np.array([float(r)]) for r in range(size)]
        out = allreduce(comm, payloads, op=np.maximum)
        assert all(o[0] == size - 1 for o in out)

    def test_inputs_unchanged(self, size):
        comm = SimComm(size)
        payloads = [np.array([float(r)]) for r in range(size)]
        allreduce(comm, payloads)
        assert [p[0] for p in payloads] == [float(r) for r in range(size)]


@pytest.mark.parametrize("size", [2, 4, 8])
class TestBcast:
    @pytest.mark.parametrize("root_kind", ["first", "last", "middle"])
    def test_all_receive(self, size, root_kind):
        root = {"first": 0, "last": size - 1, "middle": size // 2}[root_kind]
        comm = SimComm(size)
        data = np.arange(4.0)
        out = bcast(comm, data, root=root)
        assert len(out) == size
        assert all(np.allclose(x, data) for x in out)

    def test_message_count(self, size):
        """Binomial tree: P - 1 messages."""
        comm = SimComm(size)
        bcast(comm, np.zeros(2))
        assert comm.stats.messages_sent == size - 1


@pytest.mark.parametrize("size", [2, 4, 8])
class TestGather:
    def test_rank_order(self, size):
        comm = SimComm(size)
        payloads = [np.array([float(r)]) for r in range(size)]
        out = gather(comm, payloads, root=1)
        assert np.allclose(np.concatenate(out), np.arange(size))

    def test_message_count(self, size):
        comm = SimComm(size)
        gather(comm, [np.zeros(1) for _ in range(size)])
        assert comm.stats.messages_sent == size - 1


@pytest.mark.parametrize("size", [2, 4, 8, 16])
class TestAllgather:
    def test_concatenation_everywhere(self, size):
        comm = SimComm(size)
        payloads = [np.array([float(r)]) for r in range(size)]
        out = allgather(comm, payloads)
        for x in out:
            assert np.allclose(x, np.arange(size))

    def test_multi_element_blocks(self, size):
        comm = SimComm(size)
        payloads = [np.array([r, r + 0.5]) for r in range(size)]
        out = allgather(comm, payloads)
        expected = np.concatenate(payloads)
        assert all(np.allclose(x, expected) for x in out)


class TestErrors:
    def test_non_power_of_two_rejected(self):
        comm = SimComm(3)
        with pytest.raises(CommError):
            allreduce(comm, [np.zeros(1)] * 3)

    def test_payload_count_mismatch(self):
        comm = SimComm(4)
        with pytest.raises(CommError):
            allreduce(comm, [np.zeros(1)] * 3)

    def test_bad_root(self):
        comm = SimComm(4)
        with pytest.raises(CommError):
            bcast(comm, np.zeros(1), root=4)
        with pytest.raises(CommError):
            gather(comm, [np.zeros(1)] * 4, root=-1)


class TestDistributedStateIntegration:
    def test_norm_message_schedule(self):
        from repro.circuits import qft_circuit
        from repro.statevector import DistributedStatevector

        state = DistributedStatevector.zero_state(6, 8)
        state.apply_circuit(qft_circuit(6))
        before = state.comm.stats.messages_sent
        state.norm()
        # Allreduce over 8 ranks: 8 * 3 messages.
        assert state.comm.stats.messages_sent - before == 24

    def test_sample_gathers_weights(self):
        import numpy as np

        from repro.statevector import DistributedStatevector

        state = DistributedStatevector.zero_state(5, 4)
        before = state.comm.stats.messages_sent
        state.sample(10, rng=np.random.default_rng(0))
        assert state.comm.stats.messages_sent - before == 3
