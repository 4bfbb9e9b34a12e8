"""Tests for the QuEST partitioning model."""

import pytest

from repro.errors import PartitionError
from repro.gates import Gate, GateLocality
from repro.statevector import AMPLITUDE_BYTES, Partition
from repro.utils.units import GIB


class TestSizes:
    def test_paper_configuration(self):
        """44 qubits on 4,096 nodes: 64 GiB per process (paper §2.1)."""
        p = Partition(44, 4096)
        assert p.rank_qubits == 12
        assert p.local_qubits == 32
        assert p.local_bytes == 64 * GIB

    def test_single_rank(self):
        p = Partition(5, 1)
        assert p.local_qubits == 5
        assert p.local_amplitudes == 32

    def test_amplitude_bytes(self):
        assert AMPLITUDE_BYTES == 16

    def test_total_amplitudes(self):
        assert Partition(10, 4).total_amplitudes == 1024

    def test_non_power_of_two_ranks_raise(self):
        with pytest.raises(PartitionError, match="power-of-two"):
            Partition(10, 3)

    def test_too_many_ranks_raise(self):
        with pytest.raises(PartitionError):
            Partition(2, 8)

    def test_zero_qubits_raise(self):
        with pytest.raises(PartitionError):
            Partition(0, 1)

    def test_cached_sizes_leave_identity_alone(self):
        # The derived sizes are cached on the instance, but equality,
        # hashing, pickled bytes and cache fingerprints see only fields.
        import pickle

        from repro.parallel.cache import config_fingerprint

        used, fresh = Partition(20, 8), Partition(20, 8)
        assert used.local_bytes == 16 * 2**17
        assert used == fresh and hash(used) == hash(fresh)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        assert config_fingerprint(used) == config_fingerprint(fresh)
        restored = pickle.loads(pickle.dumps(used))
        assert restored == used and restored.local_qubits == 17


class TestLocality:
    def test_is_local_boundary(self):
        p = Partition(10, 4)  # m = 8
        assert p.is_local(7)
        assert not p.is_local(8)

    def test_rank_bit(self):
        p = Partition(10, 4)
        assert p.rank_bit(8) == 0
        assert p.rank_bit(9) == 1

    def test_rank_bit_of_local_raises(self):
        with pytest.raises(PartitionError, match="local"):
            Partition(10, 4).rank_bit(3)

    def test_rank_bit_value(self):
        p = Partition(10, 4)
        assert p.rank_bit_value(0b10, 9) == 1
        assert p.rank_bit_value(0b10, 8) == 0

    def test_pair_rank_is_involution(self):
        p = Partition(10, 8)
        for rank in range(8):
            for q in (7, 8, 9):
                assert p.pair_rank(p.pair_rank(rank, q), q) == rank

    def test_pair_rank_flips_correct_bit(self):
        p = Partition(10, 8)
        assert p.pair_rank(0, 8) == 0b010

    def test_classify_delegates(self):
        p = Partition(10, 4)
        assert p.classify(Gate.named("h", (9,))) is GateLocality.DISTRIBUTED
        assert p.classify(Gate.named("h", (0,))) is GateLocality.LOCAL_MEMORY

    def test_qubit_out_of_range(self):
        with pytest.raises(PartitionError):
            Partition(10, 4).is_local(10)


class TestIndexConversions:
    def test_round_trip(self):
        p = Partition(8, 4)
        for g in (0, 63, 64, 255):
            rank = p.rank_of(g)
            local = p.local_index_of(g)
            assert p.global_index(rank, local) == g

    def test_rank_of_layout(self):
        p = Partition(8, 4)
        assert p.rank_of(0) == 0
        assert p.rank_of(64) == 1
        assert p.rank_of(255) == 3

    def test_bad_rank_raises(self):
        with pytest.raises(PartitionError):
            Partition(8, 4).global_index(4, 0)

    def test_bad_local_index_raises(self):
        with pytest.raises(PartitionError):
            Partition(8, 4).global_index(0, 64)

    def test_bad_global_raises(self):
        with pytest.raises(PartitionError):
            Partition(8, 4).rank_of(256)
