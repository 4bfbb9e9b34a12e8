"""Lazy per-rank allocation: zero_state must not eagerly touch all ranks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import qft_circuit
from repro.errors import PartitionError
from repro.gates import Gate
from repro.statevector import DistributedStatevector
from repro.statevector.slices import RankSlices


class TestRankSlices:
    def test_construction_allocates_nothing(self):
        slices = RankSlices(8, 16)
        assert slices.allocations == 0
        assert not any(slices.is_materialized(r) for r in range(8))

    def test_write_access_materialises_exactly_one(self):
        slices = RankSlices(8, 16)
        slices[3][0] = 1.0
        assert slices.allocations == 1
        assert slices.is_materialized(3)
        assert sum(slices.is_materialized(r) for r in range(8)) == 1

    def test_materialised_slice_starts_zeroed(self):
        slices = RankSlices(4, 32)
        assert np.count_nonzero(slices[2]) == 0

    def test_read_does_not_materialise(self):
        slices = RankSlices(8, 16)
        for r in range(8):
            assert np.count_nonzero(slices.read(r)) == 0
        assert slices.allocations == 0

    def test_read_view_of_zero_is_immutable(self):
        slices = RankSlices(4, 8)
        view = slices.read(1)
        with pytest.raises(ValueError):
            view[0] = 1.0

    def test_iteration_does_not_materialise(self):
        slices = RankSlices(8, 16)
        total = sum(float(np.sum(np.abs(a))) for a in slices)
        assert total == 0.0
        assert slices.allocations == 0

    def test_from_backing_is_fully_materialised(self):
        backing = np.zeros((4, 8), dtype=np.complex128)
        slices = RankSlices.from_backing(backing)
        assert slices.shared
        assert all(slices.is_materialized(r) for r in range(4))
        slices[2][5] = 7.0
        assert backing[2, 5] == 7.0
        assert slices.allocations == 0

    def test_invalid_shapes_rejected(self):
        with pytest.raises(PartitionError):
            RankSlices(0, 8)
        with pytest.raises(PartitionError):
            RankSlices(4, 0)
        with pytest.raises(PartitionError):
            RankSlices.from_backing(np.zeros(8, dtype=np.complex128))


def _zero_state(n, ranks):
    # Laziness is a property of the *serial* slice store; under the pool
    # the slices are shm views (the OS zero-pages them instead), so pin
    # the executor rather than inherit REPRO_EXECUTOR.
    return DistributedStatevector.zero_state(n, ranks, executor="serial")


class TestZeroStateLaziness:
    """The satellite fix: |0...0> over P ranks allocates ONE slice."""

    def test_zero_state_allocates_only_rank_zero(self):
        state = _zero_state(10, 8)
        assert state._local.allocations == 1
        assert state._local.is_materialized(0)
        assert sum(state._local.is_materialized(r) for r in range(8)) == 1

    def test_reads_do_not_materialise(self):
        state = _zero_state(10, 8)
        assert state.norm() == 1.0
        assert state.probability_of(0) == 1.0
        state.gather()
        assert state.sample_bitstrings(4, seed=1).tolist() == [0, 0, 0, 0]
        assert state._local.allocations == 1

    def test_local_gates_do_not_materialise_zero_ranks(self):
        state = _zero_state(10, 8)
        # Both gates are local (qubits < m = 7): zero slices stay implicit.
        state.apply_gate(Gate.named("h", (0,)))
        state.apply_gate(Gate.named("z", (1,)))
        assert state._local.allocations == 1

    def test_distributed_gate_materialises_the_pair(self):
        state = _zero_state(10, 8)
        state.apply_gate(Gate.named("h", (9,)))  # top rank bit: pairs 0 <-> 4
        assert state._local.is_materialized(0)
        assert state._local.is_materialized(4)
        assert state._local.allocations == 2

    def test_lazy_state_still_exact(self):
        circuit = qft_circuit(8)
        lazy = _zero_state(8, 4)
        lazy.apply_circuit(circuit)
        from repro.statevector import DenseStatevector

        dense = DenseStatevector.zero_state(8).apply_circuit(circuit)
        assert np.allclose(lazy.gather(), dense.amplitudes, atol=1e-12)
