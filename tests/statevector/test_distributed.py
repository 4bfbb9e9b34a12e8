"""Tests for the distributed simulator: exactness vs the dense reference
and faithfulness of the communication schedule."""

import numpy as np
import pytest

from repro.circuits import (
    Circuit,
    hadamard_benchmark,
    qft_circuit,
    random_circuit,
    random_state,
    swap_benchmark,
)
from repro.errors import SimulationError
from repro.gates import Gate
from repro.mpi import MAX_MESSAGE_BYTES, CommMode
from repro.statevector import DenseStatevector, DistributedStatevector, Partition


def dense_result(circuit, psi):
    return DenseStatevector.from_amplitudes(psi).apply_circuit(circuit).amplitudes


class TestConstruction:
    def test_zero_state(self):
        d = DistributedStatevector.zero_state(4, 4)
        assert np.isclose(abs(d.gather()[0]), 1.0)
        assert d.norm() == 1.0

    def test_scatter_gather_roundtrip(self):
        psi = random_state(5, seed=1)
        d = DistributedStatevector.from_amplitudes(psi, 8)
        assert np.allclose(d.gather(), psi)

    def test_from_dense(self):
        dense = DenseStatevector.plus_state(4)
        d = DistributedStatevector.from_dense(dense, 4)
        assert np.allclose(d.gather(), dense.amplitudes)

    def test_local_array_is_copy(self):
        d = DistributedStatevector.zero_state(4, 2)
        arr = d.local_array(0)
        arr[0] = 0
        assert np.isclose(abs(d.gather()[0]), 1.0)

    def test_to_dense(self):
        d = DistributedStatevector.zero_state(3, 2)
        assert np.isclose(d.to_dense().probability_of(0), 1.0)


class TestAgainstDense:
    @pytest.mark.parametrize("ranks", [2, 4, 8])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_circuits(self, ranks, seed):
        psi = random_state(6, seed=seed)
        c = random_circuit(6, 50, seed=seed)
        d = DistributedStatevector.from_amplitudes(psi, ranks)
        d.apply_circuit(c)
        assert np.allclose(d.gather(), dense_result(c, psi))

    @pytest.mark.parametrize("mode", [CommMode.BLOCKING, CommMode.NONBLOCKING])
    def test_qft_both_modes(self, mode):
        psi = random_state(6, seed=3)
        c = qft_circuit(6)
        d = DistributedStatevector.from_amplitudes(psi, 4, comm_mode=mode)
        d.apply_circuit(c)
        assert np.allclose(d.gather(), dense_result(c, psi))

    def test_halved_swaps_exact(self):
        psi = random_state(6, seed=4)
        c = qft_circuit(6)
        d = DistributedStatevector.from_amplitudes(psi, 8, halved_swaps=True)
        d.apply_circuit(c)
        assert np.allclose(d.gather(), dense_result(c, psi))

    def test_distributed_controls(self):
        # Controls living in the rank bits.
        psi = random_state(5, seed=5)
        c = Circuit(5).x(0, controls=(4,)).p(0.7, 1, controls=(3,)).h(2)
        d = DistributedStatevector.from_amplitudes(psi, 4)
        d.apply_circuit(c)
        assert np.allclose(d.gather(), dense_result(c, psi))

    def test_distributed_target_with_local_control(self):
        psi = random_state(5, seed=6)
        c = Circuit(5).x(4, controls=(0,)).h(3)
        d = DistributedStatevector.from_amplitudes(psi, 4)
        d.apply_circuit(c)
        assert np.allclose(d.gather(), dense_result(c, psi))

    def test_both_targets_distributed_swap(self):
        psi = random_state(5, seed=7)
        c = Circuit(5).swap(3, 4)
        d = DistributedStatevector.from_amplitudes(psi, 8)
        d.apply_circuit(c)
        assert np.allclose(d.gather(), dense_result(c, psi))

    def test_fused_diagonal_distributed(self):
        import math

        ladder = [
            Gate.named("p", (0,), controls=(4,), params=(math.pi / 2,)),
            Gate.named("p", (0,), controls=(3,), params=(math.pi / 4,)),
        ]
        c = Circuit(5)
        c.append(Gate.fused(ladder))
        psi = random_state(5, seed=8)
        d = DistributedStatevector.from_amplitudes(psi, 4)
        d.apply_circuit(c)
        assert np.allclose(d.gather(), dense_result(c, psi))

    def test_diagonal_with_distributed_target(self):
        psi = random_state(5, seed=9)
        c = Circuit(5).rz(0.9, 4).p(0.3, 3)
        d = DistributedStatevector.from_amplitudes(psi, 4)
        d.apply_circuit(c)
        assert np.allclose(d.gather(), dense_result(c, psi))


class TestCommunicationSchedule:
    def test_local_gates_send_nothing(self):
        d = DistributedStatevector.zero_state(6, 4)
        d.apply_circuit(hadamard_benchmark(6, 0, gates=5))
        assert d.comm.stats.messages_sent == 0

    def test_distributed_hadamard_full_exchange(self):
        d = DistributedStatevector.zero_state(6, 4)
        d.apply_gate(Gate.named("h", (5,)))
        # Every rank sends its full 16-amplitude slice once.
        assert d.comm.stats.bytes_sent == 4 * 16 * 16

    def test_swap_full_vs_halved_bytes(self):
        full = DistributedStatevector.zero_state(6, 4)
        full.apply_circuit(swap_benchmark(6, 0, 5, gates=2))
        halved = DistributedStatevector.zero_state(6, 4, halved_swaps=True)
        halved.apply_circuit(swap_benchmark(6, 0, 5, gates=2))
        assert halved.comm.stats.bytes_sent * 2 == full.comm.stats.bytes_sent

    def test_message_chunking(self):
        # Cap messages at half a slice: each exchange needs 2 messages.
        slice_bytes = Partition(6, 4).local_bytes
        d = DistributedStatevector.zero_state(
            6, 4, max_message=slice_bytes // 2
        )
        d.apply_gate(Gate.named("h", (5,)))
        assert d.comm.stats.messages_sent == 4 * 2

    def test_distributed_control_halves_participants(self):
        d = DistributedStatevector.zero_state(6, 4)
        d.apply_gate(Gate.named("x", (5,), controls=(4,)))
        # Only the 2 ranks with control bit set exchange.
        assert d.comm.stats.messages_sent == 2

    def test_both_distributed_swap_participation(self):
        d = DistributedStatevector.zero_state(6, 4)
        d.apply_gate(Gate.named("swap", (4, 5)))
        # Ranks 0b01 and 0b10 trade; 0b00 and 0b11 idle.
        senders = set(d.comm.stats.per_rank_bytes)
        assert senders == {0b01, 0b10}


class TestErrors:
    def test_width_mismatch(self):
        d = DistributedStatevector.zero_state(4, 2)
        with pytest.raises(SimulationError):
            d.apply_circuit(Circuit(5).h(0))

    def test_gate_out_of_range(self):
        d = DistributedStatevector.zero_state(4, 2)
        with pytest.raises(SimulationError):
            d.apply_gate(Gate.named("h", (4,)))

    def test_controlled_distributed_swap_unsupported(self):
        d = DistributedStatevector.zero_state(5, 4)
        with pytest.raises(SimulationError, match="controlled distributed SWAP"):
            d.apply_gate(Gate.named("swap", (0, 4), controls=(1,)))

    def test_two_target_unitary_distributed_unsupported(self):
        from repro.gates import matrices as mats

        d = DistributedStatevector.zero_state(5, 4)
        with pytest.raises(SimulationError):
            d.apply_gate(Gate.unitary(mats.swap_matrix() @ np.diag([1, 1, 1, 1j]), (0, 4)))


class TestObserver:
    def test_observer_called_per_gate(self):
        seen = []
        d = DistributedStatevector.zero_state(5, 4, observer=lambda i, g, p: seen.append((i, g.name, p.locality)))
        d.apply_circuit(qft_circuit(5))
        assert len(seen) == len(qft_circuit(5))
        assert [i for i, _, _ in seen] == list(range(len(seen)))
