"""Tests for the dense reference simulator."""

import numpy as np
import pytest

from repro.circuits import Circuit, random_circuit, random_state
from repro.errors import SimulationError
from repro.gates import Gate
from repro.gates import matrices as mats
from repro.statevector import DenseStatevector


class TestConstruction:
    def test_zero_state(self):
        sim = DenseStatevector.zero_state(3)
        assert np.isclose(sim.probability_of(0), 1.0)
        assert sim.norm() == 1.0

    def test_basis_state(self):
        sim = DenseStatevector.basis_state(3, 5)
        assert np.isclose(sim.probability_of(5), 1.0)

    def test_basis_out_of_range(self):
        with pytest.raises(SimulationError):
            DenseStatevector.basis_state(2, 4)

    def test_plus_state(self):
        sim = DenseStatevector.plus_state(3)
        assert np.allclose(sim.probabilities(), np.full(8, 1 / 8))

    def test_from_amplitudes_copies(self):
        psi = random_state(3, seed=1)
        sim = DenseStatevector.from_amplitudes(psi)
        psi[0] = 99.0
        assert sim.amplitude(0) != 99.0

    def test_amplitudes_returns_copy(self):
        sim = DenseStatevector.zero_state(2)
        amps = sim.amplitudes
        amps[0] = 0
        assert sim.amplitude(0) == 1.0

    def test_shape_validation(self):
        with pytest.raises(SimulationError):
            DenseStatevector(2, np.zeros(3, dtype=complex))

    def test_width_bounds(self):
        with pytest.raises(SimulationError):
            DenseStatevector(0)
        with pytest.raises(SimulationError):
            DenseStatevector(29)

    def test_cap_admits_28_qubits(self):
        # The strided kernels dropped the O(2**n) index-array temporaries,
        # so the dense cap is 28; the constructor itself must not reject it.
        # (Not instantiated here: 28 qubits is 4 GiB of amplitudes.)
        assert DenseStatevector(2).num_qubits == 2


class TestGateApplication:
    def test_hadamard(self):
        sim = DenseStatevector.zero_state(1)
        sim.apply_gate(Gate.named("h", (0,)))
        assert np.allclose(sim.amplitudes, [1 / np.sqrt(2)] * 2)

    def test_x_flips_basis(self):
        sim = DenseStatevector.zero_state(2)
        sim.apply_gate(Gate.named("x", (1,)))
        assert np.isclose(sim.probability_of(2), 1.0)

    def test_cnot_entangles(self):
        sim = DenseStatevector.zero_state(2)
        sim.apply_gate(Gate.named("h", (0,)))
        sim.apply_gate(Gate.named("x", (1,), controls=(0,)))
        probs = sim.probabilities()
        assert np.isclose(probs[0], 0.5) and np.isclose(probs[3], 0.5)

    def test_swap(self):
        sim = DenseStatevector.basis_state(2, 0b01)
        sim.apply_gate(Gate.named("swap", (0, 1)))
        assert np.isclose(sim.probability_of(0b10), 1.0)

    def test_controlled_swap(self):
        # Fredkin: swap only when control is 1.
        sim = DenseStatevector.basis_state(3, 0b001)
        sim.apply_gate(Gate.named("swap", (0, 1), controls=(2,)))
        assert np.isclose(sim.probability_of(0b001), 1.0)
        sim = DenseStatevector.basis_state(3, 0b101)
        sim.apply_gate(Gate.named("swap", (0, 1), controls=(2,)))
        assert np.isclose(sim.probability_of(0b110), 1.0)

    def test_gate_vs_full_matrix(self):
        """Every gate kind agrees with dense matrix multiplication."""
        rng = np.random.default_rng(0)
        gates = [
            Gate.named("h", (1,)),
            Gate.named("y", (0,)),
            Gate.named("p", (2,), params=(0.7,)),
            Gate.named("rz", (1,), params=(-0.4,)),
            Gate.named("x", (0,), controls=(2,)),
            Gate.named("p", (0,), controls=(1,), params=(0.3,)),
            Gate.named("swap", (0, 2)),
            Gate.named("x", (1,), controls=(0, 2)),
        ]
        for gate in gates:
            psi = random_state(3, seed=int(rng.integers(1 << 30)))
            sim = DenseStatevector.from_amplitudes(psi)
            sim.apply_gate(gate)
            # Build the full operator by embedding.
            full = np.eye(8, dtype=complex)
            circuit = Circuit(3)
            circuit.append(gate)
            full = circuit.unitary_matrix()
            assert np.allclose(sim.amplitudes, full @ psi), str(gate)

    def test_out_of_range_gate_raises(self):
        with pytest.raises(SimulationError):
            DenseStatevector.zero_state(2).apply_gate(Gate.named("h", (2,)))

    def test_circuit_width_mismatch_raises(self):
        with pytest.raises(SimulationError):
            DenseStatevector.zero_state(2).apply_circuit(Circuit(3).h(0))


class TestInvariants:
    @pytest.mark.parametrize("seed", range(4))
    def test_norm_preserved(self, seed):
        sim = DenseStatevector.from_amplitudes(random_state(5, seed=seed))
        sim.apply_circuit(random_circuit(5, 40, seed=seed))
        assert np.isclose(sim.norm(), 1.0)

    def test_copy_is_independent(self):
        a = DenseStatevector.zero_state(2)
        b = a.copy()
        b.apply_gate(Gate.named("x", (0,)))
        assert np.isclose(a.probability_of(0), 1.0)

    def test_sample_matches_distribution(self):
        sim = DenseStatevector.plus_state(2)
        samples = sim.sample_bitstrings(4000, seed=1)
        counts = np.bincount(samples, minlength=4) / 4000
        assert np.allclose(counts, 0.25, atol=0.05)
