"""Tests for Grover search against the amplitude-amplification analytics."""

import numpy as np
import pytest

from repro.circuits import Circuit, census
from repro.circuits.grover import (
    grover_circuit,
    grover_diffusion,
    grover_oracle,
    optimal_iterations,
    success_probability,
)
from repro.errors import CircuitError
from repro.statevector import DenseStatevector, DistributedStatevector


class TestAnalytics:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_optimal_iterations_magnitude(self, n):
        k = optimal_iterations(n)
        # ~ (pi/4) sqrt(N)
        assert abs(k - (np.pi / 4) * np.sqrt(2**n)) < 2

    def test_success_probability_peaks_at_optimum(self):
        n = 6
        k_opt = optimal_iterations(n)
        assert success_probability(n, k_opt) > 0.99
        assert success_probability(n, 0) == pytest.approx(1 / 2**n)

    def test_overrotation_hurts(self):
        n = 6
        k_opt = optimal_iterations(n)
        assert success_probability(n, 2 * k_opt + 1) < success_probability(
            n, k_opt
        )


class TestCircuitVsAnalytics:
    @pytest.mark.parametrize("n,marked", [(4, 7), (5, 0), (6, 41)])
    def test_finds_marked_state(self, n, marked):
        sim = DenseStatevector.zero_state(n)
        sim.apply_circuit(grover_circuit(n, marked))
        k = optimal_iterations(n)
        assert sim.probability_of(marked) == pytest.approx(
            success_probability(n, k), abs=1e-9
        )
        assert sim.probability_of(marked) > 0.9

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
    def test_every_iteration_count_matches_formula(self, k):
        n, marked = 5, 19
        sim = DenseStatevector.zero_state(n)
        sim.apply_circuit(grover_circuit(n, marked, iterations=k))
        assert sim.probability_of(marked) == pytest.approx(
            success_probability(n, k), abs=1e-9
        )

    def test_distributed_run_matches_dense(self):
        n, marked = 6, 23
        circuit = grover_circuit(n, marked)
        dense = DenseStatevector.zero_state(n).apply_circuit(circuit)
        dist = DistributedStatevector.zero_state(n, 8)
        dist.apply_circuit(circuit)
        assert np.allclose(dist.gather(), dense.amplitudes)


class TestStructure:
    def test_oracle_is_diagonal(self):
        """The oracle flips one sign: diagonal, hence fully local."""
        n, marked = 4, 9
        circuit = Circuit(n, grover_oracle(n, marked))
        u = circuit.unitary_matrix()
        expected = np.eye(2**n)
        expected[marked, marked] = -1
        assert np.allclose(u, expected)

    def test_diffusion_inverts_about_mean(self):
        n = 3
        u = Circuit(n, grover_diffusion(n)).unitary_matrix()
        s = np.full(2**n, 1 / np.sqrt(2**n))
        expected = 2 * np.outer(s, s) - np.eye(2**n)
        # Up to global phase.
        phase = u[0, 0] / expected[0, 0]
        assert np.isclose(abs(phase), 1.0)
        assert np.allclose(u, phase * expected)

    def test_communication_lightness(self):
        """The multi-controlled Z gates (diagonal) never communicate:
        every distributed operation is an H or X on a high qubit."""
        n, m = 8, 5
        circuit = grover_circuit(n, 3, iterations=2)
        out = census(circuit, m)
        non_diagonal_high = sum(
            1
            for g in circuit
            if g.name in ("h", "x") and g.targets[0] >= m
        )
        assert out.distributed == non_diagonal_high
        # The deepest gates of the circuit -- the (n-1)-controlled Zs --
        # are all fully local.
        mcz = [g for g in circuit if g.name == "z"]
        assert len(mcz) == 4  # oracle + diffusion, 2 iterations
        assert all(g.is_diagonal() for g in mcz)

    def test_validation(self):
        with pytest.raises(CircuitError):
            grover_circuit(1, 0)
        with pytest.raises(CircuitError):
            grover_circuit(4, 16)
        with pytest.raises(CircuitError):
            grover_circuit(4, 0, iterations=-1)
        with pytest.raises(CircuitError):
            optimal_iterations(4, 0)

    def test_cache_blocking_grover(self):
        from repro.circuits import distributed_gate_count
        from repro.transpile import cache_block
        from repro.transpile.verify import assert_equivalent

        n, m = 7, 4
        circuit = grover_circuit(n, 5, iterations=1)
        result = cache_block(circuit, m)
        assert distributed_gate_count(
            result.circuit, m
        ) <= distributed_gate_count(circuit, m)
        assert_equivalent(
            circuit, result.circuit, output_permutation=result.output_permutation
        )
