"""Tests for measurement utilities."""

import numpy as np
import pytest

from repro.circuits import random_state
from repro.errors import SimulationError
from repro.statevector import (
    expectation_z,
    marginal_probability,
    probabilities,
)
from repro.statevector.dense import DenseStatevector


class TestProbabilities:
    def test_sum_to_one(self):
        psi = random_state(5, seed=1)
        assert np.isclose(probabilities(psi).sum(), 1.0)

    def test_basis_state(self):
        psi = np.zeros(4, complex)
        psi[2] = 1j
        assert np.allclose(probabilities(psi), [0, 0, 1, 0])


class TestMarginals:
    def test_plus_state(self):
        psi = np.full(4, 0.5, dtype=complex)
        assert np.isclose(marginal_probability(psi, 0, 0), 0.5)
        assert np.isclose(marginal_probability(psi, 1, 1), 0.5)

    def test_complementary(self):
        psi = random_state(4, seed=2)
        for q in range(4):
            p0 = marginal_probability(psi, q, 0)
            p1 = marginal_probability(psi, q, 1)
            assert np.isclose(p0 + p1, 1.0)

    def test_bad_value_raises(self):
        with pytest.raises(SimulationError):
            marginal_probability(np.ones(2, complex), 0, 2)

    def test_bad_qubit_raises(self):
        with pytest.raises(SimulationError):
            marginal_probability(np.ones(2, complex), 1, 0)


class TestExpectationZ:
    def test_zero_state(self):
        psi = np.array([1, 0], dtype=complex)
        assert np.isclose(expectation_z(psi, 0), 1.0)

    def test_one_state(self):
        psi = np.array([0, 1], dtype=complex)
        assert np.isclose(expectation_z(psi, 0), -1.0)

    def test_plus_state(self):
        psi = np.array([1, 1], dtype=complex) / np.sqrt(2)
        assert np.isclose(expectation_z(psi, 0), 0.0)


class TestSampling:
    def test_deterministic_state(self):
        psi = np.zeros(8, complex)
        psi[5] = 1.0
        state = DenseStatevector.from_amplitudes(psi)
        assert np.all(state.sample_bitstrings(20, seed=0) == 5)
