"""Measurement on the distributed state: exact shots, queries on gather().

Shots come from the exact sampler (``sample_bitstrings``), so the stream
depends only on the state and the seed; float queries are the array
functions of :mod:`repro.statevector.measurement` on the gathered state.
"""

import numpy as np
import pytest

from repro.circuits import Circuit, ghz_circuit, qft_circuit, random_circuit, random_state
from repro.errors import SimulationError
from repro.statevector import (
    DenseStatevector,
    DistributedStatevector,
    expectation_z,
    marginal_probability,
)


def make_state(n=6, ranks=4, seed=1):
    psi = random_state(n, seed=seed)
    return psi, DistributedStatevector.from_amplitudes(psi, ranks)


def evolved(n=6, ranks=4, seed=1):
    """A distributed state after a random circuit, and its dense twin."""
    psi = random_state(n, seed=seed)
    circuit = random_circuit(n, 30, seed=seed)
    dense = DenseStatevector.from_amplitudes(psi).apply_circuit(circuit)
    dist = DistributedStatevector.from_amplitudes(psi, ranks).apply_circuit(circuit)
    return dense, dist


class TestProbabilityOf:
    def test_matches_gathered(self):
        psi, d = make_state()
        for idx in (0, 13, 37, 63):
            assert np.isclose(d.probability_of(idx), abs(psi[idx]) ** 2)


class TestNorm:
    def test_records_no_messages(self):
        _, dist = evolved(seed=2)
        before = list(dist.comm.message_log)
        dist.norm()
        assert dist.comm.message_log == before


class TestMarginals:
    @pytest.mark.parametrize("qubit", range(6))
    def test_local_and_distributed_qubits(self, qubit):
        dense, dist = evolved()
        for value in (0, 1):
            assert np.isclose(
                marginal_probability(dist.gather(), qubit, value),
                marginal_probability(dense.amplitudes, qubit, value),
            )

    def test_bad_value(self):
        _, d = make_state()
        with pytest.raises(SimulationError):
            marginal_probability(d.gather(), 0, 2)

    def test_expectation_z(self):
        dense, dist = evolved(seed=3)
        for q in range(6):
            assert np.isclose(
                expectation_z(dist.gather(), q), expectation_z(dense.amplitudes, q)
            )

    def test_ghz_correlations(self):
        d = DistributedStatevector.zero_state(5, 4)
        d.apply_circuit(ghz_circuit(5))
        for q in range(5):
            assert np.isclose(marginal_probability(d.gather(), q, 0), 0.5)


class TestMeasureReductionSchedule:
    @pytest.mark.parametrize("ranks", [1, 2, 8])
    def test_recursive_doubling_rounds(self, ranks):
        """A measure step logs log2(R) rounds of 16-byte sends per rank."""
        d = DistributedStatevector.zero_state(5, ranks)
        d.apply_circuit(Circuit(5).h(0).measure(0))
        rounds = ranks.bit_length() - 1
        assert [(m.source, m.dest, m.tag, m.nbytes) for m in d.comm.message_log] == [
            (rank, rank ^ (1 << r), (1 << 20) + r, 16)
            for r in range(rounds)
            for rank in range(ranks)
        ]


class TestSampling:
    def test_deterministic_state(self):
        d = DistributedStatevector.zero_state(5, 4)
        assert np.all(d.sample_bitstrings(50, seed=0) == 0)

    def test_distribution_matches_gathered(self):
        _, d = make_state(seed=4)
        samples = d.sample_bitstrings(20_000, seed=1)
        empirical = np.bincount(samples, minlength=64) / 20_000
        exact = np.abs(d.gather()) ** 2
        assert np.abs(empirical - exact).max() < 0.02

    def test_samples_span_ranks(self):
        d = DistributedStatevector.zero_state(6, 4)
        d.apply_circuit(qft_circuit(6))  # uniform output
        samples = d.sample_bitstrings(4000, seed=2)
        ranks_hit = set(np.asarray(samples) >> 4)
        assert ranks_hit == {0, 1, 2, 3}

    def test_negative_shots_raise(self):
        _, d = make_state()
        with pytest.raises(SimulationError):
            d.sample_bitstrings(-1)

    def test_ghz_only_extreme_outcomes(self):
        d = DistributedStatevector.zero_state(5, 4)
        d.apply_circuit(ghz_circuit(5))
        samples = set(d.sample_bitstrings(200, seed=3).tolist())
        assert samples <= {0, 31}
        assert len(samples) == 2