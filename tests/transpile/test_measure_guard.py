"""Transpiling a measured circuit: every strategy but ``grouped`` is legal."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import Circuit, random_circuit
from repro.errors import ValidationError
from repro.gates import Gate
from repro.statevector import DenseStatevector, DistributedStatevector, Partition
from repro.transpile import transpile
from repro.transpile.verify import permute_statevector


def _measured(n=4):
    c = Circuit(n).h(0).cx(0, 1).measure(1).h(2).cx(2, 3)
    return c


@pytest.mark.parametrize("strategy", ["grouped"])
def test_reordering_strategies_rejected(strategy):
    # Commuting a gate across a collapse changes the sampled
    # distribution, not just the layout.
    with pytest.raises(ValidationError, match="mid-circuit measurements"):
        transpile(_measured(), Partition(4, 2), strategy=strategy)


def _random_measured(seed, n=6, num_gates=40):
    """A random circuit with two mid-circuit measures at random points."""
    rng = np.random.default_rng(seed)
    gates = list(random_circuit(n, num_gates, seed=seed).gates)
    for _ in range(2):
        at = int(rng.integers(1, len(gates)))
        gates.insert(at, Gate.measure(int(rng.integers(n))))
    return Circuit(n, gates)


def _run(executor, circuit, ranks, seed):
    if executor == "dense":
        state = DenseStatevector(circuit.num_qubits, measure_seed=seed)
        state.apply_circuit(circuit)
        return state.amplitudes, state.measure_outcomes
    state = DistributedStatevector.zero_state(
        circuit.num_qubits, ranks, executor="serial", measure_seed=seed
    )
    state.apply_circuit(circuit)
    return state.gather(), state.measure_outcomes


@pytest.mark.parametrize("executor", ["dense", "serial"])
def test_blocked_measured_circuit_equals_naive_relabelled(executor):
    # Cache blocking keeps gate order and only relabels qubits, so the
    # same measure_seed collapses to the same outcomes and the output
    # is the naive run's state with its index bits permuted (up to the
    # kernels' allclose contract: the amplitudes are not bitwise equal).
    n = 6
    for seed in range(40):
        circuit = _random_measured(seed, n)
        assert circuit.has_measurements()
        for m in (2, 3, 4):
            ranks = 1 << (n - m)
            result = transpile(circuit, Partition(n, ranks), strategy="blocked")
            naive, naive_outcomes = _run(executor, circuit, ranks, seed)
            blocked, blocked_outcomes = _run(
                executor, result.circuit, ranks, seed
            )
            assert [o for _, o in blocked_outcomes] == [
                o for _, o in naive_outcomes
            ]
            expected = permute_statevector(naive, result.output_permutation)
            assert np.allclose(blocked, expected, atol=1e-12), (seed, m)


def test_naive_passes_measured_circuit_through(monkeypatch):
    monkeypatch.delenv("REPRO_TRANSPILE", raising=False)
    result = transpile(_measured(), Partition(4, 2), strategy="naive")
    assert [g.name for g in result.circuit.gates] == [
        g.name for g in _measured().gates
    ]
    # And the passthrough is executable: same state as the original.
    seed = 3
    a = DenseStatevector(4, measure_seed=seed).apply_circuit(_measured())
    b = DenseStatevector(4, measure_seed=seed).apply_circuit(result.circuit)
    assert np.array_equal(a.amplitudes, b.amplitudes)


def test_env_default_also_guarded(monkeypatch):
    # strategy=None resolves to grouped via the env/default chain; the
    # guard must fire there too, not only on explicit names.
    monkeypatch.delenv("REPRO_TRANSPILE", raising=False)
    with pytest.raises(ValidationError, match="naive"):
        transpile(_measured(), Partition(4, 2))


def test_unitary_circuits_unaffected():
    circuit = Circuit(4).h(0).cx(0, 1).h(2).cx(2, 3)
    result = transpile(circuit, Partition(4, 2), strategy="grouped")
    assert result.strategy == "grouped"
