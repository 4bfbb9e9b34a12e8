"""Property-based tests for the cache-blocking transpiler."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import random_circuit
from repro.gates import GateLocality, classify_gate
from repro.transpile import cache_block
from repro.transpile.verify import equivalent

params = st.tuples(
    st.integers(min_value=3, max_value=6),
    st.integers(min_value=5, max_value=40),
    st.integers(min_value=0, max_value=10_000),
)


@given(params, st.integers(min_value=2, max_value=4))
@settings(max_examples=30, deadline=None)
def test_cache_blocking_preserves_action(p, m):
    n, gates, seed = p
    m = min(m, n - 1)
    circuit = random_circuit(n, gates, seed=seed)
    result = cache_block(circuit, m)
    assert equivalent(
        circuit,
        result.circuit,
        output_permutation=result.output_permutation,
        trials=2,
        seed=seed,
    )


@given(params, st.integers(min_value=2, max_value=4))
@settings(max_examples=30, deadline=None)
def test_cache_blocking_localises_pairing_gates(p, m):
    n, gates, seed = p
    m = min(m, n - 1)
    circuit = random_circuit(n, gates, seed=seed)
    result = cache_block(circuit, m)
    for gate in result.circuit:
        if classify_gate(gate, m) is GateLocality.DISTRIBUTED:
            assert gate.is_swap()
