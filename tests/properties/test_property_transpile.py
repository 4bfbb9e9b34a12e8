"""Property-based tests for the repro.transpile pipeline.

The contract under test: executing the transpiled circuit equals
executing the original and then relabelling the statevector's index
bits by the recorded ``output_permutation`` -- across every strategy,
the dense reference simulator, and the distributed executors (serial
always; the shared-memory pool where the host supports it).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit, random_circuit, random_state
from repro.transpile.verify import permute_statevector
from repro.gates import Gate
from repro.parallel import shm_available
from repro.statevector import DenseStatevector, DistributedStatevector
from repro.statevector.partition import Partition
from repro.transpile import STRATEGIES, schedule_metrics, transpile
from repro.transpile.analysis import CommutationAnalysis, gates_commute
from repro.transpile.property_set import PropertySet

circuit_params = st.tuples(
    st.integers(min_value=3, max_value=7),       # qubits
    st.integers(min_value=5, max_value=30),      # gates
    st.integers(min_value=0, max_value=10_000),  # seed
)
strategy_st = st.sampled_from(STRATEGIES)


def _clamp_ranks(ranks, n, strategy):
    """Keep rank counts inside each strategy's domain.

    The legacy cache-blocking pass behind ``blocked`` needs a local
    window of at least two qubits (it localises a CX's control *and*
    target); ``naive``/``grouped`` handle any valid partition.
    """
    if ranks > 2 ** (n - 1):
        ranks = 2
    if strategy == "blocked":
        ranks = min(ranks, 1 << (n - 2))
    return max(ranks, 1)


def _expected(circuit, psi, result):
    base = (
        DenseStatevector.from_amplitudes(psi)
        .apply_circuit(circuit)
        .amplitudes
    )
    return permute_statevector(base, result.output_permutation)


@given(circuit_params, st.sampled_from([2, 4, 8]), strategy_st)
@settings(max_examples=40, deadline=None)
def test_dense_matches_under_recorded_permutation(params, ranks, strategy):
    n, gates, seed = params
    ranks = _clamp_ranks(ranks, n, strategy)
    circuit = random_circuit(n, gates, seed=seed)
    result = transpile(circuit, Partition(n, ranks), strategy=strategy)
    psi = random_state(n, seed=seed + 1)
    out = (
        DenseStatevector.from_amplitudes(psi)
        .apply_circuit(result.circuit)
        .amplitudes
    )
    assert np.allclose(out, _expected(circuit, psi, result), atol=1e-9)


@given(circuit_params, st.sampled_from([2, 4, 8]), strategy_st)
@settings(max_examples=25, deadline=None)
def test_distributed_serial_matches(params, ranks, strategy):
    n, gates, seed = params
    ranks = _clamp_ranks(ranks, n, strategy)
    circuit = random_circuit(n, gates, seed=seed)
    result = transpile(circuit, Partition(n, ranks), strategy=strategy)
    psi = random_state(n, seed=seed + 1)
    state = DistributedStatevector.from_amplitudes(
        psi, ranks, executor="serial"
    )
    state.apply_circuit(result.circuit)
    assert np.allclose(
        state.gather(), _expected(circuit, psi, result), atol=1e-9
    )


@pytest.mark.skipif(
    not shm_available(), reason="named shared memory unavailable on this host"
)
@given(circuit_params, st.sampled_from([2, 4]), strategy_st)
@settings(max_examples=10, deadline=None)
def test_distributed_pool_matches_serial_bitwise(params, ranks, strategy):
    n, gates, seed = params
    ranks = _clamp_ranks(ranks, n, strategy)
    circuit = random_circuit(n, gates, seed=seed)
    result = transpile(circuit, Partition(n, ranks), strategy=strategy)
    psi = random_state(n, seed=seed + 1)
    serial = DistributedStatevector.from_amplitudes(
        psi, ranks, executor="serial"
    )
    serial.apply_circuit(result.circuit)
    pool = DistributedStatevector.from_amplitudes(
        psi, ranks, executor="pool"
    )
    pool.apply_circuit(result.circuit)
    assert np.array_equal(serial.gather(), pool.gather())
    assert serial.comm.message_log == pool.comm.message_log
    assert np.allclose(
        pool.gather(), _expected(circuit, psi, result), atol=1e-9
    )


@given(circuit_params, st.sampled_from([4, 8]))
@settings(max_examples=25, deadline=None)
def test_grouped_never_moves_more_than_naive(params, ranks):
    n, gates, seed = params
    if ranks > 2 ** (n - 1):
        ranks = 2
    circuit = random_circuit(n, gates, seed=seed)
    partition = Partition(n, ranks)
    result = transpile(circuit, partition, strategy="grouped")
    before = schedule_metrics(circuit, partition)
    after = schedule_metrics(result.circuit, partition)
    # Rounds may grow when a tiny local window thrashes (each remap
    # still moves at most half a buffer), but total bytes never do.
    assert after.bytes_per_rank <= before.bytes_per_rank


#: A dense (non-diagonal) and a diagonal explicit two-qubit unitary.
_DENSE_2Q = np.kron(
    np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.array([[0, 1], [1, 0]])
)
_DIAG_2Q = np.diag(np.exp(1j * np.array([0.1, 0.2, 0.3, 0.4])))


@st.composite
def _mixed_gate(draw, n):
    kind = draw(
        st.sampled_from(
            [
                "diag",
                "controlled_diag",
                "single",
                "controlled_single",
                "swap",
                "controlled_swap",
                "unitary",
                "diag_unitary",
                "measure",
                "fused_diag",
                "fused_block",
                "remap",
            ]
        )
    )
    qs = draw(st.permutations(range(n)))
    theta = draw(st.floats(min_value=-3.0, max_value=3.0))
    if kind == "diag":
        return Gate.named(draw(st.sampled_from(["z", "t", "s"])), (qs[0],))
    if kind == "controlled_diag":
        return Gate.named("p", (qs[0],), controls=(qs[1],), params=(theta,))
    if kind == "single":
        return Gate.named("rx", (qs[0],), params=(theta,))
    if kind == "controlled_single":
        return Gate.named("x", (qs[0],), controls=(qs[1],))
    if kind == "swap":
        return Gate.named("swap", tuple(sorted(qs[:2])))
    if kind == "controlled_swap":
        return Gate.named("swap", (qs[0], qs[1]), controls=(qs[2],))
    if kind == "unitary":
        return Gate.unitary(_DENSE_2Q, qs[:2])
    if kind == "diag_unitary":
        return Gate.unitary(_DIAG_2Q, qs[:2], controls=qs[2:3])
    if kind == "measure":
        return Gate.measure(qs[0])
    if kind == "fused_diag":
        return Gate.fused(
            [
                Gate.named("rz", (qs[0],), params=(theta,)),
                Gate.named("p", (qs[1],), controls=(qs[2],), params=(theta,)),
            ]
        )
    if kind == "fused_block":
        return Gate.fused_block(
            [Gate.named("h", (qs[0],)), Gate.named("x", (qs[1],), controls=(qs[0],))]
        )
    return Gate.remap([(qs[0], qs[1]), (qs[2], qs[3])])


@st.composite
def _mixed_circuit(draw):
    n = draw(st.integers(min_value=4, max_value=7))
    gates = draw(st.lists(_mixed_gate(n), min_size=0, max_size=40))
    return Circuit(n, gates)


@given(_mixed_circuit())
@settings(max_examples=80, deadline=None)
def test_commutation_dag_matches_pairwise_rule(circuit):
    """The per-qubit sweep writes exactly the pairwise non-commuting sets."""
    properties = PropertySet()
    CommutationAnalysis().analyse(
        circuit, Partition(circuit.num_qubits, 1), properties
    )
    gates = circuit.gates
    expected = [
        {j for j in range(i) if not gates_commute(gates[j], gate)}
        for i, gate in enumerate(gates)
    ]
    assert properties["commutation_dag"] == expected
