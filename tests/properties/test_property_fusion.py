"""Property-based tests: fusion never changes the simulated state.

For random circuits and random initial states, every fusion mode
(``off``/``diag``/``full:k``) must produce the same amplitudes as the
unfused gate-by-gate execution -- on the dense simulator, the serial
distributed executor and the shared-memory pool executor alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import random_circuit, random_state
from repro.parallel import shm_available
from repro.statevector import DenseStatevector, DistributedStatevector
from repro.statevector.apply_plan import compile_plan

FUSION_MODES = ("off", "diag", "full:2", "full:3", "full:4", "full:5")

#: (num_qubits, num_gates, seed) for a random circuit + state draw.
circuit_params = st.tuples(
    st.integers(3, 7), st.integers(5, 50), st.integers(0, 10_000)
)


def _unfused_dense(circuit, psi):
    plan = compile_plan(circuit, fusion="off", cache=False)
    return DenseStatevector.from_amplitudes(psi).apply_plan(plan).amplitudes


class TestDenseFusion:
    @given(params=circuit_params, mode=st.sampled_from(FUSION_MODES))
    @settings(max_examples=60, deadline=None)
    def test_fused_dense_matches_unfused(self, params, mode):
        n, num_gates, seed = params
        circuit = random_circuit(n, num_gates, seed=seed)
        psi = random_state(n, seed=seed + 1)
        plan = compile_plan(circuit, fusion=mode, cache=False)
        fused = DenseStatevector.from_amplitudes(psi).apply_plan(plan).amplitudes
        assert np.allclose(fused, _unfused_dense(circuit, psi), atol=1e-10)

    @given(params=circuit_params)
    @settings(max_examples=20, deadline=None)
    def test_plan_covers_every_gate(self, params):
        n, num_gates, seed = params
        circuit = random_circuit(n, num_gates, seed=seed)
        plan = compile_plan(circuit, fusion="full", cache=False)
        covered = [g for s in plan.steps for g in s.gates]
        assert covered == list(circuit.gates)


class TestSerialDistributedFusion:
    @given(
        params=circuit_params,
        ranks=st.sampled_from((2, 4)),
        mode=st.sampled_from(FUSION_MODES),
    )
    @settings(max_examples=30, deadline=None)
    def test_fused_serial_matches_unfused_dense(self, params, ranks, mode):
        n, num_gates, seed = params
        circuit = random_circuit(n, num_gates, seed=seed)
        psi = random_state(n, seed=seed + 1)
        sim = DistributedStatevector.from_amplitudes(
            psi, ranks, executor="serial", fusion=mode
        )
        sim.apply_circuit(circuit)
        assert np.allclose(
            sim.gather(), _unfused_dense(circuit, psi), atol=1e-10
        )


@pytest.mark.skipif(
    not shm_available(), reason="named shared memory unavailable on this host"
)
class TestPoolFusion:
    @given(
        params=circuit_params,
        mode=st.sampled_from(("off", "diag", "full:3", "full:5")),
    )
    @settings(max_examples=8, deadline=None)
    def test_fused_pool_matches_unfused_dense(self, params, mode):
        n, num_gates, seed = params
        circuit = random_circuit(n, num_gates, seed=seed)
        psi = random_state(n, seed=seed + 1)
        sim = DistributedStatevector.from_amplitudes(
            psi, 2, executor="pool", fusion=mode
        )
        sim.apply_circuit(circuit)
        assert np.allclose(
            sim.gather(), _unfused_dense(circuit, psi), atol=1e-10
        )

    @given(params=circuit_params, mode=st.sampled_from(("diag", "full:4")))
    @settings(max_examples=6, deadline=None)
    def test_pool_bitwise_equals_serial_under_fusion(self, params, mode):
        n, num_gates, seed = params
        circuit = random_circuit(n, num_gates, seed=seed)
        psi = random_state(n, seed=seed + 1)
        serial = DistributedStatevector.from_amplitudes(
            psi, 2, executor="serial", fusion=mode
        )
        serial.apply_circuit(circuit)
        pooled = DistributedStatevector.from_amplitudes(
            psi, 2, executor="pool", fusion=mode
        )
        pooled.apply_circuit(circuit)
        assert np.array_equal(serial.gather(), pooled.gather())
