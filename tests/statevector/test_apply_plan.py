"""Tests for the per-circuit compiled apply plans."""

import numpy as np
import pytest

from repro.circuits import Circuit, random_circuit, random_state
from repro.errors import SimulationError
from repro.gates import Gate
from repro.statevector import (
    DenseStatevector,
    DistributedStatevector,
    StepKind,
    compile_gate_step,
    compile_plan,
)
from repro.statevector.apply_plan import (
    MAX_FUSED_QUBITS,
    clear_plan_cache,
    reduce_diagonal,
)
from repro.statevector.fusion import FusionConfig


class TestCompileGateStep:
    def test_single_qubit_gate(self):
        step = compile_gate_step(Gate.named("h", (1,)))
        assert step.kind is StepKind.SINGLE
        assert step.targets == (1,)
        assert step.matrix is not None and step.diag is None
        assert step.num_gates == 1

    def test_diagonal_gate_materialises_diag(self):
        gate = Gate.named("p", (0,), controls=(2,), params=(0.7,))
        step = compile_gate_step(gate)
        assert step.kind is StepKind.DIAGONAL
        assert step.controls == (2,)
        assert np.allclose(step.diag, np.diag(gate.matrix()))

    def test_swap_gate(self):
        step = compile_gate_step(Gate.named("swap", (0, 2), controls=(1,)))
        assert step.kind is StepKind.SWAP
        assert step.matrix is None and step.diag is None

    def test_two_qubit_generic(self):
        circuit = Circuit(2)
        matrix = circuit.h(0).x(1, controls=(0,)).unitary_matrix()
        step = compile_gate_step(Gate.unitary(matrix, (0, 1)))
        assert step.kind is StepKind.GENERIC

    def test_run_local_matches_gate_matrix(self):
        for gate in [
            Gate.named("h", (2,)),
            Gate.named("x", (0,), controls=(1,)),
            Gate.named("rz", (1,), params=(0.4,)),
            Gate.named("swap", (0, 2)),
        ]:
            psi = random_state(3, seed=5)
            amps = psi.copy()
            compile_gate_step(gate).run_local(amps)
            expected = DenseStatevector.from_amplitudes(psi)
            expected.apply_gate(gate)
            assert np.allclose(amps, expected.amplitudes), gate.name


class TestFusion:
    def _phase_ladder(self):
        c = Circuit(4)
        c.p(0.1, 0).p(0.2, 1, controls=(0,)).rz(0.3, 2).z(3)
        return c

    def test_adjacent_diagonals_fuse_to_one_step(self):
        plan = compile_plan(self._phase_ladder(), cache=False)
        assert len(plan.steps) == 1
        step = plan.steps[0]
        assert step.kind is StepKind.DIAGONAL
        assert step.num_gates == 4
        assert plan.num_fused == 4
        assert plan.num_gates == 4

    def test_fused_step_keeps_original_gates_in_order(self):
        circuit = self._phase_ladder()
        plan = compile_plan(circuit, cache=False)
        assert plan.steps[0].gates == circuit.gates

    def test_non_diagonal_breaks_the_run(self):
        c = Circuit(3)
        c.p(0.1, 0).h(1).p(0.2, 2)
        # Pin diag mode: under REPRO_FUSION=full this run block-fuses.
        plan = compile_plan(c, fusion="diag", cache=False)
        assert [s.kind for s in plan.steps] == [
            StepKind.DIAGONAL,
            StepKind.SINGLE,
            StepKind.DIAGONAL,
        ]
        assert plan.num_fused == 0

    def test_fusion_respects_qubit_cap(self):
        c = Circuit(6)
        for q in range(6):
            c.p(0.1 * (q + 1), q)
        # Pin diag mode: full mode raises the diagonal-run support cap.
        plan = compile_plan(
            c, fusion=FusionConfig(mode="diag", diag_qubits=3), cache=False
        )
        assert len(plan.steps) == 2
        assert all(len(s.targets) == 3 for s in plan.steps)

    def test_fusion_disabled(self):
        plan = compile_plan(self._phase_ladder(), fusion="off", cache=False)
        assert len(plan.steps) == 4
        assert plan.num_fused == 0

    def test_wide_diagonal_not_fused_beyond_cap(self):
        c = Circuit(MAX_FUSED_QUBITS + 2)
        for q in range(MAX_FUSED_QUBITS + 2):
            c.p(0.05 * (q + 1), q)
        plan = compile_plan(c, fusion="diag", cache=False)
        assert all(len(s.targets) <= MAX_FUSED_QUBITS for s in plan.steps)

    def test_fused_execution_matches_gate_by_gate(self):
        circuit = self._phase_ladder()
        psi = random_state(4, seed=9)
        plan = compile_plan(circuit, cache=False)
        amps = DenseStatevector.from_amplitudes(psi).apply_plan(plan).amplitudes
        expected = DenseStatevector.from_amplitudes(psi)
        for gate in circuit:
            expected.apply_gate(gate)
        assert np.allclose(amps, expected.amplitudes)


class TestPlanCache:
    def setup_method(self):
        clear_plan_cache()

    def test_same_circuit_returns_cached_plan(self):
        circuit = random_circuit(4, 20, seed=3)
        assert compile_plan(circuit) is compile_plan(circuit)

    def test_mutated_circuit_recompiles(self):
        circuit = Circuit(3).h(0)
        first = compile_plan(circuit)
        circuit.x(1)
        second = compile_plan(circuit)
        assert second is not first
        assert second.num_gates == 2

    def test_different_options_not_conflated(self):
        c = Circuit(3)
        c.p(0.1, 0).p(0.2, 1)
        fused = compile_plan(c)
        unfused = compile_plan(c, fusion="off")
        assert len(fused.steps) == 1
        assert len(unfused.steps) == 2

    def test_each_key_keeps_its_own_entry(self):
        # Dense (every qubit local) and distributed (15 local) legs of
        # one circuit interleave; neither compile may evict the other.
        circuit = random_circuit(18, 40, seed=4)
        dense = compile_plan(circuit)
        distributed = compile_plan(circuit, local_qubits=15)
        assert compile_plan(circuit) is dense
        assert compile_plan(circuit, local_qubits=15) is distributed
        assert compile_plan(circuit, local_qubits=18) is dense
        off = compile_plan(circuit, fusion="off")
        assert compile_plan(circuit) is dense
        assert compile_plan(circuit, fusion="off") is off

    def test_cache_false_bypasses(self):
        circuit = Circuit(2).h(0)
        assert compile_plan(circuit, cache=False) is not compile_plan(
            circuit, cache=False
        )


class TestExecutorIntegration:
    def test_dense_apply_plan_public_entry(self):
        circuit = random_circuit(5, 30, seed=11)
        plan = compile_plan(circuit, cache=False)
        via_plan = DenseStatevector.from_amplitudes(random_state(5, seed=12))
        baseline = via_plan.copy()
        via_plan.apply_plan(plan)
        baseline.apply_circuit(circuit)
        assert np.allclose(via_plan.amplitudes, baseline.amplitudes)

    def test_dense_apply_plan_width_mismatch(self):
        plan = compile_plan(Circuit(3).h(0), cache=False)
        with pytest.raises(SimulationError):
            DenseStatevector.zero_state(2).apply_plan(plan)

    def test_distributed_observer_sees_every_gate(self):
        # Fusion must not collapse observer callbacks: with an observer
        # attached the distributed executor compiles without fusion.
        circuit = Circuit(3)
        circuit.p(0.1, 0).p(0.2, 1).h(2).p(0.3, 0)
        seen = []
        sim = DistributedStatevector.zero_state(
            3, 2, observer=lambda index, gate, plan: seen.append(gate.name)
        )
        sim.apply_circuit(circuit)
        assert seen == ["p", "p", "h", "p"]

    def test_distributed_fuses_without_observer(self):
        circuit = Circuit(4)
        circuit.p(0.1, 0).p(0.2, 3)  # second diagonal acts on a rank bit
        psi = random_state(4, seed=4)
        dense = DenseStatevector.from_amplitudes(psi).apply_circuit(circuit)
        dist = DistributedStatevector.from_amplitudes(psi, 4)
        dist.apply_circuit(circuit)
        assert np.allclose(dist.gather(), dense.amplitudes)

    def test_reference_backend_through_plan_path(self):
        import repro.statevector.gate_kernels as kernels

        circuit = random_circuit(5, 25, seed=21)
        psi = random_state(5, seed=22)
        default = DenseStatevector.from_amplitudes(psi).apply_circuit(circuit)
        with kernels.using_backend("reference"):
            ref = DenseStatevector.from_amplitudes(psi).apply_circuit(circuit)
        assert np.allclose(default.amplitudes, ref.amplitudes, atol=1e-12)


class TestReduceDiagonal:
    def test_no_fixed_bits_is_identity(self):
        diag = np.exp(1j * np.arange(8))
        remaining, reduced = reduce_diagonal(diag, (0, 3, 5), {})
        assert remaining == (0, 3, 5)
        assert np.array_equal(reduced, diag)

    def test_fixing_one_bit_halves_the_diagonal(self):
        diag = np.arange(8, dtype=complex)
        remaining, reduced = reduce_diagonal(diag, (1, 4, 6), {4: 1})
        assert remaining == (1, 6)
        # Sub-index bit order: target (1, 4, 6) -> diag bits (0, 1, 2);
        # fixing bit 1 to 1 selects entries with that bit set.
        assert np.array_equal(reduced, diag[[0b010, 0b011, 0b110, 0b111]])

    def test_fixing_all_bits_leaves_a_scalar(self):
        diag = np.arange(4, dtype=complex)
        remaining, reduced = reduce_diagonal(diag, (2, 5), {2: 1, 5: 0})
        assert remaining == ()
        assert reduced.shape == (1,)
        assert reduced[0] == diag[0b01]
