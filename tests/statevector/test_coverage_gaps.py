"""Gap-filling tests for paths the main suites exercise only implicitly."""

import numpy as np
import pytest

from repro.circuits import Circuit, random_state
from repro.errors import SimulationError
from repro.gates import Gate
from repro.gates import matrices as mats
from repro.statevector import DenseStatevector, DistributedStatevector, Partition


class TestTwoQubitUnitaryDistributedControl:
    def test_local_targets_distributed_control(self):
        """A 2-target unitary with both targets local and a control in
        the rank bits is LOCAL_MEMORY and must run exactly."""
        n = 5
        matrix = np.kron(mats.hadamard(), mats.t_gate())
        c = Circuit(n)
        c.append(Gate.unitary(matrix, (0, 1), controls=(4,)))
        psi = random_state(n, seed=1)
        dense = DenseStatevector.from_amplitudes(psi).apply_circuit(c)
        dist = DistributedStatevector.from_amplitudes(psi, 4)
        dist.apply_circuit(c)
        assert np.allclose(dist.gather(), dense.amplitudes)
        assert dist.comm.stats.messages_sent == 0


class TestPredictorEdgeCases:
    def test_empty_circuit_prediction(self):
        from repro.machine import CpuFrequency, STANDARD_NODE
        from repro.perfmodel import RunConfiguration, predict
        from repro.statevector import Partition

        p = predict(
            Circuit(6),
            RunConfiguration(
                Partition(6, 4), STANDARD_NODE, CpuFrequency.MEDIUM
            ),
        )
        assert p.runtime_s == 0.0
        assert p.per_gate_runtime_s() == 0.0
        assert p.per_gate_energy_j() == 0.0

    def test_circuit_name_fallback(self):
        from repro.machine import CpuFrequency, STANDARD_NODE
        from repro.perfmodel import RunConfiguration, predict
        from repro.statevector import Partition

        p = predict(
            Circuit(6).h(0),
            RunConfiguration(
                Partition(6, 4), STANDARD_NODE, CpuFrequency.MEDIUM
            ),
        )
        assert p.circuit_name == "circuit6"


class TestFusedDiagonalOnSingleRank:
    def test_fused_via_runner_numeric(self):
        import math

        from repro.circuits import builtin_qft_circuit
        from repro.core import RunOptions, SimulationRunner

        runner = SimulationRunner()
        circuit = builtin_qft_circuit(8, fused=True)
        out, _ = runner.execute_numeric(
            circuit, RunOptions(num_nodes=4), num_ranks=4
        )
        from repro.circuits import qft_circuit

        expected = (
            DenseStatevector.zero_state(8)
            .apply_circuit(qft_circuit(8))
            .amplitudes
        )
        assert np.allclose(out, expected)


class TestReportPermutationExposure:
    def test_blocked_run_report_permutation_is_usable(self):
        from repro.circuits import qft_circuit
        from repro.core import RunOptions, SimulationRunner

        runner = SimulationRunner()
        report = runner.run(qft_circuit(38), RunOptions(transpile="blocked"))
        perm = report.output_permutation
        assert sorted(perm) == list(range(38))
        assert sorted(perm.values()) == list(range(38))


class TestPlanCacheMutationGuard:
    def test_cache_hit_on_unchanged_circuit(self):
        from repro.statevector.apply_plan import clear_plan_cache, compile_plan

        clear_plan_cache()
        circuit = Circuit(4).h(0).cx(0, 1)
        first = compile_plan(circuit)
        assert compile_plan(circuit) is first

    def test_in_place_mutation_invalidates_cache(self):
        """Appending to a cached circuit must recompile, not serve the
        stale plan for the shorter gate list."""
        from repro.statevector.apply_plan import clear_plan_cache, compile_plan

        clear_plan_cache()
        circuit = Circuit(4).h(0).cx(0, 1)
        stale = compile_plan(circuit)
        circuit.h(2)
        fresh = compile_plan(circuit)
        assert fresh is not stale
        assert fresh.num_gates == 3
        # And the fresh plan is now the cached one.
        assert compile_plan(circuit) is fresh

    def test_mutated_circuit_executes_all_gates(self):
        from repro.statevector.apply_plan import clear_plan_cache

        clear_plan_cache()
        circuit = Circuit(3).h(0)
        dense = DenseStatevector.zero_state(3).apply_circuit(circuit)
        circuit.x(2)
        expected = (
            DenseStatevector.zero_state(3)
            .apply_circuit(Circuit(3).h(0).x(2))
            .amplitudes
        )
        out = DenseStatevector.zero_state(3).apply_circuit(circuit)
        assert np.allclose(out.amplitudes, expected)

    def test_key_change_recompiles(self):
        from repro.circuits import builtin_qft_circuit
        from repro.statevector.apply_plan import clear_plan_cache, compile_plan

        clear_plan_cache()
        circuit = builtin_qft_circuit(6)
        fused = compile_plan(circuit, fuse_diagonals=True)
        unfused = compile_plan(circuit, fuse_diagonals=False)
        assert unfused is not fused
        assert unfused.num_fused == 0


class TestObserverDisablesFusion:
    def test_observer_sees_every_gate_unfused(self):
        """Observers get one callback per original gate, in order, even
        for circuits whose diagonals would otherwise fuse."""
        from repro.circuits import builtin_qft_circuit
        from repro.statevector.apply_plan import compile_plan

        n = 6
        circuit = builtin_qft_circuit(n)
        fused = compile_plan(circuit, fuse_diagonals=True, cache=False)
        assert fused.num_fused > 0  # the contract is only meaningful then

        seen = []
        state = DistributedStatevector(
            Partition(n, 4),
            observer=lambda index, gate, plan: seen.append((index, gate.name)),
        )
        state.apply_circuit(circuit)
        assert [index for index, _ in seen] == list(range(len(circuit)))
        assert [name for _, name in seen] == [g.name for g in circuit]
        assert "fused_diag" not in {name for _, name in seen}

    def test_observed_run_matches_unobserved_amplitudes(self):
        from repro.circuits import builtin_qft_circuit

        n = 6
        circuit = builtin_qft_circuit(n)
        psi = random_state(n, seed=7)
        plain = DistributedStatevector.from_amplitudes(psi, 4)
        plain.apply_circuit(circuit)
        observed = DistributedStatevector.from_amplitudes(
            psi, 4, observer=lambda *args: None
        )
        observed.apply_circuit(circuit)
        assert np.allclose(observed.gather(), plain.gather())


class TestReferenceKernelDistributedParity:
    @pytest.mark.parametrize("ranks", [2, 4])
    def test_reference_backend_matches_strided_on_distributed(self, ranks):
        """REPRO_KERNELS=reference must agree with the strided default
        through the full distributed executor (exchanges included)."""
        from repro.circuits import builtin_qft_circuit
        from repro.statevector.apply_plan import clear_plan_cache
        from repro.statevector.gate_kernels import using_backend

        n = 6
        circuit = builtin_qft_circuit(n)
        psi = random_state(n, seed=3)
        strided = DistributedStatevector.from_amplitudes(psi, ranks)
        strided.apply_circuit(circuit)
        # Plans capture kernel dispatch at compile time; a cached plan
        # must not leak the strided kernels into the reference run.
        clear_plan_cache()
        with using_backend("reference"):
            reference = DistributedStatevector.from_amplitudes(psi, ranks)
            reference.apply_circuit(circuit)
        assert np.allclose(reference.gather(), strided.gather())

    def test_reference_backend_distributed_two_qubit_unitary(self):
        from repro.statevector.apply_plan import clear_plan_cache
        from repro.statevector.gate_kernels import using_backend

        n = 5
        matrix = np.kron(mats.hadamard(), mats.t_gate())
        circuit = Circuit(n)
        # Local targets with a rank-bit control exercise the generic
        # local kernel with control masking through both backends.
        circuit.append(Gate.unitary(matrix, (0, 1), controls=(n - 1,)))
        psi = random_state(n, seed=11)
        expected = DenseStatevector.from_amplitudes(psi).apply_circuit(circuit)
        clear_plan_cache()
        with using_backend("reference"):
            dist = DistributedStatevector.from_amplitudes(psi, 4)
            dist.apply_circuit(circuit)
        assert np.allclose(dist.gather(), expected.amplitudes)
