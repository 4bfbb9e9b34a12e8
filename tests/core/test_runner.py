"""Tests for SimulationRunner, RunOptions and RunReport."""

import numpy as np
import pytest

from repro.circuits import builtin_qft_circuit, qft_circuit, random_state
from repro.core import RunOptions, SimulationRunner
from repro.errors import SimulationError
from repro.machine import CpuFrequency
from repro.mpi import CommMode
from repro.statevector import DenseStatevector


RUNNER = SimulationRunner()


class TestRunOptions:
    def test_defaults_match_archer2(self):
        opts = RunOptions()
        assert opts.node_type == "standard"
        assert opts.frequency is CpuFrequency.MEDIUM
        assert opts.comm_mode is CommMode.BLOCKING
        assert not opts.cache_block

    def test_fast_configuration(self):
        fast = RunOptions().fast()
        assert fast.cache_block
        assert fast.comm_mode is CommMode.NONBLOCKING

    def test_fast_preserves_other_fields(self):
        fast = RunOptions(
            node_type="highmem", frequency=CpuFrequency.HIGH, num_nodes=8
        ).fast()
        assert fast.node_type == "highmem"
        assert fast.frequency is CpuFrequency.HIGH
        assert fast.num_nodes == 8


class TestRun:
    def test_minimal_sizing(self):
        report = RUNNER.run(builtin_qft_circuit(38))
        assert report.num_nodes == 64

    def test_explicit_nodes(self):
        report = RUNNER.run(
            builtin_qft_circuit(38), RunOptions(num_nodes=256)
        )
        assert report.num_nodes == 256

    def test_fast_beats_default(self):
        base = RUNNER.run(builtin_qft_circuit(40))
        fast = RUNNER.run(builtin_qft_circuit(40), RunOptions().fast())
        assert fast.runtime_s < base.runtime_s
        assert fast.energy_j < base.energy_j

    def test_cache_block_records_permutation(self):
        report = RUNNER.run(
            builtin_qft_circuit(38), RunOptions(cache_block=True)
        )
        assert report.output_permutation is not None

    def test_report_fields(self):
        report = RUNNER.run(builtin_qft_circuit(38))
        assert report.energy_j == pytest.approx(
            report.node_energy_j + report.network_energy_j
        )
        assert report.cu > 0
        assert 0 <= report.mpi_fraction <= 1

    def test_summary_renders(self):
        text = RUNNER.run(builtin_qft_circuit(38)).summary()
        assert "runtime" in text and "energy (total)" in text

    def test_accounting(self):
        report = RUNNER.run(builtin_qft_circuit(38))
        acct = report.accounting()
        assert acct.nodes == 64
        assert acct.total_energy_j == pytest.approx(report.energy_j)

    def test_halved_swaps_shrink_buffer(self):
        # 45 qubits only fit with the halved buffer.
        from repro.errors import AllocationError

        with pytest.raises(AllocationError):
            RUNNER.run(builtin_qft_circuit(45))
        report = RUNNER.run(
            builtin_qft_circuit(45), RunOptions(halved_swaps=True)
        )
        assert report.num_nodes == 4096

    def test_highmem_option(self):
        report = RUNNER.run(
            builtin_qft_circuit(38), RunOptions(node_type="highmem")
        )
        assert report.num_nodes == 32


class TestExecuteNumeric:
    def test_matches_dense(self):
        psi = random_state(8, seed=1)
        circuit = qft_circuit(8)
        out, report = RUNNER.execute_numeric(
            circuit, RunOptions(num_nodes=4), initial_state=psi, num_ranks=4
        )
        expected = (
            DenseStatevector.from_amplitudes(psi)
            .apply_circuit(circuit)
            .amplitudes
        )
        assert np.allclose(out, expected)
        assert report.runtime_s > 0

    def test_cache_blocked_numeric_respects_permutation(self):
        from repro.transpile.verify import permute_statevector

        psi = random_state(8, seed=2)
        circuit = qft_circuit(8)
        opts = RunOptions(num_nodes=4, cache_block=True)
        out, report = RUNNER.execute_numeric(
            circuit, opts, initial_state=psi, num_ranks=4
        )
        expected = (
            DenseStatevector.from_amplitudes(psi)
            .apply_circuit(circuit)
            .amplitudes
        )
        assert np.allclose(
            permute_statevector(expected, report.output_permutation), out
        )

    def test_size_cap(self):
        with pytest.raises(SimulationError):
            RUNNER.execute_numeric(builtin_qft_circuit(30))

    def test_zero_state_default(self):
        out, _ = RUNNER.execute_numeric(
            qft_circuit(6), RunOptions(num_nodes=4), num_ranks=4
        )
        # QFT of |0> is uniform.
        assert np.allclose(np.abs(out) ** 2, 1 / 64)
