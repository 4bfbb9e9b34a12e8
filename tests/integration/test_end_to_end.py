"""End-to-end integration: the full pipeline at test scale.

These tests run the whole stack -- circuit construction, transpilation,
numeric distributed execution through the simulated MPI layer, trace
capture, costing -- and check that the *executed* schedule is the
*priced* schedule and that the paper's optimisation story holds
end-to-end on a small register.
"""

import math

import numpy as np
import pytest

from repro.circuits import (
    builtin_qft_circuit,
    cache_blocked_qft_circuit,
    qft_circuit,
    random_state,
)
from repro.core import RunOptions, SimulationRunner
from repro.machine import CpuFrequency, STANDARD_NODE
from repro.mpi import CommMode
from repro.perfmodel import (
    RunConfiguration,
    TraceBuilder,
    cost_trace,
    predict,
    trace_circuit,
)
from repro.statevector import DenseStatevector, DistributedStatevector, Partition


def config(n, ranks, **kwargs):
    return RunConfiguration(
        partition=Partition(n, ranks),
        node_type=STANDARD_NODE,
        frequency=CpuFrequency.MEDIUM,
        **kwargs,
    )


class TestExecutedEqualsPlanned:
    """The numeric executor's event stream == the model executor's."""

    @pytest.mark.parametrize("n,ranks", [(6, 4), (7, 8), (8, 4)])
    def test_qft_event_streams_identical(self, n, ranks):
        cfg = config(n, ranks)
        builder = TraceBuilder(cfg)
        state = DistributedStatevector(cfg.partition, observer=builder)
        state.apply_circuit(qft_circuit(n))
        model = trace_circuit(qft_circuit(n), cfg)
        assert builder.trace.plans == model.plans

    def test_blocked_qft_streams_identical(self):
        cfg = config(8, 8, halved_swaps=True)
        circuit = cache_blocked_qft_circuit(8, 5)
        builder = TraceBuilder(cfg)
        state = DistributedStatevector(
            cfg.partition, halved_swaps=True, observer=builder
        )
        state.apply_circuit(circuit)
        model = trace_circuit(circuit, cfg)
        assert builder.trace.plans == model.plans

    def test_costing_numeric_trace_equals_costing_model_trace(self):
        cfg = config(7, 4)
        circuit = qft_circuit(7)
        builder = TraceBuilder(cfg)
        DistributedStatevector(cfg.partition, observer=builder).apply_circuit(
            circuit
        )
        numeric_cost = cost_trace(builder.trace)
        model_cost = cost_trace(trace_circuit(circuit, cfg))
        assert numeric_cost.runtime_s == pytest.approx(model_cost.runtime_s)
        assert numeric_cost.total_energy_j == pytest.approx(
            model_cost.total_energy_j
        )


class TestOptimisationStoryAtSmallScale:
    """The paper's claims hold structurally at any scale."""

    def test_fast_configuration_wins(self):
        n, ranks = 10, 8
        m = n - 3
        builtin = predict(builtin_qft_circuit(n), config(n, ranks))
        fast = predict(
            cache_blocked_qft_circuit(n, m),
            config(n, ranks, comm_mode=CommMode.NONBLOCKING),
        )
        assert fast.runtime_s < builtin.runtime_s
        assert fast.total_energy_j < builtin.total_energy_j
        assert fast.profile.mpi_fraction < builtin.profile.mpi_fraction

    def test_fast_state_is_correct(self):
        n, ranks = 8, 8
        m = n - 3
        psi = random_state(n, seed=42)
        expected = (
            DenseStatevector.from_amplitudes(psi)
            .apply_circuit(qft_circuit(n))
            .amplitudes
        )
        fast_state = DistributedStatevector.from_amplitudes(
            psi, ranks, comm_mode=CommMode.NONBLOCKING, halved_swaps=True
        )
        fast_state.apply_circuit(cache_blocked_qft_circuit(n, m))
        assert np.allclose(fast_state.gather(), expected)

    def test_halved_swaps_halve_measured_traffic(self):
        n, ranks = 8, 8
        m = n - 3
        circuit = cache_blocked_qft_circuit(n, m)
        full = DistributedStatevector.zero_state(n, ranks)
        full.apply_circuit(circuit)
        halved = DistributedStatevector.zero_state(n, ranks, halved_swaps=True)
        halved.apply_circuit(circuit)
        assert halved.comm.stats.bytes_sent * 2 == full.comm.stats.bytes_sent


class TestRunnerPipeline:
    def test_generic_transpiler_inside_runner(self):
        """runner.run(transpile="blocked") must cut predicted comm time."""
        runner = SimulationRunner()
        base = runner.run(builtin_qft_circuit(38))
        blocked = runner.run(
            builtin_qft_circuit(38),
            RunOptions(transpile="blocked", comm_mode=CommMode.NONBLOCKING),
        )
        assert blocked.prediction.costed.comm_s < base.prediction.costed.comm_s

    def test_numeric_execution_of_transpiled_run(self):
        runner = SimulationRunner()
        psi = random_state(8, seed=7)
        opts = RunOptions(num_nodes=4, transpile="blocked")
        out, report = runner.execute_numeric(
            qft_circuit(8), opts, initial_state=psi, num_ranks=4
        )
        # Un-permute and compare against the plain QFT.
        from repro.transpile.verify import permute_statevector

        expected = (
            DenseStatevector.from_amplitudes(psi)
            .apply_circuit(qft_circuit(8))
            .amplitudes
        )
        assert np.allclose(
            out, permute_statevector(expected, report.output_permutation)
        )

    def test_full_paper_pipeline_smoke(self):
        """One call per headline artefact finishes and is self-consistent."""
        runner = SimulationRunner()
        base = runner.run(builtin_qft_circuit(44))
        fast = runner.run(
            cache_blocked_qft_circuit(44, 32),
            RunOptions(comm_mode=CommMode.NONBLOCKING, num_nodes=4096),
        )
        improvement = 1 - fast.runtime_s / base.runtime_s
        saving = 1 - fast.energy_j / base.energy_j
        assert improvement > 0.25 and saving > 0.2
        assert base.num_nodes == 4096


class TestMeasurementAfterDistributedRun:
    def test_sampling_from_gathered_state(self):
        n, ranks = 6, 4
        state = DistributedStatevector.zero_state(n, ranks)
        state.apply_circuit(qft_circuit(n))
        dense = state.to_dense()
        rng = np.random.default_rng(5)
        samples = dense.sample(2000, rng=rng)
        # QFT of |0...0> is uniform: every basis state appears.
        counts = np.bincount(samples, minlength=2**n)
        assert counts.min() > 0
