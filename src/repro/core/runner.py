"""The simulation runner: the library's main entry point.

``SimulationRunner`` ties everything together: it sizes the job on the
machine, optionally cache-blocks the circuit for the resulting
partition, prices the run with the performance model, and (for small
registers) can execute the circuit numerically through the distributed
simulator to validate that the planned schedule is the executed one.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import Circuit
from repro.core.options import RunOptions
from repro.core.report import RunReport
from repro.errors import SimulationError
from repro.machine.allocation import (
    FULL_BUFFER_FACTOR,
    HALVED_BUFFER_FACTOR,
    allocate,
)
from repro.machine.archer2 import Machine, archer2
from repro.machine.slurm import SlurmJob
from repro.perfmodel.predictor import predict
from repro.perfmodel.trace import RunConfiguration
from repro.statevector.distributed import DistributedStatevector
from repro.statevector.partition import NUMERIC_QUBIT_LIMIT

__all__ = ["SimulationRunner", "NUMERIC_QUBIT_LIMIT"]


class SimulationRunner:
    """Run (or price) circuits on a modelled machine."""

    def __init__(self, machine: Machine | None = None):
        self.machine = machine if machine is not None else archer2()

    # -- configuration ---------------------------------------------------------

    def configure(
        self, circuit: Circuit, options: RunOptions
    ) -> tuple[RunConfiguration, SlurmJob]:
        """Size the job and build the model configuration."""
        node_type = self.machine.node_type(options.node_type)
        buffer_factor = (
            HALVED_BUFFER_FACTOR if options.halved_swaps else FULL_BUFFER_FACTOR
        )
        allocation = allocate(
            circuit.num_qubits,
            node_type,
            machine=self.machine,
            num_nodes=options.num_nodes,
            buffer_factor=buffer_factor,
        )
        from repro.parallel import resolve_executor_name
        from repro.parallel.tcp import parse_hosts

        # Pure normalisation (no capability probing): a prediction about
        # a pool/TCP run must be expressible on a host that cannot
        # itself run the pool.
        executor = resolve_executor_name(options.executor)
        hosts = (
            parse_hosts(options.hosts) if options.hosts is not None else None
        )
        config = RunConfiguration(
            partition=allocation.partition,
            node_type=node_type,
            frequency=options.frequency,
            comm_mode=options.comm_mode,
            halved_swaps=options.halved_swaps,
            max_message=options.max_message,
            nodes_per_switch=self.machine.nodes_per_switch,
            switch_power_w=self.machine.switch_power_w,
            calibration=options.calibration,
            executor=executor,
            transport="tcp" if (executor == "pool" and hosts) else "shm",
            num_hosts=len(hosts) if hosts else 1,
        )
        job = SlurmJob(
            nodes=allocation.num_nodes,
            node_type=node_type,
            cpu_freq=options.frequency,
            machine=self.machine,
            name=circuit.name or "statevector-sim",
        )
        return config, job

    @staticmethod
    def _prepare_circuit(
        circuit: Circuit, config: RunConfiguration, options: RunOptions
    ) -> tuple[Circuit, dict[int, int] | None, str | None]:
        """Apply the selected transpilation, if any.

        ``options.transpile`` (else ``REPRO_TRANSPILE``) names the
        strategy.  Returns the circuit to run, its output permutation
        and the strategy that ran (``None``: untranspiled).
        """
        from repro.transpile import resolve_strategy, transpile

        strategy = resolve_strategy(options.transpile)
        if strategy is None:
            return circuit, None, None
        result = transpile(circuit, config.partition, strategy=strategy)
        return result.circuit, result.output_permutation, strategy

    # -- the main entry point -----------------------------------------------------

    def run(self, circuit: Circuit, options: RunOptions | None = None) -> RunReport:
        """Price one run (sizing, optional transpilation, cost model)."""
        options = options if options is not None else RunOptions()
        config, job = self.configure(circuit, options)
        to_run, permutation, strategy = self._prepare_circuit(
            circuit, config, options
        )
        prediction = predict(to_run, config)
        return RunReport(
            circuit_name=circuit.name or f"circuit{circuit.num_qubits}",
            num_qubits=circuit.num_qubits,
            num_nodes=config.num_nodes,
            options=options,
            prediction=prediction,
            job=job,
            output_permutation=permutation,
            strategy=strategy,
        )

    def execute_numeric(
        self,
        circuit: Circuit,
        options: RunOptions | None = None,
        *,
        initial_state: np.ndarray | None = None,
        num_ranks: int | None = None,
    ) -> tuple[np.ndarray, RunReport]:
        """Numerically execute a small circuit AND price it.

        The distributed executor runs the exact schedule the model
        prices; use this to validate end-to-end at test scale.  Returns
        the final statevector and the report.
        """
        options = options if options is not None else RunOptions()
        if circuit.num_qubits > NUMERIC_QUBIT_LIMIT:
            raise SimulationError(
                f"numeric execution capped at {NUMERIC_QUBIT_LIMIT} qubits "
                f"(asked for {circuit.num_qubits}); use run() for the model"
            )
        report = self.run(circuit, options)
        ranks = num_ranks if num_ranks is not None else min(
            report.num_nodes, 1 << (circuit.num_qubits - 1)
        )
        config, _ = self.configure(circuit, options)
        to_run, _, _ = self._prepare_circuit(circuit, config, options)
        if initial_state is None:
            state = DistributedStatevector.zero_state(
                circuit.num_qubits,
                ranks,
                comm_mode=options.comm_mode,
                halved_swaps=options.halved_swaps,
                executor=options.executor,
                fusion=options.fusion,
                hosts=options.hosts,
            )
        else:
            state = DistributedStatevector.from_amplitudes(
                initial_state,
                ranks,
                comm_mode=options.comm_mode,
                halved_swaps=options.halved_swaps,
                executor=options.executor,
                fusion=options.fusion,
                hosts=options.hosts,
            )
        state.apply_circuit(to_run)
        return state.gather(), report
