"""Bench every registered experiment and check its paper claims.

One case per experiment id: pytest-benchmark times
:func:`~repro.experiments.registry.run_experiment`, which also checks
the claims declared next to the experiment (its module's ``CLAIMS``,
running any non-default configuration a claim is made at), and the case
fails if any claim does.  The bounds live only in those declarations.

The replay itself is timed separately below: a 44-qubit QFT over 4,096
ranks would take ~180k-1.9M events depending on mode if every rank were
replayed; the orbit replay runs one rank per symmetry orbit (two orbits
here), so it processes a few hundred to ~1.7k events.
"""

import pytest

from benchmarks.conftest import attach_result
from repro.circuits import builtin_qft_circuit
from repro.des import simulate_trace
from repro.experiments.registry import experiment_ids, run_experiment
from repro.machine import CpuFrequency, STANDARD_NODE
from repro.mpi import CommMode
from repro.perfmodel import RunConfiguration, trace_circuit
from repro.statevector import Partition


@pytest.mark.parametrize("experiment_id", experiment_ids())
def test_experiment(benchmark, experiment_id):
    result = benchmark(run_experiment, experiment_id)
    attach_result(benchmark, result)
    failed = [f"{v.claim}: {v.bound}" for v in result.verdicts if not v.ok]
    assert not failed


def test_des_replay_44q_4096n(benchmark):
    """Time one replay of the paper's largest schedule (non-blocking)."""
    config = RunConfiguration(
        partition=Partition(44, 4096),
        node_type=STANDARD_NODE,
        frequency=CpuFrequency.MEDIUM,
        comm_mode=CommMode.NONBLOCKING,
    )
    trace = trace_circuit(builtin_qft_circuit(44), config)
    result = benchmark.pedantic(
        simulate_trace, args=(trace,), rounds=1, iterations=1
    )
    benchmark.extra_info["events_processed"] = result.events_processed
    benchmark.extra_info["makespan_s"] = round(result.makespan_s, 3)
    assert result.makespan_s > 0
    assert result.num_exchanges > 0
