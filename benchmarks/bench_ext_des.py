"""Bench ext-des-crosscheck: discrete-event replay of the Table 2 runs.

The replay itself is the thing being timed here.  A 44-qubit QFT over
4,096 ranks would take ~180k-1.9M events depending on mode if every
rank were replayed; the orbit replay runs one rank per symmetry orbit
(two orbits here), so it processes a few hundred to ~1.7k events and
the experiment's six Table 2 replays take well under a second.
"""

from benchmarks.conftest import attach_result
from repro.circuits import builtin_qft_circuit
from repro.des import simulate_trace
from repro.experiments import ext_des_crosscheck
from repro.machine import CpuFrequency, STANDARD_NODE
from repro.mpi import CommMode
from repro.perfmodel import RunConfiguration, trace_circuit
from repro.statevector import Partition


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


def test_ext_des_crosscheck(benchmark):
    result = benchmark.pedantic(
        ext_des_crosscheck.run, rounds=1, iterations=1
    )
    attach_result(benchmark, result)
    # The gate the experiment exists to enforce: both predictors agree
    # on every Table 2 configuration, and the paper's orderings survive
    # the contention-aware replay.
    assert result.metric("within_tolerance") == 1.0
    assert result.metric("max_abs_delta") < 0.10
    assert result.metric("ordering_ok_43q") == 1.0
    assert result.metric("ordering_ok_44q") == 1.0
