"""The correctness battery as a one-shot experiment.

``repro-experiments validate`` runs every numerical ground-truth check
the reproduction rests on (at test scale) and reports pass/fail rows --
one command showing the substrate is exact before any modelled number
is read.
"""

from __future__ import annotations

import math

import numpy as np

from repro.circuits import (
    builtin_qft_circuit,
    cache_blocked_qft_circuit,
    qft_circuit,
    random_circuit,
    random_state,
    textbook_qft_circuit,
)
from repro.experiments.reporting import ExperimentResult
from repro.machine.frequency import CpuFrequency
from repro.machine.node import STANDARD_NODE
from repro.mpi.datatypes import CommMode
from repro.perfmodel.trace import RunConfiguration, TraceBuilder, trace_circuit
from repro.statevector import (
    DenseStatevector,
    DistributedStatevector,
    Partition,
    SoAStatevector,
)

__all__ = ["run"]


def _check_textbook_qft() -> bool:
    n = 8
    psi = random_state(n, seed=1)
    out = DenseStatevector.from_amplitudes(psi).apply_circuit(
        textbook_qft_circuit(n)
    )
    return bool(
        np.allclose(out.amplitudes, np.fft.ifft(psi) * math.sqrt(2**n))
    )


def _check_blocked_equals_standard() -> bool:
    n, m = 8, 5
    psi = random_state(n, seed=2)
    a = DenseStatevector.from_amplitudes(psi).apply_circuit(qft_circuit(n))
    b = DenseStatevector.from_amplitudes(psi).apply_circuit(
        cache_blocked_qft_circuit(n, m)
    )
    return bool(np.allclose(a.amplitudes, b.amplitudes))


def _check_distributed_equals_dense() -> bool:
    for seed in range(4):
        n = 6
        psi = random_state(n, seed=seed)
        circuit = random_circuit(n, 40, seed=seed)
        dense = DenseStatevector.from_amplitudes(psi).apply_circuit(circuit)
        dist = DistributedStatevector.from_amplitudes(psi, 4)
        dist.apply_circuit(circuit)
        if not np.allclose(dist.gather(), dense.amplitudes, atol=1e-10):
            return False
    return True


def _check_halved_swaps() -> bool:
    n = 7
    psi = random_state(n, seed=5)
    circuit = qft_circuit(n)
    full = DistributedStatevector.from_amplitudes(psi, 8)
    full.apply_circuit(circuit)
    halved = DistributedStatevector.from_amplitudes(
        psi, 8, halved_swaps=True, comm_mode=CommMode.NONBLOCKING
    )
    halved.apply_circuit(circuit)
    return bool(np.allclose(full.gather(), halved.gather()))


def _check_soa_layout() -> bool:
    n = 6
    psi = random_state(n, seed=6)
    circuit = random_circuit(n, 40, seed=6)
    a = DenseStatevector.from_amplitudes(psi).apply_circuit(circuit)
    b = SoAStatevector.from_amplitudes(psi).apply_circuit(circuit)
    return bool(np.allclose(a.amplitudes, b.amplitudes(), atol=1e-10))


def _check_executed_equals_planned() -> bool:
    n, ranks = 7, 8
    config = RunConfiguration(
        partition=Partition(n, ranks),
        node_type=STANDARD_NODE,
        frequency=CpuFrequency.MEDIUM,
    )
    builder = TraceBuilder(config)
    state = DistributedStatevector(config.partition, observer=builder)
    state.apply_circuit(builtin_qft_circuit(n))
    model = trace_circuit(builtin_qft_circuit(n), config)
    return builder.trace.plans == model.plans


def _check_des_crosscheck() -> bool:
    from repro.des import assert_crosscheck
    from repro.errors import DesError

    n, ranks = 26, 8
    for mode in (CommMode.BLOCKING, CommMode.NONBLOCKING):
        config = RunConfiguration(
            partition=Partition(n, ranks),
            node_type=STANDARD_NODE,
            frequency=CpuFrequency.MEDIUM,
            comm_mode=mode,
        )
        try:
            assert_crosscheck(qft_circuit(n), config)
        except DesError:
            return False
    return True


def _check_pool_equals_serial() -> bool:
    from repro.parallel import shm_available

    if not shm_available():
        # Hosts without /dev/shm cannot run the pool: the fallback path
        # is serial, which the other checks already cover.
        return True
    n, ranks = 8, 4
    psi = random_state(n, seed=9)
    circuit = random_circuit(n, 40, seed=9)
    serial = DistributedStatevector.from_amplitudes(psi, ranks, executor="serial")
    serial.apply_circuit(circuit)
    pool = DistributedStatevector.from_amplitudes(psi, ranks, executor="pool")
    pool.apply_circuit(circuit)
    return bool(np.array_equal(serial.gather(), pool.gather())) and (
        serial.comm.message_log == pool.comm.message_log
    )


def _check_generic_transpiler() -> bool:
    from repro.transpile import cache_block
    from repro.transpile.verify import equivalent

    circuit = random_circuit(7, 60, seed=7)
    result = cache_block(circuit, 4)
    return equivalent(
        circuit,
        result.circuit,
        output_permutation=result.output_permutation,
        trials=2,
    )


CHECKS = [
    ("textbook QFT == sqrt(N) * ifft", _check_textbook_qft),
    ("cache-blocked QFT == standard QFT", _check_blocked_equals_standard),
    ("distributed simulator == dense reference", _check_distributed_equals_dense),
    ("halved-SWAP exchanges preserve the state", _check_halved_swaps),
    ("separate re/im layout == complex layout", _check_soa_layout),
    ("executed schedule == planned schedule", _check_executed_equals_planned),
    ("pool executor bit-identical to serial", _check_pool_equals_serial),
    ("generic cache-blocking pass preserves action", _check_generic_transpiler),
    ("discrete-event replay agrees with closed form", _check_des_crosscheck),
]


def run() -> ExperimentResult:
    """Run every ground-truth check; fail loudly in the metrics."""
    result = ExperimentResult(
        experiment_id="validate",
        title="Numerical ground-truth battery",
        headers=["check", "status"],
    )
    all_ok = True
    for name, check in CHECKS:
        ok = bool(check())
        all_ok &= ok
        result.rows.append([name, "ok" if ok else "FAILED"])
        key = name.split(" ", 1)[0].lower().strip(",")
        result.metrics[f"ok_{key}"] = 1.0 if ok else 0.0
    result.metrics["all_ok"] = 1.0 if all_ok else 0.0
    result.notes = (
        "All numerics are exact; only wall-clock/energy coefficients are "
        "modelled (see docs/MODEL.md)."
    )
    return result
