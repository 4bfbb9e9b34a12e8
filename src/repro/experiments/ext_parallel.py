"""Extension: the shared-memory pool executor and the prediction cache.

Not a paper artefact -- this study characterises the two pieces of the
parallel harness on the machine it runs on:

* serial vs pool numeric execution of a QFT (identity is asserted, the
  wall-clock ratio is *reported*, not gated -- it depends on core count);
* cold vs warm sweeps through the content-addressed prediction cache,
  where the second pass should be dominated by pickle loads.

``benchmarks/export.py --suite parallel`` runs the larger, gated
version of these measurements; this experiment is the quick, always-on
rendition.
"""

from __future__ import annotations

import tempfile
import time

import numpy as np

from repro import settings
from repro.circuits import qft_circuit, random_state
from repro.experiments.reporting import ExperimentResult
from repro.machine.frequency import CpuFrequency
from repro.machine.node import STANDARD_NODE
from repro.perfmodel.predictor import predict
from repro.perfmodel.trace import RunConfiguration
from repro.statevector import DistributedStatevector, Partition

__all__ = ["run"]

_EXEC_QUBITS = 12
_EXEC_RANKS = 4
_CACHE_QUBITS = range(20, 30)


def _time_executor(executor: str, psi: np.ndarray) -> tuple[float, np.ndarray]:
    state = DistributedStatevector.from_amplitudes(
        psi, _EXEC_RANKS, executor=executor
    )
    circuit = qft_circuit(_EXEC_QUBITS)
    start = time.perf_counter()
    state.apply_circuit(circuit)
    elapsed = time.perf_counter() - start
    return elapsed, state.gather()


def _cache_sweep() -> tuple[float, float, int]:
    """(cold_s, warm_s, entries) for a model sweep under a fresh cache."""
    from repro.parallel.cache import active_cache

    configs = [
        RunConfiguration(
            partition=Partition(n, 8),
            node_type=STANDARD_NODE,
            frequency=CpuFrequency.MEDIUM,
        )
        for n in _CACHE_QUBITS
    ]
    with (
        tempfile.TemporaryDirectory(prefix="repro-cache-") as root,
        settings.overridden({settings.CACHE_DIR.name: root}),
    ):
        start = time.perf_counter()
        for config in configs:
            predict(qft_circuit(config.partition.num_qubits), config)
        cold = time.perf_counter() - start
        start = time.perf_counter()
        for config in configs:
            predict(qft_circuit(config.partition.num_qubits), config)
        warm = time.perf_counter() - start
        entries = len(active_cache())
    return cold, warm, entries


def run() -> ExperimentResult:
    """Measure the pool executor and prediction cache on this host."""
    from repro.parallel import default_pool_size, shm_available

    result = ExperimentResult(
        experiment_id="ext-parallel",
        title="Shared-memory pool executor and prediction cache",
        headers=["measurement", "value"],
    )
    psi = random_state(_EXEC_QUBITS, seed=11)
    serial_s, serial_amps = _time_executor("serial", psi)
    result.rows.append(
        [f"serial QFT-{_EXEC_QUBITS} x {_EXEC_RANKS} ranks", f"{serial_s * 1e3:.1f} ms"]
    )
    result.metrics["serial_s"] = serial_s
    if shm_available():
        pool_s, pool_amps = _time_executor("pool", psi)
        identical = bool(np.array_equal(serial_amps, pool_amps))
        result.rows.append(
            [
                f"pool QFT-{_EXEC_QUBITS} x {_EXEC_RANKS} ranks "
                f"({default_pool_size()} workers)",
                f"{pool_s * 1e3:.1f} ms",
            ]
        )
        result.rows.append(["pool bit-identical to serial", str(identical)])
        result.metrics["pool_s"] = pool_s
        result.metrics["pool_identical"] = 1.0 if identical else 0.0
        result.metrics["pool_speedup"] = serial_s / pool_s if pool_s else 0.0
    else:
        result.rows.append(["pool executor", "skipped (no shared memory)"])
    cold, warm, entries = _cache_sweep()
    qubits = list(_CACHE_QUBITS)
    result.rows.append(
        [
            f"cold predict sweep (QFT {qubits[0]}-{qubits[-1]}q)",
            f"{cold * 1e3:.1f} ms",
        ]
    )
    result.rows.append(["warm (cached) sweep", f"{warm * 1e3:.1f} ms"])
    result.rows.append(["cache entries written", str(entries)])
    speedup = cold / warm if warm else float("inf")
    result.rows.append(["cache speedup", f"{speedup:.1f}x"])
    result.metrics["cache_cold_s"] = cold
    result.metrics["cache_warm_s"] = warm
    result.metrics["cache_speedup"] = speedup
    result.metrics["cache_entries"] = float(entries)
    result.notes = (
        "Pool speedup depends on core count (this host: "
        f"{os.cpu_count()}); the gated measurement lives in "
        "BENCH_parallel.json."
    )
    return result
