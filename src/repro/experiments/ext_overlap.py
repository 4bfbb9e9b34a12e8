"""Extension: communication/computation overlap (beyond the paper).

Neither stock QuEST nor the paper's non-blocking rewrite overlaps the
local row-combine with the exchange; with chunked messages the update
of already-received chunks could hide behind the remaining transfers.
This study prices that optimisation on the paper's headline runs --
the next rung on the ladder after cache blocking + non-blocking.
"""

from __future__ import annotations

from repro.circuits.qft import builtin_qft_circuit, cache_blocked_qft_circuit
from repro.experiments.reporting import Claim, ExperimentResult
from repro.machine.frequency import CpuFrequency
from repro.machine.node import STANDARD_NODE
from repro.mpi.datatypes import CommMode
from repro.perfmodel.calibration import DEFAULT_CALIBRATION, Calibration
from repro.perfmodel.predictor import predict
from repro.perfmodel.trace import RunConfiguration
from repro.statevector.partition import Partition
from repro.utils.bits import log2_exact

__all__ = ["run", "CLAIMS"]


def run(
    *,
    num_qubits: int = 44,
    num_nodes: int = 4096,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> ExperimentResult:
    """Price Table 2's runs with and without exchange/update overlap."""
    partition = Partition(num_qubits, num_nodes)
    m = num_qubits - log2_exact(num_nodes)
    blocked = cache_blocked_qft_circuit(num_qubits, m)
    variants = [
        ("builtin", builtin_qft_circuit(num_qubits), CommMode.BLOCKING, False),
        (
            "builtin+overlap",
            builtin_qft_circuit(num_qubits),
            CommMode.BLOCKING,
            True,
        ),
        ("fast", blocked, CommMode.NONBLOCKING, False),
        ("fast+overlap", blocked, CommMode.NONBLOCKING, True),
        ("fast+overlap+halved", blocked, CommMode.NONBLOCKING, True),
    ]
    result = ExperimentResult(
        experiment_id="ext-overlap",
        title=f"Exchange/update overlap ({num_qubits} qubits, "
        f"{num_nodes} nodes)",
        headers=["variant", "runtime [s]", "energy [MJ]", "MPI %"],
    )
    for name, circuit, mode, overlap in variants:
        config = RunConfiguration(
            partition=partition,
            node_type=STANDARD_NODE,
            frequency=CpuFrequency.MEDIUM,
            comm_mode=mode,
            overlap_comm_compute=overlap,
            halved_swaps="halved" in name,
            calibration=calibration,
        )
        p = predict(circuit, config)
        result.rows.append(
            [
                name,
                f"{p.runtime_s:.0f}",
                f"{p.total_energy_j / 1e6:.0f}",
                f"{100 * p.profile.mpi_fraction:.0f}",
            ]
        )
        key = name.replace("+", "_")
        result.metrics[f"{key}_runtime"] = p.runtime_s
        result.metrics[f"{key}_energy"] = p.total_energy_j
    result.notes = (
        "Honest finding: overlap alone buys almost nothing here -- the "
        "64 GiB exchanges dwarf the per-gate local work they could hide "
        "(~0.7 s behind ~9-12 s).  The remaining headroom after the "
        "paper's optimisations is the halved-SWAP exchange, not overlap."
    )
    return result


CLAIMS = (
    Claim("ext-overlap.never-hurts", "ext", "-",
          "{fast,builtin}_overlap_runtime <= {fast,builtin}_runtime",
          lambda m: m["fast_overlap_runtime"] <= m["fast_runtime"]
              and m["builtin_overlap_runtime"] <= m["builtin_runtime"]),
    Claim("ext-overlap.halved-headroom", "ext", "-",
          "fast_overlap_halved_runtime < 0.9 * fast_runtime",
          lambda m: m["fast_overlap_halved_runtime"] < 0.9 * m["fast_runtime"]),
)
