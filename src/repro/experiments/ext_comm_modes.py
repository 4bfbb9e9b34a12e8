"""Extension: blocking vs non-blocking exchanges across job sizes.

An ablation behind the calibration's ``blocking_scale_penalty``: the
per-exchange advantage of non-blocking communication grows with node
count (Table 1 shows ~10% at 64 nodes; Table 2's 'Fast' runs imply much
more at 4,096).  The experiment prices one full 64 GiB-per-node
exchange at each power-of-two job size under both modes.
"""

from __future__ import annotations

from repro.experiments.reporting import Claim, ExperimentResult
from repro.machine.frequency import CpuFrequency
from repro.mpi.chunking import MAX_MESSAGE_BYTES, num_chunks
from repro.mpi.datatypes import CommMode
from repro.perfmodel.calibration import DEFAULT_CALIBRATION, Calibration
from repro.perfmodel.comm_cost import exchange_time
from repro.utils.units import GIB

__all__ = ["run", "CLAIMS"]


def run(
    *,
    exchange_bytes: int = 64 * GIB,
    node_counts: tuple[int, ...] = (64, 256, 1024, 2048, 4096),
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> ExperimentResult:
    """Per-exchange time by mode and job size."""
    messages = num_chunks(exchange_bytes, MAX_MESSAGE_BYTES)
    result = ExperimentResult(
        experiment_id="ext-comm-modes",
        title=f"Exchange cost vs job size ({exchange_bytes / GIB:.0f} GiB, "
        f"{messages} messages)",
        headers=["nodes", "blocking [s]", "non-blocking [s]", "nb advantage"],
    )
    for nodes in node_counts:
        tb = exchange_time(
            exchange_bytes,
            messages,
            CommMode.BLOCKING,
            nodes,
            CpuFrequency.MEDIUM,
            calibration,
        )
        tn = exchange_time(
            exchange_bytes,
            messages,
            CommMode.NONBLOCKING,
            nodes,
            CpuFrequency.MEDIUM,
            calibration,
        )
        advantage = 1.0 - tn / tb
        result.rows.append(
            [nodes, f"{tb:.2f}", f"{tn:.2f}", f"{advantage:.1%}"]
        )
        result.metrics[f"blocking_{nodes}"] = tb
        result.metrics[f"nonblocking_{nodes}"] = tn
        result.metrics[f"advantage_{nodes}"] = advantage
    result.notes = (
        "Non-blocking pipelining hides per-chunk handshake skew, which "
        "grows with job size in blocking mode."
    )
    return result


CLAIMS = (
    Claim("ext-comm-modes.advantage-64", "Table 1", "~10% at 64 nodes",
          "0.05 < advantage_64 < 0.15", lambda m: 0.05 < m["advantage_64"] < 0.15),
    Claim("ext-comm-modes.advantage-grows", "ext", "-",
          "advantage_4096 > advantage_64",
          lambda m: m["advantage_4096"] > m["advantage_64"]),
    Claim("ext-comm-modes.blocking-grows", "ext", "-",
          "blocking_64 < blocking_4096",
          lambda m: m["blocking_64"] < m["blocking_4096"]),
)
