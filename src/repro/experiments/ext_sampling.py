"""Extension: pricing sampling jobs (mid-circuit collapse + shot readout).

The paper prices unitary evolution only; real workloads *measure* --
QAOA and Grover runs end in thousands of shots, and dynamic circuits
collapse qubits mid-flight.  Both cost something the gate stream alone
does not show: each measurement is a latency-bound norm reduction
(``log2(R)`` pairwise 16-byte rounds) plus a full collapse sweep, and
final-state sampling adds one probability pass and a scalar gather.

This experiment prices the sampled workload-zoo variants through the
analytic model and the discrete-event replay, reports the share of the
runtime readout adds, and checks the two predictors stay within the
cross-check tolerance on measurement-bearing traces.  A small
functional demo asserts what the tests property-check at scale: the
dense reference and the distributed executor draw bit-identical
samples and collapse outcomes from one seed.
"""

from __future__ import annotations

import numpy as np

from repro.des.replay import simulate_trace
from repro.des.validation import DEFAULT_TOLERANCE
from repro.experiments.reporting import Claim, ExperimentResult
from repro.machine.frequency import CpuFrequency
from repro.machine.node import STANDARD_NODE
from repro.mpi.datatypes import CommMode
from repro.perfmodel.calibration import DEFAULT_CALIBRATION, Calibration
from repro.perfmodel.trace import RunConfiguration, cost_trace, trace_circuit
from repro.statevector.partition import Partition
from repro.statevector.sampling import resolve_shots, sample
from repro.tune.workloads import build_workload

__all__ = ["run", "WORKLOADS", "CLAIMS"]

#: (family, qubits, nodes) rows priced at model scale.
WORKLOADS = (
    ("qaoa-sampled", 32, 64),
    ("grover-sampled", 30, 32),
)

#: Functional bit-identity demo size (dense vs serial-distributed).
_DEMO_QUBITS, _DEMO_RANKS, _DEMO_SHOTS = 8, 4, 64


def _demo_bit_identity(seed: int) -> tuple[bool, str]:
    """Sample a small sampled-QAOA circuit on two executors; compare."""
    circuit = build_workload("qaoa-sampled", _DEMO_QUBITS, seed=seed).circuit
    dense = sample(circuit, _DEMO_SHOTS, seed=seed)
    serial = sample(
        circuit, _DEMO_SHOTS, seed=seed, executor="serial",
        num_ranks=_DEMO_RANKS,
    )
    identical = bool(
        np.array_equal(dense.samples, serial.samples)
        and dense.measure_outcomes == serial.measure_outcomes
    )
    text = (
        f"demo: {_DEMO_SHOTS} shots of qaoa-sampled-{_DEMO_QUBITS} on "
        f"dense vs serial x{_DEMO_RANKS} ranks -> "
        + ("bit-identical" if identical else "MISMATCH")
        + f"; outcomes {dense.measure_outcomes}"
    )
    return identical, text


def run(
    *,
    workloads: tuple[tuple[str, int, int], ...] = WORKLOADS,
    shots: int | None = None,
    seed: int = 23,
    tolerance: float = DEFAULT_TOLERANCE,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> ExperimentResult:
    """Price sampled workloads analytically and through the DES replay.

    ``shots=None`` defers to ``$REPRO_SHOTS`` (the ``--shots`` CLI
    seam), falling back to 4096.
    """
    shots = resolve_shots(shots, default=4096)
    result = ExperimentResult(
        experiment_id="ext-sampling",
        title="Pricing mid-circuit measurement and shot sampling",
        headers=[
            "workload",
            "nodes",
            "shots",
            "analytic [s]",
            "DES [s]",
            "delta [%]",
            "readout share [%]",
        ],
    )
    max_abs_delta = 0.0
    for family, num_qubits, nodes in workloads:
        circuit = build_workload(family, num_qubits, seed=seed).circuit
        config = RunConfiguration(
            partition=Partition(num_qubits, nodes),
            node_type=STANDARD_NODE,
            frequency=CpuFrequency.MEDIUM,
            comm_mode=CommMode.BLOCKING,
            calibration=calibration,
            shots=shots,
        )
        trace = trace_circuit(circuit, config)
        costed = cost_trace(trace)
        analytic_s = costed.runtime_s
        readout_s = sum(
            g.total_s
            for g in costed.gates
            if g.plan.gate_name in ("measure", "sample")
        )
        des = simulate_trace(trace)
        delta = (des.makespan_s - analytic_s) / analytic_s
        max_abs_delta = max(max_abs_delta, abs(delta))
        share = readout_s / analytic_s if analytic_s > 0 else 0.0
        name = f"{family}-{num_qubits}"
        result.rows.append(
            [
                name,
                nodes,
                shots,
                f"{analytic_s:.2f}",
                f"{des.makespan_s:.2f}",
                f"{100 * delta:+.2f}",
                f"{100 * share:.2f}",
            ]
        )
        key = name.replace("-", "_")
        result.metrics[f"analytic_runtime_{key}"] = analytic_s
        result.metrics[f"des_runtime_{key}"] = des.makespan_s
        result.metrics[f"delta_{key}"] = delta
        result.metrics[f"readout_share_{key}"] = share
    identical, demo_text = _demo_bit_identity(seed)
    result.metrics["max_abs_delta"] = max_abs_delta
    result.metrics["within_tolerance"] = (
        1.0 if max_abs_delta <= tolerance else 0.0
    )
    result.metrics["demo_bit_identical"] = 1.0 if identical else 0.0
    result.notes = (
        f"Max |analytic - DES| / analytic = {100 * max_abs_delta:.2f}% "
        f"(gate: {100 * tolerance:.0f}%) on measurement-bearing traces.  "
        "Each mid-circuit measurement adds log2(nodes) latency-bound "
        "16-byte reduction rounds plus a collapse sweep; sampling adds "
        "one probability pass and a scalar gather, then per-shot "
        "cumulative lookups on the root.  " + demo_text
    )
    return result


CLAIMS = (
    Claim("ext-sampling.predictors-agree", "ext", "-",
          "within_tolerance == 1 and max_abs_delta <= 0.10",
          lambda m: m["within_tolerance"] == 1 and m["max_abs_delta"] <= 0.10),
    Claim("ext-sampling.bit-identical", "ext", "-",
          "demo_bit_identical == 1", lambda m: m["demo_bit_identical"] == 1),
    Claim("ext-sampling.readout-share", "ext", "-",
          "0 < readout_share_W < 0.2 for every workload",
          lambda m: all(
              0.0 < m[f"readout_share_{family.replace('-', '_')}_{n}"] < 0.2
              for family, n, _nodes in WORKLOADS)),
)
