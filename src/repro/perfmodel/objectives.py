"""Multi-objective evaluation: one run as an (energy, runtime, cost) point.

The paper optimises one lever at a time against one metric at a time;
the auto-tuner (:mod:`repro.tune`) inverts that, which needs every
candidate configuration reduced to a comparable vector of objectives.
:func:`objective_vector` does the reduction from a
:class:`~repro.perfmodel.predictor.Prediction`, and
:func:`fusion_local_factor` prices the one lever the closed-form trace
model cannot see -- gate fusion, which reshapes the *kernel* stream
without changing the gate stream -- as a multiplicative factor on the
local (memory + arithmetic) share of the run, derived from the plan's
fusion units (:func:`~repro.statevector.apply_plan.fusion_units`) and
the fusion cost model's calibrated ns-per-amplitude rates.

The factor folds into runtime and energy exactly the way
:func:`~repro.perfmodel.trace.cost_trace` would have priced shorter
local updates: communication time and comm-phase energy are untouched,
busy-phase time/energy scale by the factor, and switch energy follows
total wall time.  With ``local_time_factor=1`` the vector is read
straight off the prediction, bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import CalibrationError
from repro.machine.cu import DEFAULT_CU_RATES, CuRates, cu_cost
from repro.perfmodel.predictor import Prediction
from repro.perfmodel.trace import CostedTrace
from repro.statevector.apply_plan import fusion_units
from repro.statevector.fusion import unit_cost

__all__ = [
    "ObjectiveVector",
    "objective_vector",
    "fusion_local_factor",
]


@dataclass(frozen=True)
class ObjectiveVector:
    """One run reduced to the three axes the tuner trades off."""

    energy_j: float
    runtime_s: float
    cost_cu: float

    def as_tuple(self) -> tuple[float, float, float]:
        """(energy, runtime, cost) -- the canonical comparison order."""
        return (self.energy_j, self.runtime_s, self.cost_cu)

    def dominates(self, other: "ObjectiveVector") -> bool:
        """Pareto dominance: no worse on every axis, better on one."""
        mine, theirs = self.as_tuple(), other.as_tuple()
        return all(a <= b for a, b in zip(mine, theirs)) and any(
            a < b for a, b in zip(mine, theirs)
        )


def _scaled_analytic(costed: CostedTrace, factor: float) -> tuple[float, float]:
    """Closed-form (runtime, energy) with local time scaled by ``factor``.

    Re-walks the costed trace with the same power split
    :func:`~repro.perfmodel.trace.cost_trace` used: per-gate comm time
    and comm-phase node energy are kept, busy-phase node energy scales
    with the (mem + cpu) time, and switch energy follows the new total.
    """
    config = costed.config
    calib = config.calibration
    busy_power = (
        calib.busy_power_w[config.frequency] * config.node_type.power_factor
    )
    idle_power = calib.idle_power_w * config.node_type.power_factor
    switch_power = config.topology.switch_power_total_w()
    nodes = config.num_nodes
    runtime = 0.0
    energy = 0.0
    for gate in costed.gates:
        local_s = gate.mem_s + gate.cpu_s
        scaled_local_s = local_s * factor
        total_s = gate.comm_s + scaled_local_s
        active = gate.plan.active_fraction if local_s else 0.0
        per_local_power = nodes * (
            active * busy_power + (1 - active) * idle_power
        )
        comm_energy = gate.node_energy_j - local_s * per_local_power
        energy += (
            comm_energy
            + scaled_local_s * per_local_power
            + switch_power * total_s
        )
        runtime += total_s
    return runtime, energy


def objective_vector(
    prediction: Prediction,
    *,
    local_time_factor: float = 1.0,
    cu_rates: CuRates = DEFAULT_CU_RATES,
) -> ObjectiveVector:
    """Reduce one prediction to its (energy, runtime, cost) vector.

    ``local_time_factor`` scales the local-update share of the run (see
    :func:`fusion_local_factor`); 1.0 reproduces the prediction's own
    numbers exactly.  When the prediction carries a DES replay or a
    fault overlay, the factor is applied as a *ratio* on top of that
    backend's wall time and energy -- exact whenever the backend and
    the closed form agree, and a first-order approximation otherwise.
    """
    if not math.isfinite(local_time_factor) or local_time_factor <= 0:
        raise CalibrationError(
            f"local_time_factor must be a positive finite number, "
            f"got {local_time_factor!r}"
        )
    runtime_s = prediction.runtime_s
    energy_j = prediction.total_energy_j
    if local_time_factor != 1.0:
        base_runtime = prediction.costed.runtime_s
        base_energy = prediction.costed.total_energy_j
        scaled_runtime, scaled_energy = _scaled_analytic(
            prediction.costed, local_time_factor
        )
        if base_runtime > 0:
            runtime_s *= scaled_runtime / base_runtime
        if base_energy > 0:
            energy_j *= scaled_energy / base_energy
    config = prediction.config
    return ObjectiveVector(
        energy_j=energy_j,
        runtime_s=runtime_s,
        cost_cu=cu_cost(
            config.num_nodes, runtime_s, config.node_type, rates=cu_rates
        ),
    )


def fusion_local_factor(
    circuit,
    fusion: str | None,
    *,
    local_qubits: int | None = None,
) -> float:
    """Local-update time multiplier of a fusion mode vs ``off``.

    Takes the circuit's fusion units twice -- once unfused, once under
    ``fusion`` (``"off"`` | ``"diag"`` | ``"full[:k]"``) -- and prices
    each unit stream with the calibrated kernel-class rates of
    :mod:`repro.statevector.fusion`.  The ratio (fused / unfused) is
    what the tuner multiplies into the memory + arithmetic share of a
    costed run; ``"off"`` returns exactly 1.0.  ``local_qubits`` bounds
    block/permutation fusion the way the distributed executors do.
    Only gate structure is read: no plan is compiled and no fused
    operator is built.
    """
    if fusion is None or fusion == "off":
        return 1.0
    base_ns = _units_ns_per_amp(circuit, "off", local_qubits)
    fused_ns = _units_ns_per_amp(circuit, fusion, local_qubits)
    if base_ns <= 0:
        return 1.0
    return fused_ns / base_ns


def _units_ns_per_amp(circuit, fusion: str, local_qubits: int | None) -> float:
    """Summed unit cost of the plan ``compile_plan`` would build."""
    units = fusion_units(circuit, fusion, local_qubits=local_qubits)
    return sum(unit_cost(gate) for gate, _covered in units)
