"""``fusion_local_factor``: priced from fusion units, equal to plan pricing."""

from __future__ import annotations

import math

import pytest

from repro.gates import Gate
from repro.perfmodel.objectives import fusion_local_factor
from repro.statevector import apply_plan
from repro.statevector import fusion as fmod
from repro.statevector.apply_plan import StepKind, compile_plan
from repro.tune.workloads import build_workload

MODES = ("off", "diag", "full", "full:2", "full:3", "full:4", "full:5")
WORKLOADS = (("qft", 20), ("random", 18), ("qaoa-sampled", 16))


def _step_ns_per_amp(step) -> float:
    """Kernel-class price of one compiled step, read off the step itself."""
    if step.kind is StepKind.REMAP:
        return fmod.perm_cost()
    if step.kind is StepKind.FUSED:
        scale = 0.5 ** len(step.controls)
        return max(
            fmod.MIN_STEP_NS,
            fmod.block_cost(len(step.targets), step.targets) * scale,
        )
    return fmod.gate_cost(step.gate)


def _plan_ratio(circuit, mode, local_qubits) -> float:
    def price(fusion):
        plan = compile_plan(
            circuit, fusion=fusion, local_qubits=local_qubits, cache=False
        )
        return sum(_step_ns_per_amp(s) for s in plan.steps)

    return price(mode) / price("off")


@pytest.fixture(scope="module")
def circuits():
    return {
        f"{family}-{n}": build_workload(family, n).circuit
        for family, n in WORKLOADS
    }


@pytest.mark.parametrize("family,n", WORKLOADS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("local_offset", [None, 3, 4])
def test_factor_equals_compiled_plan_pricing(circuits, family, n, mode, local_offset):
    circuit = circuits[f"{family}-{n}"]
    local_qubits = None if local_offset is None else n - local_offset
    factor = fusion_local_factor(circuit, mode, local_qubits=local_qubits)
    assert factor == _plan_ratio(circuit, mode, local_qubits)


@pytest.mark.parametrize("family,n", WORKLOADS)
def test_factor_materialises_no_operator(circuits, family, n, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("fusion pricing materialised an operator")

    monkeypatch.setattr(apply_plan, "compile_gate_step", refuse)
    monkeypatch.setattr(Gate, "diagonal_vector", refuse)
    circuit = circuits[f"{family}-{n}"]
    for mode in MODES[1:]:
        for local_qubits in (None, n - 3):
            factor = fusion_local_factor(circuit, mode, local_qubits=local_qubits)
            assert math.isfinite(factor) and factor > 0


def test_off_is_exactly_one(circuits):
    assert fusion_local_factor(circuits["qft-20"], "off") == 1.0
    assert fusion_local_factor(circuits["qft-20"], None) == 1.0


def test_measurement_steps_are_priced():
    """A measuring circuit prices its collapse steps instead of failing."""
    circuit = build_workload("qaoa-sampled", 8).circuit
    plan = compile_plan(circuit, fusion="off", cache=False)
    measures = [s for s in plan.steps if s.kind is StepKind.MEASURE]
    assert measures
    assert all(_step_ns_per_amp(s) == fmod.MEASURE_NS for s in measures)
    assert math.isfinite(fusion_local_factor(circuit, "full"))
