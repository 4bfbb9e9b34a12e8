"""Dense is the one-rank run of the step interpreter.

``DenseStatevector`` evolves through
:func:`repro.parallel.stepper.execute_in_process` as one worker owning
one rank that holds every qubit -- the path a serial
``DistributedStatevector`` on ``Partition(n, 1)`` takes.  These tests
hold the two byte for byte on every kernel backend (measuring circuits
included), hold both precisions to the per-step loop dense ran before,
and check that a traced dense run emits the stepper's spans.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.circuits import Circuit, qft_circuit, random_circuit, random_state
from repro.errors import SimulationError
from repro.gates import Gate
from repro.parallel.stepper import decode_partials, encode_partials
from repro.statevector import DenseStatevector, DistributedStatevector, exact
from repro.statevector import gate_kernels as kernels
from repro.statevector.apply_plan import StepKind, compile_plan
from repro.statevector.partition import DENSE_QUBIT_LIMIT

BACKENDS = ("native", "strided", "reference")
FUSION_MODES = ("off", "diag", "full")


@st.composite
def measuring_circuits(draw):
    """A random circuit with mid-circuit measurements spliced in."""
    n = draw(st.integers(2, 7))
    seed = draw(st.integers(0, 10_000))
    gates = list(random_circuit(n, draw(st.integers(1, 40)), seed=seed))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(gates)))
        gates.insert(at, Gate.measure(draw(st.integers(0, n - 1))))
    return Circuit(n, gates), seed


def _parent_step_loop(plan, amps: np.ndarray, seed: int) -> list[tuple[int, int]]:
    """The step loop dense ran before it ran on the stepper: each step
    on the full array, each measurement collapsed in place."""
    n = amps.size.bit_length() - 1
    outcomes = []
    for step in plan.steps:
        if step.kind is StepKind.MEASURE:
            qubit = step.targets[0]
            n0, total = exact.partial_norms(amps, qubit, 0, n)
            outcome = exact.measure_outcome(seed, len(outcomes), n0, total)
            scale = exact.collapse_scale(n0 if outcome == 0 else total - n0, total)
            exact.collapse_slice(amps, qubit, outcome, scale, 0, n)
            outcomes.append((step.measured_qubit, outcome))
        else:
            step.run_local(amps)
    return outcomes


class TestDenseIsOneRankSerial:
    @given(
        drawn=measuring_circuits(),
        backend=st.sampled_from(BACKENDS),
        fusion=st.sampled_from(FUSION_MODES),
    )
    @settings(max_examples=60, deadline=None)
    def test_dense_equals_one_rank_serial_bytewise(self, drawn, backend, fusion):
        circuit, seed = drawn
        psi = random_state(circuit.num_qubits, seed=seed + 1)
        with kernels.using_backend(backend):
            plan = compile_plan(circuit, fusion=fusion, cache=False)
            dense = DenseStatevector(circuit.num_qubits, psi, measure_seed=seed)
            dense.apply_plan(plan)
            serial = DistributedStatevector.from_amplitudes(
                psi, 1, executor="serial", fusion=fusion, measure_seed=seed
            )
            serial.apply_circuit(circuit)
        assert dense.amplitudes.tobytes() == serial.gather().tobytes()
        assert dense.measure_outcomes == serial.measure_outcomes

    @given(
        drawn=measuring_circuits(),
        backend=st.sampled_from(BACKENDS),
        dtype=st.sampled_from([np.complex64, np.complex128]),
    )
    @settings(max_examples=60, deadline=None)
    def test_both_precisions_match_the_per_step_loop(self, drawn, backend, dtype):
        circuit, seed = drawn
        psi = random_state(circuit.num_qubits, seed=seed + 1).astype(dtype)
        with kernels.using_backend(backend):
            plan = compile_plan(circuit, cache=False)
            dense = DenseStatevector(
                circuit.num_qubits, psi, dtype=dtype, measure_seed=seed
            ).apply_plan(plan)
            expected = psi.copy()
            outcomes = _parent_step_loop(plan, expected, seed)
        assert dense.dtype == dtype
        assert dense.amplitudes.tobytes() == expected.tobytes()
        assert dense.measure_outcomes == outcomes

    def test_gate_by_gate_measures_continue_the_ordinals(self):
        circuit = Circuit(3).h(0).h(1).h(2)
        circuit.append(Gate.measure(0))
        circuit.append(Gate.measure(1))
        whole = DenseStatevector(3, measure_seed=5).apply_circuit(circuit)
        stepped = DenseStatevector(3, measure_seed=5)
        for gate in circuit:
            stepped.apply_gate(gate)
        assert stepped.measure_outcomes == whole.measure_outcomes
        assert stepped.amplitudes.tobytes() == whole.amplitudes.tobytes()


class TestTracedDense:
    def _traced(self, run):
        was_enabled = obs.is_enabled()
        obs.reset()
        obs.enable()
        try:
            run()
            return list(obs.spans())
        finally:
            obs.reset()
            if not was_enabled:
                obs.disable()

    def test_dense_emits_the_one_rank_serial_spans(self):
        circuit = qft_circuit(6)
        circuit.append(Gate.measure(2))
        plan = compile_plan(circuit, cache=False)
        dense = self._traced(lambda: DenseStatevector(6).apply_plan(plan))
        serial = self._traced(
            lambda: DistributedStatevector.zero_state(6, 1, executor="serial")
            .apply_circuit(circuit)
        )

        def stepper_spans(spans):
            return (
                [s.attrs["steps"] for s in spans if s.name == "worker.plan"],
                [
                    (s.attrs["step"], s.attrs["kind"])
                    for s in spans
                    if s.name == "worker.step"
                ],
            )

        plans, steps = stepper_spans(dense)
        assert plans == [len(plan.steps)]
        assert [i for i, _kind in steps] == list(range(len(plan.steps)))
        assert "measure" in {kind for _i, kind in steps}
        assert (plans, steps) == stepper_spans(serial)


class TestDensePlans:
    def test_plan_for_fewer_local_qubits_is_refused(self):
        circuit = qft_circuit(6)
        plan = compile_plan(circuit, local_qubits=4, cache=False)
        state = DenseStatevector.plus_state(6)
        before = state.amplitudes
        with pytest.raises(SimulationError, match="all 6 qubits local") as err:
            state.apply_plan(plan)
        assert "\n" not in str(err.value)
        assert state.amplitudes.tobytes() == before.tobytes()

    def test_default_plan_is_the_all_local_plan(self):
        circuit = random_circuit(8, 60, seed=3)
        default = compile_plan(circuit, cache=False)
        all_local = compile_plan(circuit, local_qubits=8, cache=False)
        assert default.ops.local_qubits == 8
        assert [s.gate for s in default.steps] == [s.gate for s in all_local.steps]


def test_largest_dense_partial_fits_the_measure_blob():
    # One worker over one 2**28-amp rank sums 2 * 2**28 components, each
    # below 2**2098 units of 2**-1074.
    assert DENSE_QUBIT_LIMIT == 28
    largest = ((1 << 2098) - 1) << (DENSE_QUBIT_LIMIT + 1)
    blob = encode_partials(largest, largest)
    assert len(blob) == 2 * 266  # the shm and TCP wire format
    assert decode_partials(blob) == (largest, largest)
