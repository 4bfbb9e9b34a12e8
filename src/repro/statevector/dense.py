"""Single-process dense statevector simulator (the correctness reference).

This is the plain Schrodinger-algorithm simulator the paper's section 1
describes: the full ``2**n`` amplitude vector in one array, evolved gate
by gate.  The distributed simulator is property-tested against it.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import Circuit
from repro.errors import SimulationError
from repro.gates import Gate
from repro.statevector import exact
from repro.statevector.apply_plan import (
    ApplyPlan,
    StepKind,
    compile_gate_step,
    compile_plan,
)
from repro.utils.bits import log2_exact

__all__ = ["DenseStatevector"]


class DenseStatevector:
    """A dense ``n``-qubit statevector with in-place gate application."""

    def __init__(
        self,
        num_qubits: int,
        amplitudes: np.ndarray | None = None,
        *,
        dtype: np.dtype | type = np.complex128,
        measure_seed: int = 0,
    ):
        if num_qubits < 1:
            raise SimulationError(f"num_qubits must be >= 1, got {num_qubits}")
        if num_qubits > 28:
            raise SimulationError(
                f"dense reference simulator capped at 28 qubits "
                f"({num_qubits} requested); use the model executor for scale"
            )
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.complex64), np.dtype(np.complex128)):
            raise SimulationError(
                f"dtype must be complex64 or complex128, got {dtype}"
            )
        self._num_qubits = num_qubits
        dim = 1 << num_qubits
        if amplitudes is None:
            self._amps = np.zeros(dim, dtype=dtype)
            self._amps[0] = 1.0
        else:
            amplitudes = np.asarray(amplitudes, dtype=dtype)
            if amplitudes.shape != (dim,):
                raise SimulationError(
                    f"amplitudes must have shape ({dim},), got {amplitudes.shape}"
                )
            self._amps = amplitudes.copy()
        self._measure_seed = int(measure_seed)
        self._measure_count = 0
        #: ``(qubit, outcome)`` of every mid-circuit measurement applied.
        self.measure_outcomes: list[tuple[int, int]] = []

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero_state(cls, num_qubits: int) -> "DenseStatevector":
        """|0...0>."""
        return cls(num_qubits)

    @classmethod
    def basis_state(cls, num_qubits: int, index: int) -> "DenseStatevector":
        """The computational basis state |index>."""
        dim = 1 << num_qubits
        if not 0 <= index < dim:
            raise SimulationError(f"basis index {index} out of range [0, {dim})")
        amps = np.zeros(dim, dtype=np.complex128)
        amps[index] = 1.0
        return cls(num_qubits, amps)

    @classmethod
    def plus_state(cls, num_qubits: int) -> "DenseStatevector":
        """The uniform superposition (H on every qubit of |0...0>)."""
        dim = 1 << num_qubits
        amps = np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128)
        return cls(num_qubits, amps)

    @classmethod
    def from_amplitudes(cls, amplitudes: np.ndarray) -> "DenseStatevector":
        """Wrap an existing amplitude vector (must be a power-of-two length)."""
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        return cls(log2_exact(amplitudes.shape[0]), amplitudes)

    # -- state access ------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Register width."""
        return self._num_qubits

    @property
    def amplitudes(self) -> np.ndarray:
        """A *copy* of the amplitude vector."""
        return self._amps.copy()

    @property
    def dtype(self) -> np.dtype:
        """The amplitude precision (complex64 or complex128)."""
        return self._amps.dtype

    def amplitude(self, index: int) -> complex:
        """One amplitude."""
        return complex(self._amps[index])

    def norm(self) -> float:
        """The 2-norm of the state (1.0 for a valid state)."""
        return float(np.linalg.norm(self._amps))

    # -- evolution ---------------------------------------------------------

    def apply_gate(self, gate: Gate) -> "DenseStatevector":
        """Apply one gate in place."""
        if gate.max_qubit >= self._num_qubits:
            raise SimulationError(
                f"gate {gate} touches qubit {gate.max_qubit} of a "
                f"{self._num_qubits}-qubit state"
            )
        step = compile_gate_step(gate)
        if step.kind is StepKind.MEASURE:
            self._on_measure(step, self._amps)
        else:
            step.run_local(self._amps)
        return self

    def apply_circuit(self, circuit: Circuit) -> "DenseStatevector":
        """Apply every gate of ``circuit`` in order (via a compiled plan)."""
        if circuit.num_qubits != self._num_qubits:
            raise SimulationError(
                f"circuit width {circuit.num_qubits} != state width "
                f"{self._num_qubits}"
            )
        return self.apply_plan(compile_plan(circuit))

    def apply_plan(self, plan: "ApplyPlan") -> "DenseStatevector":
        """Execute a pre-compiled :class:`ApplyPlan` in place."""
        if plan.num_qubits != self._num_qubits:
            raise SimulationError(
                f"plan width {plan.num_qubits} != state width "
                f"{self._num_qubits}"
            )
        plan.run_dense(self._amps, on_measure=self._on_measure)
        return self

    def _on_measure(self, step, amps: np.ndarray) -> None:
        """Collapse one qubit with a seed-deterministic outcome.

        The step collapses its physical bit and records the circuit
        qubit (they differ after a relabel).
        """
        qubit = step.targets[0]
        n0, ntotal = exact.partial_norms(amps, qubit, 0, self._num_qubits)
        outcome = exact.measure_outcome(
            self._measure_seed, self._measure_count, n0, ntotal
        )
        n_sel = n0 if outcome == 0 else ntotal - n0
        scale = exact.collapse_scale(n_sel, ntotal)
        exact.collapse_slice(amps, qubit, outcome, scale, 0, self._num_qubits)
        self.measure_outcomes.append((step.measured_qubit, outcome))
        self._measure_count += 1

    # -- measurement (delegates) --------------------------------------------

    def probabilities(self) -> np.ndarray:
        """Probability of each basis state."""
        return np.abs(self._amps) ** 2

    def probability_of(self, index: int) -> float:
        """Probability of one basis state."""
        return float(np.abs(self._amps[index]) ** 2)

    def sample_bitstrings(self, shots: int, seed: int = 0) -> np.ndarray:
        """Seed-deterministic samples via the exact cumulative search.

        Bit-identical to every distributed executor's
        ``sample_bitstrings`` for the same state and seed.
        """
        return exact.sample_exact([self._amps], shots, seed)

    def copy(self) -> "DenseStatevector":
        """Deep copy (preserving precision and measurement bookkeeping)."""
        out = DenseStatevector(
            self._num_qubits,
            self._amps,
            dtype=self.dtype,
            measure_seed=self._measure_seed,
        )
        out._measure_count = self._measure_count
        out.measure_outcomes = list(self.measure_outcomes)
        return out
