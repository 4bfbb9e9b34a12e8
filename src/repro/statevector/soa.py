"""Structure-of-arrays statevector: QuEST's actual memory layout.

QuEST stores amplitudes as two separate double arrays (``real[]`` and
``imag[]``); the paper's §4 suggests "reimplement[ing] QuEST's core
data-structures using a complex data type rather than separate real and
imaginary arrays, in order to improve data locality".

This module implements the separate-arrays layout with explicit real
arithmetic so the two layouts can be compared *by measurement* on the
same kernels (see the ``ext-layout`` experiment).  :class:`SoAStatevector` is numerically
exact and tested against :class:`~repro.statevector.dense.DenseStatevector`.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import Circuit
from repro.errors import SimulationError
from repro.gates import Gate
from repro.utils.bits import log2_exact

__all__ = ["SoAStatevector"]


class SoAStatevector:
    """A dense statevector held as separate real/imag float64 arrays."""

    def __init__(self, num_qubits: int, re: np.ndarray | None = None,
                 im: np.ndarray | None = None):
        if num_qubits < 1:
            raise SimulationError(f"num_qubits must be >= 1, got {num_qubits}")
        if num_qubits > 26:
            raise SimulationError(
                f"SoA simulator capped at 26 qubits ({num_qubits} requested)"
            )
        dim = 1 << num_qubits
        self._num_qubits = num_qubits
        if re is None:
            self.re = np.zeros(dim, dtype=np.float64)
            self.im = np.zeros(dim, dtype=np.float64)
            self.re[0] = 1.0
        else:
            if re.shape != (dim,) or im.shape != (dim,):
                raise SimulationError(
                    f"component arrays must have shape ({dim},)"
                )
            self.re = np.array(re, dtype=np.float64)
            self.im = np.array(im, dtype=np.float64)

    # -- constructors / conversion -----------------------------------------

    @classmethod
    def zero_state(cls, num_qubits: int) -> "SoAStatevector":
        """|0...0>."""
        return cls(num_qubits)

    @classmethod
    def from_amplitudes(cls, amplitudes: np.ndarray) -> "SoAStatevector":
        """Split a complex vector into its components."""
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        n = log2_exact(amplitudes.shape[0])
        return cls(n, amplitudes.real.copy(), amplitudes.imag.copy())

    def amplitudes(self) -> np.ndarray:
        """Recombine into a complex vector (copy)."""
        return self.re + 1j * self.im

    @property
    def num_qubits(self) -> int:
        """Register width."""
        return self._num_qubits

    def norm(self) -> float:
        """The state's 2-norm."""
        return float(np.sqrt(np.sum(self.re**2) + np.sum(self.im**2)))

    # -- kernels ------------------------------------------------------------

    def _views(self, target: int) -> tuple[np.ndarray, ...]:
        shape = (-1, 2, 1 << target)
        re = self.re.reshape(shape)
        im = self.im.reshape(shape)
        return re[:, 0, :], im[:, 0, :], re[:, 1, :], im[:, 1, :]

    def _apply_single(self, matrix: np.ndarray, target: int) -> None:
        """Generic 2x2 unitary, explicit real arithmetic (QuEST-style)."""
        ar, ai = matrix[0, 0].real, matrix[0, 0].imag
        br, bi = matrix[0, 1].real, matrix[0, 1].imag
        cr, ci = matrix[1, 0].real, matrix[1, 0].imag
        dr, di = matrix[1, 1].real, matrix[1, 1].imag
        re0, im0, re1, im1 = self._views(target)
        r0, i0 = re0.copy(), im0.copy()
        r1, i1 = re1.copy(), im1.copy()
        re0[...] = ar * r0 - ai * i0 + br * r1 - bi * i1
        im0[...] = ar * i0 + ai * r0 + br * i1 + bi * r1
        re1[...] = cr * r0 - ci * i0 + dr * r1 - di * i1
        im1[...] = cr * i0 + ci * r0 + dr * i1 + di * r1

    def _apply_diagonal_single(self, d0: complex, d1: complex, target: int) -> None:
        re0, im0, re1, im1 = self._views(target)
        if d0 != 1.0:
            r = re0.copy()
            re0[...] = d0.real * r - d0.imag * im0
            im0[...] = d0.real * im0 + d0.imag * r
        r = re1.copy()
        re1[...] = d1.real * r - d1.imag * im1
        im1[...] = d1.real * im1 + d1.imag * r

    def _controlled_indices(self, gate: Gate) -> np.ndarray:
        idx = np.arange(self.re.shape[0], dtype=np.int64)
        mask = np.ones(idx.shape, dtype=bool)
        for c in gate.controls:
            mask &= ((idx >> c) & 1).astype(bool)
        return idx[mask]

    def apply_gate(self, gate: Gate) -> "SoAStatevector":
        """Apply one gate in place."""
        if gate.max_qubit >= self._num_qubits:
            raise SimulationError(
                f"gate {gate} touches qubit {gate.max_qubit} of a "
                f"{self._num_qubits}-qubit state"
            )
        if not gate.controls and len(gate.targets) == 1:
            matrix = gate.matrix()
            if gate.is_diagonal():
                self._apply_diagonal_single(
                    complex(matrix[0, 0]), complex(matrix[1, 1]), gate.targets[0]
                )
            else:
                self._apply_single(matrix, gate.targets[0])
            return self
        if gate.is_swap() and not gate.controls:
            a, b = gate.targets
            idx = np.arange(self.re.shape[0], dtype=np.int64)
            move = (((idx >> a) & 1) == 0) & (((idx >> b) & 1) == 1)
            lo = idx[move]
            hi = lo ^ ((1 << a) | (1 << b))
            for comp in (self.re, self.im):
                tmp = comp[lo].copy()
                comp[lo] = comp[hi]
                comp[hi] = tmp
            return self
        # Controlled / multi-target fallback: act on the selected index
        # subset through the complex form of the local update.
        idx = self._controlled_indices(gate)
        if gate.is_diagonal():
            matrix = gate.matrix() if gate.name != "fused_diag" else None
            if gate.name == "fused_diag":
                diag = gate.diagonal_vector()
                sub = np.zeros(idx.shape, dtype=np.int64)
                for j, t in enumerate(gate.targets):
                    sub |= ((idx >> t) & 1) << j
                factors = diag[sub]
            else:
                diag = np.diag(matrix)
                sub = np.zeros(idx.shape, dtype=np.int64)
                for j, t in enumerate(gate.targets):
                    sub |= ((idx >> t) & 1) << j
                factors = diag[sub]
            r = self.re[idx].copy()
            self.re[idx] = factors.real * r - factors.imag * self.im[idx]
            self.im[idx] = factors.real * self.im[idx] + factors.imag * r
            return self
        if len(gate.targets) == 1:
            t = gate.targets[0]
            base = idx[((idx >> t) & 1) == 0]
            pair = base | (1 << t)
            m = gate.matrix()
            r0, i0 = self.re[base].copy(), self.im[base].copy()
            r1, i1 = self.re[pair].copy(), self.im[pair].copy()
            a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
            self.re[base] = a.real * r0 - a.imag * i0 + b.real * r1 - b.imag * i1
            self.im[base] = a.real * i0 + a.imag * r0 + b.real * i1 + b.imag * r1
            self.re[pair] = c.real * r0 - c.imag * i0 + d.real * r1 - d.imag * i1
            self.im[pair] = c.real * i0 + c.imag * r0 + d.real * i1 + d.imag * r1
            return self
        if gate.is_swap():
            a, b = gate.targets
            move = ((((idx >> a) & 1) == 0) & (((idx >> b) & 1) == 1))
            lo = idx[move]
            hi = lo ^ ((1 << a) | (1 << b))
            for comp in (self.re, self.im):
                tmp = comp[lo].copy()
                comp[lo] = comp[hi]
                comp[hi] = tmp
            return self
        raise SimulationError(f"SoA simulator does not support gate {gate}")

    def apply_circuit(self, circuit: Circuit) -> "SoAStatevector":
        """Apply every gate of ``circuit`` in order."""
        if circuit.num_qubits != self._num_qubits:
            raise SimulationError(
                f"circuit width {circuit.num_qubits} != state width "
                f"{self._num_qubits}"
            )
        for gate in circuit:
            self.apply_gate(gate)
        return self
