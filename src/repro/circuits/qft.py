"""Quantum Fourier Transform circuits (paper section 2.3 and fig. 1).

Conventions
-----------
The paper's fig. 1a circuit (and QuEST's ``applyFullQFT``) processes the
*lowest* qubit first: block ``q`` applies ``H(q)`` followed by controlled
phases ``CP(pi / 2**(c - q))`` with controls ``c > q``, and the circuit
ends with the register-reversing SWAP layer.  Under QuEST's
qubit-0-least-significant amplitude indexing, this computes the QFT of
the **bit-reversed** register:

    ``qft_circuit(n) == R . QFT . R``  where ``R`` is qubit reversal,

equivalently ``QFT = R . qft_circuit(n) . R``.  The numerically
"textbook" variant (exactly ``sqrt(N) * ifft``) is
:func:`textbook_qft_circuit`; the two are related by relabelling every
qubit ``q -> n-1-q``.  For the paper's performance questions the fig. 1a
form is the relevant one: its *last* ``d`` Hadamards act on the top
(distributed) qubits, which is what cache-blocking eliminates.

Cache-blocked construction (fig. 1b)
------------------------------------
Writing the fig. 1a circuit as blocks ``C_0 ... C_{n-1}`` followed by the
swap layer ``S``, and using ``S X S = rho(X)`` for the qubit-reversal
``rho(q) = n-1-q``:

    ``S . C_{n-1} ... C_0  ==  rho(C_{n-1}) ... rho(C_k) . S . C_{k-1} ... C_0``

i.e. the swap layer can be moved to just after block ``k-1`` if every
later block is "vertically flipped" (all qubits relabelled through
``rho``).  Phase-one Hadamards then act on qubits ``0..k-1`` and
phase-two Hadamards on qubits ``n-1-k..0``; choosing
``n - m <= k <= m`` (with ``m`` local qubits) makes **every Hadamard
local**, leaving the distributed SWAPs as the only communication --
exactly half the distributed operations of the plain circuit.  The paper
used ``k = 30`` so no Hadamard lands on the NUMA-penalised top local
qubits either.
"""

from __future__ import annotations

import math

from repro.circuits.circuit import Circuit
from repro.errors import CircuitError
from repro.gates import Gate

__all__ = [
    "qft_circuit",
    "textbook_qft_circuit",
    "builtin_qft_circuit",
    "cache_blocked_qft_circuit",
    "default_swap_point",
    "inverse_qft_circuit",
]

#: Swap-insertion point used in the paper's profiled runs ("the swaps are
#: done after the 30th Hadamard gate"), chosen below the NUMA-penalised
#: local qubits of a 64 GiB partition.
PAPER_SWAP_POINT = 30


def _rotation_block(q: int, n: int, *, fused: bool) -> list[Gate]:
    """Fig. 1a block ``q``: H(q) then its controlled-phase ladder.

    With ``fused=True`` the ladder is a single fused diagonal gate,
    modelling QuEST's optimised phase application in ``applyFullQFT``.
    """
    gates: list[Gate] = [Gate.named("h", (q,))]
    ladder = [
        Gate.named("p", (q,), controls=(c,), params=(math.pi / 2 ** (c - q),))
        for c in range(q + 1, n)
    ]
    if fused and len(ladder) > 1:
        gates.append(Gate.fused(ladder))
    else:
        gates.extend(ladder)
    return gates


def _swap_layer(n: int) -> list[Gate]:
    """The register-reversing SWAP layer ``SWAP(q, n-1-q)``."""
    return [Gate.named("swap", (q, n - 1 - q)) for q in range(n // 2)]


def qft_circuit(n: int, *, swaps: bool = True) -> Circuit:
    """The paper's fig. 1a QFT on ``n`` qubits.

    ``swaps=False`` omits the final reversal layer (useful when the caller
    tracks bit order classically).
    """
    circuit = Circuit(n, name=f"qft{n}")
    for q in range(n):
        circuit.extend(_rotation_block(q, n, fused=False))
    if swaps:
        circuit.extend(_swap_layer(n))
    return circuit


def textbook_qft_circuit(n: int, *, swaps: bool = True) -> Circuit:
    """The QFT that equals ``sqrt(N) * ifft`` under qubit-0-LSB indexing.

    Identical to :func:`qft_circuit` with every qubit relabelled
    ``q -> n-1-q`` (the two conventions differ only in endianness).
    """
    circuit = Circuit(n, name=f"qft{n}_textbook")
    for q in reversed(range(n)):
        circuit.h(q)
        for c in reversed(range(q)):
            circuit.cp(math.pi / 2 ** (q - c), c, q)
    if swaps:
        circuit.extend(_swap_layer(n))
    return circuit


def builtin_qft_circuit(n: int, *, fused: bool = False) -> Circuit:
    """QuEST's built-in QFT: the paper's 'Built-in' baseline (Table 2).

    Structurally identical to :func:`qft_circuit`; the "more efficient"
    controlled phases of the paper are per-gate *diagonal* kernels (one
    masked sweep, no amplitude pairing, no communication) -- which is how
    the planner already prices every ``cp``.  Passing ``fused=True``
    additionally merges each block's phase ladder into a single sweep, an
    optimisation QuEST does *not* apply per the paper's measured local
    times; it is kept as an ablation (the ``ext-fusion`` experiment).
    """
    circuit = Circuit(n, name=f"qft{n}_builtin" + ("_fused" if fused else ""))
    for q in range(n):
        circuit.extend(_rotation_block(q, n, fused=fused))
    circuit.extend(_swap_layer(n))
    return circuit


def default_swap_point(n: int, local_qubits: int) -> int:
    """The swap-insertion point: the paper's 30 clamped into validity.

    Valid points are ``n - local_qubits <= k <= local_qubits``; the paper
    chose 30 to also dodge the NUMA-penalised top local qubits.
    """
    low, high = n - local_qubits, local_qubits
    if low > high:
        raise CircuitError(
            f"cache-blocking a {n}-qubit QFT needs at least {n - n // 2} "
            f"local qubits, got {local_qubits}"
        )
    return max(low, min(PAPER_SWAP_POINT, high))


def cache_blocked_qft_circuit(
    n: int,
    local_qubits: int,
    *,
    swap_point: int | None = None,
    fused: bool = False,
) -> Circuit:
    """The fig. 1b cache-blocked QFT (exactly equal to :func:`qft_circuit`).

    Parameters
    ----------
    n:
        Register width.
    local_qubits:
        Number of local qubits ``m`` of the partition the circuit will
        run on (``n - log2(ranks)``).  Every Hadamard in the result acts
        below ``m``; the distributed SWAPs are the only communication.
    swap_point:
        Block index ``k`` after which the swap layer is inserted.  Must
        satisfy ``n - m <= k <= m``; defaults to
        :func:`default_swap_point`.
    fused:
        Fuse each phase ladder into one diagonal sweep.  Off by default,
        matching the paper's 'Fast' configuration (which keeps QuEST's
        per-gate optimised phases); on, it is the fusion ablation.
    """
    if not 0 < local_qubits <= n:
        raise CircuitError(
            f"local_qubits must be in (0, {n}], got {local_qubits}"
        )
    k = default_swap_point(n, local_qubits) if swap_point is None else swap_point
    if not n - local_qubits <= k <= local_qubits:
        raise CircuitError(
            f"swap_point {k} outside valid range "
            f"[{n - local_qubits}, {local_qubits}] for n={n}"
        )
    reversal = {q: n - 1 - q for q in range(n)}
    circuit = Circuit(n, name=f"qft{n}_blocked")
    for q in range(k):
        circuit.extend(_rotation_block(q, n, fused=fused))
    circuit.extend(_swap_layer(n))
    for q in range(k, n):
        for gate in _rotation_block(q, n, fused=fused):
            circuit.append(gate.remapped(reversal))
    return circuit


def inverse_qft_circuit(n: int) -> Circuit:
    """The adjoint of :func:`qft_circuit` (used in QPE)."""
    inv = qft_circuit(n).inverse()
    inv.name = f"iqft{n}"
    return inv
