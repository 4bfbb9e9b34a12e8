"""The paper's cache-blocking transpiler (section 2.2 + §4).

The paper hand-blocks the QFT (fig. 1b) and proposes "a cache-blocking
transpiler" as future work; :func:`cache_block` is that transpiler.  It
tracks a logical-to-physical qubit placement and rewrites an arbitrary
circuit so that every *pairing* operation (non-diagonal gate) acts on a
local physical wire:

* uncontrolled input SWAP gates are absorbed into the placement for
  free (pure relabelling -- no data motion at all);
* when a gate would pair on a distributed wire, a physical SWAP is
  inserted to pull the logical qubit into the local window, evicting the
  local qubit whose next pairing use lies furthest in the future (a
  Belady-style policy);
* diagonal gates and controls are never moved -- they are free wherever
  they live, which is the entire reason cache-blocking wins.

Applied to the paper's QFT, it reproduces fig. 1b's cost exactly: ``d``
distributed SWAPs and nothing else distributed (tests assert this).
The output does not restore the input layout; the residual permutation
is reported in the result, the common HPC practice of tracking bit
order classically.

:class:`CacheBlockingPass` runs the same function as the ``blocked``
strategy's one pipeline pass -- the middle rung of the strategy ladder
``naive`` < ``blocked`` < ``grouped``.
"""

from __future__ import annotations

from repro.circuits.circuit import Circuit
from repro.errors import TranspilerError
from repro.gates import Gate
from repro.statevector.partition import Partition
from repro.transpile.basepass import PassResult, TransformationPass
from repro.transpile.property_set import PropertySet

__all__ = ["CacheBlockingPass", "cache_block", "next_pairing_use"]


def next_pairing_use(circuit: Circuit) -> list[dict[int, int]]:
    """For each gate index, the next index each qubit pairs at.

    ``table[i][q]`` is the smallest ``j >= i`` with ``q`` a pairing
    target of gate ``j`` (absent when never used again).  Shared by the
    Belady eviction policies of :func:`cache_block` and the grouping
    pass.
    """
    table: list[dict[int, int]] = [dict() for _ in range(len(circuit) + 1)]
    nxt: dict[int, int] = {}
    for i in range(len(circuit) - 1, -1, -1):
        gate = circuit[i]
        for q in gate.pairing_targets():
            nxt = dict(nxt)
            nxt[q] = i
        table[i] = nxt
    table[len(circuit)] = {}
    return table


def cache_block(circuit: Circuit, local_qubits: int) -> PassResult:
    """Make every pairing gate of ``circuit`` local to ``local_qubits``.

    Returns the rewritten circuit, the logical-to-physical placement it
    ends in, and the counters ``swaps_inserted``/``swaps_absorbed``.
    """
    if local_qubits < 1:
        raise TranspilerError(f"local_qubits must be >= 1, got {local_qubits}")
    n = circuit.num_qubits
    m = local_qubits
    if m >= n:
        # Everything already local: nothing to do.
        return PassResult(
            circuit=Circuit(n, circuit.gates, name=circuit.name),
            output_permutation={q: q for q in range(n)},
            stats={"swaps_inserted": 0, "swaps_absorbed": 0},
        )

    next_use = next_pairing_use(circuit)
    logical_to_phys = {q: q for q in range(n)}
    phys_to_logical = {q: q for q in range(n)}
    out = Circuit(n, name=(circuit.name + "_cb") if circuit.name else "cb")
    swaps_inserted = 0
    swaps_absorbed = 0

    for index, gate in enumerate(circuit):
        if gate.is_swap() and not gate.controls:
            # Relabel the two logical qubits without emitting a gate.
            la, lb = gate.targets
            pa, pb = logical_to_phys[la], logical_to_phys[lb]
            logical_to_phys[la], logical_to_phys[lb] = pb, pa
            phys_to_logical[pa], phys_to_logical[pb] = lb, la
            swaps_absorbed += 1
            continue
        # Pull every distributed pairing target into the local window.
        for logical_target in gate.pairing_targets():
            phys = logical_to_phys[logical_target]
            if phys < m:
                continue
            victim = _choose_victim(
                gate, next_use[index], logical_to_phys, phys_to_logical, m,
                horizon=len(next_use) + 1,
            )
            # Emit SWAP(victim, phys) and update both placement maps.
            lv, lp = phys_to_logical[victim], phys_to_logical[phys]
            out.append(Gate.named("swap", (victim, phys)))
            logical_to_phys[lv], logical_to_phys[lp] = phys, victim
            phys_to_logical[victim], phys_to_logical[phys] = lp, lv
            swaps_inserted += 1
        out.append(gate.remapped(logical_to_phys))

    return PassResult(
        circuit=out,
        output_permutation=dict(logical_to_phys),
        stats={
            "swaps_inserted": swaps_inserted,
            "swaps_absorbed": swaps_absorbed,
        },
    )


def _choose_victim(
    gate: Gate,
    uses: dict[int, int],
    logical_to_phys: dict[int, int],
    phys_to_logical: dict[int, int],
    m: int,
    *,
    horizon: int,
) -> int:
    """Pick the local slot to evict: furthest next pairing use wins.

    Slots holding qubits this very gate touches are excluded.  A logical
    qubit that never pairs again is the ideal victim.
    """
    in_use = {logical_to_phys[q] for q in gate.targets + gate.controls}
    best_phys = None
    best_key = None
    for phys in range(m):
        if phys in in_use:
            continue
        key = (uses.get(phys_to_logical[phys], horizon), -phys)
        if best_key is None or key > best_key:
            best_key = key
            best_phys = phys
    if best_phys is None:
        raise TranspilerError(
            f"gate {gate} touches more qubits than the local window "
            f"holds ({m})"
        )
    return best_phys


class CacheBlockingPass(TransformationPass):
    """The ``blocked`` strategy: :func:`cache_block` for the partition."""

    name = "cache_blocking"

    def transform(
        self, circuit: Circuit, partition: Partition, properties: PropertySet
    ) -> PassResult:
        return cache_block(circuit, partition.local_qubits)
