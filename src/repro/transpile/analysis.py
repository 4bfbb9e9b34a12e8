"""Analysis passes: qubit interaction and gate commutation.

Both passes are pure observers.  :class:`QubitInteractionAnalysis`
counts how often each qubit *pairs* (appears as a pairing target of a
non-diagonal gate) -- the quantity that decides whether keeping it in
the rank-index bits is free or expensive.  :class:`CommutationAnalysis`
builds the circuit's dependency DAG under a sound, conservative
commutation rule, which the reorder pass then list-schedules.

The commutation rule: two gates commute when every qubit they share is
*diagonal-acting* in both (the gate is diagonal, or the qubit is a
control).  Restricted to a shared computational-basis pattern, both
operators are then block scalars/operators on disjoint qubit sets, so
all blocks commute.  Gates sharing no qubits always commute.
"""

from __future__ import annotations

from repro.circuits.circuit import Circuit
from repro.gates import Gate
from repro.statevector.partition import Partition
from repro.transpile.basepass import AnalysisPass
from repro.transpile.property_set import PropertySet

__all__ = [
    "QubitInteractionAnalysis",
    "CommutationAnalysis",
    "gates_commute",
]


def _diagonal_on(gate: Gate, qubit: int) -> bool:
    """True when the gate acts diagonally on ``qubit``."""
    return qubit in gate.controls or gate.is_diagonal()


def gates_commute(a: Gate, b: Gate) -> bool:
    """Sound (conservative) commutation test; see module docstring."""
    qubits_a = set(a.targets) | set(a.controls)
    qubits_b = set(b.targets) | set(b.controls)
    shared = qubits_a & qubits_b
    return all(_diagonal_on(a, q) and _diagonal_on(b, q) for q in shared)


class QubitInteractionAnalysis(AnalysisPass):
    """Count pairing uses per qubit and per qubit pair.

    Writes ``pairing_counts`` (qubit -> number of gates pairing on it)
    and ``interaction_pairs`` (frozenset of two qubits -> number of
    gates pairing on both) into the property set.
    """

    name = "qubit_interaction"

    def analyse(
        self, circuit: Circuit, partition: Partition, properties: PropertySet
    ) -> None:
        counts: dict[int, int] = {}
        pairs: dict[frozenset, int] = {}
        for gate in circuit:
            pairing = gate.pairing_targets()
            for q in pairing:
                counts[q] = counts.get(q, 0) + 1
            if len(pairing) >= 2:
                for i, qa in enumerate(pairing):
                    for qb in pairing[i + 1 :]:
                        key = frozenset((qa, qb))
                        pairs[key] = pairs.get(key, 0) + 1
        properties["pairing_counts"] = counts
        properties["interaction_pairs"] = pairs


class CommutationAnalysis(AnalysisPass):
    """Build the dependency DAG under the conservative commutation rule.

    Writes ``commutation_dag``: a list where entry ``i`` is the set of
    earlier gate indices gate ``i`` must stay after (every ``j < i``
    that does not commute with it).  Transitively redundant edges are
    kept -- the reorder pass only needs *a* correct partial order.

    One sweep builds it.  Per qubit the pass keeps every earlier gate
    touching the qubit and, separately, those acting non-diagonally on
    it.  Gate ``i`` conflicts with ``j`` exactly when some shared qubit
    is non-diagonal in one of them, so its predecessors are the union
    over its qubits of the non-diagonal list (where ``i`` acts
    diagonally) or the full list (where it does not).  The cost is the
    total size of those lists; :func:`gates_commute` states the same
    rule pairwise.
    """

    name = "commutation"

    def analyse(
        self, circuit: Circuit, partition: Partition, properties: PropertySet
    ) -> None:
        touching: dict[int, list[int]] = {}
        mixing: dict[int, list[int]] = {}
        dag: list[set[int]] = []
        for i, gate in enumerate(circuit):
            diagonal = gate.is_diagonal()
            preds: set[int] = set()
            for q in gate.targets + gate.controls:
                on_q = touching.setdefault(q, [])
                mixing_q = mixing.setdefault(q, [])
                if diagonal or q in gate.controls:
                    preds.update(mixing_q)
                else:
                    preds.update(on_q)
                    mixing_q.append(i)
                on_q.append(i)
            dag.append(preds)
        properties["commutation_dag"] = dag
